"""Jacobi elliptic functions for complex argument and complex modulus, and
the two operation tables every closed form of the package is written over.

Everything downstream (weight families, literature reductions, identity
suites) reduces to the triple (sn, cn, dn).  They are computed with the
descending Landen transformation: with ``k' = sqrt(1 - k^2)`` and
``k1 = (1 - k')/(1 + k')`` one has

    sn(z, k) = (1 + k1) s / (1 + k1 s^2)
    cn(z, k) = c d / (1 + k1 s^2)
    dn(z, k) = (1 - k1 s^2) / (1 + k1 s^2)

where (s, c, d) are the functions of modulus k1 at argument z/(1 + k1).
The ladder |k| -> |k1| ~ |k|^2/4 converges quadratically; once the squared
modulus m = k^2 is below ``_SMALL_M`` the first-order trigonometric series
closes the recursion at full double precision.  The ladder depends on the
modulus only (DLMF 22.7): each kernel call computes its rungs once and
applies them to every point of its argument.

Branch conventions: the principal square root is used at every rung, which
is single-valued because 1 - m stays off the negative real axis for every
supported modulus: |k| beyond ``_MODULUS_MAX`` is rejected, and a real m
above 1 lies within ``_NEAR_ONE`` of 1.  The functions depend on the
modulus only through m = k^2, so k and -k agree.

Degenerate moduli are exact: m = 0 gives (sin, cos, 1) and |m - 1| below
``_NEAR_ONE`` is routed to the hyperbolic forms (tanh, sech, sech) with a
first-order correction in 1 - m, exact at k = 1.

Operation tables
----------------
A closed form is a function ``form(o, ...)`` whose arithmetic is plain
``+ - * /`` and whose functions, magnitudes, pole checks and branches go
through ``o``.  ``SCALAR`` runs it on Python complex numbers and raises at
the first failing check.  ``Batch(n)`` runs it on ``Split`` columns of n
points at once and records instead, in ``Batch.bad``, every point at which
the scalar run would raise (a failed check, a cmath overflow or domain
error, an ``abs`` overflow, a non-finite weight vector).  The batch values
are bitwise the scalar ones:

- ``Split`` keeps real and imaginary parts as separate float columns and
  rounds like CPython 3.11 complex arithmetic: products without fused
  multiply-adds (numpy's SIMD complex multiply may fuse them), quotients by
  Smith's method as ``_Py_c_quot`` does (numpy's complex division scales
  by a reciprocal and differs in the last bit), and real operands promoted
  to (x, 0.0) first.
- sin, cos, sinh, cosh, exp and sqrt call numpy where it agrees with cmath
  bit for bit (moderate finite arguments, and for sqrt a nonzero real
  part); other elements, and every tan, are evaluated per element by
  cmath.
- ``abs`` is ``np.hypot``, which is Python's complex ``abs``.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import ModulusOutOfRange, PoleProximity

# Squared-modulus thresholds for the series / hyperbolic endpoints.
_SMALL_M = 1e-10
_NEAR_ONE = 5e-9
_MODULUS_MAX = 1.0 + 1e-9   # |k| cap, slightly padded for roundoff
_MAX_LADDER = 40

# |dn| (or |cn|) beyond this implies the argument is within ~1e-9 of a
# lattice pole, where all three functions have simple poles.
_POLE_MAGNITUDE = 1e9

# cd = cn/dn is rejected when |dn| is below this.
_CD_DENOM_TOL = 1e-12

# numpy's complex sin/cos/sinh/cosh/exp equal cmath's bit for bit where
# each part of the argument is 0 or of magnitude in [_TINY, _TRIG_TOP]
# (cmath rescales near overflow); sqrt where the real part is nonzero and
# each part is 0 or in [_TINY, _SQRT_TOP] (numpy's sqrt of an imaginary
# number differs from cmath's in the last bit)
_TINY = 1e-100
_TRIG_TOP = 700.0
_SQRT_TOP = 1e100


# -------------------- split arithmetic --------------------

def _parts(x):
    """(real, imag) of a Split or of a number promoted to complex."""
    if isinstance(x, Split):
        return x.re, x.im
    x = complex(x)
    return x.real, x.imag


class Split:
    """A complex column held as separate real and imaginary float arrays;
    every operation rounds as CPython's complex arithmetic does."""

    __slots__ = ("re", "im")
    __array_ufunc__ = None   # numpy scalars defer to the reflected methods

    def __init__(self, re, im):
        self.re, self.im = re, im

    @classmethod
    def of(cls, z: np.ndarray) -> "Split":
        return cls(z.real, z.imag)

    def complex(self) -> np.ndarray:
        z = np.empty(np.broadcast(self.re, self.im).shape, dtype=complex)
        z.real, z.imag = self.re, self.im
        return z

    def abs(self):
        """Python's complex abs of each element (``np.hypot``); a magnitude
        that overflows from finite parts is inf here."""
        return np.hypot(self.re, self.im)

    def __getitem__(self, i) -> "Split":
        return Split(self.re[i], self.im[i])

    def __add__(self, o):
        ore, oim = _parts(o)
        return Split(self.re + ore, self.im + oim)

    __radd__ = __add__

    def __sub__(self, o):
        ore, oim = _parts(o)
        return Split(self.re - ore, self.im - oim)

    def __rsub__(self, o):
        ore, oim = _parts(o)
        return Split(ore - self.re, oim - self.im)

    def __neg__(self):
        return Split(-self.re, -self.im)

    def __mul__(self, o):
        ore, oim = _parts(o)
        return Split(self.re*ore - self.im*oim, self.re*oim + self.im*ore)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return _quot(self.re, self.im, *_parts(o))

    def __rtruediv__(self, o):
        return _quot(*_parts(o), self.re, self.im)

    def __pow__(self, n: int):
        """CPython's ``c_powu`` for a positive integer exponent."""
        r, p, mask = Split(1.0, 0.0), self, 1
        while n >= mask:
            if n & mask:
                r = r * p
            mask <<= 1
            p = p * p
        return r


def _quot(ar, ai, br, bi) -> Split:
    """CPython's ``_Py_c_quot``: Smith's method, scaling by the larger part
    of the divisor.  A zero divisor gives NaN where CPython raises
    ZeroDivisionError; the NaN reaches the weights and fails their check."""
    return _quots(((ar, ai),), br, bi)[0]


def _quots(nums, br, bi) -> list[Split]:
    """``_quot`` of each (re, im) pair of ``nums`` by one divisor: its Smith
    ratio and denominator are formed once when every row takes the same
    branch, and a number divisor picks its branch with no array
    reduction."""
    if not (isinstance(br, np.ndarray) or isinstance(bi, np.ndarray)):
        return (_quots_by_re if abs(br) >= abs(bi) else _quots_by_im)(
            nums, br, bi)
    big = np.abs(br) >= np.abs(bi)
    if big.all():
        return _quots_by_re(nums, br, bi)
    if not big.any():
        return _quots_by_im(nums, br, bi)
    return [Split(np.where(big, x.re, y.re), np.where(big, x.im, y.im))
            for x, y in zip(_quots_by_re(nums, br, bi),
                            _quots_by_im(nums, br, bi))]


def _quots_by_re(nums, br, bi) -> list[Split]:
    ratio = bi / br
    denom = br + bi * ratio
    return [Split((ar + ai * ratio) / denom, (ai - ar * ratio) / denom)
            for ar, ai in nums]


def _quots_by_im(nums, br, bi) -> list[Split]:
    ratio = br / bi
    denom = br * ratio + bi
    return [Split((ar * ratio + ai) / denom, (ai * ratio - ar) / denom)
            for ar, ai in nums]


# -------------------- operation tables --------------------

class _ScalarOps:
    """Python complex numbers; a failing check raises at once."""

    lift = complex
    abs = abs
    sin, cos, tan = cmath.sin, cmath.cos, cmath.tan
    sinh, cosh, exp, sqrt = cmath.sinh, cmath.cosh, cmath.exp, cmath.sqrt

    @staticmethod
    def check(cond, exc, msg) -> None:
        """Raise ``exc(msg())`` if ``cond`` holds."""
        if cond:
            raise exc(msg())

    @staticmethod
    def nonfinite(x) -> bool:
        return not cmath.isfinite(x)

    @staticmethod
    def where(cond, a, b):
        """``a`` where ``cond`` holds, else ``b()``."""
        return a if cond else b()

    @staticmethod
    def sncndn(z, k):
        return jacobi_sncndn(z, k)

    @staticmethod
    def npsqrt(x):
        """numpy's complex sqrt of a scalar."""
        return complex(np.sqrt(complex(x)))

    @staticmethod
    def npdiv(x, y):
        """numpy's complex division, which the scalar path of regauge uses."""
        return np.complex128(x) / y

    @staticmethod
    def column(x):
        return x

    @staticmethod
    def columns(a: np.ndarray) -> list:
        return a.tolist()


SCALAR = _ScalarOps()


def _numpy_fn(npf, cmf, top=_TRIG_TOP, real_zero=True):
    """A Batch function: numpy where it equals cmath, cmath elsewhere
    (and where the real part is zero unless ``real_zero``)."""
    def fn(self, x):
        z = self.complex(x)
        r = npf(z)
        part = np.abs(z.view(float))   # |re|, |im| interleaved
        # the common case, every element plain, costs no per-element mask
        if (part.max(initial=0.0) <= top and np.isfinite(r).all()
                and (part.min(initial=_TINY) >= _TINY
                     or not ((part < _TINY) & (part != 0)).any())
                and (real_zero or z.real.all())):
            return Split.of(r)
        plain = (part <= top) & ((part >= _TINY) | (part == 0))
        if not real_zero:
            plain[0::2] &= part[0::2] != 0
        odd = ~(plain.reshape(-1, 2).all(axis=1) & np.isfinite(r))
        self._each(cmf, z, r, np.flatnonzero(odd))
        return Split.of(r)
    fn.__name__ = npf.__name__
    return fn


class Batch:
    """``Split`` columns of ``n`` points.  ``bad`` marks the points at which
    the scalar run raises; only failures of ``live`` points count, so the
    untaken side of a ``where`` cannot mark a point."""

    def __init__(self, n: int):
        self.n = n
        self.bad = np.zeros(n, dtype=bool)
        self.live = np.ones(n, dtype=bool)

    def _flag(self, cond) -> None:
        self.bad |= cond & self.live

    def lift(self, x) -> Split:
        """A Split column of n points from an array, a Split or a number."""
        if isinstance(x, Split):
            return x
        z = np.broadcast_to(np.asarray(x), (self.n,))
        return Split(z.real.copy(), z.imag.copy() if np.iscomplexobj(z)
                     else np.zeros(self.n))

    def complex(self, x) -> np.ndarray:
        """The n complex values of a number, an array or an n-point Split."""
        return self.lift(x).complex()

    def check(self, cond, exc, msg) -> None:
        self._flag(cond)

    def nonfinite(self, x):
        re, im = _parts(x)
        return ~(np.isfinite(re) & np.isfinite(im))

    def abs(self, x):
        """Python's complex abs, which raises OverflowError when the
        magnitude of a finite number overflows."""
        z = Split(*_parts(x))
        r = z.abs()
        if np.isinf(r).any():
            self._flag(np.isinf(r) & np.isfinite(z.re) & np.isfinite(z.im))
        return r

    def where(self, cond, a, b) -> Split:
        cond = np.asarray(cond)
        live = self.live
        self.live = live & ~cond
        try:
            vb = b()
        finally:
            self.live = live
        (are, aim), (bre, bim) = _parts(a), _parts(vb)
        return Split(np.where(cond, are, bre), np.where(cond, aim, bim))

    def _each(self, cmf, z, out, idx) -> None:
        """cmath per element at ``idx``; a raise marks the point."""
        values = z.tolist()
        failed = np.zeros(self.n, dtype=bool)
        for i in idx:
            try:
                out[i] = cmf(values[i])
            except (OverflowError, ValueError):
                out[i] = complex("nan")
                failed[i] = True
        self._flag(failed)

    sin = _numpy_fn(np.sin, cmath.sin)
    cos = _numpy_fn(np.cos, cmath.cos)
    sinh = _numpy_fn(np.sinh, cmath.sinh)
    cosh = _numpy_fn(np.cosh, cmath.cosh)
    exp = _numpy_fn(np.exp, cmath.exp)
    sqrt = _numpy_fn(np.sqrt, cmath.sqrt, _SQRT_TOP, real_zero=False)

    def tan(self, x) -> Split:
        """cmath.tan of every element; after the first raise, the
        per-element loop marks each point that raises."""
        z = self.complex(x)
        try:
            out = np.array(list(map(cmath.tan, z.tolist())), dtype=complex)
        except (OverflowError, ValueError):
            out = np.empty(self.n, dtype=complex)
            self._each(cmath.tan, z, out, range(self.n))
        return Split.of(out)

    def sncndn(self, z, k):
        return _sncndn(self, self.lift(z), k)

    def npsqrt(self, x) -> Split:
        return Split.of(np.sqrt(self.complex(x)))

    def npdiv(self, x, y) -> Split:
        return Split.of(self.complex(x) / self.complex(y))

    def column(self, x) -> np.ndarray:
        """The values as an (n, 1) complex array, to scale (n, 8) rows."""
        return self.complex(x)[:, None]

    def pack(self, values) -> np.ndarray:
        """The (n, 8) weight array of eight values, or the (n, 8) array
        itself; rows that are not finite are marked, as WeightVector
        refuses them."""
        W = values
        if not isinstance(W, np.ndarray):
            W = np.empty((self.n, 8), dtype=complex)
            for j, v in enumerate(values):
                W.real[:, j], W.imag[:, j] = _parts(v)
        self._flag(~np.isfinite(W).all(axis=1))
        return W

    def columns(self, W: np.ndarray) -> list[Split]:
        return [Split.of(c) for c in W.T]


# -------------------- the kernel --------------------

def jacobi_sncndn(z: complex, k: complex) -> tuple[complex, complex, complex]:
    """Return (sn, cn, dn) at argument ``z`` for modulus ``k``.

    Raises ModulusOutOfRange for |k| beyond the supported disc, and
    PoleProximity when the result indicates a lattice pole closer than
    ~1e-9.
    """
    return _sncndn(SCALAR, complex(z), k)


def _sncndn(o, z, k):
    """jacobi_sncndn over the operations ``o``."""
    k = complex(k)
    o.check(o.nonfinite(z) | (not cmath.isfinite(k)), ModulusOutOfRange,
            lambda: "argument and modulus must be finite")
    m = k * k
    if abs(k) > _MODULUS_MAX:
        raise ModulusOutOfRange(f"|k| = {abs(k):.10g} exceeds {_MODULUS_MAX}")

    if abs(m - 1.0) <= _NEAR_ONE:
        sn, cn, dn = _hyperbolic_correction(o, z, m)
    else:
        sn, cn, dn = _landen(o, z, m)

    o.check(o.nonfinite(sn) | o.nonfinite(cn) | o.nonfinite(dn),
            PoleProximity,
            lambda: f"pole of the elliptic functions at z = {z}")
    o.check((o.abs(cn) > _POLE_MAGNITUDE) | (o.abs(dn) > _POLE_MAGNITUDE),
            PoleProximity,
            lambda: f"z = {z} is within tolerance of a lattice pole")
    return sn, cn, dn


def jacobi_cd(z: complex, k: complex) -> complex:
    """cn(z)/dn(z); raises PoleProximity at zeros of dn."""
    sn, cn, dn = jacobi_sncndn(z, k)
    if abs(dn) < _CD_DENOM_TOL:
        raise PoleProximity(f"dn({z}) vanishes; cd has a pole here")
    return cn / dn


def elliptic_exp(z: complex, k: complex) -> complex:
    """The elliptic exponential cn(z) + i sn(z); reduces to exp(iz) at k=0."""
    sn, cn, _ = jacobi_sncndn(z, k)
    return cn + 1j * sn


def _ladder(m: complex):
    """The Landen rungs (k1, 1 + k1) of modulus m and the squared modulus
    left at the bottom."""
    rungs = []
    while abs(m) > _SMALL_M:
        kp = cmath.sqrt(1.0 - m)
        k1 = (1.0 - kp) / (1.0 + kp)
        rungs.append((k1, 1.0 + k1))
        m = k1 * k1
        if len(rungs) > _MAX_LADDER:
            raise ModulusOutOfRange("Landen ladder failed to converge")
    return tuple(rungs), m


def _landen(o, z, m):
    rungs, m = _ladder(m)
    for _, one_k1 in rungs:
        z = z / one_k1
    sn, cn, dn = _small_m_series(o, z, m)
    for k1, one_k1 in reversed(rungs):
        ks2 = k1 * (sn * sn)
        sn, cn, dn = _over(1.0 + ks2, one_k1 * sn, cn * dn, 1.0 - ks2)
    return sn, cn, dn


def _over(den, *nums):
    """Each of ``nums`` divided by ``den``; by a Split, with one set of
    Smith factors."""
    if isinstance(den, Split):
        return _quots([_parts(x) for x in nums], den.re, den.im)
    return [x / den for x in nums]


def _small_m_series(o, z, m):
    s = o.sin(z)
    c = o.cos(z)
    if m == 0.0:
        return s, c, 1.0 + 0j
    corr = 0.25 * m * (z - s * c)
    return s - corr * c, c + corr * s, 1.0 - 0.5 * m * s * s


def _hyperbolic_correction(o, z, m):
    sh = o.sinh(z)
    ch = o.cosh(z)
    o.check(o.abs(ch) > 1e150, PoleProximity,
            lambda: "hyperbolic overflow; argument too large at k ~ 1")
    t = sh / ch
    se = 1.0 / ch
    mp = 1.0 - m
    if mp == 0.0:
        return t, se, se
    w = sh * ch
    sn = t + 0.25 * mp * (w - z) * se * se
    cn = se - 0.25 * mp * (w - z) * t * se
    dn = se + 0.25 * mp * (w + z) * t * se
    return sn, cn, dn

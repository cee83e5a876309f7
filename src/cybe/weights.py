"""Eight-vertex weight vectors, their 4x4 matrix realization, and the
residual evaluators for the colored Yang-Baxter identity.

Matrix layout: with basis order (11, 12, 21, 22), the diagonal carries
(a1, a2, a3, a4), the center off-diagonal pair is a5 = R[1,2], a6 = R[2,1],
and the anti-corners are a7 = R[0,3], a8 = R[3,0].  All other entries are
structurally zero.

The matrix identity

    R12(u,xi,eta) R23(u+v,xi,lam) R12(v,eta,lam)
        = R23(v,eta,lam) R12(u+v,xi,lam) R23(u,xi,eta)

with R12 = R (x) E and R23 = E (x) R is, for this layout, equivalent to 28
scalar polynomial equations in the three weight vectors.  They are listed
in COMPONENT_IDS order below: a quartet of pure ratio relations (eq01-eq04)
followed by four sextets (eq05-eq28).  Under the gauge normalization
a2 = a3 = 1, a7 = a8 the quartet is identically zero and the last two
sextets duplicate the first two, leaving the 12 gauge equations.

Tensor index convention: row-major pairing, first factor is the slower
index, so (R (x) E)[(i,a),(j,b)] = R[i,j] * delta[a,b].

The 28 equations are exactly the nonzero entries of the 8x8 defect, so
every residual is computed from them: the max-abs defect ``matrix_norm`` is
the largest component magnitude.  ``ybe_residuals`` takes (B, 8) weight
arrays and works through them in chunks of ``_CHUNK`` rows, so that its
float arrays stay in cache at any B; the sampler's sweep reduces each
chunk to its row and column maxima as it goes (``_residual_maxima``), so
that no (B, 28) array is formed, and takes the scale from the weight
magnitudes that the sampler already has.  The 28 components are written once,
as a table of products (f1, f2, f3) of the 24 weight columns of U|W|V,
each taken as (f1*f2)*f3: the 60 distinct pair products f1*f2 of a chunk
are formed once, then four term steps on (28, B) float arrays add the
first left product, the second one (eq05..eq28), and subtract the two
right ones.  When every imaginary part of a block is zero and every
weight magnitude at most ``_WEIGHT_BOUND``, the steps run on the real
columns alone (``_real_components``): each cross term of a product is
then a zero, the bound rules out inf * 0, and the complex abs of (x, +-0)
is |x|, so the result is the complex kernel's bit for bit.  Any other
block takes the complex kernel, ``_components``, which forms each product
unfused (numpy's SIMD complex-array multiply may fuse multiply-adds and
then differs in the last bit), so every component rounds exactly as the
scalar complex arithmetic of the written equations does;
``component_residuals`` is its one-row case.  ``unitarity_defects`` writes
out the 8 nonzero entries of R(u) R(-u) - (1 - a5 a6) E once
(``_unitarity_entries``) and evaluates them on the real float columns
when every weight is real and at most ``_WEIGHT_BOUND``, for the reasons
above, else on ``numkernel.Split`` columns; only the magnitude step
differs (``np.abs`` against ``np.hypot``).  ``unitarity_defect`` is its
one-row case.
Neither path multiplies matrices, so no value depends on the BLAS build.
The kron form ``ybe_defect`` is the public matrix form of the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotGauge
from .numkernel import Split

GAUGE_TOL = 1e-10

#: rows of one kernel call: its (28, B) and (60, B) float arrays stay in
#: cache, and below the 128 KiB at which malloc maps fresh pages
_CHUNK = 128

#: largest weight magnitude of the real kernel and of a sampler's
#: max_weight: every residual component and defect entry is a sum of at
#: most 4 products of three weights, so |a| <= 1e100 keeps it below 4e300
_WEIGHT_BOUND = 1e100

_E2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class WeightVector:
    """The eight vertex weights at one evaluation point."""

    a: np.ndarray  # shape (8,), complex128, order a1..a8

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=complex)
        if arr.shape != (8,):
            raise ValueError("weight vector needs exactly eight components")
        if not np.isfinite(arr).all():
            raise ValueError("weight vector has non-finite components")
        object.__setattr__(self, "a", arr)

    @classmethod
    def of(cls, a1, a2, a3, a4, a5, a6, a7, a8) -> "WeightVector":
        return cls(np.array([a1, a2, a3, a4, a5, a6, a7, a8], dtype=complex))

    def __getitem__(self, i: int) -> complex:
        return complex(self.a[i])

    a1 = property(lambda self: complex(self.a[0]))
    a2 = property(lambda self: complex(self.a[1]))
    a3 = property(lambda self: complex(self.a[2]))
    a4 = property(lambda self: complex(self.a[3]))
    a5 = property(lambda self: complex(self.a[4]))
    a6 = property(lambda self: complex(self.a[5]))
    a7 = property(lambda self: complex(self.a[6]))
    a8 = property(lambda self: complex(self.a[7]))

    def scale(self) -> float:
        return float(np.abs(self.a).max())

    def is_gauge(self, tol: float = GAUGE_TOL) -> bool:
        return bool(_gauge_rows(self.a[None], tol)[0])


def _gauge_rows(A: np.ndarray, tol: float = GAUGE_TOL) -> np.ndarray:
    """Whether each row of the (B, 8) array A has a2 = a3 = 1, a7 = a8
    within tol.  np.hypot is Python's complex abs bit for bit (np.abs of a
    complex array is not)."""
    def mag(z):
        return np.hypot(z.real, z.imag)
    return ((mag(A[:, 1] - 1) <= tol) & (mag(A[:, 2] - 1) <= tol)
            & (mag(A[:, 6] - A[:, 7]) <= tol))


#: (row, col) of a1..a8 in the 4x4 matrix
_POS = ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (0, 3), (3, 0))
_ROWS, _COLS = np.array(_POS).T


def to_matrix(w: WeightVector) -> np.ndarray:
    """Realize the weight vector as its 4x4 matrix."""
    R = np.zeros((4, 4), dtype=complex)
    R[_ROWS, _COLS] = w.a
    return R


def matrix_weights(R: np.ndarray) -> WeightVector:
    """Inverse of to_matrix: read the eight designated entries."""
    return WeightVector(np.asarray(R, dtype=complex)[_ROWS, _COLS])


def tensor_embed(R: np.ndarray, slot: int) -> np.ndarray:
    """Embed a 4x4 matrix into the 8-dimensional triple product space.

    slot 12 acts on the first two factors (R (x) E), slot 23 on the last
    two (E (x) R).
    """
    if slot == 12:
        return np.kron(R, _E2)
    if slot == 23:
        return np.kron(_E2, R)
    raise ValueError("slot must be 12 or 23")


COMPONENT_IDS = tuple(f"eq{i:02d}" for i in range(1, 29))

#: ids of the components that survive as the 12 gauge equations
GAUGE_COMPONENT_IDS = COMPONENT_IDS[4:16]


def _term_plan():
    """The pair columns (f1, f2) of the 60 distinct pair products of the 28
    equations, and the four term steps (pair, f3), each product taken as
    (f1*f2)*f3, for the gathered columns U|W|V of ``_components``.  Steps
    1 and 3 give each equation its first left and right product, steps 2
    and 4 the second ones of eq05..eq28."""
    u1, u2, u3, u4, u5, u6, u7, u8 = range(0, 8)
    w1, w2, w3, w4, w5, w6, w7, w8 = range(8, 16)
    v1, v2, v3, v4, v5, v6, v7, v8 = range(16, 24)
    # eq = sum(lhs) - sum(rhs)
    equations = (
        ([(u7, w3, v8)], [(u8, w2, v7)]),
        ([(u7, w8, v3)], [(u8, w7, v2)]),
        ([(u2, w3, v2)], [(u3, w2, v3)]),
        ([(u2, w8, v7)], [(u3, w7, v8)]),

        ([(u1, w5, v2), (u7, w8, v6)], [(v2, w1, u5), (v5, w2, u3)]),
        ([(u1, w1, v7), (u7, w3, v4)], [(v7, w5, u5), (v1, w7, u3)]),
        ([(u2, w6, v1), (u5, w7, v8)], [(v6, w1, u2), (v3, w2, u6)]),
        ([(u1, w2, v1), (u7, w4, v8)], [(v2, w1, u2), (v5, w2, u6)]),
        ([(u1, w7, v5), (u7, w6, v3)], [(v7, w5, u2), (v1, w7, u6)]),
        ([(u1, w7, v2), (u7, w6, v6)], [(v1, w1, u7), (v7, w2, u4)]),

        ([(u4, w6, v2), (u7, w8, v5)], [(v2, w4, u6), (v6, w2, u3)]),
        ([(u4, w4, v7), (u7, w3, v1)], [(v7, w6, u6), (v4, w7, u3)]),
        ([(u2, w5, v4), (u6, w7, v8)], [(v5, w4, u2), (v3, w2, u5)]),
        ([(u4, w2, v4), (u7, w1, v8)], [(v2, w4, u2), (v6, w2, u5)]),
        ([(u4, w7, v6), (u7, w5, v3)], [(v7, w6, u2), (v4, w7, u5)]),
        ([(u4, w7, v2), (u7, w5, v5)], [(v4, w4, u7), (v7, w2, u1)]),

        ([(u1, w5, v3), (u8, w7, v6)], [(v3, w1, u5), (v5, w3, u2)]),
        ([(u1, w1, v8), (u8, w2, v4)], [(v8, w5, u5), (v1, w8, u2)]),
        ([(u3, w6, v1), (u5, w8, v7)], [(v6, w1, u3), (v2, w3, u6)]),
        ([(u1, w3, v1), (u8, w4, v7)], [(v3, w1, u3), (v5, w3, u6)]),
        ([(u1, w8, v5), (u8, w6, v2)], [(v8, w5, u3), (v1, w8, u6)]),
        ([(u1, w8, v3), (u8, w6, v6)], [(v1, w1, u8), (v8, w3, u4)]),

        ([(u4, w6, v3), (u8, w7, v5)], [(v3, w4, u6), (v6, w3, u2)]),
        ([(u4, w4, v8), (u8, w2, v1)], [(v8, w6, u6), (v4, w8, u2)]),
        ([(u3, w5, v4), (u6, w8, v7)], [(v5, w4, u3), (v2, w3, u5)]),
        ([(u4, w3, v4), (u8, w1, v7)], [(v3, w4, u3), (v6, w3, u5)]),
        ([(u4, w8, v6), (u8, w5, v2)], [(v8, w6, u3), (v4, w8, u5)]),
        ([(u4, w8, v3), (u8, w5, v5)], [(v4, w4, u8), (v8, w3, u1)]),
    )
    steps = ([lhs[0] for lhs, _ in equations],
             [lhs[1] for lhs, _ in equations[4:]],
             [rhs[0] for _, rhs in equations],
             [rhs[1] for _, rhs in equations[4:]])
    pairs = sorted({t[:2] for step in steps for t in step})
    slot = {p: i for i, p in enumerate(pairs)}
    return np.array(pairs).T, tuple(
        (np.array([slot[t[:2]] for t in step]), np.array([t[2] for t in step]))
        for step in steps)


(_PAIR_1, _PAIR_2), _STEPS = _term_plan()


def _signed_sum(terms):
    """(t1 + t2) - t3 - t4 of the four term steps' (28, B) products, taken
    from the iterator ``terms`` one at a time and summed in place into t1;
    t2 and t4 hold eq05..eq28 only."""
    acc = next(terms)
    acc[4:] += next(terms)
    acc -= next(terms)
    acc[4:] -= next(terms)
    return acc


def _components(U: np.ndarray, W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The 28 equations, (B, 28) complex, of B triples given as (B, 8)
    weight arrays.

    The real and imaginary columns of U|W|V are gathered once; each pair
    product and each term step is formed on float arrays, unfused (re =
    ar*br - ai*bi, im = ar*bi + ai*br) as CPython's complex product rounds,
    and the terms are summed left to right.
    """
    cols = np.concatenate((U, W, V), axis=1).T
    re, im = cols.real.copy(), cols.imag.copy()
    pr = re[_PAIR_1] * re[_PAIR_2]
    pr -= im[_PAIR_1] * im[_PAIR_2]
    pi = re[_PAIR_1] * im[_PAIR_2]
    pi += im[_PAIR_1] * re[_PAIR_2]
    out = np.empty((len(U), len(COMPONENT_IDS)), dtype=complex)
    out.real = _signed_sum(pr[q]*re[f3] - pi[q]*im[f3] for q, f3 in _STEPS).T
    out.imag = _signed_sum(pr[q]*im[f3] + pi[q]*re[f3] for q, f3 in _STEPS).T
    return out


def _real_components(re: np.ndarray) -> np.ndarray:
    """The 28 equations, (28, B) float, of the real columns re (24, B) of
    U|W|V: ``_components`` with every imaginary part zero."""
    pair = re[_PAIR_1] * re[_PAIR_2]
    return _signed_sum(pair[q] * re[f3] for q, f3 in _STEPS)


def component_residuals(wu: WeightVector, ww: WeightVector,
                        wv: WeightVector) -> np.ndarray:
    """The 28 scalar equations; zero exactly when the matrix identity holds.

    Argument pattern: wu at (u,xi,eta), ww at (u+v,xi,lam), wv at (v,eta,lam).
    The one-row case of ``_components``.
    """
    return _components(wu.a[None], ww.a[None], wv.a[None])[0]


@dataclass(frozen=True)
class ResidualReport:
    """Defect norms of the matrix identity for one argument triple.

    matrix_norm, the max-abs entry of the matrix defect, is the largest of
    the 28 equations, raw like them.  ``relative`` divides by
    the product of the three per-matrix max entry magnitudes, which is
    exactly invariant under the scaling symmetry (each side of the identity
    is trilinear in the three weight vectors).
    """

    matrix_norm: float
    component_norms: dict[str, float]
    scale: float

    @property
    def relative(self) -> float:
        return self.matrix_norm / self.scale


def ybe_defect(wu: WeightVector, ww: WeightVector, wv: WeightVector) -> np.ndarray:
    """The 8x8 defect LHS - RHS of the matrix identity, in kron form."""
    Ru = to_matrix(wu)
    Rw = to_matrix(ww)
    Rv = to_matrix(wv)
    lhs = tensor_embed(Ru, 12) @ tensor_embed(Rw, 23) @ tensor_embed(Rv, 12)
    rhs = tensor_embed(Rv, 23) @ tensor_embed(Rw, 12) @ tensor_embed(Ru, 23)
    return lhs - rhs


def ybe_residual(wu: WeightVector, ww: WeightVector,
                 wv: WeightVector) -> ResidualReport:
    """Full defect report; caller supplies the (u,xi,eta)/(u+v,xi,lam)/
    (v,eta,lam) argument pattern.  The one-row case of ``ybe_residuals``."""
    comp, scale = ybe_residuals(wu.a[None], ww.a[None], wv.a[None])
    return ResidualReport(
        matrix_norm=float(comp[0].max()),
        component_norms=dict(zip(COMPONENT_IDS, comp[0].tolist())),
        scale=float(scale[0]),
    )


def ybe_residuals(U: np.ndarray, W: np.ndarray, V: np.ndarray):
    """The ``ybe_residual`` fields of B triples at once, from (B, 8) weight
    arrays with the same argument pattern as rows: the |components|
    (B, 28), which are bitwise ``component_residuals`` and whose row
    maximum is matrix_norm, and scale (B,).

    When every imaginary part is zero and every weight magnitude at most
    ``_WEIGHT_BOUND``, the components are formed in float arithmetic
    (``_real_components``); any other block takes the complex kernel.
    """
    mags = [np.abs(A).max(axis=1) for A in (U, W, V)]
    comp = np.empty((len(U), len(COMPONENT_IDS)))
    for rows, part in _component_chunks(U, W, V, mags):
        comp[rows] = part
    return comp, _scale(mags)


def _residual_maxima(U: np.ndarray, W: np.ndarray, V: np.ndarray, mags):
    """``ybe_residuals`` reduced chunk by chunk, given the largest weight
    magnitude of each row of U, W and V as ``mags``: matrix_norm (B,), the
    column ``np.fmax`` of the components (28,) and scale (B,).  No (B, 28)
    array is formed; a max does not depend on the order of its terms, so
    every value is bitwise that of ``ybe_residuals``."""
    norm = np.empty(len(U))
    top = None
    for rows, part in _component_chunks(U, W, V, mags):
        norm[rows] = part.max(axis=1)
        part = np.fmax.reduce(part, axis=0)
        top = part if top is None else np.fmax(top, part)
    return norm, top, _scale(mags)


def _component_chunks(U, W, V, mags):
    """Yield (rows, |components|) for each chunk of ``_CHUNK`` rows: a
    slice and a (c, 28) float array, from the real kernel when every
    imaginary part is zero and every magnitude in ``mags`` is at most
    ``_WEIGHT_BOUND``, else from the complex kernel."""
    real = (not any(A.imag.any() for A in (U, W, V))
            and all((m <= _WEIGHT_BOUND).all() for m in mags))
    for i in range(0, len(U), _CHUNK):
        rows = slice(i, i + _CHUNK)
        if real:
            part = _real_components(
                np.concatenate([A[rows].real.T for A in (U, W, V)]))
            yield rows, np.abs(part, out=part).T
        else:
            # np.abs of a complex array, as in the scalar path: np.hypot on
            # the float parts rounds differently
            yield rows, np.abs(_components(U[rows], W[rows], V[rows]))


def _scale(mags) -> np.ndarray:
    """The product of the three rows' largest weight magnitudes, each at
    least 1e-300."""
    su, sw, sv = (np.maximum(m, 1e-300) for m in mags)
    return su * sw * sv


def _require_gauge(w: WeightVector, where: str) -> None:
    if not w.is_gauge():
        raise NotGauge(f"{where}: weights are not gauge-normalized "
                       f"(|a2-1|={abs(w.a2-1):.2e}, |a3-1|={abs(w.a3-1):.2e}, "
                       f"|a7-a8|={abs(w.a7-w.a8):.2e})")


def gauge_equation_residuals(wu: WeightVector, ww: WeightVector,
                             wv: WeightVector) -> np.ndarray:
    """The 12 gauge equations (six displayed plus their index-swapped
    counterparts), equal to minus the eq05..eq16 components on gauge input."""
    u1, _, _, u4, u5, u6, u7, _ = wu.a
    w1, _, _, w4, w5, w6, w7, _ = ww.a
    v1, _, _, v4, v5, v6, v7, _ = wv.a
    return np.array([
        v5 + u5*w1 - u1*w5 - u7*w7*v6,
        w7*v1 + u5*w5*v7 - u1*w1*v7 - u7*v4,
        u6 + w1*v6 - w6*v1 - u5*w7*v7,
        u6*v5 + w1 - u1*v1 - u7*w4*v7,
        u6*w7*v1 + w5*v7 - u1*w7*v5 - u7*w6,
        u7*w1*v1 + u4*v7 - u1*w7 - u7*w6*v6,

        v6 + u6*w4 - u4*w6 - u7*w7*v5,
        w7*v4 + u6*w6*v7 - u4*w4*v7 - u7*v1,
        u5 + w4*v5 - w5*v4 - u6*w7*v7,
        u5*v6 + w4 - u4*v4 - u7*w1*v7,
        u5*w7*v4 + w6*v7 - u4*w7*v6 - u7*w5,
        u7*w4*v4 + u1*v7 - u4*w7 - u7*w5*v5,
    ])


def gauge_ybe_residual(evaluate, u, v, xi, eta, lam) -> float:
    """Max-abs residual of the 12 gauge equations for a gauge family.

    ``evaluate(u, xi, eta) -> WeightVector``.  Raises NotGauge when the
    sampled weights violate the gauge normalization.
    """
    wu = evaluate(u, xi, eta)
    ww = evaluate(u + v, xi, lam)
    wv = evaluate(v, eta, lam)
    for w in (wu, ww, wv):
        _require_gauge(w, "gauge_ybe_residual")
    return float(np.abs(gauge_equation_residuals(wu, ww, wv)).max())


def unitarity_residual(evaluate, u, xi, eta) -> float:
    """Max-abs entry of R(u,xi,eta) R(-u,eta,xi) - (1 - a5 a6) E."""
    return unitarity_defect(evaluate(u, xi, eta), evaluate(-u, eta, xi))


def unitarity_defect(w: WeightVector, wr: WeightVector) -> float:
    """``unitarity_residual`` from the weights w at (u,xi,eta) and wr at
    (-u,eta,xi); the one-row case of ``unitarity_defects``."""
    return float(unitarity_defects(w.a[None], wr.a[None])[0])


def unitarity_defects(W: np.ndarray, Wr: np.ndarray) -> np.ndarray:
    """``unitarity_defect`` of each row pair of the (B, 8) weight arrays W
    at (u,xi,eta) and Wr at (-u,eta,xi).

    Raises NotGauge, with the message of the per-point check, at the first
    row pair that is not gauge-normalized.  When every imaginary part is
    zero and every weight magnitude at most ``_WEIGHT_BOUND``, the entries
    are formed on the real float columns; any other block takes
    ``numkernel.Split`` columns.
    """
    ok = _gauge_rows(W) & _gauge_rows(Wr)
    if not ok.all():
        first = int(np.argmin(ok))
        for A in (W, Wr):
            _require_gauge(WeightVector(A[first]), "unitarity_residual")
    if (not (W.imag.any() or Wr.imag.any())
            and (np.abs(W.real) <= _WEIGHT_BOUND).all()
            and (np.abs(Wr.real) <= _WEIGHT_BOUND).all()):
        # every weight is finite, so each cross term of a product is a
        # zero, no product of two weights overflows, and the complex abs
        # of (x, +-0) is |x|: the Split result bit for bit
        return np.max([np.abs(e) for e in _unitarity_entries(
            W.real.T, Wr.real.T)], axis=0)
    entries = _unitarity_entries([Split.of(col) for col in W.T],
                                 [Split.of(col) for col in Wr.T])
    # np.hypot is Python's complex abs bit for bit
    return np.max([np.hypot(e.re, e.im) for e in entries], axis=0)


def _unitarity_entries(a, b):
    """The 8 entries of R(u) R(-u) - (1 - a5 a6) E that are not
    structurally zero, from the columns a1..a8 of R(u) and b1..b8 of R(-u):
    float arrays or ``Split`` columns."""
    a1, a2, a3, a4, a5, a6, a7, a8 = a
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    c = 1 - a5*a6
    # R is two 2x2 blocks, [[a1, a7], [a8, a4]] on (11, 22) and
    # [[a2, a5], [a6, a3]] on (12, 21)
    return (a1*b1 + a7*b8 - c, a1*b7 + a7*b4,
            a8*b1 + a4*b8, a8*b7 + a4*b4 - c,
            a2*b2 + a5*b6 - c, a2*b5 + a5*b3,
            a6*b2 + a3*b6, a6*b5 + a3*b3 - c)


def vanishing_weights(mags) -> str:
    """The weights, as "a2, a7", whose largest sampled magnitude ``mags[i]``
    is below 1e-12 of the largest of all: they vanish identically."""
    top = max(mags.max(), 1e-300)
    return ", ".join(f"a{i+1}" for i in range(8) if mags[i] < 1e-12 * top)


def free_fermion_residual(w) -> complex:
    """a1 a4 + a5 a6 - 1 - a7^2 (gauge form of the free-fermion condition)
    of a WeightVector, or per point of the eight ``Split`` columns w of a
    weight array, with the same rounding."""
    return w[0] * w[3] + w[4] * w[5] - 1 - w[6] ** 2


def baxter_curve_residual(w, alpha: complex, beta: complex,
                          gamma: complex) -> complex:
    """Biquadratic curve in (a1, a5) for the branch with a1=a4, a5=a6, of
    weights w as in ``free_fermion_residual``."""
    x, y = w[0], w[4]
    return (alpha**2 * x**2 * y**2 - beta**2 * y**2 - beta**2 * x**2
            + 2 * beta * gamma * x * y + beta**2)

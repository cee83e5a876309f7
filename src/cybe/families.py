"""Closed-form weight families: every solution class plus the two trivial
solutions, with parameter validation and the two literature reductions.

Family ids
----------
BAXTER_ELLIPTIC / BAXTER_TRIG
    a1 = a4, a5 = a6 built from sn (resp. tan) ratios at argument
    w = lam*u + F(xi) - F(eta), with a shift mu and modulus k.
FF_ELLIPTIC / FF_TANH
    a1, a4 = A cd +- B sn;  a5, a6 = C sn +- D cd;  a7 = s7 k sn cd, with
    A..D square-root combinations of color profiles G, H constrained by
    G^2 - H^2 = 1.  FF_TANH is the k = 1 degeneration (cd -> 1, sn -> tanh).
FF_TRIG
    the degenerate free-fermion branch with a7 = s7 tan(w) and a single
    positive color profile G.
FF_HYPERBOLIC
    a1 = a4 = cosh(wF)/cos(wG), a5 = -a6 = s5 sinh(wF)/cos(wG),
    a7 = s7 tan(wG) with two rates lam, mu and profiles F, G.
TRIVIAL_A
    (H, 1, 1, H, H, H, 1, 1) for an arbitrary spectral profile H(u,xi,eta).
TRIVIAL_B
    (E, 1, 1, E, E, -E, i, i) with E = F(xi)/F(eta) exp(u).

Square-root branches: the coefficients A..D use principal square roots.
B and D each carry a sign unit -- t/sqrt(t^2) for t = H(xi)G(eta)+G(xi)H(eta)
(resp. minus) -- which makes the products analytic across sign changes of
the radicand; radicands that vanish identically on the color diagonal are
clamped to exactly zero inside a roundoff window so gauge families meet the
identity initial value bit-exactly at u = 0, eta = xi.  The chosen branch
combination is validated by the residual suite, not asserted a priori.

Constraints: a family's builder alone decides whether a spec can be built
and raises InvalidSpec if not; ``validate_spec`` runs that build and adds
only the profile constraints sampled on the color domain and the elliptic
Baxter degeneracy warning.  Fields a family does not read are ignored.

Evaluation: each family is one closed form ``form(o, u, xi, eta)`` over an
operation table of ``numkernel``, and ``from_form`` builds its evaluators.
The same builder writes the family's first-order coefficients
m_i = d/du a_i at u = 0, eta = xi as a second form ``coeffs(o, xi)``, which
``WeightFamily.analytic_coeffs`` runs; the trivial families have none.
``WeightFamily.eval`` runs it on Python complex numbers (``SCALAR``) and
raises at a pole; ``eval_array`` runs it on split real/imaginary columns of
n points (``Batch``) and returns the (n, 8) weights with the mask of the
points at which ``eval`` succeeds, bitwise equal where it does; a family
built with only a scalar evaluator is evaluated point by point.  An
evaluation that overflows or gives a non-finite weight counts as a pole.
"""

from __future__ import annotations

import cmath
import contextlib
import enum
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import CybeError, InvalidSpec, ModulusOutOfRange, PoleProximity
from .numkernel import SCALAR, Batch, elliptic_exp, jacobi_sncndn
from .profiles import ColorProfile, SpectralProfile, _check_keys, _cjson, _cval
from .weights import WeightVector

_DENOM_TOL = 1e-9     # |cos|, |sn|, ... below this counts as a pole
_CLAMP = 1e-13        # radicand roundoff window (relative)


class FamilyId(str, enum.Enum):
    BAXTER_ELLIPTIC = "baxter_elliptic"
    BAXTER_TRIG = "baxter_trig"
    FF_ELLIPTIC = "ff_elliptic"
    FF_TANH = "ff_tanh"
    FF_TRIG = "ff_trig"
    FF_HYPERBOLIC = "ff_hyperbolic"
    TRIVIAL_A = "trivial_a"
    TRIVIAL_B = "trivial_b"


#: families satisfying the gauge normalization a2 = a3 = 1, a7 = a8
GAUGE_FAMILIES = frozenset({
    FamilyId.BAXTER_ELLIPTIC, FamilyId.BAXTER_TRIG, FamilyId.FF_ELLIPTIC,
    FamilyId.FF_TANH, FamilyId.FF_TRIG, FamilyId.FF_HYPERBOLIC,
})

#: designated verdicts, used by the classification acceptance checks
FAMILY_CLASS = {
    FamilyId.BAXTER_ELLIPTIC: "BAXTER",
    FamilyId.BAXTER_TRIG: "BAXTER",
    FamilyId.FF_ELLIPTIC: "FREE_FERMION",
    FamilyId.FF_TANH: "FREE_FERMION",
    FamilyId.FF_TRIG: "FREE_FERMION",
    FamilyId.FF_HYPERBOLIC: "FREE_FERMION",
    FamilyId.TRIVIAL_A: "TRIVIAL_A",
    FamilyId.TRIVIAL_B: "TRIVIAL_B",
}

_ZERO = ColorProfile("constant", (0,))


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of one closed-form family; the fields a family does not
    read are ignored."""

    family: FamilyId
    k: complex = 0.5
    lam: complex = 1.0
    mu: complex = 0.5
    s5: int = 1
    s7: int = 1
    delta: int = 1
    F: ColorProfile = _ZERO
    G: ColorProfile | None = None
    H: ColorProfile | None = None
    spectral: SpectralProfile | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", FamilyId(self.family))
        object.__setattr__(self, "k", complex(self.k))
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "mu", complex(self.mu))
        for flag in ("s5", "s7", "delta"):
            v = getattr(self, flag)
            if isinstance(v, bool) or v not in (1, -1):
                raise InvalidSpec(f"{flag} must be +1 or -1, got {v!r}")

    @property
    def is_gauge(self) -> bool:
        return self.family in GAUGE_FAMILIES

    @property
    def ff_modulus(self) -> complex:
        """Modulus of the elliptic free-fermion forms: FF_TANH is
        FF_ELLIPTIC at k = 1."""
        return self.k if self.family is FamilyId.FF_ELLIPTIC else 1.0


@dataclass(frozen=True)
class WeightFamily:
    """A family spec together with its evaluators: ``evaluate(u, xi, eta)``
    returns a WeightVector, and ``batch(o, u, xi, eta)``, when present,
    returns the (n, 8) weight array of n points for a ``numkernel.Batch``
    ``o``, marking in ``o.bad`` the points at which ``evaluate`` raises.
    ``eval_array`` works with or without ``batch``.  ``coeffs(o, xi)``, when
    present, gives the closed-form coefficients m1..m8 at color xi."""

    spec: FamilySpec | None
    evaluate: object  # callable (u, xi, eta) -> WeightVector
    label: str = ""
    gauge: bool = True
    batch: object = None  # callable (Batch, u, xi, eta) -> (n, 8) array
    coeffs: object = None  # callable (o, xi) -> m1..m8

    def eval(self, u, xi, eta) -> WeightVector:
        """The weights at (u, xi, eta).  An evaluation that overflows or
        gives a non-finite weight raises PoleProximity, as a pole does."""
        return _guarded("weights overflow at (u, xi, eta) = ({}, {}, {})",
                        self.evaluate, u, xi, eta)

    def eval_array(self, u, xi, eta):
        """The weights at n points (arrays of u, xi and eta) as an (n, 8)
        array, and the mask of the points at which ``eval`` succeeds; the
        weights of the other points are undefined.  A family without
        ``batch`` is evaluated point by point through ``eval``."""
        if self.batch is None:
            W = np.full((len(u), 8), np.nan, dtype=complex)
            for i, p in enumerate(zip(u, xi, eta)):
                with contextlib.suppress(CybeError):
                    W[i] = self.eval(*p).a
            return W, ~np.isnan(W[:, 0])
        o = Batch(len(u))
        with np.errstate(all="ignore"):
            try:
                W = self.batch(o, o.lift(u), o.lift(xi), o.lift(eta))
            except (CybeError, ArithmeticError):
                # raised by the parameters, so at every point alike
                return (np.full((o.n, 8), np.nan, dtype=complex),
                        np.zeros(o.n, dtype=bool))
        return W, ~o.bad

    def analytic_coeffs(self, xi):
        """The closed-form coefficients m1..m8 at color xi, or None: a
        family without a spec, or a trivial one, has none.  A color at
        which they overflow raises PoleProximity, as in ``eval``."""
        if self.spec is None or self.coeffs is None:
            return None
        return np.array(_guarded("coefficients overflow at xi = {1}",
                                 self.coeffs, SCALAR, xi), dtype=complex)


def _guarded(where: str, fn, *args):
    """``fn(*args)``; an overflow or a domain error raises PoleProximity
    instead, as a pole does, naming ``where`` formatted with the args."""
    try:
        return fn(*args)
    except CybeError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise PoleProximity(f"{where.format(*args)}: {exc}") from None


def _sign_unit(o, t, scale):
    """t/sqrt(t^2): +-1 tracking the half-plane of t; +1 on the roundoff rim."""
    return o.where(o.abs(t) <= _CLAMP * scale, 1.0 + 0j,
                   lambda: t / o.sqrt(t * t))


def _root(o, w, scale):
    """Principal sqrt with the identically-vanishing radicand clamped to 0."""
    return o.where(o.abs(w) <= _CLAMP * scale, 0j, lambda: o.sqrt(w))


def _ff_coefficients(o, Gx, Gy, Hx, Hy, delta):
    """The four color coefficients of the elliptic/tanh free-fermion forms."""
    GG, HH = Gx * Gy, Hx * Hy
    scale = 1.0 + o.abs(GG) + o.abs(HH)
    A = _root(o, (1 + GG - HH) / 2, scale)
    B = _root(o, (-1 + GG + HH) / 2, scale) * _sign_unit(o, Hx * Gy + Gx * Hy,
                                                         scale)
    C = delta * _root(o, (1 + GG + HH) / 2, scale)
    D = delta * _root(o, (-1 + GG - HH) / 2, scale) * _sign_unit(
        o, Hx * Gy - Gx * Hy, scale)
    return A, B, C, D


# Each builder checks the spec and returns the closed form
# (o, u, xi, eta) -> the eight weights and the coefficients
# (o, xi) -> m_i = d/du a_i at u = 0, eta = xi, both over the operations o
# of numkernel.  A coefficient that does not depend on the color is
# computed here, once, unless computing it can raise: an overflow is raised
# where the coefficients are read, never by the build.

def _sn(mu, k) -> tuple[complex, complex, complex]:
    """(sn, cn, dn) at mu and modulus k; a modulus the kernel does not
    take, and a lattice pole or an overflow at mu, are spec errors."""
    try:
        return jacobi_sncndn(mu, k)
    except ModulusOutOfRange as exc:
        raise InvalidSpec(f"modulus k unusable: {exc}") from None
    except (PoleProximity, ArithmeticError, ValueError) as exc:
        raise InvalidSpec(f"mu unusable: {exc}") from None


def _baxter_elliptic(spec: FamilySpec):
    if spec.lam == 0 or spec.mu == 0:
        raise InvalidSpec("rates lam and mu must be nonzero")
    snmu, cnmu, dnmu = _sn(spec.mu, spec.k)
    if abs(snmu) < _DENOM_TOL:
        raise InvalidSpec("sn(mu) vanishes; shift mu divides the closed form")
    k, lam, F, s5, s7 = spec.k, spec.lam, spec.F, spec.s5, spec.s7
    m1, m5, m7 = lam * cnmu * dnmu / snmu, s5 * lam / snmu, s7 * k * lam * snmu

    def form(o, u, xi, eta):
        w = lam * u + F(xi, o) - F(eta, o)
        snw = o.sncndn(w, k)[0]
        snwm = o.sncndn(w + spec.mu, k)[0]
        a1 = snwm / snmu
        a5 = s5 * snw / snmu
        a7 = s7 * k * snw * snwm
        return a1, 1, 1, a1, a5, a5, a7, a7
    return form, lambda o, xi: (m1, 0, 0, m1, m5, m5, m7, m7)


def _baxter_trig(spec: FamilySpec):
    if spec.lam == 0 or spec.mu == 0:
        raise InvalidSpec("rates lam and mu must be nonzero")
    tanmu = cmath.tan(spec.mu)
    if abs(tanmu) < _DENOM_TOL:
        raise InvalidSpec("tan(mu) vanishes; shift mu divides the closed form")
    lam, mu, F, s5, s7 = spec.lam, spec.mu, spec.F, spec.s5, spec.s7

    def form(o, u, xi, eta):
        w = lam * u + F(xi, o) - F(eta, o)
        cw, cwm = o.cos(w), o.cos(w + mu)
        o.check((o.abs(cw) < _DENOM_TOL) | (o.abs(cwm) < _DENOM_TOL),
                PoleProximity, lambda: f"tan pole near w = {w}")
        tw, twm = o.tan(w), o.tan(w + mu)
        a1 = twm / tanmu
        a5 = s5 * tw / tanmu
        a7 = s7 * tw * twm
        return a1, 1, 1, a1, a5, a5, a7, a7

    def coeffs(o, xi):
        smu, cmu = o.sin(mu), o.cos(mu)   # may overflow where tan mu does not
        m1 = lam / (smu * cmu)
        m5 = s5 * lam * cmu / smu
        m7 = s7 * lam * smu / cmu
        return m1, 0, 0, m1, m5, m5, m7, m7
    return form, coeffs


def _ff_elliptic(spec: FamilySpec):
    if spec.lam == 0:
        raise InvalidSpec("rate lam must be nonzero")
    k = spec.ff_modulus
    _sn(0.0, k)   # rejects a modulus the kernel does not take
    lam, F, G, H, delta, s7 = spec.lam, spec.F, spec.G, spec.H, spec.delta, spec.s7
    m7 = s7 * k * lam

    def form(o, u, xi, eta):
        w = lam * u + F(xi, o) - F(eta, o)
        snw, cnw, dnw = o.sncndn(w, k)
        o.check(o.abs(dnw) < _DENOM_TOL, PoleProximity,
                lambda: f"dn vanishes near w = {w}")
        cdw = cnw / dnw
        A, B, C, D = _ff_coefficients(o, G(xi, o), G(eta, o), H(xi, o),
                                      H(eta, o), delta)
        a1 = A * cdw + B * snw
        a4 = A * cdw - B * snw
        a5 = C * snw + D * cdw
        a6 = C * snw - D * cdw
        a7 = s7 * k * snw * cdw
        return a1, 1, 1, a4, a5, a6, a7, a7

    def coeffs(o, xi):
        Gx, Hx = G(xi, o), H(xi, o)
        scale = 1.0 + o.abs(Gx) ** 2 + o.abs(Hx) ** 2
        m1 = lam * _root(o, Hx * Hx, scale) * _sign_unit(o, Hx * Gx, scale)
        m5 = lam * delta * _root(o, Gx * Gx, scale)
        return m1, 0, 0, -m1, m5, m5, m7, m7
    return form, coeffs


def _ff_trig(spec: FamilySpec):
    if spec.lam == 0:
        raise InvalidSpec("rate lam must be nonzero")
    lam, F, G, s5, s7 = spec.lam, spec.F, spec.G, spec.s5, spec.s7
    m7 = s7 * lam

    def form(o, u, xi, eta):
        w = lam * u + F(xi, o) - F(eta, o)
        cw = o.cos(w)
        o.check(o.abs(cw) < _DENOM_TOL, PoleProximity,
                lambda: f"cos vanishes near w = {w}")
        sw, tw = o.sin(w), o.tan(w)
        Gx, Gy = G(xi, o), G(eta, o)
        X = 1 / (2 * o.sqrt(Gx * Gy))
        Y = s5 * X
        twoGG = 2 * Gx * Gy
        a1 = X * ((Gx + Gy) / cw + twoGG * sw)
        a4 = X * ((Gx + Gy) / cw - twoGG * sw)
        a5 = Y * ((Gx - Gy) / cw + twoGG * sw)
        a6 = Y * (-(Gx - Gy) / cw + twoGG * sw)
        a7 = s7 * tw
        return a1, 1, 1, a4, a5, a6, a7, a7

    def coeffs(o, xi):
        Gx = G(xi, o)
        m1 = lam * o.sqrt(Gx * Gx)
        m5 = s5 * m1
        return m1, 0, 0, -m1, m5, m5, m7, m7
    return form, coeffs


def _ff_hyperbolic(spec: FamilySpec):
    if spec.lam == 0 and spec.mu == 0:
        raise InvalidSpec("rates lam and mu must not both vanish")
    lam, mu, F, G, s5, s7 = spec.lam, spec.mu, spec.F, spec.G, spec.s5, spec.s7
    m5, m7 = s5 * lam, s7 * mu

    def form(o, u, xi, eta):
        wf = lam * u + F(xi, o) - F(eta, o)
        wg = mu * u + G(xi, o) - G(eta, o)
        cg = o.cos(wg)
        o.check(o.abs(cg) < _DENOM_TOL, PoleProximity,
                lambda: f"cos vanishes near w = {wg}")
        a1 = o.cosh(wf) / cg
        a5 = s5 * o.sinh(wf) / cg
        a7 = s7 * o.tan(wg)
        return a1, 1, 1, a1, a5, -a5, a7, a7
    return form, lambda o, xi: (0, 0, 0, 0, m5, -m5, m7, m7)


def _trivial_a(spec: FamilySpec):
    prof = spec.spectral

    def form(o, u, xi, eta):
        h = prof(u, xi, eta, o)
        return h, 1, 1, h, h, h, 1, 1
    return form, None   # no identity initial value, so no coefficients


def _trivial_b(spec: FamilySpec):
    F = spec.F

    def form(o, u, xi, eta):
        fe = F(eta, o)
        o.check(o.abs(fe) < _DENOM_TOL, PoleProximity,
                lambda: "profile F vanishes at eta")
        e = F(xi, o) / fe * o.exp(u)
        return e, 1, 1, e, e, -e, 1j, 1j
    return form, None


#: family -> (builder of the closed forms, profiles the family requires)
_BUILDERS = {
    FamilyId.BAXTER_ELLIPTIC: (_baxter_elliptic, ()),
    FamilyId.BAXTER_TRIG: (_baxter_trig, ()),
    FamilyId.FF_ELLIPTIC: (_ff_elliptic, ("G", "H")),
    FamilyId.FF_TANH: (_ff_elliptic, ("G", "H")),
    FamilyId.FF_TRIG: (_ff_trig, ("G",)),
    FamilyId.FF_HYPERBOLIC: (_ff_hyperbolic, ("G",)),
    FamilyId.TRIVIAL_A: (_trivial_a, ("spectral",)),
    FamilyId.TRIVIAL_B: (_trivial_b, ()),
}


def from_form(form, label: str, gauge: bool, spec: FamilySpec | None = None,
              array: bool = True, coeffs=None) -> WeightFamily:
    """The family whose weights are ``form(o, u, xi, eta)`` (eight values,
    or an array of them on its last axis), run on ``SCALAR`` by ``evaluate``
    and, if ``array``, on a ``Batch`` by ``batch``, with the coefficient
    form ``coeffs``.  The point reaches the form as given; tracing names
    the evaluator by the form's module."""
    def evaluate(u, xi, eta):
        return WeightVector(form(SCALAR, u, xi, eta))

    def batch(o, u, xi, eta):
        return o.pack(form(o, u, xi, eta))

    evaluate.__module__ = form.__module__
    return WeightFamily(spec=spec, evaluate=evaluate, label=label, gauge=gauge,
                        batch=batch if array else None, coeffs=coeffs)


def _build(spec: FamilySpec):
    """The closed forms (weights, coefficients or None) of a spec;
    InvalidSpec if it cannot be built."""
    build, required = _BUILDERS[spec.family]
    for name in required:
        if getattr(spec, name) is None:
            raise InvalidSpec(
                f"family {spec.family.value} requires profile {name}")
    return build(spec)


def make_family(spec: FamilySpec) -> WeightFamily:
    """Build the evaluators for a spec.  Raises InvalidSpec when the spec
    cannot be built; validate_spec adds the sampled profile checks."""
    form, coeffs = _build(spec)
    return from_form(form, spec.family.value, spec.is_gauge, spec,
                     coeffs=coeffs)


def eval_family(spec: FamilySpec, u, xi, eta) -> WeightVector:
    return make_family(spec).eval(u, xi, eta)


# -------------------- validation --------------------

def _sampled(out: list[str], what: str, fn, points,
             prefix: str = "warning: ") -> dict:
    """``fn(p)`` at each distinct grid point p where it evaluates, keyed by
    p.  The points where it raises (a pole, an overflow or a domain error)
    become one diagnostic in ``out`` naming ``what``, which counts a
    repeated point once per repeat; checks use the others."""
    values, errors = {}, {}
    for p in dict.fromkeys(points):
        try:
            values[p] = fn(p)
        except (ArithmeticError, ValueError, PoleProximity) as exc:
            errors[p] = exc
    if failed := [p for p in points if p in errors]:
        error = errors[failed[-1]]
        shown = ", ".join(
            f"({', '.join(f'{v:.6g}' for v in p)})" if isinstance(p, tuple)
            else f"{p:.6g}" for p in failed[:4])
        out.append(f"{prefix}{what} cannot be evaluated at {len(failed)} of "
                   f"{len(points)} sampled points: {shown}"
                   f"{', ...' if len(failed) > 4 else ''} "
                   f"({type(error).__name__}: {error})")
    return values


def validate_spec(spec: FamilySpec, color_span=(-0.5, 0.5)) -> list[str]:
    """Diagnostics list; empty iff the spec can be built and satisfies its
    family constraints on 11 colors spread over ``color_span``.  A spec
    that cannot be built gets the one message ``make_family`` raises; soft
    warnings are prefixed 'warning:'."""
    try:
        _, coeffs = _build(spec)
    except InvalidSpec as exc:
        return [str(exc)]
    return _spec_checks(spec, coeffs, color_span)


def _spec_checks(spec: FamilySpec, coeffs, color_span) -> list[str]:
    """The diagnostics of ``validate_spec`` for a spec built with the
    coefficient form ``coeffs``."""
    out: list[str] = []
    fam = spec.family
    if fam in (FamilyId.FF_ELLIPTIC, FamilyId.FF_TANH, FamilyId.FF_TRIG,
               FamilyId.TRIVIAL_B):
        # the profile checks sample 11 colors
        grid = tuple(np.linspace(*color_span, 11).tolist())
    if fam is FamilyId.BAXTER_ELLIPTIC:
        # alpha, beta, gamma are m7, m5, m1 up to the signs s7 and s5
        alpha, beta, gamma = np.array(coeffs(SCALAR, 0j))[[6, 4, 0]]
        degenerate = min(abs(beta + sa * alpha + sg * gamma)
                         for sa in (1, -1) for sg in (1, -1))
        if degenerate < 1e-8 * max(abs(alpha), abs(beta), abs(gamma)):
            out.append("warning: beta +- alpha +- gamma ~ 0; the "
                       "elliptic form degenerates, use the trig family")
    elif fam in (FamilyId.FF_ELLIPTIC, FamilyId.FF_TANH):
        worst = max(_sampled(out, "profiles G and H", lambda x: abs(
            spec.G(x) ** 2 - spec.H(x) ** 2 - 1), grid).values(),
            default=0.0)
        if worst > 1e-10:
            out.append(f"G^2 - H^2 = 1 fails on the color domain "
                       f"(worst |G^2-H^2-1| = {worst:.3e})")
    elif fam is FamilyId.FF_TRIG:
        worst = max(_sampled(out, "profile G", lambda x: abs(
            cmath.sqrt(spec.G(x) ** 2) - spec.G(x)), grid).values(),
            default=0.0)
        if worst > 1e-10:
            out.append("G must stay in the right half plane "
                       "(principal sqrt(G^2) must equal G)")
    elif fam is FamilyId.TRIVIAL_B:
        zeros = [x for x, v in _sampled(out, "profile F", lambda x: abs(
            spec.F(x)), grid).items() if v < _DENOM_TOL]
        if zeros:
            out.append(f"profile F vanishes on the color domain at "
                       f"{zeros[:3]}")
    return out


# -------------------- literature reductions --------------------

def murakami_reduction(u, xi, eta, k) -> WeightVector:
    """Hyperbolic-color specialization of the elliptic free-fermion family
    (unit rate, G = cosh(2 xi), H = sinh(2 xi), F = 0).

    The version satisfying the matrix identity carries
    a5 = cosh(xi+eta) sn + sinh(xi-eta) cd; the a5/a6 assignment often
    quoted in the literature is the index-swapped image of this one.
    """
    u, xi, eta = complex(u), complex(xi), complex(eta)
    snu, cnu, dnu = jacobi_sncndn(u, k)
    if abs(dnu) < _DENOM_TOL:
        raise PoleProximity(f"dn vanishes near u = {u}")
    cdu = cnu / dnu
    chm, shm = cmath.cosh(xi - eta), cmath.sinh(xi - eta)
    chp, shp = cmath.cosh(xi + eta), cmath.sinh(xi + eta)
    a1 = chm * cdu + shp * snu
    a4 = chm * cdu - shp * snu
    a5 = chp * snu + shm * cdu
    a6 = chp * snu - shm * cdu
    a7 = complex(k) * snu * cdu
    return WeightVector.of(a1, 1, 1, a4, a5, a6, a7, a7)


def bs_scale(u, xi, eta, k) -> complex:
    """The scaling profile of the non-gauge construction below:
    sqrt(e(xi) e(eta) sn(xi) sn(eta)) (1 - e(u)) / sn(u/2)."""
    u, xi, eta, k = complex(u), complex(xi), complex(eta), complex(k)
    snx = jacobi_sncndn(xi, k)[0]
    sne = jacobi_sncndn(eta, k)[0]
    snu2 = jacobi_sncndn(u / 2, k)[0]
    if abs(snu2) < _DENOM_TOL:
        raise PoleProximity("sn(u/2) vanishes; scale profile has a pole")
    root = cmath.sqrt(elliptic_exp(xi, k) * elliptic_exp(eta, k) * snx * sne)
    return root * (1 - elliptic_exp(u, k)) / snu2


def bazhanov_stroganov(u, xi, eta, k) -> WeightVector:
    """Non-gauge eight-vertex solution built on the elliptic exponential
    e(z) = cn(z) + i sn(z):

        a1 = 1 - e(u) e(xi) e(eta)          a4 = e(u) - e(xi) e(eta)
        a5 = e(xi) - e(u) e(eta)            a6 = e(eta) - e(u) e(xi)
        a2 = a3 = sqrt(e(xi) e(eta) sn(xi) sn(eta)) (1 - e(u)) / sn(u/2)
        a7 = a8 = k  sqrt(e(xi) e(eta) sn(xi) sn(eta)) (1 - e(u)) cd(u/2)

    This is exactly the scale profile ``bs_scale`` applied to the elliptic
    free-fermion family with G = 1/sn, H = cn/sn, F = 0 and rate 1/2.  The
    corner weight is cd(u/2)-shaped: sn(z + K) = cd(z), so quotations with
    an sn(u/2) corner differ by a quarter-period shift and do not solve the
    matrix identity.
    """
    u, xi, eta, k = complex(u), complex(xi), complex(eta), complex(k)
    eu = elliptic_exp(u, k)
    ex = elliptic_exp(xi, k)
    ee = elliptic_exp(eta, k)
    snx = jacobi_sncndn(xi, k)[0]
    sne = jacobi_sncndn(eta, k)[0]
    s2, c2, d2 = jacobi_sncndn(u / 2, k)
    if abs(s2) < _DENOM_TOL:
        raise PoleProximity("sn(u/2) vanishes; a2 has a pole at this point")
    if abs(d2) < _DENOM_TOL:
        raise PoleProximity("dn(u/2) vanishes; a7 has a pole at this point")
    root = cmath.sqrt(ex * ee * snx * sne)
    a2 = root * (1 - eu) / s2
    a7 = k * root * (1 - eu) * (c2 / d2)
    return WeightVector.of(1 - eu * ex * ee, a2, a2, eu - ex * ee,
                           ex - eu * ee, ee - eu * ex, a7, a7)


# -------------------- JSON serialization --------------------

_SPEC_KEYS = {"family", "k", "lambda", "mu", "signs", "profiles"}
_SIGN_KEYS = {"s5", "s7", "delta"}
_PROFILE_KEYS = {"F", "G", "H", "spectral"}


def spec_to_json(spec: FamilySpec) -> dict:
    doc = {
        "family": spec.family.value,
        "k": _cjson(spec.k),
        "lambda": _cjson(spec.lam),
        "mu": _cjson(spec.mu),
        "signs": {"s5": spec.s5, "s7": spec.s7, "delta": spec.delta},
        "profiles": {},
    }
    doc["profiles"]["F"] = spec.F.to_json()
    for name in ("G", "H"):
        prof = getattr(spec, name)
        if prof is not None:
            doc["profiles"][name] = prof.to_json()
    if spec.spectral is not None:
        doc["profiles"]["spectral"] = spec.spectral.to_json()
    return doc


_FAMILY_NAMES = frozenset(f.value for f in FamilyId)


_SHOWN = 60
#: reprlib bounds the work on a deep or long value; a string, number or
#: other value whose repr fits in ``_SHOWN`` characters is shown whole
_REPR = reprlib.Repr()
_REPR.maxstring = _REPR.maxlong = _REPR.maxother = _SHOWN


def _shown(value) -> str:
    """The repr of a JSON value for a message, at most ``_SHOWN``
    characters (a container's repr may hold several cut items)."""
    text = _REPR.repr(value)
    return text if len(text) <= _SHOWN else text[:_SHOWN - 3] + "..."


def spec_from_json(doc: dict) -> FamilySpec:
    _check_keys(doc, _SPEC_KEYS, "family spec")
    if "family" not in doc:
        raise InvalidSpec("family spec needs a 'family' field")
    name = doc["family"]
    # FamilyId's own error would hold the whole repr of any value
    if not (isinstance(name, str) and name in _FAMILY_NAMES):
        raise InvalidSpec(f"unknown family {_shown(name)}")
    fam = FamilyId(name)
    signs = doc.get("signs", {})
    _check_keys(signs, _SIGN_KEYS, "signs")
    profiles = doc.get("profiles", {})
    _check_keys(profiles, _PROFILE_KEYS, "profiles")

    def prof(name):
        return (ColorProfile.from_json(profiles[name])
                if name in profiles else None)

    return FamilySpec(
        family=fam,
        k=_cval(doc.get("k", 0.5)),
        lam=_cval(doc.get("lambda", 1.0)),
        mu=_cval(doc.get("mu", 0.5)),
        s5=signs.get("s5", 1),
        s7=signs.get("s7", 1),
        delta=signs.get("delta", 1),
        F=prof("F") or _ZERO,
        G=prof("G"),
        H=prof("H"),
        spectral=(SpectralProfile.from_json(profiles["spectral"])
                  if "spectral" in profiles else None),
    )


def with_murakami_profiles(k, lam=1.0, delta=1, s7=1) -> FamilySpec:
    """The elliptic free-fermion spec whose evaluations coincide with
    murakami_reduction at lam = 1."""
    return FamilySpec(family=FamilyId.FF_ELLIPTIC, k=k, lam=lam,
                      delta=delta, s7=s7,
                      G=ColorProfile("cosh", (2, 0)),
                      H=ColorProfile("sinh", (2, 0)))


def with_bs_profiles(k, delta=1, s7=1) -> FamilySpec:
    """The elliptic free-fermion spec entering the bazhanov_stroganov
    construction: G = 1/sn, H = cn/sn, F = 0, rate 1/2."""
    return FamilySpec(family=FamilyId.FF_ELLIPTIC, k=k, lam=0.5,
                      delta=delta, s7=s7,
                      G=ColorProfile("recip_sn", (k,)),
                      H=ColorProfile("cn_over_sn", (k,)))

"""Hamiltonian-coefficient extraction, proposition-level invariants, the
branch identity suites, and the solution-type verdict.

Coefficients m_i(xi) are the spectral derivatives of the weights at the
identity point (u = 0, eta = xi).  For gauge solutions they obey

    m1^2 = m4^2,  m5^2 = m6^2,  m7 constant in the color,

and split the solution set in two: the Baxter branch (a1 = a4, a5 = a6,
first-order square ODEs and a biquadratic curve in (a1, a5) with constants
alpha = m7, beta = m5, gamma = m1) and the free-fermion branch
(a1 a4 + a5 a6 = 1 + a7^2, bilinear coefficient relations and a quartic
first-order ODE for a7).  The verdict pipeline tests the matrix identity
first, then eight-vertex-ness, then, on the gauge-reduced family, the
identity initial value (whose failure routes to the trivial shapes) and
the branch conditions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import CybeError, InvalidSpec, StepUnstable
from .families import FamilyId, WeightFamily
from .numkernel import Split, jacobi_sncndn
from .sampling import (SamplePlan, _point, _point_spans, _points,
                       _triple_points, _triple_spans, evaluate_groups,
                       first_block, residual_sweep, split_rows)
from .transforms import _reduce, gauge_points
from .weights import (WeightVector, _gauge_rows, baxter_curve_residual,
                      free_fermion_residual, vanishing_weights)


class Verdict(str, enum.Enum):
    BAXTER = "BAXTER"
    FREE_FERMION = "FREE_FERMION"
    TRIVIAL_A = "TRIVIAL_A"
    TRIVIAL_B = "TRIVIAL_B"
    NOT_EIGHT_VERTEX = "NOT_EIGHT_VERTEX"
    NOT_A_SOLUTION = "NOT_A_SOLUTION"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class HamiltonianCoefficients:
    """m_i(xi) over a color grid, shape (len(xi_grid), 8)."""

    xi_grid: np.ndarray
    m: np.ndarray
    h: float
    fd_error: np.ndarray     # |richardson - raw| per grid point
    analytic: bool


def _richardson(w, h):
    """Central difference with one Richardson level from the weights w at
    u + h, u - h, u + h/2 and u - h/2: the extrapolated value of d/du a and
    its distance from the raw difference (per row of a stack of points)."""
    raw = (w[0] - w[1]) / (2 * h)
    fine = (w[2] - w[3]) / h
    rich = (4 * fine - raw) / 3
    return rich, np.abs(rich - raw).max(axis=-1)


def _du(fam, u, xi, eta, h=1e-5):
    return _richardson([fam.eval(p, xi, eta).a
                        for p in (u + h, u - h, u + h/2, u - h/2)], h)


def _steps(h):
    """The stencil offsets in u of the finite difference at step h."""
    return h, -h, h / 2, -h / 2


def stencil_points(xi_grid, h: float = 1e-5):
    """The (u, xi, eta) columns of the finite-difference stencil of
    ``hamiltonian_coeffs``: u = +-h, +-h/2 at xi = eta = x of every grid
    color x, offset by offset."""
    x = np.tile(xi_grid, 4)
    return np.repeat(_steps(h), len(xi_grid)), x, x


def hamiltonian_coeffs(fam: WeightFamily, xi_grid=None, h: float = 1e-5,
                       stencil=None) -> HamiltonianCoefficients:
    """Extract m_i over a color grid.

    Analytic values are substituted when the family supplies them (every
    built-in family does); otherwise central differences with one
    Richardson extrapolation level at step h in [1e-7, 1e-3], from the rows
    (W, ok) of ``fam`` at ``stencil_points(xi_grid, h)``: ``stencil`` when
    the caller has evaluated them, else one ``eval_array`` call.
    """
    if not 1e-7 <= h <= 1e-3:
        raise StepUnstable(f"step h = {h} outside [1e-7, 1e-3]")
    if xi_grid is None:
        xi_grid = np.linspace(-0.45, 0.45, 20)
    xi_grid = np.asarray(xi_grid, dtype=float)

    n = len(xi_grid)
    if (first := fam.analytic_coeffs(xi_grid[0])) is not None:
        return HamiltonianCoefficients(
            xi_grid=xi_grid, m=np.array(
                [first] + [fam.analytic_coeffs(x) for x in xi_grid[1:]]),
            h=h, fd_error=np.zeros(n), analytic=True)
    S, ok = (fam.eval_array(*stencil_points(xi_grid, h))
             if stencil is None else stencil)
    S, ok = S.reshape(4, n, 8), ok.reshape(4, n)
    with np.errstate(all="ignore"):   # the rows of marked points are junk
        m, err = _richardson(S, h)
        # the colors in turn: the first whose step is unstable raises,
        # unless it has a marked stencil point, which raises its own error
        marked = ~ok.all(axis=0)
        failed = (err > 1e-4 * np.fmax(1.0, np.abs(m).max(axis=1))) | marked
    if failed.any():
        i = failed.argmax()
        if marked[i]:
            fam.eval(_steps(h)[ok[:, i].argmin()], xi_grid[i], xi_grid[i])
        raise StepUnstable(
            f"Richardson and raw central differences disagree by "
            f"{err[i]:.3e} at xi = {xi_grid[i]}; adjust h")
    return HamiltonianCoefficients(xi_grid=xi_grid, m=m, h=h, fd_error=err,
                                   analytic=False)


def invariant_suite(fam: WeightFamily,
                    coeffs: HamiltonianCoefficients) -> dict[str, float]:
    """Named residuals of the coefficient-level propositions."""
    m1, _, _, m4, m5, m6, m7, _ = coeffs.m.T
    delta_sq = (m5 + m6) ** 2 - 4 * m1 ** 2
    return {
        "m1_sq_minus_m4_sq": float(np.abs(m1**2 - m4**2).max()),
        "m5_sq_minus_m6_sq": float(np.abs(m5**2 - m6**2).max()),
        "m7_color_spread": _spread(m7),
        "m7_color_stddev": float(np.std(m7)),
        "nondegeneracy": float(np.minimum(np.abs(m5), np.abs(m7)).max()
                               if len(m5) else 0.0),
        "degenerate_flag": float(max(np.abs(m5).max(), np.abs(m7).max()) < 1e-10),
        "m1_plus_m4": float(np.abs(m1 + m4).max()),
        "delta_sq_spread": _spread(delta_sq),
    }


def _spread(values: np.ndarray) -> float:
    return float(np.abs(values - values.mean()).max()) if len(values) else 0.0


def _d2u(fam, u, xi, eta, h=1e-4):
    return (fam.eval(u + h, xi, eta).a - 2 * fam.eval(u, xi, eta).a
            + fam.eval(u - h, xi, eta).a) / h**2


def _coeffs_at(fam: WeightFamily, x, h: float, analytic: bool):
    """m_i at color x and the Richardson error of their finite difference:
    the closed form (error 0) when ``analytic``, a fresh extraction at step
    h otherwise (the coefficients vary with color, so grid lookup is not
    accurate enough)."""
    if analytic:
        return fam.analytic_coeffs(x), 0.0
    return _du(fam, 0.0, x, x, h)


def _worst(names, points, magnitudes) -> dict[str, float]:
    """The largest value of each named magnitude over the points, where
    ``magnitudes(*point)`` gives one value per name; 0.0 without points."""
    worst = np.zeros(len(names))
    for point in points:
        worst = np.maximum(worst, magnitudes(*point))
    return dict(zip(names, worst.tolist()))


def _constants(coeffs: HamiltonianCoefficients):
    """The measured constants alpha, beta, gamma: m7, m5, m1 averaged over
    the color grid."""
    mbar = coeffs.m.mean(axis=0)
    return mbar[6], mbar[4], mbar[0]


def curve_residuals(fam: WeightFamily, coeffs: HamiltonianCoefficients,
                    samples, branch: str) -> dict[str, float]:
    """First-order ODE / curve residuals for the selected branch.

    ``samples`` are (u, xi, eta) points; ``branch`` is "baxter", "ff" or
    "alpha0".  Inapplicable suites are simply absent from the result.
    """
    alpha, beta, gamma = _constants(coeffs)
    if branch == "baxter":
        c = beta**2 - gamma**2 + alpha**2

        def magnitudes(u, xi, eta):
            w, dw = fam.eval(u, xi, eta), _du(fam, u, xi, eta)[0]
            return (abs(dw[4]**2 - (beta**2 - c*w.a5**2 + alpha**2 * w.a5**4)),
                    abs(dw[0]**2 - (beta**2 - c*w.a1**2 + alpha**2 * w.a1**4)),
                    abs(baxter_curve_residual(w, alpha, beta, gamma)))
        names = ("ode_a5_square", "ode_a1_square", "biquadratic_curve")
    elif branch == "ff":
        def magnitudes(u, xi, eta):
            w, dw = fam.eval(u, xi, eta), _du(fam, u, xi, eta)[0]
            me = _coeffs_at(fam, eta, coeffs.h, coeffs.analytic)[0]
            m1e, m5e, m6e = me[0], me[4], me[5]
            c = (m5e + m6e) ** 2 - 4 * m1e**2 - 2 * alpha**2
            return (abs(free_fermion_residual(w)),
                    abs(alpha*(w.a1*w.a6 + w.a4*w.a5) - (m5e + m6e)*w.a7),
                    abs(alpha * (w.a1**2 + w.a6**2 - w.a4**2 - w.a5**2)
                        - 4 * m1e * w.a7),
                    abs(dw[6]**2 - (alpha**2 - c*w.a7**2 + alpha**2*w.a7**4)))
        names = ("ff_condition", "coeff_bilinear", "coeff_quadratic_diff",
                 "ode_a7_square")
    elif branch == "alpha0":
        def magnitudes(u, xi, eta):
            w, d2 = fam.eval(u, xi, eta), _d2u(fam, u, xi, eta)
            m5e = _coeffs_at(fam, eta, coeffs.h, coeffs.analytic)[0][4]
            return max(abs(d2[i] - m5e**2 * w.a[i]) for i in (0, 3, 4, 5))
        names = ("second_order_ode",)
    else:
        raise InvalidSpec(f"unknown branch {branch!r}")
    return _worst(names, samples, magnitudes)


# ---- polynomial identity suites ----

def _suite_universal(w: WeightVector, m) -> np.ndarray:
    """Seven polynomial identities holding for every gauge solution, with
    coefficients taken at the second color."""
    u1, u4, u5, u6, u7 = w.a1, w.a4, w.a5, w.a6, w.a7
    m1, m4, m5, m6, m7 = m[0], m[3], m[4], m[5], m[6]
    return np.array([
        m7*u1**3 - m7*u1*u5**2 - 3*m1*u1*u7 + m4*u1*u7 - m7*u4*u7**2
            - m7*u4 + m5*u6*u7 + m6*u6*u7,
        -m6*u1*u4 + m7*u1*u6*u7 + m7*u4*u5*u7 + m1*u4*u6 + m4*u4*u6
            - m6*u5*u6 - m5*u7**2 + m6,
        m7*u1**2 - m7*u4**2 - m7*u5**2 + m7*u6**2 + 2*m4*u7 - 2*m1*u7,
        -m5*u1*u4 + m1*u1*u5 + m4*u1*u5 + m7*u1*u6*u7 + m7*u4*u5*u7
            - m5*u5*u6 - m6*u7**2 + m5,
        m7*u1**2*u6 - m6*u1*u7 - m5*u1*u7 - m7*u5**2*u6 + m7*u5*u7**2
            + m7*u5 + m4*u6*u7 + m1*u6*u7,
        m7*u1**3*u5 - m6*u1*u4*u7 - m7*u1*u5**3 + 2*m4*u1*u5*u7
            - 2*m1*u1*u5*u7 + m7*u1*u6 - m7*u4*u5*u7**2 + m5*u5*u6*u7
            + m6*u7**3 - m5*u7,
        -m7*u1**2*u4 + m7*u1*u7**2 + m7*u1 + m7*u4*u5**2 + m4*u4*u7
            + m1*u4*u7 - m5*u5*u7 - m6*u5*u7,
    ])


def _suite_reduced(w: WeightVector, m) -> np.ndarray:
    """Two further eliminations valid on both branches, reported as
    reduced_2 and reduced_3: the first of the three, reduced_1, was
    universal_4 written out again."""
    u1, u4, u5, u6, u7 = w.a1, w.a4, w.a5, w.a6, w.a7
    m4, m5, m6, m7 = m[3], m[4], m[5], m[6]
    return np.array([
        -m7*u1**3*u5 + m7*u1*u4**2*u5 + 2*m5*u1*u4*u7 + m7*u1*u5**3
            - m7*u1*u5*u6**2 - 4*m4*u1*u5*u7 - 2*m7*u1*u6*u7**2
            - 2*m7*u4*u5*u7**2 + 2*m5*u5*u6*u7 + 2*m6*u7**3 - 2*m5*u7,
        -m7*u1*u4**2*u5 + m6*u1*u4*u7 + m7*u1*u5*u6**2 - m7*u1*u6
            + m7*u4*u5*u7**2 - m5*u5*u6*u7 - m6*u7**3 + m5*u7,
    ])


def _suite_baxter_quartet(w: WeightVector, m) -> np.ndarray:
    """Four bilinear-coefficient identities of the non-free-fermion branch
    (the factored alternative to the free-fermion condition)."""
    u1, u4, u5, u6, u7 = w.a1, w.a4, w.a5, w.a6, w.a7
    m6, m7 = m[5], m[6]
    return np.array([
        -m7*u1*u4**2*u5 + m6*u1*u4*u7 + m7*u1*u5*u6**2 - m7*u1*u6
            + m7*u4*u5 - m6*u5*u6*u7,
        m7*u1*u4*u5**2 - m6*u1*u5*u7 - m7*u4**2*u5*u6 + m6*u4*u6*u7
            - m7*u5**3*u6 + m7*u5**2 + m7*u5*u6**3 - m7*u6**2,
        -m7*u4**3*u5*u6 + m6*u4**2*u6*u7 + m7*u4*u5**2*u7**2
            + m7*u4*u5*u6**3 - m7*u4*u6**2 - m6*u5**2*u6*u7 - m6*u5*u7**3
            + m6*u5*u7,
        -m7*u1*u5**2*u6 + m7*u1*u5 - m7*u4**3*u5 + m6*u4**2*u7
            + m7*u4*u5**3 + m7*u4*u5*u6**2 - m7*u4*u6 - m6*u5**2*u7,
    ])


def _suite_baxter_weights(w: WeightVector) -> np.ndarray:
    """Three weight-only cubics of the non-free-fermion branch."""
    u1, u4, u5, u6, u7 = w.a1, w.a4, w.a5, w.a6, w.a7
    return np.array([
        u1**2*u5 - 2*u1*u4*u6 + u4**2*u5 - u5**3 + u5*u6**2,
        -u1*u4**2*u6 + u1*u5**2*u6 + u1*u5*u7**2 - u1*u5 + u4**3*u5
            - u4*u5**3 - u4*u6*u7**2 + u4*u6,
        -u1**2*u4 + 2*u1*u5*u6 + u4**3 - u4*u5**2 - u4*u6**2,
    ])


def elliptic_ff_identities(fam: WeightFamily, samples) -> dict[str, float]:
    """The five sn/cd bilinear identities of the elliptic free-fermion
    family, with coefficient factor 1/lam replacing the unit-constriction
    modulus.  Only meaningful when ``fam.spec`` is FF_ELLIPTIC or FF_TANH."""
    spec = fam.spec
    if spec is None or spec.family not in (FamilyId.FF_ELLIPTIC,
                                           FamilyId.FF_TANH):
        raise InvalidSpec("elliptic_ff_identities needs an elliptic or "
                          "tanh free-fermion family")
    kap = 1.0 / spec.lam

    def magnitudes(u, xi, eta):
        w = fam.eval(u, xi, eta)
        z = spec.lam * complex(u) + spec.F(xi) - spec.F(eta)
        sn, cn, dn = jacobi_sncndn(z, spec.ff_modulus)
        cd = cn / dn
        m1e, m5e = fam.analytic_coeffs(eta)[[0, 4]]
        m1x = fam.analytic_coeffs(xi)[0]
        u1, u4, u5, u6 = w.a1, w.a4, w.a5, w.a6
        return np.abs(np.array([
            cd**2 - sn**2 + 2*m1e*kap*cd*sn + u5**2 - u1**2,
            cd**2 - sn**2 - 2*m1e*kap*cd*sn + u6**2 - u4**2,
            u1*u4 + u5*u6 - cd**2 - sn**2,
            u1*u6 + u4*u5 - 2*m5e*kap*cd*sn,
            cd**2 - sn**2 - 2*m1x*kap*cd*sn + u5**2 - u4**2,
        ]))
    return _worst([f"sn_cd_identity_{i+1}" for i in range(5)], samples,
                  magnitudes)


def derived_identity_suite(fam: WeightFamily, coeffs: HamiltonianCoefficients,
                           samples, branch: str) -> dict[str, float]:
    """Numeric residuals of the elimination-output polynomial identities.

    The universal seven and the reduced two hold for every gauge solution.
    The free-fermion branch additionally satisfies the quadratic condition;
    the Baxter branch instead satisfies the weight-only cubics and the
    bilinear quartet.
    """
    names = ([f"universal_{i+1}" for i in range(7)]
             + ["reduced_2", "reduced_3"])
    if branch == "ff":
        names.append("ff_condition")
    elif branch == "baxter":
        names += ([f"baxter_quartet_{i+1}" for i in range(4)]
                  + [f"baxter_cubic_{i+1}" for i in range(3)]
                  + ["baxter_bilinear"])

    def magnitudes(u, xi, eta):
        w = fam.eval(u, xi, eta)
        m = _coeffs_at(fam, eta, coeffs.h, coeffs.analytic)[0]
        parts = [np.abs(_suite_universal(w, m)), np.abs(_suite_reduced(w, m))]
        if branch == "ff":
            parts.append([abs(free_fermion_residual(w))])
        elif branch == "baxter":
            # alpha a1 a5 = m6 a7: the factored bilinear of this branch
            parts += [np.abs(_suite_baxter_quartet(w, m)),
                      np.abs(_suite_baxter_weights(w)),
                      [abs(m[6] * w.a1 * w.a5 - m[5] * w.a7)]]
        return np.concatenate(parts)
    return _worst(names, samples, magnitudes)


# ---- the verdict pipeline ----

_N_POINTS = 24       # pole-free points for the branch conditions
_N_GRID = 20         # color grid of the coefficient extraction
_TOL_BRANCH = 1e-6   # median branch-condition residual counted as zero


@dataclass(frozen=True)
class ClassifyPlan:
    n_ybe: int = 60
    seed: int = 0
    u_span: tuple[float, float] = (-0.35, 0.35)
    color_span: tuple[float, float] = (-0.5, 0.5)
    max_weight: float = 15.0
    tol_solution: float = 1e-8

    def sample_plan(self, n) -> SamplePlan:
        return SamplePlan(n=n, seed=self.seed, u_span=self.u_span,
                          color_span=self.color_span,
                          max_weight=self.max_weight)


@dataclass(frozen=True)
class ClassificationReport:
    verdict: Verdict
    ybe_median: float
    ybe_max: float
    is_gauge: bool = False
    initial_condition_ok: bool = False
    initial_condition_residual: float | None = None
    ff_condition_median: float | None = None
    baxter_curve_median: float | None = None
    coefficient_invariants: dict[str, float] = field(default_factory=dict)
    measured_constants: dict[str, list[float]] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        # the fields as they are, with fresh containers: no deep copy
        return vars(self) | {
            "verdict": self.verdict.value, "notes": list(self.notes),
            "coefficient_invariants": dict(self.coefficient_invariants),
            "measured_constants": {k: list(v) for k, v in
                                   self.measured_constants.items()}}


#: u of the initial value: 0, and 1e-7 to probe the limit of a family
#: singular at u = 0 exactly
_IC_US = (0.0, 1e-7)


def _gauge_form_points(plan: ClassifyPlan, grid, branch) -> dict:
    """The points classify evaluates on the gauge form, by stage, as (u,
    xi, eta) columns: the initial value at each u of ``_IC_US`` on 8 colors,
    the finite-difference stencil on ``grid`` and ``branch``, the points
    of the branch sampler's first block."""
    colors = np.tile(
        np.random.default_rng(plan.seed + 1).uniform(*plan.color_span, 8), 2)
    return {"ic": (np.repeat(_IC_US, 8), colors, colors),
            "stencil": stencil_points(grid), "branch": branch}


def _initial_condition_residual(W, ok) -> float:
    """Largest distance from the identity initial value over the 8 colors
    of the initial-value rows (W, ok): at u = 0, else at u = 1e-7, and 0 at
    a color where neither evaluates."""
    target = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=complex)
    worst = 0.0
    for i in range(8):
        for j in (i, i + 8):
            if ok[j]:
                worst = max(worst, np.abs(W[j] - target).max())
                break
    return float(worst)


def _trivial_shape(U: np.ndarray) -> Verdict | None:
    """The trivial shape all rows of the weights U have within 1e-8."""
    a1, a2, a3, a4, a5, a6, a7, a8 = U.T
    shared = [a2 - 1, a3 - 1, a1 - a4, a1 - a5]
    shapes = {Verdict.TRIVIAL_A: shared + [a7 - 1, a8 - 1, a1 - a6],
              Verdict.TRIVIAL_B: shared + [a7 - 1j, a8 - 1j, a1 + a6]}
    return next((shape for shape, diffs in shapes.items()
                 if np.abs(diffs).max() < 1e-8), None)


def _reduction(plan: ClassifyPlan) -> dict:
    """The arguments of classify's ``gauge_points``: the anchor mid-span,
    u_probe at 0.4 of the u half-span from its middle, and 7 colors over
    90% of the color span."""
    c_mid = 0.5 * (plan.color_span[0] + plan.color_span[1])
    c_half = 0.5 * (plan.color_span[1] - plan.color_span[0])
    u_probe = (0.5 * (plan.u_span[0] + plan.u_span[1])
               + 0.4 * (plan.u_span[1] - plan.u_span[0]) / 2)
    return dict(anchor=c_mid, u_probe=u_probe,
                color_grid=np.linspace(c_mid - 0.9 * c_half,
                                       c_mid + 0.9 * c_half, 7),
                seed=plan.seed)


def _rows_beside(fam: WeightFamily, p, known) -> tuple:
    """The rows (W, ok) of ``fam`` at the columns of the probe plan ``p``
    from one call that leaves out its extra points, whose rows ``known``
    are given."""
    s = p.at["extra"]
    rows = fam.eval_array(*(np.concatenate([c[:s.start], c[s.stop:]])
                            for c in p.columns))
    return tuple(np.concatenate([r[:s.start], k, r[s.start:]])
                 for r, k in zip(rows, known))


def classify(fam: WeightFamily, plan: ClassifyPlan | None = None
             ) -> ClassificationReport:
    """Decide the solution type of a weight family.

    Pipeline: matrix-identity residuals (median over a pole-free plan),
    eight-vertex check, then on the gauge form (reduced when the sweep's
    weights are not gauge): the identity initial value, whose failure
    routes to the trivial shapes, and the free-fermion condition versus
    the biquadratic curve with measured constants.

    The plan fixes every point up front, so the family is evaluated in one
    ``eval_array`` call: the sweep's first block and the gauge-form points,
    with gauge_reduce's probe plan unless the family claims gauge form or
    is a closed form.  The plan's ``extra`` points are the gauge-form
    points, so the reduction's one ``gauge_rows`` pass gives the gauge form
    at its check points and at them.  A reduction that the guess missed
    costs a second call, of the plan's other points, and each further
    sampler block one more.
    """
    plan = plan or ClassifyPlan()
    notes: list[str] = []
    sweep = plan.sample_plan(plan.n_ybe)
    grid = np.linspace(*plan.color_span, _N_GRID)
    reduction = _reduction(plan)
    branch = plan.sample_plan(_N_POINTS)
    blocks = {"sweep": first_block(sweep, _triple_spans(sweep),
                                   _triple_points),
              "branch": first_block(branch, _point_spans(branch), _point)}
    stages = _gauge_form_points(plan, grid, blocks["branch"].columns)
    if fam.spec is not None:
        # closed-form coefficients, or a trivial family, whose trivial
        # shape ends the pipeline: no finite differences
        del stages["stencil"]
    # a family that claims gauge form, or is a closed form of a spec (all
    # of which have a2 = a3 = 1, a7 = a8), needs no reduction; any other,
    # such as a scale, regauge or perturbation, is reduced in this call
    extra = tuple(map(np.concatenate, zip(*stages.values())))
    probes = (None if fam.gauge or fam.spec is not None
              else gauge_points(**reduction, extra=extra))
    rows = evaluate_groups(
        fam, {"sweep": blocks["sweep"].columns}
        | ({"reduction": probes.columns} if probes else stages))
    # the gauge-form points' own rows
    at = (split_rows([r[probes.at["extra"]] for r in rows["reduction"]],
                     stages)
          if probes else {name: rows[name] for name in stages})

    # the sweep's weights at (u, xi, eta) and residuals, block by block
    U, rels, k = np.empty((sweep.n, 8), dtype=complex), np.empty(sweep.n), 0
    for block, rel, _ in residual_sweep(fam, sweep,
                                        (blocks["sweep"], rows["sweep"])):
        U[k:k + len(rel)], rels[k:k + len(rel)] = block, rel
        k += len(rel)
    base = dict(ybe_median=float(np.median(rels)), ybe_max=float(np.max(rels)))
    if base["ybe_median"] > plan.tol_solution:
        return ClassificationReport(
            Verdict.NOT_A_SOLUTION,
            notes=("matrix identity fails beyond tolerance",), **base)

    dead = vanishing_weights(np.abs(U).max(axis=0))
    if dead:
        return ClassificationReport(
            Verdict.NOT_EIGHT_VERTEX,
            notes=(f"weights {dead} vanish identically",), **base)

    base["is_gauge"] = bool(_gauge_rows(U).all())
    work = fam
    if not base["is_gauge"]:
        if probes is None:
            probes = gauge_points(**reduction, extra=extra)
            rows["reduction"] = _rows_beside(fam, probes, tuple(
                map(np.concatenate, zip(*at.values()))))
        try:
            work, cert, gauge = _reduce(fam, probes, rows["reduction"])
            notes.append(f"gauge-reduced (residual {cert.gauge_residual:.2e})")
        except CybeError as exc:
            return ClassificationReport(
                Verdict.INDETERMINATE,
                notes=(f"gauge reduction failed: {exc}",), **base)
        at = split_rows(gauge, stages)

    ic_res = _initial_condition_residual(*at["ic"])
    ic_ok = bool(ic_res <= 1e-8)
    base.update(initial_condition_ok=ic_ok, initial_condition_residual=ic_res)
    if not ic_ok:
        if (shape := _trivial_shape(U)) is not None:
            return ClassificationReport(shape, **base)
        notes.append("initial value fails but no trivial shape matches")

    coeffs = hamiltonian_coeffs(work, grid, stencil=at.get("stencil"))
    inv = invariant_suite(work, coeffs)
    alpha, beta, gamma = _constants(coeffs)

    # both conditions at once on the Split columns of the sampled weights,
    # rounding and taking magnitudes as point by point
    W = np.concatenate([W for _, (W,), _ in _points(
        work, branch, _point, (blocks["branch"], at["branch"]))])
    w = [Split.of(col) for col in W.T]
    ff, curve = (free_fermion_residual(w),
                 baxter_curve_residual(w, alpha, beta, gamma))
    ff_median = float(np.median(ff.abs()))
    curve_median = float(np.median(curve.abs()))

    measured = {
        "alpha": [alpha.real, alpha.imag],
        "beta": [beta.real, beta.imag],
        "gamma": [gamma.real, gamma.imag],
    }

    ff_small = ff_median <= _TOL_BRANCH
    curve_small = curve_median <= _TOL_BRANCH
    if ff_small and curve_small:
        verdict = Verdict.INDETERMINATE
        notes.append("free-fermion and curve residuals both below tolerance")
    elif ff_small:
        verdict = Verdict.FREE_FERMION
    elif curve_small:
        verdict = Verdict.BAXTER
    else:
        verdict = Verdict.INDETERMINATE
        notes.append("neither branch condition holds at tolerance")

    return ClassificationReport(
        verdict, ff_condition_median=ff_median, baxter_curve_median=curve_median,
        coefficient_invariants=inv, measured_constants=measured,
        notes=tuple(notes), **base)

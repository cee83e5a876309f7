"""Classify's gauge-reduced path on arrays against point-by-point oracles:
the finite-difference coefficient grid, the gauge-reduction probes and the
reduced family's stacked array evaluator.

The oracles evaluate one probe and one stencil point at a time, each when
its check needs it.  Values must be equal bit for bit, and a failing point
must raise the oracle's error: the first one in the oracle's evaluation
order, with its message."""

import cmath
import dataclasses
import functools
import importlib

import numpy as np
import pytest

from cybe import (ClassifyPlan, CybeError, MultiplicativityViolation,
                  NotEightVertex, PoleProximity, StepUnstable, WeightFamily,
                  WeightVector, ZeroDivisor, apply, classify, gauge_reduce,
                  hamiltonian_coeffs, make_family, transforms)
from cybe.numkernel import SCALAR
from cybe.transforms import (_ZERO_TOL, GaugeCertificate, _nonzero, _ratio,
                             anchored_points, gauge_rows, wrap)
from cybe.weights import vanishing_weights

from conftest import CANONICAL_SPECS, outermost_calls
from test_batch_eval import (ALL_KINDS, SCALE_REGAUGE, assert_batch_is_scalar,
                             bits)
from test_families import GAUGE_IDS


def fd_coeffs(fam, xi_grid, h=1e-5):
    """The finite-difference ``hamiltonian_coeffs`` of a family: without
    its spec a family has no closed-form coefficients."""
    return hamiltonian_coeffs(dataclasses.replace(fam, spec=None), xi_grid, h)


# ---- oracles ----

def oracle_du(fam, u, xi, eta, h=1e-5):
    raw = (fam.eval(u + h, xi, eta).a - fam.eval(u - h, xi, eta).a) / (2 * h)
    fine = (fam.eval(u + h/2, xi, eta).a - fam.eval(u - h/2, xi, eta).a) / h
    rich = (4 * fine - raw) / 3
    return rich, float(np.abs(rich - raw).max())


def oracle_fd_coeffs(fam, xi_grid, h=1e-5):
    """(m, fd_error) of ``fd_coeffs``, one grid point and one stencil
    point at a time."""
    rows, errs = [], []
    for xi in xi_grid:
        m, err = oracle_du(fam, 0.0, xi, xi, h)
        if err > 1e-4 * max(1.0, float(np.abs(m).max())):
            raise StepUnstable(
                f"Richardson and raw central differences disagree by "
                f"{err:.3e} at xi = {xi}; adjust h")
        rows.append(m)
        errs.append(err)
    return np.array(rows), np.array(errs)


def oracle_certificate(fam, anchor=0.0, u_probe=0.1, color_grid=None,
                       seed=0):
    """The certificate of ``gauge_reduce``, drawing each random number and
    evaluating each probe when its check needs it."""
    rng = np.random.default_rng(seed)
    if color_grid is None:
        color_grid = np.linspace(-0.45, 0.45, 7)
    color_grid = np.asarray(color_grid, dtype=float)
    clo, chi = float(color_grid.min()), float(color_grid.max())
    up = abs(complex(u_probe))

    def draw_u(n):
        return up * rng.uniform(0.5, 2.0, n)

    def draw_color(n):
        return rng.uniform(clo, chi, n)

    mags = []
    for xi in color_grid:
        for eta in color_grid[::2]:
            u = complex(u_probe) * (0.6 + 0.8 * rng.random())
            mags.append(np.abs(fam.eval(u, xi, eta).a))

    dead = vanishing_weights(np.max(mags, axis=0))
    if dead:
        raise NotEightVertex(f"weights {dead} vanish identically on samples")

    def f_ratio(u, xi, eta):
        w = fam.eval(u, xi, eta).a.tolist()
        return w[2] / _nonzero(SCALAR, w[1], "a2")

    defect = 0.0
    for _ in range(12):
        u, v = draw_u(2)
        xi, eta, lam = draw_color(3)
        lhs = f_ratio(u + v, xi, lam)
        rhs = f_ratio(u, xi, eta) * f_ratio(v, eta, lam)
        defect = max(defect, abs(lhs - rhs))
    if defect > 1e-8:
        raise MultiplicativityViolation(
            f"a3/a2 cocycle defect {defect:.3e} exceeds 1e-8; "
            "input is not a solution")

    nus = []
    for _ in range(6):
        u = float(draw_u(1)[0])
        xi = float(draw_color(1)[0])
        val = f_ratio(u, xi, xi)
        if abs(val) > _ZERO_TOL:
            nus.append(np.log(complex(val)) / u)
    nu = complex(np.mean(nus)) if nus else 0j

    @functools.cache
    def M(x) -> complex:
        return f_ratio(u_probe, x, anchor)

    l_vals = []
    for _ in range(6):
        u = float(draw_u(1)[0])
        xi, eta = draw_color(2)
        w = fam.eval(u, xi, eta)
        l_vals.append((w.a8 / _nonzero(SCALAR, w.a7, "a7"))
                      / (M(xi) * M(eta)))
    l = complex(np.mean(l_vals))
    sqrt_l = complex(np.sqrt(l))

    def reduced(u, xi, eta):
        w = fam.evaluate(u, xi, eta).a.tolist()
        a2 = _nonzero(SCALAR, w[1], "a2")
        sqrt_eta = SCALAR.npsqrt(M(eta))
        sqrt_xi = SCALAR.npsqrt(M(xi))
        r = sqrt_eta / sqrt_xi
        g = r / a2
        my = sqrt_eta ** 2
        return WeightVector.of(
            w[0] * g, 1.0, (w[2] / a2) * r * r, w[3] * g, w[4] * g,
            w[5] * g, w[6] / a2 * sqrt_l * my,
            w[7] / a2 / (sqrt_l * my) * r * r)

    out = WeightFamily(spec=None, evaluate=reduced, label="reduced")
    gauge_res = 0.0
    for _ in range(8):
        u = float(draw_u(1)[0])
        xi, eta = draw_color(2)
        w = out.eval(u, xi, eta)
        gauge_res = max(gauge_res, abs(w.a2 - 1), abs(w.a3 - 1),
                        abs(w.a7 - w.a8))

    return GaugeCertificate(
        anchor=complex(anchor), u_probe=complex(u_probe),
        M_samples={float(x): M(float(x)) for x in color_grid},
        l_constant=l, nu_estimate=nu,
        multiplicativity_defect=float(defect),
        gauge_residual=float(gauge_res),
    )


# ---- helpers ----

def outcome(make):
    """The value of ``make()``, or the type and message of its error."""
    try:
        return make()
    except CybeError as exc:
        return type(exc), str(exc)


def recorded(fam):
    """``fam`` with a scalar evaluator that logs every point it is asked
    for, and the log."""
    log = []

    def evaluate(*p):
        log.append(p)
        return fam.evaluate(*p)
    return WeightFamily(spec=None, evaluate=evaluate, label="recorded",
                        gauge=False), log


def _at(o, point, u, xi, eta):
    """Whether (u, xi, eta) is exactly ``point``."""
    return ((o.abs(u - point[0]) == 0) & (o.abs(xi - point[1]) == 0)
            & (o.abs(eta - point[2]) == 0))


def planted(fam, poles=(), zero_a2=(), zero_a7=(), bent=(), kinks=(),
            dead=False):
    """``fam`` with a PoleProximity at each point of ``poles``, a2 = 1e-13
    at ``zero_a2`` and a7 = 1e-13 at ``zero_a7`` (zero to the divisor check,
    while every ratio stays finite), a3 doubled at ``bent`` (which breaks
    the cocycle of a3/a2), a term 1e7 u^3 in a1 on the colors xi = eta of
    ``kinks`` (which the Richardson check rejects), and a5, a6 identically
    0 if ``dead``; array and scalar evaluators alike."""
    def step(o, base, u, xi, eta):
        a = o.columns(base(u, xi, eta))
        for p in poles:
            o.check(_at(o, p, u, xi, eta), PoleProximity,
                    lambda: f"planted pole at {p}")
        for col, points in ((1, zero_a2), (6, zero_a7)):
            for p in points:
                a[col] = o.where(_at(o, p, u, xi, eta), 1e-13 + 0j,
                                 lambda: a[col])
        for p in bent:
            a[2] = o.where(_at(o, p, u, xi, eta), 2 * a[2], lambda: a[2])
        for x in kinks:
            a[0] = a[0] + o.where(_at(o, (u, x, x), u, xi, eta),
                                  1e7 * u * u * u, lambda: 0j)
        if dead:
            a[4] = a[5] = 0 * a[4]
        return a
    return wrap(fam, step, f"planted({fam.label})", gauge=False)


def variants():
    """The six gauge families, plain, under scale+regauge and under a
    pipeline of every transform kind."""
    out = {}
    for fid in GAUGE_IDS:
        base = make_family(CANONICAL_SPECS[fid]())
        out[f"{fid.value}"] = base
        out[f"scale_regauge({fid.value})"] = apply(SCALE_REGAUGE, base)
        out[f"all_kinds({fid.value})"] = apply(ALL_KINDS, base)
    return out


VARIANTS = variants()
GRID = np.linspace(-0.5, 0.5, 20)
COLORS = np.linspace(-0.45, 0.45, 7)
PROBE = dict(anchor=0.0, u_probe=0.14, color_grid=COLORS)


def assert_same_coeffs(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    else:
        assert not got.analytic
        assert np.array_equal(bits(got.m), bits(want[0]))
        assert np.array_equal(got.fd_error.view(np.int64),
                              want[1].view(np.int64))


# ---- values ----

@pytest.mark.parametrize("name", list(VARIANTS))
def test_fd_coefficients_equal_the_oracle(name):
    fam = VARIANTS[name]
    for h in (1e-5, 1e-3):
        assert_same_coeffs(
            outcome(lambda: fd_coeffs(fam, GRID, h)),
            outcome(lambda: oracle_fd_coeffs(fam, GRID, h)))


@pytest.mark.parametrize("name", list(VARIANTS))
def test_gauge_reduction_equals_the_oracle(name):
    """The certificate, and the coefficients of the reduced family that
    classify extracts."""
    fam = VARIANTS[name]
    for seed in (0, 7):
        red, cert = gauge_reduce(fam, seed=seed, **PROBE)
        assert repr(cert) == repr(oracle_certificate(fam, seed=seed,
                                                     **PROBE))
    assert_same_coeffs(fd_coeffs(red, GRID),
                       oracle_fd_coeffs(red, GRID))


# ---- the stacked array evaluator of the reduced family ----

def test_reduced_array_marks_planted_anchored_failures():
    """A pole at the anchored point (u_probe, x0, anchor) and a2 ~ 0 at
    (u_probe, x1, anchor) fail every point whose xi or eta is x0 or x1,
    through M; the array evaluator marks exactly the points at which eval
    raises."""
    x0, x1 = 0.123, -0.321
    base = VARIANTS["scale_regauge(ff_elliptic)"]
    fam = planted(base, poles=[(0.14, x0, 0.0)], zero_a2=[(0.14, x1, 0.0)])
    red, _ = gauge_reduce(fam, **PROBE)
    rng = np.random.default_rng(4)
    n = 60
    u = rng.uniform(-0.35, 0.35, n)
    xi = rng.uniform(-0.5, 0.5, n)
    eta = rng.uniform(-0.5, 0.5, n)
    xi[::5], eta[1::5], xi[2::5], eta[3::5] = x0, x0, x1, x1
    u[4] = 0.14            # the anchored point itself, at a sane color
    ok = assert_batch_is_scalar(red, u, xi, eta)
    assert ok.tolist() == [i % 5 == 4 for i in range(n)]
    with pytest.raises(PoleProximity, match="planted pole"):
        red.eval(0.2, x0, 0.1)


@pytest.mark.parametrize("fid", GAUGE_IDS)
def test_gauge_rows_from_inner_rows_are_the_reduced_rows(fid):
    """The rows that classify derives from the family's rows at the inner
    points are the reduced family's ``eval_array`` rows, values and mask,
    and each is its ``eval``: with a pole at a point, at the anchored point
    of a color that half the points share, and a2 ~ 0 at the anchored
    point of another."""
    fam = VARIANTS[f"scale_regauge({fid.value})"]
    rng = np.random.default_rng(5)
    n = 40
    u = rng.uniform(-0.35, 0.35, n)
    xi = rng.uniform(-0.5, 0.5, n)
    eta = rng.uniform(-0.5, 0.5, n)
    xi[::4] = eta[1::4] = xi[0]        # a color shared by many points
    fam = planted(fam, poles=[(u[2], xi[2], eta[2]), (0.14, xi[0], 0.0)],
                  zero_a2=[(0.14, eta[6], 0.0)])
    red, cert = gauge_reduce(fam, **PROBE)
    inner, index = anchored_points(u, xi, eta, PROBE["u_probe"],
                                   PROBE["anchor"])
    # one anchored point per distinct color
    assert len(inner[0]) == n + len(set(xi) | set(eta))
    W, ok = gauge_rows(*fam.eval_array(*inner), index, cert.l_constant)
    Wr, okr = red.eval_array(u, xi, eta)
    assert np.array_equal(ok, okr)
    assert np.array_equal(bits(W[ok]), bits(Wr[ok]))
    marked = {2} | {i for i in range(n) if xi[0] in (xi[i], eta[i])
                    or eta[6] in (xi[i], eta[i])}
    assert len(marked) > n // 2
    assert set(np.flatnonzero(~ok)) == marked
    assert np.array_equal(ok, assert_batch_is_scalar(red, u, xi, eta))


# ---- errors ----

def probe_log(fam, **kwargs):
    """The points the oracle evaluates, in its order: 28 magnitude probes,
    12 cocycle triples, 6 nu points, then per l point the point, M(xi) and
    M(eta), per gauge probe the point, M(eta) and M(xi), then M on the
    grid."""
    rec, log = recorded(fam)
    oracle_certificate(rec, **kwargs)
    return log


BASE = VARIANTS["scale_regauge(baxter_elliptic)"]
LOG = probe_log(BASE, **PROBE)
assert len(LOG) == 28 + 36 + 6 + 18 + 24 + 7
MAGS, COCYCLE, NUS = LOG[:28], LOG[28:64], LOG[64:70]
L_POINTS = LOG[70:88]
GAUGE_POINTS = LOG[88:112]
M_GRID = LOG[112:]


@pytest.mark.parametrize("plant, error", [
    (dict(zero_a2=[COCYCLE[7]], poles=[L_POINTS[3]]), ZeroDivisor),
    (dict(poles=[COCYCLE[7]], zero_a2=[NUS[1]]), PoleProximity),
    (dict(bent=[COCYCLE[4]], poles=[NUS[0]]), MultiplicativityViolation),
    (dict(zero_a2=[L_POINTS[2]], poles=[L_POINTS[4], M_GRID[0]]),
     ZeroDivisor),
    (dict(zero_a7=[L_POINTS[3]], poles=[L_POINTS[5]]), ZeroDivisor),
    (dict(poles=[GAUGE_POINTS[4], M_GRID[2]]), PoleProximity),
    (dict(zero_a2=[GAUGE_POINTS[5]], poles=[GAUGE_POINTS[9]]), ZeroDivisor),
    (dict(poles=[M_GRID[5]]), PoleProximity),
    (dict(dead=True, poles=[COCYCLE[0]]), NotEightVertex),
    (dict(dead=True, poles=[MAGS[13]]), PoleProximity),
    (dict(poles=[MAGS[27]], zero_a2=[COCYCLE[0]]), PoleProximity),
], ids=["a2_zero_then_pole", "pole_then_a2_zero", "cocycle_then_pole",
        "M_a2_zero_then_pole", "a7_zero_then_pole", "gauge_probe_M_pole",
        "gauge_probe_a2_zero", "grid_M_pole", "not_eight_vertex_then_pole",
        "pole_then_dead", "last_magnitude_pole"])
def test_planted_probe_failures_raise_the_oracles_error(plant, error):
    fam = planted(BASE, **plant)
    want = outcome(lambda: oracle_certificate(fam, **PROBE))
    assert want[0] is error
    assert outcome(lambda: gauge_reduce(fam, **PROBE)[1]) == want


@pytest.mark.parametrize("plant, error", [
    (dict(kinks=[GRID[3]], poles=[(1e-5 / 2, GRID[7], GRID[7])]),
     StepUnstable),
    (dict(poles=[(-1e-5 / 2, GRID[2], GRID[2])], kinks=[GRID[5]]),
     PoleProximity),
    (dict(poles=[(1e-5, GRID[9], GRID[9]), (-1e-5, GRID[9], GRID[9])]),
     PoleProximity),
    (dict(kinks=[GRID[19]]), StepUnstable),
], ids=["step_unstable_then_pole", "pole_then_step_unstable",
        "first_stencil_point", "last_grid_point"])
def test_planted_grid_failures_raise_the_oracles_error(plant, error):
    fam = planted(VARIANTS["all_kinds(ff_trig)"], **plant)
    want = outcome(lambda: oracle_fd_coeffs(fam, GRID))
    assert want[0] is error
    assert outcome(lambda: fd_coeffs(fam, GRID)) == want


# ---- the array passes ----

def test_a_nan_cocycle_ratio_is_skipped_as_by_max():
    """At a2 = a3 = (1e308, 1e308), whose magnitude is finite, the Smith
    denominator of CPython's a3/a2 overflows and the ratio is (nan, 0), so
    the triple's cocycle defect is NaN, which Python's running ``max``
    skips: the reduction still certifies, with the oracle's certificate."""
    big = complex(1e308, 1e308)
    assert cmath.isnan(big / big) and abs(big) < 1.5e308

    def step(o, base, u, xi, eta):
        a = o.columns(base(u, xi, eta))
        at = _at(o, COCYCLE[4], u, xi, eta)
        a[1] = o.where(at, big, lambda: a[1])
        a[2] = o.where(at, big, lambda: a[2])
        return a
    fam = wrap(BASE, step, "nan_ratio", gauge=False)
    want = oracle_certificate(fam, **PROBE)
    assert 0 < want.multiplicativity_defect <= 1e-8
    assert repr(gauge_reduce(fam, **PROBE)[1]) == repr(want)


BIG = complex(1.5e308, 1.5e308)   # finite parts, magnitude beyond float


def overflowing(fam, a2=(), a3=(), a7=(), a3_value=BIG):
    """``fam`` with a2 = BIG at ``a2``, a7 = BIG at ``a7``, and a2 = 1,
    a3 = ``a3_value`` at ``a3`` (so that a3/a2 is that value)."""
    def step(o, base, u, xi, eta):
        a = o.columns(base(u, xi, eta))
        for p in a2:
            a[1] = o.where(_at(o, p, u, xi, eta), BIG, lambda: a[1])
        for p in a3:
            at = _at(o, p, u, xi, eta)
            a[1] = o.where(at, 1 + 0j, lambda: a[1])
            a[2] = o.where(at, a3_value, lambda: a[2])
        for p in a7:
            a[6] = o.where(_at(o, p, u, xi, eta), BIG, lambda: a[6])
        return a
    return wrap(fam, step, f"overflowing({fam.label})", gauge=False)


def _gauge_a3(point, value):
    """The a3 that makes a3 of the gauge form ``value`` at the gauge probe
    ``point`` (where a2 is 1): a3 / (M(eta)/M(xi)), up to rounding."""
    M_eta, M_xi = (_ratio(SCALAR, BASE.eval(*q).a.tolist()) for q in point)
    r = SCALAR.npsqrt(M_eta) / SCALAR.npsqrt(M_xi)
    return value / (r * r)


#: a3 of the gauge form (1.4e308, 1.4e308) at GAUGE_POINTS[3]
GAUGE_A3 = _gauge_a3(GAUGE_POINTS[4:6], complex(1.4e308, 1.4e308))


@pytest.mark.parametrize("plant, poles, error", [
    (dict(a2=[COCYCLE[7]]), [L_POINTS[3]], OverflowError),
    (dict(a2=[NUS[1]]), [COCYCLE[7]], PoleProximity),
    (dict(a3=[COCYCLE[3]]), [COCYCLE[6]], OverflowError),
    (dict(a3=[COCYCLE[3]]), [COCYCLE[5]], PoleProximity),
    (dict(a3=[NUS[2]]), [L_POINTS[0]], OverflowError),
    (dict(a7=[L_POINTS[3]]), [L_POINTS[5]], OverflowError),
    (dict(a2=[L_POINTS[4]]), [L_POINTS[6]], OverflowError),
    (dict(a2=[GAUGE_POINTS[3]]), [GAUGE_POINTS[6]], PoleProximity),
    (dict(a3=[GAUGE_POINTS[3]], a3_value=GAUGE_A3), [GAUGE_POINTS[6]],
     OverflowError),
    (dict(a3=[GAUGE_POINTS[3]], a3_value=GAUGE_A3), [GAUGE_POINTS[0]],
     PoleProximity),
    (dict(a2=[M_GRID[3]]), [M_GRID[5]], OverflowError),
], ids=["cocycle_a2_then_pole", "pole_then_nu_a2", "cocycle_defect_then_pole",
        "pole_within_the_triple", "nu_magnitude", "l_a7", "l_M_a2",
        "gauge_probe_a2", "gauge_residual_then_pole",
        "pole_then_gauge_residual", "grid_M_a2"])
def test_planted_overflows_raise_the_oracles_error(plant, poles, error):
    """Where a magnitude that the point-by-point reduction takes with
    Python's abs overflows from finite parts, it raised OverflowError (a
    gauge probe's a2 through ``eval``, as PoleProximity): the arrays raise
    the same error, in the same turn."""
    fam = planted(overflowing(BASE, **plant), poles=poles)

    def raised(make):
        try:
            return make()
        except (CybeError, OverflowError) as exc:
            return type(exc), str(exc)
    want = raised(lambda: oracle_certificate(fam, **PROBE))
    assert want[0] is error
    assert raised(lambda: gauge_reduce(fam, **PROBE)[1]) == want


def counted(monkeypatch, module, name, *also):
    """The list that gains one entry per call of ``module.name``, patched
    there and in the modules ``also`` that import it by name."""
    log = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        log.append(1)
        return fn(*args, **kwargs)
    for where in (module, *also):
        monkeypatch.setattr(where, name, counting)
    return log


@pytest.mark.parametrize("name", ["ff_trig", "baxter_elliptic"])
def test_a_reduced_op_makes_one_call_draw_and_gauge_pass(name, monkeypatch):
    """One ``eval_array`` call, no ``eval``, one probe-plan draw and one
    ``gauge_rows`` pass, which gives the gauge form at the reduction's
    check points and classify's gauge-form points together."""
    fam = VARIANTS[f"scale_regauge({name})"]
    calls = outermost_calls(monkeypatch)
    draws = counted(monkeypatch, transforms, "gauge_points",
                    importlib.import_module("cybe.classify"))
    passes = counted(monkeypatch, transforms, "gauge_rows")
    rep = classify(fam, ClassifyPlan(n_ybe=60, seed=3))
    assert rep.notes[0].startswith("gauge-reduced")
    assert rep.initial_condition_ok
    assert calls == {"eval_array": 1, "eval": 0}
    assert (len(draws), len(passes)) == (1, 1)


def test_the_stencil_is_one_array_pass(monkeypatch):
    """The Richardson step runs once, over the whole (4, n, 8) stencil,
    with no loop over colors; a marked stencil point is the one point that
    ``eval`` evaluates, to raise its own error in its color's turn."""
    passes = counted(monkeypatch, importlib.import_module("cybe.classify"),
                     "_richardson")
    calls = outermost_calls(monkeypatch)
    assert not fd_coeffs(VARIANTS["scale_regauge(ff_elliptic)"],
                         GRID).analytic
    assert len(passes) == 1
    assert calls == {"eval_array": 1, "eval": 0}
    fam = planted(VARIANTS["all_kinds(ff_trig)"],
                  poles=[(-1e-5, GRID[9], GRID[9]), (1e-5, GRID[12], GRID[12])])
    with pytest.raises(PoleProximity, match=r"\(-1e-05, "):
        fd_coeffs(fam, GRID)
    assert len(passes) == 2
    assert calls == {"eval_array": 2, "eval": 1}

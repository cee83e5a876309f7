"""Coefficient extraction, proposition invariants, branch residual suites,
and the verdict pipeline across every built-in family."""

import dataclasses
import importlib

import numpy as np
import pytest

from cybe import (ClassifyPlan, SpectralProfile, StepUnstable, TransformSpec,
                  Verdict, WeightVector, apply, classify, curve_residuals,
                  derived_identity_suite, hamiltonian_coeffs,
                  invariant_suite, jacobi_sncndn, make_family)
from cybe import transforms
from cybe.classify import _N_POINTS, elliptic_ff_identities
from cybe.families import (FAMILY_CLASS, FamilyId, WeightFamily,
                           spec_from_json)
from cybe.sampling import _point, _point_spans, first_block

from conftest import (CANONICAL_SPECS, baxter_elliptic_spec,
                      ff_elliptic_spec, ff_hyperbolic_spec, ff_trig_spec,
                      outermost_calls, random_spec)
from test_batch_eval import SCALE_REGAUGE
from test_families import ALL_IDS, GAUGE_IDS


def grid():
    return np.linspace(-0.45, 0.45, 12)


def sample_pts(rng, n=16):
    return [(rng.uniform(-0.3, 0.3), rng.uniform(-0.45, 0.45),
             rng.uniform(-0.45, 0.45)) for _ in range(n)]


def test_baxter_analytic_coefficients():
    spec = baxter_elliptic_spec(k=0.4, lam=1.0, mu=0.7, s5=1, s7=1)
    fam = make_family(spec)
    sn, cn, dn = jacobi_sncndn(0.7, 0.4)
    m = fam.analytic_coeffs(0.3)
    assert abs(m[0] - cn * dn / sn) < 1e-14          # m1 = lam cn dn / sn
    assert abs(m[4] - 1 / sn) < 1e-14                # m5 = lam / sn
    assert abs(m[6] - 0.4 * sn) < 1e-14              # m7 = k lam sn
    assert m[1] == 0 and m[2] == 0                   # gauge: m2 = m3 = 0


def test_hyperbolic_analytic_coefficients():
    fam = make_family(ff_hyperbolic_spec(lam=0.8, mu=0.5, s5=1, s7=-1))
    m = fam.analytic_coeffs(0.2)
    assert m[0] == 0 and m[3] == 0
    assert abs(m[4] - 0.8) < 1e-15 and abs(m[5] + 0.8) < 1e-15
    assert abs(m[6] + 0.5) < 1e-15 and m[6] == m[7]


@pytest.mark.parametrize("fid", GAUGE_IDS)
def test_fd_matches_analytic(fid):
    fam = make_family(CANONICAL_SPECS[fid]())
    ana = hamiltonian_coeffs(fam, grid())
    # without its spec the family has no closed-form coefficients
    fd = hamiltonian_coeffs(dataclasses.replace(fam, spec=None), grid())
    assert ana.analytic and not fd.analytic
    scale = np.maximum(np.abs(ana.m), 1.0)
    assert (np.abs(ana.m - fd.m) / scale).max() < 1e-8


def test_fd_step_validation():
    fam = make_family(ff_elliptic_spec())
    with pytest.raises(StepUnstable):
        hamiltonian_coeffs(fam, grid(), h=1e-2)


@pytest.mark.parametrize("fid", GAUGE_IDS)
def test_invariant_suite(fid):
    fam = make_family(CANONICAL_SPECS[fid]())
    inv = invariant_suite(fam, hamiltonian_coeffs(fam, grid()))
    assert inv["m1_sq_minus_m4_sq"] < 1e-8
    assert inv["m5_sq_minus_m6_sq"] < 1e-8
    assert inv["m7_color_spread"] < 1e-8
    assert inv["m7_color_stddev"] < 1e-8
    assert inv["degenerate_flag"] == 0.0


@pytest.mark.parametrize("fid", [FamilyId.FF_ELLIPTIC, FamilyId.FF_TANH,
                                 FamilyId.FF_TRIG, FamilyId.FF_HYPERBOLIC])
def test_ff_coefficient_relations(fid):
    fam = make_family(CANONICAL_SPECS[fid]())
    inv = invariant_suite(fam, hamiltonian_coeffs(fam, grid()))
    assert inv["m1_plus_m4"] < 1e-8
    assert inv["delta_sq_spread"] < 1e-8


def test_injected_center_asymmetry_flagged(rng):
    base = make_family(ff_elliptic_spec())

    def ev(u, xi, eta):
        a = base.eval(u, xi, eta).a.copy()
        a[4] = 2 * a[5]
        return WeightVector(a)

    broken = WeightFamily(spec=None, evaluate=ev, label="broken", gauge=True)
    inv = invariant_suite(broken, hamiltonian_coeffs(broken, grid()))
    assert inv["m5_sq_minus_m6_sq"] > 1e-3
    rep = classify(broken, ClassifyPlan(n_ybe=30))
    assert rep.verdict is Verdict.NOT_A_SOLUTION


def test_baxter_curve_residuals(rng):
    fam = make_family(baxter_elliptic_spec())
    coeffs = hamiltonian_coeffs(fam, grid())
    out = curve_residuals(fam, coeffs, sample_pts(rng), "baxter")
    assert out["ode_a5_square"] < 1e-7
    assert out["ode_a1_square"] < 1e-7
    assert out["biquadratic_curve"] < 1e-7


def test_ff_curve_residuals(rng):
    fam = make_family(ff_elliptic_spec())
    coeffs = hamiltonian_coeffs(fam, grid())
    out = curve_residuals(fam, coeffs, sample_pts(rng), "ff")
    assert out["ff_condition"] < 1e-10
    assert out["coeff_bilinear"] < 1e-7
    assert out["coeff_quadratic_diff"] < 1e-7
    assert out["ode_a7_square"] < 1e-7


def test_alpha_zero_second_order_ode(rng):
    fam = make_family(ff_hyperbolic_spec(lam=0.8, mu=0.0, gslope=0.2))
    coeffs = hamiltonian_coeffs(fam, grid())
    assert abs(coeffs.m.mean(axis=0)[6]) < 1e-14
    out = curve_residuals(fam, coeffs, sample_pts(rng), "alpha0")
    assert out["second_order_ode"] < 1e-6


#: the keys of each suite, in the order they are reported
CURVE_KEYS = {
    "baxter": ["ode_a5_square", "ode_a1_square", "biquadratic_curve"],
    "ff": ["ff_condition", "coeff_bilinear", "coeff_quadratic_diff",
           "ode_a7_square"],
    "alpha0": ["second_order_ode"],
}
IDENTITY_KEYS = (
    [f"universal_{i}" for i in range(1, 8)]
    + ["reduced_2", "reduced_3"])
BRANCH_KEYS = {
    "ff": ["ff_condition"],
    "baxter": ([f"baxter_quartet_{i}" for i in range(1, 5)]
               + [f"baxter_cubic_{i}" for i in range(1, 4)]
               + ["baxter_bilinear"]),
    "other": [],
}


def test_suites_without_samples_report_zeros():
    fam = make_family(ff_elliptic_spec())
    coeffs = hamiltonian_coeffs(fam, grid())
    for branch, keys in CURVE_KEYS.items():
        out = curve_residuals(fam, coeffs, [], branch)
        assert list(out) == keys and set(out.values()) == {0.0}
    for branch, keys in BRANCH_KEYS.items():
        out = derived_identity_suite(fam, coeffs, [], branch)
        assert list(out) == IDENTITY_KEYS + keys
        assert set(out.values()) == {0.0}
    out = elliptic_ff_identities(fam, [])
    assert list(out) == [f"sn_cd_identity_{i}" for i in range(1, 6)]
    assert set(out.values()) == {0.0}


def test_curve_residuals_unknown_branch():
    fam = make_family(ff_elliptic_spec())
    with pytest.raises(ValueError, match="unknown branch 'ode'"):
        curve_residuals(fam, hamiltonian_coeffs(fam, grid()),
                        sample_pts(np.random.default_rng(0)), "ode")


def test_derived_identities_baxter(rng):
    fam = make_family(baxter_elliptic_spec())
    coeffs = hamiltonian_coeffs(fam, grid())
    out = derived_identity_suite(fam, coeffs, sample_pts(rng), "baxter")
    for i in range(7):
        assert out[f"universal_{i+1}"] < 1e-7
    for i in range(3):
        assert out[f"baxter_cubic_{i+1}"] < 1e-8
    for key in ("reduced_2", "reduced_3"):
        assert out[key] < 1e-7
    for i in range(4):
        assert out[f"baxter_quartet_{i+1}"] < 1e-8
    assert out["baxter_bilinear"] < 1e-10


def test_derived_identities_ff(rng):
    for fid in (FamilyId.FF_ELLIPTIC, FamilyId.FF_HYPERBOLIC):
        fam = make_family(CANONICAL_SPECS[fid]())
        coeffs = hamiltonian_coeffs(fam, grid())
        out = derived_identity_suite(fam, coeffs, sample_pts(rng), "ff")
        for i in range(7):
            assert out[f"universal_{i+1}"] < 1e-7
        for key in ("reduced_2", "reduced_3"):
            assert out[key] < 1e-7
        assert out["ff_condition"] < 1e-10


def test_baxter_violates_ff_condition(rng):
    fam = make_family(baxter_elliptic_spec())
    coeffs = hamiltonian_coeffs(fam, grid())
    out = derived_identity_suite(fam, coeffs, sample_pts(rng), "ff")
    assert out["ff_condition"] > 1e-3


def test_elliptic_ff_identity_suite(rng):
    for spec in (ff_elliptic_spec(), ff_elliptic_spec(delta=-1, s7=-1),
                 CANONICAL_SPECS[FamilyId.FF_TANH]()):
        fam = make_family(spec)
        out = elliptic_ff_identities(fam, sample_pts(rng))
        for key, val in out.items():
            assert val < 1e-9, (spec.family, key, val)
    with pytest.raises(ValueError):
        elliptic_ff_identities(make_family(baxter_elliptic_spec()), [])


def test_identity_suites_by_finite_differences(rng):
    """A family without closed-form coefficients takes the suites' finite
    differences at every sample, and agrees with the closed forms of the
    family it wraps."""
    base = make_family(ff_trig_spec())
    fam = apply(TransformSpec("rescale_spectral", mu=1.0), base)
    coeffs = hamiltonian_coeffs(fam, grid())
    assert not coeffs.analytic
    pts = sample_pts(rng, 8)
    for suite in (derived_identity_suite, curve_residuals):
        fd = suite(fam, coeffs, pts, "ff")
        ana = suite(base, hamiltonian_coeffs(base, grid()), pts, "ff")
        assert fd.keys() == ana.keys()
        for key, val in fd.items():
            assert val < 1e-8, (suite.__name__, key, val)
            assert abs(val - ana[key]) < 1e-8, (suite.__name__, key)


@pytest.mark.parametrize("fid", ALL_IDS)
def test_classify_designated_verdicts(fid):
    fam = make_family(CANONICAL_SPECS[fid]())
    rep = classify(fam, ClassifyPlan(n_ybe=40, seed=3))
    assert rep.verdict.value == FAMILY_CLASS[fid]
    assert rep.ybe_median < 1e-10
    assert rep.is_gauge


@pytest.mark.parametrize("fid", GAUGE_IDS)
def test_classify_scale_regauge_meets_the_initial_value(fid):
    """The initial value is checked on the gauge-reduced form."""
    fam = apply(SCALE_REGAUGE, make_family(CANONICAL_SPECS[fid]()))
    rep = classify(fam, ClassifyPlan(n_ybe=40, seed=3))
    assert rep.verdict.value == FAMILY_CLASS[fid]
    assert not rep.is_gauge
    assert rep.initial_condition_ok and rep.initial_condition_residual < 1e-8
    assert [n.split(" ")[0] for n in rep.notes] == ["gauge-reduced"]


@pytest.mark.parametrize("fid", ALL_IDS)
def test_classify_evaluates_points_only_for_the_initial_value(
        fid, monkeypatch):
    """The initial value was the last stage to evaluate points on their
    own.  Now every point of a plain family (the sweep's first block, the
    initial value and the branch block) is in one ``eval_array`` call, and
    no stage calls the scalar ``eval``."""
    fam = make_family(CANONICAL_SPECS[fid]())
    calls = outermost_calls(monkeypatch)
    rep = classify(fam, ClassifyPlan(n_ybe=40, seed=3))
    assert rep.verdict.value == FAMILY_CLASS[fid]
    assert calls == {"eval_array": 1, "eval": 0}


@pytest.mark.parametrize("fid", GAUGE_IDS)
def test_classify_gauge_reduces_a_pipeline_in_one_call(fid, monkeypatch):
    """Under scale+regauge the family claims no gauge form and has no
    spec, so the sweep's block, gauge_reduce's points and the inner points
    of the gauge form go in one call; the reduced rows are derived from
    them."""
    fam = apply(SCALE_REGAUGE, make_family(CANONICAL_SPECS[fid]()))
    calls = outermost_calls(monkeypatch)
    rep = classify(fam, ClassifyPlan(n_ybe=100, seed=3))
    assert rep.verdict.value == FAMILY_CLASS[fid]
    assert not rep.is_gauge and rep.initial_condition_ok
    assert calls == {"eval_array": 1, "eval": 0}


def _guesses():
    ff = apply(SCALE_REGAUGE, make_family(ff_elliptic_spec()))
    trivial = apply(TransformSpec("swap_14_56"),
                    make_family(CANONICAL_SPECS[FamilyId.TRIVIAL_B]()))
    return [
        # claims gauge form, but its sweep is not: a second call reduces it
        (dataclasses.replace(ff, gauge=True), 2),
        # claims none and has no spec, but its sweep is gauge: its own rows
        # lead the inner points of the one call
        (trivial, 1),
    ]


@pytest.mark.parametrize("fam, calls", _guesses(),
                         ids=["claims_gauge_form", "gauge_rows_unclaimed"])
def test_a_wrong_guess_costs_at_most_one_call(fam, calls, monkeypatch):
    """Which points go in the first call is guessed from the family's gauge
    flag and spec; a wrong guess changes no value."""
    plan = ClassifyPlan(n_ybe=40, seed=3)
    want = classify(dataclasses.replace(fam, gauge=not fam.gauge), plan)
    counts = outermost_calls(monkeypatch)
    assert repr(classify(fam, plan)) == repr(want)
    assert counts == {"eval_array": calls, "eval": 0}


def test_a_wrong_guess_evaluates_no_point_twice(monkeypatch):
    """The second call of a family that claims gauge form but is not holds
    only gauge_reduce's probes and the anchored points of the gauge-form
    points: the gauge-form points themselves were in the first call."""
    fam = _guesses()[0][0]
    calls = []
    batched = WeightFamily.eval_array

    def recording(self, u, xi, eta):
        calls.append(set(zip(u, xi, eta)))
        return batched(self, u, xi, eta)
    monkeypatch.setattr(WeightFamily, "eval_array", recording)
    classify(fam, ClassifyPlan(n_ybe=40, seed=3))
    first, second = calls
    assert not first & second


def test_a_reduced_op_draws_the_probe_plan_once(monkeypatch):
    """classify draws gauge_reduce's probe plan, evaluates its points and
    hands the plan to the reduction, which draws none of its own: each
    reduced op draws once, and a family with a spec, which needs no
    reduction, draws none."""
    drawn = []
    draw = transforms.gauge_points

    def counted(*args, **kwargs):
        drawn.append(1)
        return draw(*args, **kwargs)
    for module in (transforms, importlib.import_module("cybe.classify")):
        monkeypatch.setattr(module, "gauge_points", counted)
    plan = ClassifyPlan(n_ybe=40, seed=3)
    fam = apply(SCALE_REGAUGE, make_family(ff_trig_spec()))
    for ops in (1, 2):
        rep = classify(fam, plan)
        assert rep.notes[0].startswith("gauge-reduced")
        assert len(drawn) == ops
    assert classify(make_family(ff_trig_spec()), plan).notes == ()
    assert len(drawn) == 2


def test_a_failed_gauge_reduction_is_indeterminate():
    """g = 1 - xi eta / 0.45^2 is exactly 0 at the magnitude probe (xi,
    eta) = (0.45, 0.45): the reduction fails with the probe's error, and
    classify stops before the initial value."""
    fam = apply(TransformSpec("scale", g=SpectralProfile(
        "one_plus_bilinear", (-4.938271604938271,))), make_family(
        spec_from_json({"family": "ff_trig", "profiles": {
            "G": {"preset": "cosh", "params": [0.8, 0.4]}}})))
    rep = classify(fam)
    assert rep.verdict is Verdict.INDETERMINATE
    assert rep.ybe_median < 1e-10 and not rep.is_gauge
    assert rep.initial_condition_residual is None
    assert rep.notes == ("gauge reduction failed: scale profile g vanishes "
                         "at a requested point",)


@pytest.mark.parametrize("fid", GAUGE_IDS)
def test_branch_stage_samples_single_points(fid, monkeypatch):
    """The branch conditions read one point per sample: no unitarity
    partner (-u, eta, xi) of a branch point is evaluated beside it."""
    fam = make_family(CANONICAL_SPECS[fid]())
    evaluated = set()
    batched = WeightFamily.eval_array

    def recording(self, u, xi, eta):
        evaluated.update(zip(u, xi, eta))
        return batched(self, u, xi, eta)
    monkeypatch.setattr(WeightFamily, "eval_array", recording)
    plan = ClassifyPlan(n_ybe=40, seed=3)
    classify(fam, plan)
    branch = plan.sample_plan(_N_POINTS)
    u, xi, eta = first_block(branch, _point_spans(branch), _point).columns
    assert len(u) >= _N_POINTS
    assert set(zip(u, xi, eta)) <= evaluated
    assert not evaluated & set(zip(-u, eta, xi))


def test_classify_random_parameterizations(rng):
    for fid in ALL_IDS:
        for trial in range(2):
            spec = random_spec(fid, rng)
            rep = classify(make_family(spec), ClassifyPlan(n_ybe=30, seed=trial))
            assert rep.verdict.value == FAMILY_CLASS[fid], (fid, spec)


def test_classify_perturbed_family(rng):
    base = make_family(ff_elliptic_spec())

    def ev(u, xi, eta):
        a = base.eval(u, xi, eta).a.copy()
        a[6] += 0.1
        return WeightVector(a)

    rep = classify(WeightFamily(spec=None, evaluate=ev, label="pert",
                                gauge=True), ClassifyPlan(n_ybe=30))
    assert rep.verdict is Verdict.NOT_A_SOLUTION


def test_classify_six_vertex_shape():
    fam = make_family(ff_hyperbolic_spec(lam=0.8, mu=0.0, gslope=0.0))
    rep = classify(fam, ClassifyPlan(n_ybe=30))
    assert rep.verdict is Verdict.NOT_EIGHT_VERTEX


def test_classify_scaled_families_via_gauge_reduction():
    t = TransformSpec(kind="scale",
                      g=SpectralProfile("exp_affine", (0.7, 0.2, -0.1)))
    ff = classify(apply(t, make_family(ff_elliptic_spec())),
                  ClassifyPlan(n_ybe=30))
    assert ff.verdict is Verdict.FREE_FERMION
    assert not ff.is_gauge
    bx = classify(apply(t, make_family(baxter_elliptic_spec())),
                  ClassifyPlan(n_ybe=30))
    assert bx.verdict is Verdict.BAXTER


def test_classify_restricted_color_domain():
    # the non-gauge elliptic-exponential construction lives on a positive
    # color window; the plan's spans steer every probe
    from cybe import bazhanov_stroganov
    k = 0.55
    fam = WeightFamily(spec=None,
                       evaluate=lambda u, xi, eta:
                           bazhanov_stroganov(u, xi, eta, k),
                       label="bs", gauge=False)
    plan = ClassifyPlan(n_ybe=30, u_span=(0.05, 0.45),
                        color_span=(0.4, 1.2), max_weight=25.0)
    rep = classify(fam, plan)
    assert rep.verdict is Verdict.FREE_FERMION
    assert not rep.is_gauge


def test_classify_scaled_trivial_is_indeterminate():
    # a scaled trivial solution matches neither literal trivial shape nor a
    # branch condition; the honest verdict is INDETERMINATE with notes
    t = TransformSpec(kind="scale",
                      g=SpectralProfile("exp_affine", (0.4, 0.0, 0.0)))
    from conftest import trivial_a_spec
    rep = classify(apply(t, make_family(trivial_a_spec())),
                   ClassifyPlan(n_ybe=30))
    assert rep.verdict is Verdict.INDETERMINATE
    assert rep.notes


def test_classification_report_json():
    rep = classify(make_family(ff_trig_spec()), ClassifyPlan(n_ybe=30))
    doc = rep.to_json()
    assert doc["verdict"] == "FREE_FERMION"
    assert isinstance(doc["coefficient_invariants"], dict)
    import json
    json.dumps(doc)  # must be serializable


def test_classify_memory_grows_by_the_weights_alone():
    """classify keeps U and the relative residuals of its sweep, not the 28
    components of every triple: a 20 000-sample sweep peaks below 0.45 kB
    of traced memory per sample (about 0.34 kB; 0.58 kB with the
    components kept)."""
    import tracemalloc
    fam = make_family(ff_trig_spec())
    classify(fam, ClassifyPlan(n_ybe=30))
    n = 20_000
    tracemalloc.start()
    try:
        rep = classify(fam, ClassifyPlan(n_ybe=n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict is Verdict.FREE_FERMION
    assert peak < 450 * n

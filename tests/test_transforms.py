"""Solution transformations: involutions, composition, solution preservation
with random payloads, and gauge reduction with its certificate."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybe import (ColorProfile, CybeError, InvalidSpec,
                  MultiplicativityViolation, NotEightVertex, Pipeline,
                  SamplePlan, SpectralProfile, TransformSpec, WeightVector,
                  ZeroDivisor, apply, compose, gauge_reduce, make_family,
                  ybe_residual)
from cybe.families import WeightFamily, bazhanov_stroganov
from cybe.sampling import residual_sweep

from conftest import (CANONICAL_SPECS, baxter_elliptic_spec,
                      ff_elliptic_spec)
from test_families import (ALL_IDS, GAUGE_IDS, IDENTITY,
                           family_relative_residual)


def sample_points(rng, n=12):
    return [(rng.uniform(-0.3, 0.3), rng.uniform(-0.45, 0.45),
             rng.uniform(-0.45, 0.45)) for _ in range(n)]


def assert_same_family(fa, fb, pts, tol=1e-12):
    for (u, xi, eta) in pts:
        assert np.abs(fa.eval(u, xi, eta).a - fb.eval(u, xi, eta).a).max() < tol


def test_swap_is_involution(rng):
    fam = make_family(ff_elliptic_spec())
    for kind in ("swap_23_78", "swap_14_56"):
        t = TransformSpec(kind=kind)
        assert_same_family(apply(t, apply(t, fam)), fam, sample_points(rng))


def test_scale_identity(rng):
    fam = make_family(baxter_elliptic_spec())
    t = TransformSpec(kind="scale", g=SpectralProfile("const", (1.0,)))
    assert_same_family(apply(t, fam), fam, sample_points(rng))


def test_compose_empty_and_inverse(rng):
    fam = make_family(ff_elliptic_spec())
    assert_same_family(apply(compose([]), fam), fam, sample_points(rng))
    t = TransformSpec(kind="swap_23_78")
    assert_same_family(apply(compose([t, t]), fam), fam, sample_points(rng))
    d2 = TransformSpec(kind="rescale_spectral", mu=2.0)
    dh = TransformSpec(kind="rescale_spectral", mu=0.5)
    assert_same_family(apply(compose([d2, dh]), fam), fam, sample_points(rng))


def test_compose_flattens_a_pipeline():
    steps = (TransformSpec("swap_23_78"), TransformSpec("negate_56"))
    last = TransformSpec("swap_14_56")
    assert compose([Pipeline(steps), last]) == Pipeline((*steps, last))


def test_invalid_transform_specs():
    with pytest.raises(InvalidSpec):
        TransformSpec(kind="scale")  # no profile
    with pytest.raises(InvalidSpec):
        TransformSpec(kind="rescale_spectral", mu=0.0)
    with pytest.raises(InvalidSpec):
        TransformSpec(kind="warp")
    with pytest.raises(InvalidSpec, match="swap_23_78 transform takes no "
                                          "field s"):
        TransformSpec(kind="swap_23_78", s=7)
    with pytest.raises(InvalidSpec, match="scale transform takes no field N"):
        TransformSpec(kind="scale", g=SpectralProfile("const", (1.0,)),
                      N=ColorProfile("constant", (2.0,)))


def test_transform_diagnostics():
    from cybe.transforms import transform_diagnostics
    ok = TransformSpec(kind="recolor",
                       f=ColorProfile("affine", (0.8, 0.1)))
    assert transform_diagnostics(ok) == []
    folded = TransformSpec(kind="recolor",
                           f=ColorProfile("cosh", (1.0, 0.0)))  # even map
    assert transform_diagnostics(folded)
    dead = TransformSpec(kind="scale", g=SpectralProfile("sin_bilinear",
                                                         (1.0, 0.0)))
    assert transform_diagnostics(dead)


def test_transform_diagnostics_of_raising_profiles():
    from cybe.transforms import transform_diagnostics
    huge = TransformSpec(kind="regauge", N=ColorProfile("exp", (2000, 0)))
    assert transform_diagnostics(huge) == [
        "regauge profile N cannot be evaluated at 2 of 9 sampled points: "
        "0.375, 0.5 (OverflowError: math range error)",
        "regauge profile N vanishes on the sampled domain"]
    nowhere = TransformSpec(kind="regauge", N=ColorProfile("exp", (0, 800)))
    assert len(transform_diagnostics(nowhere)) == 1
    g = TransformSpec(kind="scale", g=SpectralProfile("exp_affine",
                                                      (3000, 0, 0)))
    assert transform_diagnostics(g)[0].startswith(
        "scale profile g cannot be evaluated at 25 of 125 sampled points: "
        "(0.35, -0.5, -0.5), ")
    f = TransformSpec(kind="recolor", f=ColorProfile("recip_sn", (0.6,)))
    assert transform_diagnostics(f) == [
        "recolor map f cannot be evaluated at 1 of 9 sampled points: 0 "
        "(ZeroDivisionError: complex division by zero)"]


def test_zero_divisor():
    fam = make_family(ff_elliptic_spec())
    t = TransformSpec(kind="scale", g=SpectralProfile("const", (0.0,)))
    wrapped = apply(t, fam)
    with pytest.raises(ZeroDivisor):
        wrapped.eval(0.1, 0.2, 0.3)


def random_transform(rng) -> TransformSpec:
    kind = rng.choice(["swap_23_78", "swap_14_56", "scale", "regauge",
                       "negate_56", "rescale_spectral", "recolor"])
    if kind == "scale":
        return TransformSpec(kind=kind, g=SpectralProfile(
            "exp_affine", tuple(rng.uniform(-0.5, 0.5, 3))))
    if kind == "regauge":
        return TransformSpec(kind=kind,
                             N=ColorProfile("exp", (rng.uniform(-0.8, 0.8), 0)),
                             s=complex(rng.uniform(0.5, 2.0)))
    if kind == "rescale_spectral":
        return TransformSpec(kind=kind, mu=complex(rng.uniform(0.5, 1.8)))
    if kind == "recolor":
        return TransformSpec(kind=kind, f=ColorProfile(
            "affine", (rng.uniform(0.4, 1.2), rng.uniform(-0.2, 0.2))))
    return TransformSpec(kind=kind)


def test_each_transform_preserves_solutions(rng):
    fam = make_family(ff_elliptic_spec())
    kinds = ["swap_23_78", "swap_14_56", "scale", "regauge", "negate_56",
             "rescale_spectral", "recolor"]
    for kind in kinds:
        t = random_transform(rng)
        while t.kind != kind:
            t = random_transform(rng)
        out = apply(t, fam)
        assert family_relative_residual(out, rng, n=12) < 1e-9, kind


def test_random_pipelines_preserve_all_families(rng):
    for fid in ALL_IDS:
        fam = make_family(CANONICAL_SPECS[fid]())
        for _ in range(3):
            pipe = compose([random_transform(rng)
                            for _ in range(rng.integers(1, 4))])
            out = apply(pipe, fam)
            assert family_relative_residual(out, rng, n=8) < 1e-9, fid


def test_pipeline_json_round_trip(rng):
    pipe = compose([random_transform(rng) for _ in range(4)])
    doc = json.loads(json.dumps(pipe.to_json()))
    back = Pipeline.from_json(doc)
    assert back == pipe
    with pytest.raises(InvalidSpec):
        Pipeline.from_json([{"kind": "scale", "bogus": 1}])


# ---- gauge reduction ----

def test_gauge_reduce_passthrough(rng):
    fam = make_family(ff_elliptic_spec())
    red, cert = gauge_reduce(fam)
    assert cert.gauge_residual < 1e-10
    assert abs(cert.l_constant - 1) < 1e-10
    assert abs(cert.nu_estimate) < 1e-8
    assert_same_family(red, fam, sample_points(rng), tol=1e-10)


def test_gauge_reduce_round_trip(rng):
    base = make_family(ff_elliptic_spec())
    pipe = compose([
        TransformSpec(kind="scale",
                      g=SpectralProfile("product", (), (
                          SpectralProfile("exp_affine", (1.0, 0, 0)),
                          SpectralProfile("one_plus_bilinear", (1.0,))))),
    ])
    scaled = apply(pipe, base)
    red, cert = gauge_reduce(scaled)
    assert cert.multiplicativity_defect < 1e-8
    for (u, xi, eta) in sample_points(rng):
        assert np.abs(red.eval(u, xi, eta).a - base.eval(u, xi, eta).a).max() \
            < 1e-9


def test_gauge_reduce_regauged_family(rng):
    base = make_family(ff_elliptic_spec())
    t = TransformSpec(kind="regauge", N=ColorProfile("exp", (1.0, 0.0)),
                      s=2.0)
    red, cert = gauge_reduce(apply(t, base))
    for (u, xi, eta) in sample_points(rng):
        got = red.eval(u, xi, eta).a
        want = base.eval(u, xi, eta).a
        assert np.abs(got - want).max() < 1e-9


def test_gauge_reduce_bs(rng):
    k = 0.55
    fam = WeightFamily(spec=None,
                       evaluate=lambda u, xi, eta:
                           bazhanov_stroganov(u, xi, eta, k),
                       label="bs", gauge=False)
    red, cert = gauge_reduce(fam, anchor=0.7, u_probe=0.2,
                             color_grid=np.linspace(0.4, 1.2, 7))
    assert cert.gauge_residual < 1e-9
    worst = 0.0
    for _ in range(20):
        u, v = rng.uniform(0.05, 0.35, 2)
        xi, eta, lam = rng.uniform(0.4, 1.2, 3)
        wu = red.eval(u, xi, eta)
        assert abs(wu.a2 - 1) < 1e-10 and abs(wu.a3 - 1) < 1e-9
        assert abs(wu.a7 - wu.a8) < 1e-9
        rep = ybe_residual(wu, red.eval(u + v, xi, lam), red.eval(v, eta, lam))
        worst = max(worst, rep.relative)
    assert worst < 1e-9
    # identity initial value in the u -> 0 limit
    w = red.eval(1e-6, 0.8, 0.8)
    assert np.abs(w.a - IDENTITY).max() < 1e-5


def test_gauge_reduce_rejects_dead_weight():
    def ev(u, xi, eta):
        return WeightVector.of(1, 1, 1, 1, 0, 0, 1, 1)

    fam = WeightFamily(spec=None, evaluate=ev, label="dead", gauge=False)
    with pytest.raises(NotEightVertex):
        gauge_reduce(fam)


def test_gauge_reduce_rejects_non_solution():
    base = make_family(ff_elliptic_spec())

    def ev(u, xi, eta):
        a = base.eval(u, xi, eta).a.copy()
        a[1] *= np.exp(0.3 * u * u)  # breaks the cocycle in u
        a[2] *= np.exp(-0.1 * u)
        return WeightVector(a)

    fam = WeightFamily(spec=None, evaluate=ev, label="broken", gauge=False)
    with pytest.raises(MultiplicativityViolation):
        gauge_reduce(fam)


@settings(max_examples=25, deadline=None)
@given(fid=st.sampled_from(GAUGE_IDS), a=st.floats(-1.0, 1.0),
       b=st.floats(1.0, 14.0), c=st.floats(-0.2, 0.2),
       g=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
       s=st.floats(0.5, 2.0) | st.floats(-2.0, -0.5))
def test_gauge_reduce_across_the_branch_cut(fid, a, b, c, g, s):
    """Scale+regauge pipelines whose N = exp((a+ib)x + c) has a phase that
    crosses the negative real axis on the color domain, where the principal
    sqrt(M) changes sign: the reduced family is a solution, or gauge_reduce
    raises a named error; never a silently wrong family."""
    N = ColorProfile("exp", (complex(a, b), c))
    pipe = Pipeline((
        TransformSpec(kind="scale", g=SpectralProfile("exp_affine", tuple(g))),
        TransformSpec(kind="regauge", N=N, s=s)))
    try:
        red, cert = gauge_reduce(apply(pipe,
                                       make_family(CANONICAL_SPECS[fid]())))
    except CybeError:
        return
    assert cert.gauge_residual < 1e-9
    rels = np.concatenate([rel for _, rel, _ in
                           residual_sweep(red, SamplePlan(n=60, seed=1))])
    assert np.median(rels) <= 1e-9


def test_cocycle_property_of_solutions(rng):
    base = make_family(ff_elliptic_spec())
    t = TransformSpec(kind="regauge", N=ColorProfile("exp", (0.7, 0.1)),
                      s=1.3)
    fam = apply(t, base)
    for _ in range(15):
        u, v = rng.uniform(0.05, 0.25, 2)
        xi, eta, lam = rng.uniform(-0.45, 0.45, 3)
        f = lambda uu, a, b: fam.eval(uu, a, b).a3 / fam.eval(uu, a, b).a2
        assert abs(f(u + v, xi, lam) - f(u, xi, eta) * f(v, eta, lam)) < 1e-9

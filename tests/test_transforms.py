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


def _pointwise_diagnostics(t):
    """The reference diagnostics: each sampled point evaluated on its own
    by the scalar profile call."""
    import itertools

    from cybe.families import _sampled
    from cybe.transforms import _DIAG_COLORS, _DIAG_US, _ZERO_TOL
    out = []
    if t.kind == "scale":
        points = [(u, xi, eta) for u in _DIAG_US for xi in _DIAG_COLORS[::2]
                  for eta in _DIAG_COLORS[::2]]
        mags = _sampled(out, "scale profile g", lambda p: abs(t.g(*p)),
                        points, prefix="")
        if min(mags.values(), default=np.inf) < _ZERO_TOL:
            out.append("scale profile g vanishes on the sampled domain")
    elif t.kind == "regauge":
        mags = _sampled(out, "regauge profile N", lambda x: abs(t.N(x)),
                        _DIAG_COLORS, prefix="")
        if min(mags.values(), default=np.inf) < _ZERO_TOL:
            out.append("regauge profile N vanishes on the sampled domain")
    elif t.kind == "recolor":
        vals = _sampled(out, "recolor map f", t.f, _DIAG_COLORS, prefix="")
        if any(abs(a - b) < 1e-10
               for a, b in itertools.combinations(vals.values(), 2)):
            out.append("recolor map f is not injective on the sampled "
                       "color domain")
    return out


def _number(rng):
    """A parameter: mostly moderate, sometimes zero, huge, or complex."""
    pick = rng.integers(6)
    if pick == 0:
        return 0.0
    if pick == 1:
        return float(rng.choice([800.0, 2000.0, -3000.0, 1e308]))
    x = complex(rng.normal(), rng.normal() if pick == 2 else 0.0)
    return x * (4.0 if pick == 3 else 1.0)


def _random_profile(cls, rng, depth=0):
    """A random preset, or a product of up to three of them."""
    if depth == 0 and rng.random() < 0.2:
        return cls("product", (), tuple(_random_profile(cls, rng, 1)
                                        for _ in range(rng.integers(1, 4))))
    preset = rng.choice(sorted(cls._PRESETS))
    count = cls._PRESETS[preset][0]
    if preset in ("recip_sn", "cn_over_sn"):
        return cls(preset, (complex(rng.uniform(0.1, 0.9)),))
    return cls(preset, tuple(_number(rng) for _ in range(count)))


#: profiles that vanish, overflow or divide by zero at sampled points
_PLANTED = (
    ("regauge", ColorProfile("linear", (1.0,))),
    ("regauge", ColorProfile("affine", (1.0, -0.375))),
    ("regauge", ColorProfile("recip_sn", (0.6,))),
    ("regauge", ColorProfile("cosh", (2000.0, 0.0))),
    ("regauge", ColorProfile("constant", (complex(1e308, 1e308),))),
    ("recolor", ColorProfile("constant", (2.0,))),
    ("recolor", ColorProfile("exp", (1500.0, 0.0))),
    ("recolor", ColorProfile("cn_over_sn", (0.3,))),
    ("scale", SpectralProfile("one_plus_bilinear", (-4.0,))),
    ("scale", SpectralProfile("sin_bilinear", (0.0, 1.0))),
    ("scale", SpectralProfile("exp_affine", (2000.0, 0.0, -2500.0))),
    ("scale", SpectralProfile("const", (complex(1e308, -1e308),))),
    ("scale", SpectralProfile("product", (), (
        SpectralProfile("exp_affine", (0.0, 1500.0, 0.0)),
        SpectralProfile("sin_bilinear", (1.0, 0.0))))),
)


def test_batched_diagnostics_are_the_pointwise_ones(rng):
    """transform_diagnostics, which evaluates a scale profile's 125 points
    in one batch call, gives the point-by-point diagnostics word for word
    for every kind: on random profiles and on planted zeros, overflows and
    divisions by zero."""
    from cybe.transforms import transform_diagnostics
    field = {"scale": "g", "regauge": "N", "recolor": "f"}
    cases = list(_PLANTED)
    for _ in range(150):
        kind = str(rng.choice(sorted(field)))
        cls = SpectralProfile if kind == "scale" else ColorProfile
        cases.append((kind, _random_profile(cls, rng)))
    flagged = 0
    for kind, profile in cases:
        t = TransformSpec(kind=kind, **{field[kind]: profile})
        want = _pointwise_diagnostics(t)
        assert transform_diagnostics(t) == want, t
        flagged += bool(want)
    assert flagged >= len(_PLANTED)


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

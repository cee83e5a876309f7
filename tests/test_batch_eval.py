"""The batch evaluation core: array evaluators against the scalar ones, and
the block sampler against the per-candidate rejection loop it replaced.

Batch weights must be bitwise the scalar weights and the validity mask must
be exactly the set of points at which the scalar ``eval`` succeeds; the
sampler must accept the same candidates, hand on the same weights and run
dry at the same attempt."""

import cmath
import collections
import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybe import (ColorProfile, CybeError, FamilyId, FamilySpec, Pipeline,
                  PoleProximity, SamplePlan, SamplingExhausted, SpectralProfile,
                  WeightFamily, WeightVector, apply, gauge_reduce,
                  make_family, sampling, with_bs_profiles, ybe_residuals)
from cybe.cli import _perturbed
from cybe.numkernel import _NEAR_ONE, SCALAR, Batch, Split, jacobi_sncndn
from cybe.sampling import (_DRAW_MAX, _point_pair, _points, _triple_points,
                           _triples, draw_points, draw_triples,
                           residual_sweep)

from conftest import CANONICAL_SPECS, random_spec

# every transform kind, in the order of the golden transform_all_kinds case
ALL_KINDS = Pipeline.from_json(json.loads(
    '[{"kind":"swap_23_78"},{"kind":"swap_14_56"},'
    '{"kind":"scale","g":{"preset":"product","params":[],"factors":['
    '{"preset":"const","params":[[1.5,0.2]]},'
    '{"preset":"one_plus_bilinear","params":[0.3]}]}},'
    '{"kind":"regauge","N":{"preset":"cosh","params":[0.4,0.2]},"s":0.8},'
    '{"kind":"negate_56"},{"kind":"rescale_spectral","mu":0.9},'
    '{"kind":"recolor","f":{"preset":"affine","params":[0.8,0.05]}}]'))

SCALE_REGAUGE = Pipeline.from_json([
    {"kind": "scale", "g": {"preset": "exp_affine",
                            "params": [0.5, 0.1, -0.2]}},
    {"kind": "regauge", "N": {"preset": "exp", "params": [0.7, 0.1]},
     "s": [1.3, 0.4]}])


def bits(a) -> np.ndarray:
    """The bit patterns of a complex array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=complex).view(np.int64)


def scalar_eval(fam, u, xi, eta):
    """(W, ok) from one scalar eval per point; NaN rows where it raises."""
    W = np.full((len(u), 8), np.nan, dtype=complex)
    ok = np.zeros(len(u), dtype=bool)
    for i, p in enumerate(zip(u, xi, eta)):
        try:
            W[i] = fam.eval(*p).a
            ok[i] = True
        except CybeError:
            pass
    return W, ok


def assert_batch_is_scalar(fam, u, xi, eta):
    W, ok = fam.eval_array(u, xi, eta)
    Ws, oks = scalar_eval(fam, u, xi, eta)
    assert np.array_equal(ok, oks)
    assert np.array_equal(bits(W[ok]), bits(Ws[ok]))
    return ok


def points(rng, n, u_span=0.35, color_span=0.5):
    return (rng.uniform(-u_span, u_span, n),
            rng.uniform(-color_span, color_span, n),
            rng.uniform(-color_span, color_span, n))


def families():
    """Base, transformed, gauge-reduced and perturbed families."""
    base = {f.value: make_family(spec())
            for f, spec in CANONICAL_SPECS.items()}
    fams = dict(base)
    fams["bazhanov_stroganov_profiles"] = make_family(with_bs_profiles(0.6))
    for name in ("baxter_trig", "ff_elliptic", "trivial_b"):
        fams[f"all_kinds({name})"] = apply(ALL_KINDS, base[name])
    for name in ("baxter_elliptic", "ff_hyperbolic"):
        fams[f"gauge_reduce({name})"] = gauge_reduce(
            apply(SCALE_REGAUGE, base[name]), anchor=0.0, u_probe=0.14)[0]
    fams["perturb(ff_elliptic)"] = _perturbed(base["ff_elliptic"], "a7", 0.1)
    fams["perturb(all_kinds)"] = _perturbed(fams["all_kinds(baxter_trig)"],
                                            "a1", -0.05)
    # a family with only a scalar evaluator
    fams["user(ff_elliptic)"] = WeightFamily(
        spec=None, evaluate=base["ff_elliptic"].evaluate, label="user")
    return fams


FAMILIES = families()


@pytest.mark.parametrize("name", list(FAMILIES))
def test_batch_equals_scalar(name):
    fam = FAMILIES[name]
    rng = np.random.default_rng(len(name))
    assert_batch_is_scalar(fam, *points(rng, 300))
    # wide spans run into poles and the rejection mask
    ok = assert_batch_is_scalar(fam, *points(rng, 300, 2.5, 2.0))
    assert ok.any()


@pytest.mark.parametrize("kind", [t.kind for t in ALL_KINDS.steps])
@pytest.mark.parametrize("base", ["baxter_elliptic", "ff_trig", "trivial_a"])
def test_each_transform_kind(kind, base):
    step = next(t for t in ALL_KINDS.steps if t.kind == kind)
    fam = apply(step, FAMILIES[base])
    assert fam.batch is not None
    assert_batch_is_scalar(fam, *points(np.random.default_rng(3), 200, 1.5))


def test_vanishing_profiles_mark_zero_divisor():
    zero_g = Pipeline.from_json([{"kind": "scale", "g": {
        "preset": "sin_bilinear", "params": [1.0, 0.0]}}])
    fam = apply(zero_g, FAMILIES["ff_tanh"])
    u = np.array([0.0, 0.2, -0.0, 0.1])
    ok = assert_batch_is_scalar(fam, u, u, u)
    assert ok.tolist() == [False, True, False, True]


def test_overflow_and_nonfinite_are_rejected_without_warnings():
    spec = FamilySpec(family=FamilyId.FF_HYPERBOLIC, lam=2100, mu=0.5,
                      F=ColorProfile("linear", (0.1,)),
                      G=ColorProfile("linear", (0.1,)))
    twice = Pipeline.from_json([{"kind": "scale", "g": {
        "preset": "exp_affine", "params": [700, 0, 0]}}] * 2)
    exp_a = FamilySpec(family=FamilyId.TRIVIAL_A, spectral=SpectralProfile(
        "exp_affine", (700, 0, 0)))
    u = np.linspace(-0.5, 0.5, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam in (make_family(spec), apply(twice, make_family(exp_a))):
            W, ok = fam.eval_array(u, u / 3, -u / 4)
            assert not ok.all() and ok.any()
    # the scalar side raises the same rejections, numpy warnings aside
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fam in (make_family(spec), apply(twice, make_family(exp_a))):
            assert_batch_is_scalar(fam, u, u / 3, -u / 4)


def test_spec_level_error_marks_every_point():
    fam = make_family(FamilySpec(family=FamilyId.FF_ELLIPTIC, k=0.6,
                                 G=ColorProfile("recip_sn", (1.5,)),
                                 H=ColorProfile("cn_over_sn", (1.5,))))
    ok = assert_batch_is_scalar(fam, *points(np.random.default_rng(1), 20))
    assert not ok.any()


def test_user_family_has_no_array_evaluator():
    base = FAMILIES["ff_elliptic"]
    fam = WeightFamily(spec=None, evaluate=base.evaluate, label="user")
    assert fam.batch is None
    assert apply(ALL_KINDS, fam).batch is None
    assert _perturbed(fam, "a5", 0.1).batch is None


_moduli = st.one_of(
    st.just(0j), st.just(1 + 0j),
    st.floats(-_NEAR_ONE, _NEAR_ONE).map(lambda d: complex(1 - abs(d))),
    st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                       allow_infinity=False))
_params = st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                             allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(list(FamilyId)), seed=st.integers(0, 2**16),
       k=_moduli, lam=_params, mu=_params, complex_rates=st.booleans())
def test_random_specs_batch_equals_scalar(family, seed, k, lam, mu,
                                          complex_rates):
    rng = np.random.default_rng(seed)
    spec = random_spec(family, rng)
    changes = {"k": k} if family is FamilyId.FF_ELLIPTIC \
        or family is FamilyId.BAXTER_ELLIPTIC else {}
    if complex_rates and lam != 0 and mu != 0:
        changes.update(lam=lam, mu=mu)
    try:
        fam = make_family(FamilySpec(**{**spec.__dict__, **changes}))
    except CybeError:
        return
    assert_batch_is_scalar(fam, *points(rng, 60, 1.0, 1.0))


# -------------------- the arithmetic --------------------

def _specials():
    sp = [0.0, -0.0, 1.0, -2.5, 1e-310, 3e300, np.inf, np.nan]
    return [complex(a, b) for a, b in itertools.product(sp, repeat=2)]


def _random_complex(rng, n):
    mag = 10.0 ** rng.integers(-8, 8, n)
    return (rng.standard_normal(n) * mag
            + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n))


def test_split_arithmetic_rounds_like_python_complex():
    rng = np.random.default_rng(5)
    a = np.concatenate([_random_complex(rng, 4000),
                        np.repeat(_specials(), 64)])
    b = np.concatenate([_random_complex(rng, 4000), np.tile(_specials(), 64)])
    A, B = Split.of(a), Split.of(b)
    ops = {
        "add": (lambda x, y: x + y), "sub": (lambda x, y: x - y),
        "mul": (lambda x, y: x * y), "div": (lambda x, y: x / y),
        "real_mul": (lambda x, y: 2.5 * y), "int_sub": (lambda x, y: 1 - y),
        "real_div": (lambda x, y: x / 2), "int_rdiv": (lambda x, y: 1 / y),
        "neg": (lambda x, y: -x), "square": (lambda x, y: x ** 2),
    }
    for name, op in ops.items():
        with np.errstate(all="ignore"):
            got = Batch(len(a)).complex(op(A, B))
        for i, (x, y) in enumerate(zip(a.tolist(), b.tolist())):
            try:
                want = op(x, y)
            except (ZeroDivisionError, OverflowError):
                continue
            if cmath.isfinite(want):
                assert bits(got[i]).tolist() == bits(want).tolist(), \
                    (name, x, y)


def test_functions_and_abs_match_cmath():
    rng = np.random.default_rng(6)
    z = np.concatenate([rng.uniform(-800, 800, 600)
                        + 1j * rng.uniform(-800, 800, 600),
                        rng.uniform(-3, 3, 2000)
                        + 1j * rng.uniform(-3, 3, 2000),
                        _specials(), [complex(1.7e308, 1.7e308)]])
    for name in ("sin", "cos", "tan", "sinh", "cosh", "exp", "sqrt", "abs"):
        o = Batch(len(z))
        with np.errstate(all="ignore"):
            got = np.asarray(getattr(o, name)(Split.of(z)) if name == "abs"
                             else o.complex(getattr(o, name)(Split.of(z))))
        for i, x in enumerate(z.tolist()):
            try:
                want = getattr(SCALAR, name)(x)
            except (OverflowError, ValueError):
                assert o.bad[i], (name, x)
                continue
            assert not o.bad[i], (name, x)
            assert bits(got[i]).tolist() == bits(want).tolist(), (name, x)


def test_tan_marks_only_the_elements_that_raise():
    """``Batch.tan`` maps cmath.tan over the column; the elements on which
    cmath.tan raises (an infinite real part) are marked, and no other,
    while every other value is still cmath's bit for bit."""
    z = np.array([0.3 + 0.1j, -1.2 + 4.0j, complex(math.inf, 0.5),
                  2.0 - 0.7j, complex(-math.inf, 2.0), 1e-310 + 0j])
    o = Batch(len(z))
    got = o.complex(o.tan(Split.of(z)))
    assert o.bad.tolist() == [False, False, True, False, True, False]
    for i, x in enumerate(z.tolist()):
        if not o.bad[i]:
            assert bits(got[i]).tolist() == bits(cmath.tan(x)).tolist()
    with pytest.raises(ValueError):
        cmath.tan(z[2])
    clean = Batch(3)
    clean.tan(Split.of(z[[0, 1, 3]]))
    assert not clean.bad.any()


@pytest.mark.parametrize("k", [0, 0.3, 0.6, 0.85, 0.99, 0.5 + 0.2j, 1.0,
                               1 - _NEAR_ONE / 2, 1 - 2 * _NEAR_ONE])
def test_batch_kernel_is_the_scalar_kernel(k):
    rng = np.random.default_rng(7)
    z = rng.uniform(-4, 4, 3000) + 1j * rng.uniform(-2, 2, 3000)
    o = Batch(len(z))
    with np.errstate(all="ignore"):
        got = [o.complex(v) for v in o.sncndn(Split.of(z), k)]
    for i, x in enumerate(z.tolist()):
        try:
            want = jacobi_sncndn(x, k)
        except CybeError:
            assert o.bad[i]
            continue
        assert not o.bad[i]
        assert all(bits(g[i]).tolist() == bits(w).tolist()
                   for g, w in zip(got, want))


#: for each function, the largest plain part (numpy and cmath agree below)
_TOPS = {"sin": 700.0, "cos": 700.0, "sinh": 700.0, "cosh": 700.0,
         "exp": 700.0, "sqrt": 1e100}


def _odd_elements(name):
    """Elements that each force the per-element path of ``name``."""
    top, nan, inf = _TOPS[name], math.nan, math.inf
    odd = [complex(5e-101, 0.5), complex(0.5, -5e-101), complex(2 * top, 0.5),
           complex(0.5, -2 * top), complex(nan, 0.5), complex(0.5, nan),
           complex(inf, 0.5), complex(-inf, 0.5), complex(0.5, inf),
           complex(0.5, -inf)]
    if name == "sqrt":
        odd += [complex(0.0, 0.5), complex(-0.0, -2.0)]
    return odd


@pytest.mark.parametrize("name", list(_TOPS))
def test_functions_take_cmath_only_at_odd_elements(name, monkeypatch):
    """A column of plain elements (parts 0 or in [1e-100, top], and for
    sqrt a nonzero real part) takes numpy's values alone; one odd element
    sends that element, and only it, to cmath.  Values and marks are
    bitwise cmath's either way."""
    rng = np.random.default_rng(8)
    plain = np.concatenate([rng.uniform(-3, 3, 40)
                            + 1j * rng.uniform(-3, 3, 40),
                            rng.uniform(0.1, 3, 8), [1e-100 + 2j, 0.5 - 0j]])
    sent = []
    each = Batch._each

    def recording(self, cmf, z, out, idx):
        sent.append(list(idx))
        return each(self, cmf, z, out, idx)
    monkeypatch.setattr(Batch, "_each", recording)
    for odd in [None, *_odd_elements(name)]:
        z = plain.copy()
        if odd is not None:
            z[17] = odd
        sent.clear()
        o = Batch(len(z))
        with np.errstate(all="ignore"):
            got = o.complex(getattr(o, name)(Split.of(z)))
        assert sent == ([] if odd is None else [[17]]), odd
        for i, x in enumerate(z.tolist()):
            try:
                want = getattr(cmath, name)(x)
            except (OverflowError, ValueError):
                assert o.bad[i], (name, x)
                continue
            assert not o.bad[i], (name, x)
            assert bits(got[i]).tolist() == bits(want).tolist(), (name, x)


@pytest.mark.parametrize("z", [[0.3 + 0.2j, 0.5 + 2j, -1 - 2j], [0.5 + 2j]],
                         ids=["both_branches", "imaginary_branch"])
def test_landen_rung_divides_as_the_scalar_kernel(z, monkeypatch):
    """At k = 0.85 the last Landen rung's denominator 1 + k1 s^2 of
    0.5 + 2i has its larger part imaginary: Smith's method scales those
    rows by the imaginary part, the others by the real part.  The shared
    factors of the rung's three quotients round as three scalar
    divisions."""
    from cybe import numkernel
    branches = []
    over = numkernel._over

    def recording(den, *nums):
        if isinstance(den, Split):
            branches.append(set((np.abs(den.re) >= np.abs(den.im)).tolist()))
        return over(den, *nums)
    monkeypatch.setattr(numkernel, "_over", recording)
    o = Batch(len(z))
    got = [o.complex(v) for v in o.sncndn(Split.of(np.array(z)), 0.85)]
    assert branches[-1] == ({True, False} if len(z) > 1 else {False})
    assert not o.bad.any()
    for i, x in enumerate(z):
        assert all(bits(g[i]).tolist() == bits(w).tolist()
                   for g, w in zip(got, jacobi_sncndn(x, 0.85)))


def test_where_ignores_failures_of_the_untaken_side():
    o = Batch(4)
    z = Split.of(np.array([np.inf, 0.5, np.inf, 0.5], dtype=complex))
    cond = np.array([True, True, False, False])
    with np.errstate(all="ignore"):
        got = o.complex(o.where(cond, 2.0, lambda: o.cos(z)))
    assert o.bad.tolist() == [False, False, True, False]
    assert got[:2].tolist() == [2.0, 2.0] and got[3] == cmath.cos(0.5)


def test_abs_overflow_of_a_finite_value_is_a_rejection():
    # |F| overflows although F is finite; Python's abs raises there
    spec = FamilySpec(family=FamilyId.TRIVIAL_B,
                      F=ColorProfile("affine", (0, 1.5e308 + 1.5e308j)))
    ok = assert_batch_is_scalar(make_family(spec),
                                *points(np.random.default_rng(2), 10))
    assert not ok.any()


def _unbatched_landen(z, m):
    """The Landen recursion computed afresh at every call."""
    ladder = []
    while abs(m) > 1e-10:
        kp = cmath.sqrt(1.0 - m)
        k1 = (1.0 - kp) / (1.0 + kp)
        ladder.append(k1)
        z = z / (1.0 + k1)
        m = k1 * k1
    s, c = cmath.sin(z), cmath.cos(z)
    if m == 0.0:
        sn, cn, dn = s, c, 1.0 + 0j
    else:
        corr = 0.25 * m * (z - s * c)
        sn, cn, dn = s - corr * c, c + corr * s, 1.0 - 0.5 * m * s * s
    for k1 in reversed(ladder):
        s2 = sn * sn
        den = 1.0 + k1 * s2
        sn = (1.0 + k1) * sn / den
        cn = cn * dn / den
        dn = (1.0 - k1 * s2) / den
    return sn, cn, dn


@pytest.mark.parametrize("k", [0.6, 0.5 - 0.2j, 0.3 + 0.4j, complex(0.7, -0.0),
                               complex(-0.0, 0.5), 1e-6j])
def test_ladder_is_the_recursion(k):
    rng = np.random.default_rng(8)
    for z in (rng.uniform(-2, 2, 50) + 1j * rng.uniform(-1, 1, 50)).tolist():
        want = _unbatched_landen(z, complex(k) * complex(k))
        got = jacobi_sncndn(z, k)
        assert all(bits(g).tolist() == bits(w).tolist()
                   for g, w in zip(got, want))


# -------------------- the sampler against its oracle --------------------

def _oracle_accept(fam, pts, max_weight):
    weights = []
    try:
        for p in pts:
            w = fam.eval(*p)
            if not w.scale() <= max_weight:
                return None
            weights.append(w)
    except CybeError:
        return None
    return weights


def oracle_draw(fam, plan, candidate):
    """The per-candidate rejection loop of the unbatched sampler."""
    rng = np.random.default_rng(plan.seed)
    kept = attempts = 0
    while kept < plan.n:
        attempts += 1
        if attempts > sampling._MAX_ATTEMPT_FACTOR * plan.n:
            raise SamplingExhausted("sample rejection rate too high; widen "
                                    "the spans or relax max_weight")
        sample, pts = candidate(rng)
        weights = _oracle_accept(fam, pts, plan.max_weight)
        if weights is not None:
            kept += 1
            yield sample, weights


def _triple_candidate(rng, plan):
    u, v = rng.uniform(*plan.u_span, 2)
    xi, eta, lam = rng.uniform(*plan.color_span, 3)
    return (u, v, xi, eta, lam), _triple_points(u, v, xi, eta, lam)


def _point_candidate(rng, plan):
    u = rng.uniform(*plan.u_span)
    xi, eta = rng.uniform(*plan.color_span, 2)
    return (u, xi, eta), ((u, xi, eta), (-u, eta, xi))


def oracle_triples(fam, plan):
    return oracle_draw(fam, plan, lambda rng: _triple_candidate(rng, plan))


def oracle_points(fam, plan):
    return oracle_draw(fam, plan, lambda rng: _point_candidate(rng, plan))


oracle_triples.candidate = _triple_candidate
oracle_points.candidate = _point_candidate


def oracle_sweep(fam, plan):
    """(U, rel, comp) of all triples of the unbatched sampler, one row per
    triple."""
    accepted = [ws for _, ws in oracle_triples(fam, plan)]
    U, W, V = (np.array([ws[k].a for ws in accepted]) for k in range(3))
    comp, scale = ybe_residuals(U, W, V)
    return U, comp.max(axis=1) / scale, comp


PLANS = [
    SamplePlan(n=1, seed=2),
    SamplePlan(n=129, seed=3),
    SamplePlan(n=700, seed=4),
    SamplePlan(n=60, seed=5, max_weight=1.3),
    SamplePlan(n=80, seed=6, u_span=(-1.5, 1.5), color_span=(-2.0, 2.5)),
]
SAMPLED = ["baxter_elliptic", "ff_elliptic", "ff_hyperbolic", "trivial_b",
           "all_kinds(ff_elliptic)", "gauge_reduce(baxter_elliptic)",
           "perturb(ff_elliptic)", "user(ff_elliptic)"]


def outcome(make):
    """The value of ``make()``, or SamplingExhausted if it runs dry."""
    try:
        return make()
    except SamplingExhausted:
        return SamplingExhausted


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(bits(g), bits(w))


@pytest.mark.parametrize("plan", PLANS, ids=lambda p: f"n{p.n}s{p.seed}")
@pytest.mark.parametrize("name", SAMPLED)
def test_sampler_matches_oracle(name, plan):
    fam = FAMILIES[name]
    want = outcome(lambda: [s for s, _ in oracle_triples(fam, plan)])
    assert outcome(lambda: draw_triples(fam, plan)) == want
    got_blocks = outcome(lambda: list(residual_sweep(fam, plan)))
    if want is SamplingExhausted:
        assert got_blocks is SamplingExhausted
    else:
        # one residual block per accepted block of the sampler
        chunks = [len(S) for S, _, _ in _triples(fam, plan)]
        assert [len(U) for U, _, _ in got_blocks] == chunks
        assert all(0 < c <= _DRAW_MAX for c in chunks)
        U, rel, comp = oracle_sweep(fam, plan)
        assert_same_arrays([np.concatenate(c) for c in zip(*got_blocks)][:2],
                           (U, rel))
        # each block's column max of the oracle's components, NaN ignored
        ends = np.cumsum(chunks)
        assert_same_arrays([top for _, _, top in got_blocks],
                           [np.fmax.reduce(comp[e - c:e], axis=0)
                            for c, e in zip(chunks, ends)])

    small = dataclasses.replace(plan, n=min(plan.n, 50))
    got = outcome(lambda: list(_points(fam, small)))
    want = outcome(lambda: list(oracle_points(fam, small)))
    if want is SamplingExhausted:
        assert got is want
        assert outcome(lambda: draw_points(fam, small)) is want
        return
    assert draw_points(fam, small) == [s for s, _ in want]
    S, W, Wr = (np.concatenate(c)
                for c in zip(*((S, *ws) for S, ws, _ in got)))
    assert [tuple(row) for row in S] == [s for s, _ in want]
    assert_same_arrays((W, Wr), [np.array([ws[k].a for _, ws in want])
                                 for k in range(2)])


@pytest.mark.parametrize("plan, blocks", [
    (SamplePlan(n=60, seed=5, max_weight=1.1), "several"),
    (SamplePlan(n=3, seed=1, max_weight=0.9), "exhausted"),
], ids=["first_block_short", "exhausted"])
@pytest.mark.parametrize("name", ["ff_elliptic", "perturb(ff_elliptic)",
                                  "gauge_reduce(baxter_elliptic)"])
def test_draw_with_a_pre_evaluated_first_block(name, plan, blocks,
                                               monkeypatch):
    """``_draw`` that reads the rows of its first block from the caller
    yields the blocks it yields when it evaluates them, and runs dry at
    the same attempt, with one ``eval_array`` call fewer."""
    fam = FAMILIES[name]
    for spans, pattern in ((sampling._triple_spans(plan), _triple_points),
                           (sampling._point_spans(plan), _point_pair)):
        block = sampling.first_block(plan, spans, pattern)
        first = block, fam.eval_array(*block.columns)
        calls = collections.Counter()
        batched = WeightFamily.eval_array

        def counted(self, *args):
            calls[run] += 1
            return batched(self, *args)
        monkeypatch.setattr(WeightFamily, "eval_array", counted)
        got = {}
        for run in (None, "first"):
            got[run] = outcome(lambda: [
                (S, *W) for S, W, _ in sampling._draw(
                    fam, plan, spans, pattern, first if run else None)])
        monkeypatch.undo()
        if blocks == "exhausted":
            assert got[None] is got["first"] is SamplingExhausted
        else:
            assert len(got["first"]) == len(got[None])
            for want, have in zip(got[None], got["first"]):
                assert_same_arrays(have, want)
        assert calls[None] > 1 and calls["first"] == calls[None] - 1


def _scales(fam, plan, oracle, count):
    """max |weight| over the points of each of the first ``count``
    candidates of ``plan``, inf where a point fails."""
    scales = []
    rng = np.random.default_rng(plan.seed)
    for _ in range(count):
        _, pts = oracle.candidate(rng, plan)
        ws = _oracle_accept(fam, pts, np.inf)
        scales.append(np.inf if ws is None else max(w.scale() for w in ws))
    return scales


@pytest.mark.parametrize("name", ["ff_elliptic", "ff_hyperbolic",
                                  "all_kinds(trivial_b)"])
@pytest.mark.parametrize("which", ["triples", "points"])
def test_exhaustion_fires_at_the_same_attempt(name, which, monkeypatch):
    """With max_weight the third-smallest candidate scale, the sample of
    n = 1 is found at a known attempt; a cap one short must run dry."""
    fam = FAMILIES[name]
    oracle, draw = ((oracle_triples, draw_triples) if which == "triples"
                    else (oracle_points, draw_points))
    for seed in range(3):
        scales = _scales(fam, SamplePlan(seed=seed), oracle, 300)
        plan = SamplePlan(n=1, seed=seed, max_weight=sorted(scales)[2])
        attempt = 1 + next(i for i, s in enumerate(scales)
                           if s <= plan.max_weight)
        monkeypatch.setattr(sampling, "_MAX_ATTEMPT_FACTOR", attempt)
        want = [s for s, _ in oracle(fam, plan)]
        assert draw(fam, plan) == want
        monkeypatch.setattr(sampling, "_MAX_ATTEMPT_FACTOR", attempt - 1)
        for run in (lambda: list(oracle(fam, plan)), lambda: draw(fam, plan)):
            if attempt > 1:
                with pytest.raises(SamplingExhausted):
                    run()


def test_user_family_sampler_matches_the_oracle():
    """A scalar-only family is sampled through per-point ``eval``: the
    accepted samples are the oracle's, each accepted point is evaluated
    once, and every evaluation is a point of a drawn candidate."""
    base = FAMILIES["ff_elliptic"]
    calls = []

    def ev(u, xi, eta):
        calls.append((u, xi, eta))
        return base.evaluate(u, xi, eta)

    fam = WeightFamily(spec=None, evaluate=ev, label="counting")
    plan = SamplePlan(n=40, seed=9, max_weight=1.2)
    want = [s for s, _ in oracle_triples(fam, plan)]
    calls.clear()
    got = draw_triples(fam, plan)
    assert got == want
    counts = collections.Counter(calls)
    assert all(counts[p] == 1 for t in got for p in _triple_points(*t))
    rng = np.random.default_rng(plan.seed)
    drawn = {p for _ in range(sampling._MAX_ATTEMPT_FACTOR * plan.n)
             for p in _triple_candidate(rng, plan)[1]}
    assert set(calls) <= drawn


def test_user_family_eval_array_is_pointwise_eval():
    base = FAMILIES["ff_elliptic"]

    def ev(u, xi, eta):
        if complex(u).real > 0.2:
            raise PoleProximity("planted pole")
        if complex(u).real < -0.2:
            raise OverflowError("planted overflow")
        return base.evaluate(u, xi, eta)

    user = WeightFamily(spec=None, evaluate=ev, label="user")
    rng = np.random.default_rng(4)
    for fam in (user, apply(ALL_KINDS, user), _perturbed(user, "a5", 0.1)):
        ok = assert_batch_is_scalar(fam, *points(rng, 200))
        assert ok.any() and not ok.all()


def test_real_only_user_family_under_wrappers():
    """Wrappers pass the evaluation point on as given: a scalar-only family
    written with ``math`` (real input only) still evaluates under swap,
    negate, scale, regauge and --perturb, point by point."""
    def ev(u, xi, eta):
        e = math.exp(u + xi - eta)
        return WeightVector.of(e, 1, 1, e, e, -e, 1j, 1j)

    user = WeightFamily(spec=None, evaluate=ev, label="real", gauge=False)
    swap, negate = ALL_KINDS.steps[0], ALL_KINDS.steps[4]
    wrapped = [apply(t, user) for t in (swap, negate, *SCALE_REGAUGE.steps)]
    wrapped.append(_perturbed(apply(SCALE_REGAUGE, user), "a5", 0.1))
    u, xi, eta = points(np.random.default_rng(6), 50)
    for fam in wrapped:
        assert fam.batch is None
        assert assert_batch_is_scalar(fam, u, xi, eta).all()
    w = ev(0.1, 0.2, -0.1).a
    swapped = w[[0, 2, 1, 3, 4, 5, 7, 6]]
    assert np.array_equal(wrapped[0].eval(0.1, 0.2, -0.1).a, swapped)
    assert np.array_equal(wrapped[1].eval(0.1, 0.2, -0.1).a[4:6], -w[4:6])


def test_block_draws_are_the_uniform_stream():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        want = [np.concatenate([rng.uniform(-0.35, 0.35, 2),
                                rng.uniform(-0.5, 0.5, 3)])
                for _ in range(500)]
        rng = np.random.default_rng(seed)
        lo = np.array([-0.35] * 2 + [-0.5] * 3)
        got = lo + (-lo - lo) * rng.random((500, 5))
        assert np.array_equal(got, want)

"""Matrix layout, tensor embedding, residual reports, and the gauge-level
condition evaluators."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybe import (COMPONENT_IDS, GAUGE_COMPONENT_IDS, NotGauge,
                  Pipeline, PoleProximity, SamplePlan, SamplingExhausted,
                  WeightFamily, WeightVector, apply, baxter_curve_residual,
                  component_residuals, draw_triples, free_fermion_residual,
                  gauge_reduce, gauge_ybe_residual, make_family,
                  matrix_weights, residual_sweep, tensor_embed, to_matrix,
                  unitarity_defect, unitarity_defects, unitarity_residual,
                  unitarity_sweep, ybe_defect, ybe_residual, ybe_residuals)
from cybe import sampling, weights
from cybe.sampling import _DRAW_MAX, _points, _triple_points, _triples
from cybe.weights import _CHUNK, GAUGE_TOL, gauge_equation_residuals

from conftest import (CANONICAL_SPECS, baxter_elliptic_spec,
                      baxter_trig_spec, ff_elliptic_spec, ff_hyperbolic_spec,
                      ff_tanh_spec)

IDENTITY = WeightVector.of(1, 1, 1, 1, 0, 0, 0, 0)

EPS = np.finfo(float).eps

#: how far, in EPS times the scale of the inputs, the residuals may round
#: away from the matrix-product oracles; the largest gap seen on 10^6
#: random rows is 5.6 (components) and 4.2 (unitarity)
ORACLE_EPS = 8

#: a batch size; the sizes around it give partial, full and split batches
_BLOCK = 128


def rand_weights(rng):
    return WeightVector(rng.normal(size=8) + 1j * rng.normal(size=8))


def test_matrix_layout_identity():
    assert np.array_equal(to_matrix(IDENTITY), np.eye(4))


def test_matrix_layout_corners():
    R = to_matrix(WeightVector.of(0, 0, 0, 0, 0, 0, 1, 1))
    want = np.zeros((4, 4))
    want[0, 3] = want[3, 0] = 1
    assert np.array_equal(R, want)


def test_matrix_round_trip(rng):
    w = rand_weights(rng)
    R = to_matrix(w)
    assert np.allclose(matrix_weights(R).a, w.a, atol=0)
    # all other positions are structurally zero
    mask = np.ones((4, 4), dtype=bool)
    for (i, j) in [(0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1), (0, 3), (3, 0)]:
        mask[i, j] = False
    assert np.all(R[mask] == 0)


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        WeightVector.of(np.nan, 1, 1, 1, 0, 0, 0, 0)


@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.nan),
                                 complex(np.inf, 0), complex(0, np.inf),
                                 complex(-np.inf, 1), complex(1, -np.inf)])
@pytest.mark.parametrize("pos", [0, 4, 7])
def test_nonfinite_rejected_in_either_part(bad, pos):
    a = np.ones(8, dtype=complex)
    a[pos] = bad
    with pytest.raises(ValueError, match="non-finite"):
        WeightVector(a)


def test_wrong_length_rejected():
    with pytest.raises(ValueError, match="exactly eight components"):
        WeightVector(np.zeros(7))


def test_tensor_embed_identity():
    R = to_matrix(IDENTITY)
    assert np.array_equal(tensor_embed(R, 12), np.eye(8))
    assert np.array_equal(tensor_embed(R, 23), np.eye(8))


def test_tensor_embed_kron_oracle(rng):
    R = to_matrix(rand_weights(rng))
    E = tensor_embed(R, 12)
    # row-major pairing: (R x E)[(i,a),(j,b)] = R[i,j] delta_ab
    for i in range(4):
        for a in range(2):
            for j in range(4):
                for b in range(2):
                    want = R[i, j] if a == b else 0
                    assert E[2 * i + a, 2 * j + b] == want
    with pytest.raises(ValueError):
        tensor_embed(R, 13)


def test_residual_identity_weights():
    rep = ybe_residual(IDENTITY, IDENTITY, IDENTITY)
    assert rep.matrix_norm == 0
    assert set(rep.component_norms) == set(COMPONENT_IDS)


def test_component_equations_match_matrix_defect(rng):
    for _ in range(40):
        wu, ww, wv = (rand_weights(rng) for _ in range(3))
        rep = ybe_residual(wu, ww, wv)
        kron = np.abs(ybe_defect(wu, ww, wv)).max()
        assert abs(rep.matrix_norm - kron) < 1e-12 * max(1.0, rep.scale)


def test_solution_family_residual(rng):
    fam = make_family(baxter_elliptic_spec())
    worst = 0.0
    for _ in range(30):
        u, v = rng.uniform(-0.35, 0.35, 2)
        xi, eta, lam = rng.uniform(-0.5, 0.5, 3)
        rep = ybe_residual(fam.eval(u, xi, eta), fam.eval(u + v, xi, lam),
                           fam.eval(v, eta, lam))
        worst = max(worst, rep.relative)
    assert worst < 1e-9


def test_perturbation_has_power(rng):
    fam = make_family(baxter_elliptic_spec())
    u, v = 0.2, -0.15
    xi, eta, lam = 0.3, -0.1, 0.2
    wu = fam.eval(u, xi, eta)
    bad = WeightVector(wu.a + np.array([0, 0, 0, 0, 0, 0, 0.1, 0]))
    rep = ybe_residual(bad, fam.eval(u + v, xi, lam), fam.eval(v, eta, lam))
    assert rep.relative > 1e-3


def test_gauge_equations_are_component_subset(rng):
    fam = make_family(ff_elliptic_spec())
    for _ in range(15):
        u, v = rng.uniform(-0.3, 0.3, 2)
        xi, eta, lam = rng.uniform(-0.5, 0.5, 3)
        wu, ww, wv = (fam.eval(u, xi, eta), fam.eval(u + v, xi, lam),
                      fam.eval(v, eta, lam))
        ge = np.abs(gauge_equation_residuals(wu, ww, wv))
        rep = ybe_residual(wu, ww, wv)
        sub = np.array([rep.component_norms[k] for k in GAUGE_COMPONENT_IDS])
        assert np.abs(ge - sub).max() < 1e-12
        g = gauge_ybe_residual(fam.eval, u, v, xi, eta, lam)
        assert abs(g - sub.max()) < 1e-12


def test_gauge_residual_rejects_non_gauge():
    fam = make_family(baxter_elliptic_spec())

    def scaled(u, xi, eta):
        return WeightVector(fam.eval(u, xi, eta).a * 2.0)

    with pytest.raises(NotGauge):
        gauge_ybe_residual(scaled, 0.1, 0.2, 0.1, -0.2, 0.3)


def test_gauge_residual_zero_at_identity_point():
    fam = make_family(ff_elliptic_spec())
    assert gauge_ybe_residual(fam.eval, 0.0, 0.0, 0.3, 0.3, 0.3) < 1e-14


def test_unitarity():
    for spec in (baxter_elliptic_spec(), ff_elliptic_spec(),
                 ff_hyperbolic_spec()):
        fam = make_family(spec)
        assert unitarity_residual(fam.eval, 0.0, 0.3, 0.3) < 1e-14
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(25):
            u = rng.uniform(-0.3, 0.3)
            xi, eta = rng.uniform(-0.5, 0.5, 2)
            worst = max(worst, unitarity_residual(fam.eval, u, xi, eta))
        assert worst < 1e-9


def test_antisymmetry_of_center_weights(rng):
    for spec in (baxter_elliptic_spec(), baxter_trig_spec(),
                 ff_elliptic_spec(), ff_hyperbolic_spec()):
        fam = make_family(spec)
        for _ in range(20):
            u = rng.uniform(-0.3, 0.3)
            xi, eta = rng.uniform(-0.5, 0.5, 2)
            w = fam.eval(u, xi, eta)
            wr = fam.eval(-u, eta, xi)
            assert abs(w.a5 + wr.a5) < 1e-10
            assert abs(w.a6 + wr.a6) < 1e-10


def test_ff_reflection(rng):
    for spec in (ff_elliptic_spec(), ff_hyperbolic_spec()):
        fam = make_family(spec)
        for _ in range(20):
            u = rng.uniform(-0.3, 0.3)
            xi, eta = rng.uniform(-0.5, 0.5, 2)
            w = fam.eval(u, xi, eta)
            wr = fam.eval(-u, eta, xi)
            assert abs(w.a7 + wr.a7) < 1e-10
            assert abs(w.a4 - wr.a1) < 1e-10


def test_free_fermion_residual_values(rng):
    assert free_fermion_residual(IDENTITY) == 0
    fam = make_family(ff_elliptic_spec())
    for _ in range(15):
        u = rng.uniform(-0.3, 0.3)
        xi, eta = rng.uniform(-0.5, 0.5, 2)
        assert abs(free_fermion_residual(fam.eval(u, xi, eta))) < 1e-10
    bax = make_family(baxter_elliptic_spec(k=0.4, mu=0.7))
    vals = [abs(free_fermion_residual(bax.eval(rng.uniform(0.1, 0.3),
                                               rng.uniform(-0.4, 0.4),
                                               rng.uniform(-0.4, 0.4))))
            for _ in range(15)]
    assert max(vals) > 1e-3


def test_baxter_curve_residual_values(rng):
    start = WeightVector.of(1, 1, 1, 1, 0, 0, 0, 0)
    for (al, be, ga) in [(0.3, 1.2, 0.8), (1.0, 0.5, 0.1)]:
        assert abs(baxter_curve_residual(start, al, be, ga)) < 1e-14
    # measured constants for the elliptic branch
    from cybe import jacobi_sncndn
    spec = baxter_elliptic_spec(k=0.4, lam=1.0, mu=0.7)
    fam = make_family(spec)
    sn, cn, dn = jacobi_sncndn(spec.mu, spec.k)
    alpha = spec.k * spec.lam * sn
    beta = spec.lam / sn
    gamma = spec.lam * cn * dn / sn
    for _ in range(15):
        u = rng.uniform(-0.3, 0.3)
        xi, eta = rng.uniform(-0.5, 0.5, 2)
        w = fam.eval(u, xi, eta)
        assert abs(baxter_curve_residual(w, alpha, beta, gamma)) < 1e-8
    # the free-fermion family does not sit on the curve
    ff = make_family(ff_elliptic_spec())
    vals = [abs(baxter_curve_residual(ff.eval(rng.uniform(0.1, 0.3),
                                              rng.uniform(-0.4, 0.4),
                                              rng.uniform(-0.4, 0.4)),
                                      alpha, beta, gamma))
            for _ in range(15)]
    assert max(vals) > 1e-3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_residual_report_consistency_property(seed):
    r = np.random.default_rng(seed)
    wu, ww, wv = (WeightVector(r.normal(size=8) + 1j * r.normal(size=8))
                  for _ in range(3))
    rep = ybe_residual(wu, ww, wv)
    assert rep.matrix_norm == max(rep.component_norms.values())


# ---- the batched residual path against the scalar oracles ----

SCALE_REGAUGE = Pipeline.from_json([
    {"kind": "scale", "g": {"preset": "exp_affine", "params": [0.5, 0.1, -0.2]}},
    {"kind": "regauge", "N": {"preset": "exp", "params": [0.7, 0.1]},
     "s": [1.3, 0]}])


def perturbed(fam, idx, delta):
    """The additive one-weight perturbation of ``cybe verify --perturb``."""
    def ev(u, xi, eta):
        a = fam.evaluate(u, xi, eta).a.copy()
        a[idx] += delta
        return WeightVector(a)
    return WeightFamily(spec=None, evaluate=ev, label="perturbed", gauge=False)


def oracle_families():
    fams = {f.value: make_family(spec()) for f, spec in CANONICAL_SPECS.items()}
    fams["scale_regauge"] = apply(SCALE_REGAUGE, fams["ff_tanh"])
    fams["perturbed"] = perturbed(fams["ff_elliptic"], 6, 0.1)
    return fams


def triple_weights(fam, n, seed):
    """(n, 8) weight arrays at the three points of n sampled triples."""
    pts = [_triple_points(*t) for t in draw_triples(fam, SamplePlan(n=n, seed=seed))]
    return [np.array([fam.eval(*p[k]).a for p in pts]) for k in range(3)]


def assert_matches_oracle(U, W, V):
    """Every entry of the batch result is bitwise the scalar one:
    ``component_residuals``, their maximum as the norm, and the product of
    the three ``WeightVector.scale`` values; the one-row ``ybe_residual``
    report of each triple equals its row.  The norm is the max-abs entry of
    the kron ``ybe_defect`` up to rounding: within ORACLE_EPS * EPS * scale."""
    comp, scale = ybe_residuals(U, W, V)
    norm = comp.max(axis=1)
    assert scale.shape == (len(U),)
    assert comp.shape == (len(U), len(COMPONENT_IDS))
    rows = [tuple(WeightVector(A[b]) for A in (U, W, V)) for b in range(len(U))]
    assert np.array_equal(comp, [np.abs(component_residuals(*r)) for r in rows])
    kron = np.array([np.abs(ybe_defect(*r)).max() for r in rows])
    assert (np.abs(norm - kron) <= ORACLE_EPS * EPS * scale).all()
    assert np.array_equal(scale, [max(wu.scale(), 1e-300)
                                  * max(ww.scale(), 1e-300)
                                  * max(wv.scale(), 1e-300)
                                  for wu, ww, wv in rows])
    reps = [ybe_residual(*r) for r in rows]
    assert np.array_equal(scale, [rep.scale for rep in reps])
    assert np.array_equal(norm, [rep.matrix_norm for rep in reps])
    assert np.array_equal(comp, [list(rep.component_norms.values())
                                 for rep in reps])


@pytest.mark.parametrize("name", list(oracle_families()))
def test_batch_residuals_match_oracle_per_family(name):
    fam = oracle_families()[name]
    assert_matches_oracle(*triple_weights(fam, 40, seed=len(name)))


@pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2000])
def test_batch_residuals_match_oracle_per_size(size):
    parts = [triple_weights(fam, size // 10 + 1, seed=i)
             for i, fam in enumerate(oracle_families().values())]
    U, W, V = (np.concatenate([p[k] for p in parts])[:size] for k in range(3))
    assert len(U) == size
    assert_matches_oracle(U, W, V)


_weight = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                             allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda b: st.lists(_weight, min_size=24 * b, max_size=24 * b)))
def test_batch_residuals_match_oracle_property(values):
    """Batch equals scalar on arbitrary complex weights with |a| <= 1e6.

    Products of three such weights stay far below the float range.
    Overflow behaviour is out of scope: where products overflow, inf - inf
    gives NaN and numpy warns with a different text for scalars and arrays,
    so equality is not claimed there.
    """
    A = np.array(values, dtype=complex).reshape(-1, 3, 8)
    assert_matches_oracle(A[:, 0], A[:, 1], A[:, 2])


@pytest.mark.parametrize("size", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                  2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1,
                                  700])
def test_batch_residuals_are_their_one_row_results(size):
    """``ybe_residuals`` works through its rows in chunks; every row, on
    either side of the first or the second chunk seam, is bitwise its
    one-row result."""
    rng = np.random.default_rng(size)
    U, W, V = (rng.normal(size=(size, 8)) + 1j * rng.normal(size=(size, 8))
               for _ in range(3))
    comp, scale = ybe_residuals(U, W, V)
    rows = [ybe_residuals(U[b:b + 1], W[b:b + 1], V[b:b + 1])
            for b in range(size)]
    assert np.array_equal(comp, np.concatenate([c for c, _ in rows]))
    assert np.array_equal(scale, np.concatenate([s for _, s in rows]))


def real_block(size, seed, low, zeros):
    """Three (size, 8) complex arrays of real weights: parts of either sign
    and magnitude 10**low up to 1e100 (10**-323 is subnormal), a share
    ``zeros`` of them exact zeros of either sign, and every imaginary part
    a zero of random sign."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        re = (rng.choice([-1.0, 1.0], (size, 8))
              * np.minimum(10.0 ** rng.uniform(low, 100, (size, 8)), 1e100))
        zero = rng.random((size, 8)) < zeros
        re[zero] = np.copysign(0.0, rng.choice([-1.0, 1.0], zero.sum()))
        A = np.empty((size, 8), dtype=complex)
        A.real = re
        A.imag = np.copysign(0.0, rng.choice([-1.0, 1.0], (size, 8)))
        out.append(A)
    return out


def complex_kernel_residuals(U, W, V):
    """What ``ybe_residuals`` returns from the complex kernel alone."""
    with np.errstate(all="ignore"):
        comp = np.abs(weights._components(U, W, V))
    su, sw, sv = (np.maximum(np.abs(A).max(axis=1), 1e-300)
                  for A in (U, W, V))
    return comp, su * sw * sv


def kernel_calls(monkeypatch) -> Counter:
    """Count the calls of the real and the complex kernel."""
    calls = Counter()
    for name in ("_real_components", "_components"):
        def counted(*args, _name=name, _fn=getattr(weights, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(weights, name, counted)
    return calls


@settings(max_examples=30, deadline=None)
@given(size=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2000]),
       seed=st.integers(0, 2**32 - 1), low=st.integers(-323, 100),
       zeros=st.floats(0.0, 0.9))
def test_real_path_is_the_complex_kernel(size, seed, low, zeros):
    """Real weights take the float kernel, and both outputs are the
    complex kernel's bit for bit: every cross term of a product is a zero,
    which leaves the real part as it is, and the complex abs of (x, ±0) is
    |x|."""
    U, W, V = real_block(size, seed, low, zeros)
    with pytest.MonkeyPatch.context() as mp:
        calls = kernel_calls(mp)
        got = ybe_residuals(U, W, V)
    assert calls == {"_real_components": -(-size // _CHUNK)}
    for g, w in zip(got, complex_kernel_residuals(U, W, V)):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("poison", [1e-300j, complex(np.nan, 0),
                                    complex(0, np.nan), complex(np.inf, 0),
                                    complex(-np.inf, 0), 1.0000000000000002e100,
                                    -3e100])
@pytest.mark.parametrize("where", [(0, 0, 0), (1, 300, 7), (2, 599, 3)])
def test_one_entry_sends_the_block_to_the_complex_kernel(poison, where,
                                                        monkeypatch):
    """One nonzero imaginary part, one NaN or infinity, or one magnitude
    above 1e100 anywhere in U, W or V: the whole block takes the complex
    kernel."""
    arrays = real_block(600, 11, -5, 0.1)
    k, row, col = where
    arrays[k][row, col] = poison
    calls = kernel_calls(monkeypatch)
    with np.errstate(all="ignore"):
        got = ybe_residuals(*arrays)
    assert calls == {"_components": -(-600 // _CHUNK)}
    for g, w in zip(got, complex_kernel_residuals(*arrays)):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300, 600])
def test_residual_sweep_blocks_match_scalar_reports(n):
    fam = make_family(ff_elliptic_spec())
    plan = SamplePlan(n=n, seed=n)
    blocks = list(residual_sweep(fam, plan))
    # one residual block per accepted block of the sampler
    chunks = [len(S) for S, _, _ in _triples(fam, plan)]
    assert [len(U) for U, _, _ in blocks] == chunks
    assert sum(chunks) == n and all(c <= _DRAW_MAX for c in chunks)
    U = np.concatenate([b[0] for b in blocks])
    rel = np.concatenate([b[1] for b in blocks])
    pts = [_triple_points(*t) for t in draw_triples(fam, plan)]
    reps = [ybe_residual(*(fam.eval(*p) for p in tp)) for tp in pts]
    assert np.array_equal(U, [fam.eval(*tp[0]).a for tp in pts])
    assert np.array_equal(rel, [rep.relative for rep in reps])
    comp = np.array([list(rep.component_norms.values()) for rep in reps])
    ends = np.cumsum(chunks)
    for (_, _, top), c, e in zip(blocks, chunks, ends):
        assert np.array_equal(top, comp[e - c:e].max(axis=0))


def test_residual_sweep_evaluates_each_point_once():
    """3 evaluations per accepted triple plus those of rejected attempts:
    the sweep evaluates exactly what the rejection loop does."""
    base = make_family(ff_elliptic_spec())
    calls = []

    def ev(u, xi, eta):
        calls.append((u, xi, eta))
        if u > 0.25:
            raise PoleProximity("planted pole")
        return base.evaluate(u, xi, eta)

    fam = WeightFamily(spec=None, evaluate=ev, label="counting")
    plan = SamplePlan(n=_BLOCK + 5, seed=3)
    triples = draw_triples(fam, plan)
    sampler_calls = list(calls)
    calls.clear()
    assert sum(len(U) for U, _, _ in residual_sweep(fam, plan)) == plan.n
    assert calls == sampler_calls
    accepted = {p for t in triples for p in _triple_points(*t)}
    counts = Counter(calls)
    assert len(accepted) == 3 * plan.n
    assert all(counts[p] == 1 for p in accepted)
    rejected = [p for p in calls if p not in accepted]
    assert len(calls) == 3 * plan.n + len(rejected)
    assert any(p[0] > 0.25 for p in rejected)


# ---- the batched unitarity pass against the per-point oracle ----

def unitarity_oracle(w: WeightVector, wr: WeightVector) -> float:
    """The per-point unitarity defect as first written: both gauge checks
    on complex scalars, then R(u) R(-u) - (1 - a5 a6) E on 4x4 matrices.
    Its rounding depends on the BLAS kernel."""
    for x in (w, wr):
        if not (abs(x.a[1] - 1) <= GAUGE_TOL and abs(x.a[2] - 1) <= GAUGE_TOL
                and abs(x.a[6] - x.a[7]) <= GAUGE_TOL):
            raise NotGauge(
                f"unitarity_residual: weights are not gauge-normalized "
                f"(|a2-1|={abs(x.a2-1):.2e}, |a3-1|={abs(x.a3-1):.2e}, "
                f"|a7-a8|={abs(x.a7-x.a8):.2e})")
    prod = (to_matrix(w) @ to_matrix(wr)
            - (1 - w.a5 * w.a6) * np.eye(4, dtype=complex))
    return float(np.abs(prod).max())


def unitarity_entries_oracle(w: WeightVector, wr: WeightVector) -> float:
    """The max-abs of the 8 entries of R(u) R(-u) - (1 - a5 a6) E that are
    not structurally zero, in Python complex scalars."""
    a1, a2, a3, a4, a5, a6, a7, a8 = (w[i] for i in range(8))
    b1, b2, b3, b4, b5, b6, b7, b8 = (wr[i] for i in range(8))
    c = 1 - a5*a6
    prod = {(0, 0): a1*b1 + a7*b8, (0, 3): a1*b7 + a7*b4,
            (3, 0): a8*b1 + a4*b8, (3, 3): a8*b7 + a4*b4,
            (1, 1): a2*b2 + a5*b6, (1, 2): a2*b5 + a5*b3,
            (2, 1): a6*b2 + a3*b6, (2, 2): a6*b5 + a3*b3}
    return max(abs(z - c) if i == j else abs(z)
               for (i, j), z in prod.items())


def gauge_families():
    fams = {f.value: make_family(spec())
            for f, spec in CANONICAL_SPECS.items()}
    fams = {name: fam for name, fam in fams.items() if fam.gauge}
    fams["gauge_reduce(scale_regauge)"] = gauge_reduce(
        apply(SCALE_REGAUGE, fams["ff_tanh"]))[0]
    return fams


@pytest.mark.parametrize("name", list(gauge_families()))
def test_unitarity_defects_are_the_per_point_defects(name, monkeypatch):
    """Blocks of 256 and 44 points (one full block and one partial, under a
    block cap of 256): every batch entry is bitwise the one-row
    ``unitarity_defect`` and the per-entry scalar oracle of its point, and
    within ORACLE_EPS * EPS * scale of the 4x4 matrix oracle."""
    monkeypatch.setattr(sampling, "_DRAW_MAX", 256)
    fam = gauge_families()[name]
    blocks = [pair for _, pair, _ in _points(fam, SamplePlan(n=300, seed=4))]
    assert [len(W) for W, _ in blocks] == [256, 44]
    for W, Wr in blocks:
        got = unitarity_defects(W, Wr)
        rows = [(WeightVector(a), WeightVector(b)) for a, b in zip(W, Wr)]
        assert np.array_equal(got, [unitarity_defect(*r) for r in rows])
        assert np.array_equal(got, [unitarity_entries_oracle(*r)
                                    for r in rows])
        # the entries are sums of products of one weight of each point,
        # and 1 - a5 a6
        scale = np.maximum(1, np.maximum(np.abs(W).max(axis=1),
                                         np.abs(Wr).max(axis=1))) ** 2
        matmul = np.array([unitarity_oracle(*r) for r in rows])
        assert (np.abs(got - matmul) <= ORACLE_EPS * EPS * scale).all()
        assert got.max() < 1e-12
    swept = list(unitarity_sweep(fam, SamplePlan(n=300, seed=4)))
    assert np.array_equal(np.concatenate(swept),
                          np.concatenate([unitarity_defects(*p)
                                          for p in blocks]))


def first_not_gauge(W, Wr) -> str | None:
    """The message of the first NotGauge the per-point oracle raises."""
    for a, b in zip(W, Wr):
        try:
            unitarity_oracle(WeightVector(a), WeightVector(b))
        except NotGauge as exc:
            return str(exc)
    return None


def test_unitarity_defects_raise_at_the_first_non_gauge_point():
    """Row 3 breaks the gauge at the partner point only, row 5 at both; the
    message is the per-point one of row 3's partner."""
    fam = make_family(ff_tanh_spec())
    (_, (W, Wr), _), = _points(fam, SamplePlan(n=8, seed=1))
    W, Wr = W.copy(), Wr.copy()
    Wr[3, 6] += 3e-3
    W[5, 1] += 0.25
    Wr[5, 2] -= 0.5
    want = first_not_gauge(W, Wr)
    assert want == ("unitarity_residual: weights are not gauge-normalized "
                    "(|a2-1|=0.00e+00, |a3-1|=0.00e+00, |a7-a8|=3.00e-03)")
    with pytest.raises(NotGauge) as exc:
        unitarity_defects(W, Wr)
    assert str(exc.value) == want
    with pytest.raises(NotGauge) as exc:
        unitarity_defect(WeightVector(W[5]), WeightVector(Wr[5]))
    assert str(exc.value) == first_not_gauge(W[5:], Wr[5:])


def test_non_gauge_family_raises_the_per_point_message():
    """A family declared gauge whose weights leave the gauge for u > 0.1."""
    base = make_family(ff_elliptic_spec())

    def ev(u, xi, eta):
        a = base.eval(u, xi, eta).a.copy()
        if u > 0.1:
            a[1] += 0.1 * u
        return WeightVector(a)

    fam = WeightFamily(spec=None, evaluate=ev, label="leaves_gauge",
                       gauge=True)
    plan = SamplePlan(n=50, seed=7)
    (_, (W, Wr), _), = _points(fam, plan)
    want = first_not_gauge(W, Wr)
    assert want is not None and want.startswith(
        "unitarity_residual: weights are not gauge-normalized (|a2-1|=")
    with pytest.raises(NotGauge) as exc:
        list(unitarity_sweep(fam, plan))
    assert str(exc.value) == want


def test_non_gauge_point_raises_before_the_next_block_is_drawn():
    """Only the first block of 10 + 10 // 32 + 4 = 14 candidates evaluates
    without a pole, and it holds fewer than 10 accepted points; every later
    block is rejected whole, so sampling would be exhausted."""
    base = make_family(ff_tanh_spec())
    first_block = 2 * 14   # a point and its unitarity partner per candidate

    def family(shift):
        calls = []

        def ev(u, xi, eta):
            calls.append(u)
            if len(calls) > first_block or abs(xi) < 0.2:
                raise PoleProximity("no weights here")
            a = base.eval(u, xi, eta).a.copy()
            a[1] += shift
            return WeightVector(a)

        fam = WeightFamily(spec=None, evaluate=ev, label="one_block",
                           gauge=True)
        return fam, calls

    plan = SamplePlan(n=10)
    fam, calls = family(0.0)
    with pytest.raises(SamplingExhausted):
        list(unitarity_sweep(fam, plan))
    assert len(calls) > first_block
    fam, calls = family(0.5)
    with pytest.raises(NotGauge):
        list(unitarity_sweep(fam, plan))
    assert len(calls) == first_block

"""The verify and classify sweeps: outputs that do not depend on how the
sampler sizes its blocks, the float path of the unitarity defects, and the
memory classify holds per sample."""

import tracemalloc
from collections import Counter
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cybe import (PoleProximity, SamplePlan, SamplingExhausted, WeightFamily,
                  WeightVector, make_family, sampling, spec_from_json,
                  unitarity_sweep, weights)
from cybe.classify import ClassifyPlan, Verdict, classify
from cybe.numkernel import Split
from cybe.sampling import (_point_pair, _point_spans, _triple_points,
                           _triple_spans)
from cybe.weights import _WEIGHT_BOUND, unitarity_defects

from conftest import (CANONICAL_SPECS, ff_elliptic_spec, ff_tanh_spec,
                      ff_trig_spec)
from test_golden_cli import CASES, run
from test_weights import unitarity_entries_oracle


def sizing(first, later):
    """A ``_block_size`` whose first block holds ``first(need)`` candidates
    and a later one ``later(need * attempts / kept)``."""
    def size(need, kept, attempts):
        if not attempts:
            return first(need)
        if not kept:
            return sampling._DRAW_MAX
        return later(need * attempts / kept)
    return size


MARGINS = {
    "none": sizing(lambda n: n, ceil),
    "1/32": sampling._block_size,
    "1/4": sizing(lambda n: n + n // 4 + 4, lambda x: ceil(1.25 * x) + 4),
    "10x": sizing(lambda n: 10 * n, lambda x: ceil(10 * x)),
}


def _poles(u, xi, eta):
    """ff_elliptic with a pole wherever u > 0.2."""
    if u > 0.2:
        raise PoleProximity("planted pole")
    return _FF.eval(u, xi, eta)


_FF = make_family(ff_elliptic_spec())
DRAW_FAMILIES = {
    "ff_elliptic": _FF,
    "baxter_trig": make_family(CANONICAL_SPECS["baxter_trig"]()),
    "planted_poles": WeightFamily(spec=None, evaluate=_poles, label="poles"),
}
DRAW_PLANS = {
    "one_block": SamplePlan(n=150, seed=2),
    "several": SamplePlan(n=60, seed=5, max_weight=1.3),
    "capped": SamplePlan(n=900, seed=4),
    "exhausted": SamplePlan(n=3, seed=1, max_weight=0.9),
}


def drawn(fam, plan, spans, pattern):
    """The concatenated (samples, weights..., magnitudes...) that a draw
    yields, whether it runs dry, and the number of points it evaluates."""
    counted = []
    batched = fam.eval_array

    class Counting:
        def eval_array(self, u, xi, eta):
            counted.append(len(u))
            return batched(u, xi, eta)

    blocks, dry = [], False
    try:
        for S, W, M in sampling._draw(Counting(), plan, spans, pattern):
            blocks.append((S, *W, *M))
    except SamplingExhausted:
        dry = True
    return [np.concatenate(c) for c in zip(*blocks)], dry, sum(counted)


@pytest.mark.parametrize("plan", list(DRAW_PLANS.values()),
                         ids=list(DRAW_PLANS))
@pytest.mark.parametrize("name", list(DRAW_FAMILIES))
def test_draws_do_not_depend_on_the_block_sizes(name, plan, monkeypatch):
    """Block draws are one stream, so under every margin the draw accepts
    the first n valid candidates: the same samples, weights and
    magnitudes, or, when it runs dry, the same ones after evaluating every
    candidate of the attempt cap."""
    fam = DRAW_FAMILIES[name]
    for spans, pattern in ((_triple_spans(plan), _triple_points),
                           (_point_spans(plan), _point_pair)):
        got = {}
        for margin, size in MARGINS.items():
            monkeypatch.setattr(sampling, "_block_size", size)
            got[margin] = drawn(fam, plan, spans, pattern)
        want, dry, _ = got["1/32"]
        per = len(pattern(*np.zeros((len(spans), 1))))
        for margin, (arrays, ran_dry, count) in got.items():
            assert ran_dry == dry, margin
            assert len(arrays) == len(want), margin
            for a, w in zip(arrays, want):
                assert np.array_equal(a.view(np.uint8), w.view(np.uint8)), \
                    margin
            if dry:
                assert count == per * sampling._MAX_ATTEMPT_FACTOR * plan.n
            else:
                assert len(arrays[0]) == plan.n
        # the magnitudes handed on are those of the weights
        for W, M in zip(want[1:1 + per], want[1 + per:]):
            assert np.array_equal(M, np.abs(W).max(axis=1))
        assert dry == (plan is DRAW_PLANS["exhausted"])


_MARGIN_CASES = ["verify_max_weight_high_rejection",
                 "verify_sampling_exhausted", "verify_perturbed_blocks",
                 "verify_complex_weights", "classify_scale_regauge_blocks",
                 "classify_perturbed"]


@pytest.mark.parametrize("margin", list(MARGINS))
def test_golden_bytes_do_not_depend_on_the_block_sizes(margin, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sampling, "_block_size", MARGINS[margin])
    cases = [c for c in CASES if c["name"] in _MARGIN_CASES]
    assert len(cases) == len(_MARGIN_CASES)
    for case in cases:
        assert run(case["argv"]) == (case["exit"], case["stdout"],
                                     case["stderr"]), case["name"]


# ---- the float path of the unitarity defects ----

_ENTRIES = weights._unitarity_entries


def split_path(W, Wr):
    """``unitarity_defects`` on ``Split`` columns, whatever the weights."""
    entries = _ENTRIES([Split.of(c) for c in W.T],
                       [Split.of(c) for c in Wr.T])
    return np.max([np.hypot(e.re, e.im) for e in entries], axis=0)


def entry_calls(monkeypatch) -> Counter:
    """Count the calls of ``_unitarity_entries`` by the type of its
    columns: ``ndarray`` on the float path, ``Split`` on the other."""
    calls = Counter()

    def counted(a, b):
        calls[type(a[0]).__name__] += 1
        return _ENTRIES(a, b)
    monkeypatch.setattr(weights, "_unitarity_entries", counted)
    return calls


_parts = st.one_of(
    st.floats(-1e100, 1e100, allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e100, -1e100]))


def gauge_pair(values, signs):
    """Real (B, 8) weight arrays W, Wr in gauge form (a2 = a3 = 1,
    a7 = a8) from 5 parts per row and point, every imaginary part a zero
    of the sign in ``signs``."""
    parts = np.array(values).reshape(-1, 2, 5)
    out = []
    for k in range(2):
        a1, a4, a5, a6, a7 = parts[:, k].T
        A = np.empty((len(parts), 8), dtype=complex)
        A.real = np.stack([a1, np.ones_like(a1), np.ones_like(a1), a4, a5,
                           a6, a7, a7], axis=1)
        A.imag = np.copysign(0.0, np.array(signs[k]).reshape(-1, 8))
        out.append(A)
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 64).flatmap(lambda b: st.tuples(
    st.lists(_parts, min_size=10 * b, max_size=10 * b),
    st.lists(st.lists(st.sampled_from([1.0, -1.0]), min_size=8 * b,
                      max_size=8 * b), min_size=2, max_size=2))))
def test_real_unitarity_is_the_split_path(drawn_block):
    """Real gauge weights up to 1e100, with zeros of either sign and
    subnormals, take the float path, and each defect is bitwise the
    ``Split`` path's and the scalar entries oracle's."""
    W, Wr = gauge_pair(*drawn_block)
    with pytest.MonkeyPatch.context() as mp:
        calls = entry_calls(mp)
        got = unitarity_defects(W, Wr)
    assert calls == {"ndarray": 1}
    want = split_path(W, Wr)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    oracle = [unitarity_entries_oracle(WeightVector(a), WeightVector(b))
              for a, b in zip(W, Wr)]
    assert np.array_equal(got, oracle)


@pytest.mark.parametrize("poison", [1e-300j, complex(0, -2.0),
                                    complex(np.nan, 0), complex(np.inf, 0),
                                    1.0000000000000002e100, -3e100])
@pytest.mark.parametrize("where", [(0, 0, 0), (1, 40, 3), (0, 63, 4)])
def test_one_entry_sends_the_unitarity_block_to_split(poison, where,
                                                      monkeypatch):
    """One nonzero imaginary part, one non-finite weight or one magnitude
    above the bound in W or Wr: the whole block takes ``Split`` columns."""
    rng = np.random.default_rng(7)
    W, Wr = gauge_pair(rng.uniform(-3, 3, 64 * 10),
                       rng.choice([1.0, -1.0], (2, 64 * 8)))
    k, row, col = where
    (W, Wr)[k][row, col] = poison
    assert not (abs(poison) <= _WEIGHT_BOUND and poison.imag == 0)
    calls = entry_calls(monkeypatch)
    with np.errstate(all="ignore"):
        got = unitarity_defects(W, Wr)
        want = split_path(W, Wr)
    assert calls == {"Split": 1}
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


#: an ff_trig family with complex weights (golden verify_complex_weights)
COMPLEX_TRIG = {"family": "ff_trig", "k": [0.5, 0.0], "lambda": [0.9, 0.3],
                "mu": [0.5, 0.0], "signs": {"s5": 1, "s7": 1, "delta": 1},
                "profiles": {"F": {"preset": "linear", "params": [[0.2, 0.1]]},
                             "G": {"preset": "cosh",
                                   "params": [[0.8, 0.2], [0.4, 0.1]]}}}


@pytest.mark.parametrize("spec, path", [
    (ff_tanh_spec(), "ndarray"), (spec_from_json(COMPLEX_TRIG), "Split")],
    ids=["real", "complex"])
def test_unitarity_sweep_takes_the_float_path_on_real_weights(spec, path,
                                                              monkeypatch):
    """Each block of the sweep takes the float path on ff_tanh's real
    weights and ``Split`` columns on complex ff_trig weights."""
    fam = make_family(spec)
    calls = entry_calls(monkeypatch)
    blocks = list(unitarity_sweep(fam, SamplePlan(n=50, seed=3)))
    assert calls == {path: len(blocks)}


# ---- memory of a classify sweep ----

def test_classify_holds_the_sweep_weights_once():
    """The sweep's weights at (u, xi, eta) are kept in one (n, 8) array
    filled block by block, not as blocks and then their concatenation:
    a 20 000-sample classify peaks below 0.25 kB of traced memory per
    sample (0.34 kB with U held twice, the two copies being 0.256 kB)."""
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
    assert peak < 250 * n

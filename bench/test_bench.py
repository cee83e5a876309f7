"""Self-tests of the benchmark harness (run with ``python3 -m pytest bench``)."""

from __future__ import annotations

import itertools
import os
import random
import sys
from functools import reduce

import numpy as np

import oracles
import stats
import tracing
import workloads
from worker import Loop

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))


def _loop_with(latencies):
    loop = Loop(main=None, check=None, n_slots=1)
    loop.slots = [0] * len(latencies)
    loop.latencies = list(latencies)
    return loop


def test_p90_needs_ten_samples_beyond_it():
    assert not _loop_with([float(i) for i in range(99)]).enough(tail=True)
    assert _loop_with([float(i) for i in range(100)]).enough(tail=True)
    values = [float(i) for i in range(100)]
    p90 = stats.weighted_quantile(values, [1.0] * 100, 0.9)
    assert p90 == 89.0
    assert stats.tail_count(values, p90) == 10
    assert stats.tail_ok(values, p90)
    assert not stats.tail_ok(values[:99], p90)


def test_slot_weights_count_each_slot_once():
    # slot 0 ran three times, slot 1 once: both weigh the same in total
    slots = [0, 0, 0, 1]
    w = stats.slot_weights(slots)
    assert sum(x for x, s in zip(w, slots) if s == 0) == 1.0
    s = stats.summarize(slots, [1.0, 1.0, 1.0, 3.0], [True] * 3 + [False])
    assert s["ops_per_s"] == 0.5            # mean latency (1 + 3) / 2
    assert s["ok_ratio"] == 0.5
    assert s["op_p90_ms"] == 3000.0


class _Clock:
    """Advances one unit per reading."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def _nested(tracer, leaf_name):
    leaf = tracer.wrap(lambda: None, leaf_name)
    mid = tracer.wrap(lambda: (leaf(), leaf()), "sampling.triples")
    top = tracer.wrap(lambda: (mid(), leaf()), "cli.main")
    return top


def test_self_time_is_duration_minus_children():
    # clock readings: top 1-10, mid 2-7, leaves 3-4, 5-6 and 8-9
    tracer = tracing.Tracer(clock=_Clock())
    _nested(tracer, "classify.coeffs")()
    spans = {s["name"]: s for s in tracer.spans}
    top, mid = spans["cli.main"], spans["sampling.triples"]
    leaves = [s for s in tracer.spans if s["name"] == "classify.coeffs"]
    assert [s["end"] - s["start"] for s in leaves] == [1.0, 1.0, 1.0]
    assert [s["self"] for s in leaves] == [1.0, 1.0, 1.0]
    assert mid["end"] - mid["start"] == 5.0 and mid["self"] == 3.0
    assert top["end"] - top["start"] == 9.0 and top["self"] == 3.0
    assert mid["parent"] == top["id"] and top["parent"] is None
    assert [s["parent"] for s in leaves] == [mid["id"], mid["id"], top["id"]]


def test_hot_leaves_are_aggregated_per_parent():
    # same clock readings as above, with the leaves folded into rows
    tracer = tracing.Tracer(clock=_Clock())
    _nested(tracer, "numkernel.sncndn")()
    assert [s["name"] for s in tracer.spans] == ["sampling.triples", "cli.main"]
    assert [s["self"] for s in tracer.spans] == [3.0, 3.0]
    rows = {(k[1], k[2]): v for k, v in tracer.aggs.items()}
    # [calls, busy, self, errors]
    assert rows[("sampling.triples", "numkernel.sncndn")] == [2, 2.0, 2.0, 0]
    assert rows[("cli.main", "numkernel.sncndn")] == [1, 1.0, 1.0, 0]
    m = tracing.layer_metrics(tracer, n_ops=1)
    assert m["numkernel.calls"] == (3.0, "1/op")
    assert m["numkernel.self_s"][0] == 3.0
    assert m["sampling.self_s"][0] == 3.0
    assert m["cli.self_s"][0] == 3.0


def test_base_evaluations_under_wrappers_are_traced():
    from cybe.cli import _perturbed
    from cybe.families import make_family, spec_from_json
    from cybe.transforms import Pipeline, apply

    rng = random.Random(3)
    spec = spec_from_json(workloads._spec("ff_trig", rng))
    pipe = Pipeline.from_json(workloads._pipeline(rng))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        scaled = apply(pipe, make_family(spec))          # scale, then regauge
        perturbed = _perturbed(scaled, "a1", 0.1 + 0j)

        def top():
            for i in range(5):
                perturbed.eval(0.1 * i, 0.3, -0.2)
        tracer.wrap(top, "classify.classify")()
    finally:
        uninstall()
    rows = {(k[1], k[2]): v[0] for k, v in tracer.aggs.items()}
    # perturb -> regauge -> scale -> base: one span per level and evaluation
    assert rows[("classify.classify", "cli.eval")] == 5
    assert rows[("cli.eval", "transforms.eval")] == 5
    assert rows[("transforms.eval", "transforms.eval")] == 5
    assert rows[("transforms.eval", "families.eval")] == 5
    assert {name for _, name in rows} & set(tracing.EVALS) == set(tracing.EVALS)
    m = tracing.layer_metrics(tracer, n_ops=1)
    assert m["families.evals"][0] == 5 and m["transforms.evals"][0] == 10
    assert all(m[k][0] > 0 for k in ("families.self_s", "transforms.self_s",
                                     "cli.self_s"))
    # uninstall restores the class: a family built now is not traced
    assert not hasattr(make_family(spec).evaluate, "span_name")


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _site(op, j, n):
    return reduce(np.kron, [op if i == j else np.eye(2) for i in range(n)])


def _hand_built(c, n, periodic):
    bonds = [(j, j + 1) for j in range(n - 1)] + ([(n - 1, 0)] if periodic else [])
    H = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for a, b in bonds:
        for op, J in ((_X, c["jx"]), (_Y, c["jy"]), (_Z, c["jz"])):
            H += J * _site(op, a, n) @ _site(op, b, n)
        H += 0.5 * c["h"] * (_site(_Z, a, n) + _site(_Z, b, n))
    return H


def test_frobenius_oracle_on_hand_built_hamiltonian():
    c = {"jx": 0.7, "jy": -0.3, "jz": 1.1, "h": 0.45}
    for n, periodic in itertools.product((3, 4, 5), (False, True)):
        H = _hand_built(c, n, periodic)
        direct = float(np.vdot(H, H).real)
        assert abs(oracles.frobenius_sq(c, n, periodic) - direct) < 1e-9 * direct
        assert oracles.check_matrix(H, c, n, periodic, real=True) is None
        bad = H.copy()
        bad[0, 0] += 0.1
        assert oracles.check_matrix(bad, c, n, periodic, real=True)
        assert oracles.check_matrix(H, c, n, not periodic, real=True)


def test_strict_json_rejects_nan():
    doc = '{"verdict": "NOT_A_SOLUTION", "initial_condition_residual": NaN}'
    expect = {"kind": "classify", "verdict": "NOT_A_SOLUTION", "exit": 1}
    reason, wrong = oracles.check(expect, 1, doc)
    assert reason and "strict JSON" in reason and not wrong
    reason, wrong = oracles.check(expect, 0, doc)
    assert reason and wrong


def test_workloads_are_a_function_of_the_seed():
    for w in workloads.WORKLOADS:
        n = workloads.slot_count(w)
        a = list(itertools.islice(workloads.ops(w, 7, "tmp"), 2 * n))
        b = list(itertools.islice(workloads.ops(w, 7, "tmp"), 2 * n))
        c = list(itertools.islice(workloads.ops(w, 8, "tmp"), 2 * n))
        assert a == b and a != c
        assert sorted(op["slot"] for op in a[:n]) == list(range(n))

"""Seeded workload generator for the cybe benchmark.

The generator takes the seed as an argument and emits only JSON: family
specs, transform pipelines and the ``cybe`` argv of each op together with
the outcome the op must produce.  It imports nothing from the package or
from ``tests/``, so neither a program change nor a test edit can silently
change a workload.  It uses only the standard-library ``random`` module, so
the inputs do not depend on the numpy version either.

Every workload is a closed loop with one client.  Ops are dealt in rounds:
a round is the workload's fixed template of slots, shuffled by the seed,
and each slot always carries the same op class (size, transform, perturbed
or not).  The statistics weight every slot equally, so a run that stops
part-way through a round still reports the figures of the fixed op mix.

Workloads, why each was chosen, and the per-layer metrics each should move
(layer metric -> end-to-end metric):

``verify_sweep``
    ``cybe verify`` on random valid specs of all eight families, samples
    drawn from a ladder of sizes up to 2000, one op in eight perturbed (it
    must exit 1).  No transform pipelines.  Why: the residual is about 60%
    of op time (half of that the kron ``ybe_defect``), family evaluation
    about 30% with ~6.3 base evaluations per verified triple because every
    accepted triple is evaluated twice, the elliptic kernel about 7%.
    ``transforms``, ``classify`` and ``spinchain`` are never called.  This
    is where batch evaluation, residual or kernel work shows.
    Predictions: numkernel.*, profiles.*, families.* (incl.
    evals_per_triple), weights.residual/defect/components/vectors.*,
    sampling.* -> ops_per_s (and op_p50_ms for the residual); no effect
    expected from transforms.*, classify.*, spinchain.*.

``classify_mix``
    ``cybe classify`` at default size on plain specs of all eight families
    (expected verdict: the designated one) and scale+regauge pipelines on
    the six gauge families (non-gauge input, forces ``gauge_reduce``, keeps
    the verdict).  Why: ops are short (40-90 ms), so per-op CLI overhead
    and fresh-family set-up matter; nested scalar evaluation through
    transform wrappers is about a third of the time and builds a new
    ``WeightVector`` at every wrapper level.  A batch path that helps big
    sweeps but slows scalar calls shows here.  No op is perturbed: at the
    seed a ``NOT_A_SOLUTION`` report prints ``NaN``, which is not JSON, so
    every perturbed op would fail the strict-JSON check.  The benchmark
    requires ops that do not fail, so that defect is checked by one untimed
    probe per run instead (``defect_probe``), reported beside the result.
    Predictions: cli.self_s -> op_p50_ms; transforms.* (wrapper evals,
    gauge_reduce) -> op_p90_ms; classify.*, weights.* -> op_p50_ms;
    profiles.*, families.* -> ops_per_s; no effect from spinchain.*.

``chain_build``
    ``cybe couplings --sites n``, open and periodic, on random real-
    parameter gauge families; n mostly 6-8 with a tail at 9 and 10; one op
    in five dumps the matrix with ``--matrix-out``.  Why: the dense
    ``build_chain`` takes nearly all the time (n=8 ~0.15 s, n=9 ~1 s,
    n=10 ~7 s and ~570 MB with one BLAS thread) and the export adds a
    write path beside it.  ``sampling`` and the ``weights`` residuals are
    never called.  n >= 11 is excluded: n=11 takes ~32 s and 2.3 GB per op
    and n=12 is killed for lack of memory, so one such op would dominate
    or kill a run.
    Predictions: spinchain.build_s.*, spinchain.bytes_computed ->
    ops_per_s, op_p90_ms, peak_rss_mb; spinchain.export_* -> op_p90_ms;
    no effect from numkernel.*, sampling.*, weights residuals.
"""

from __future__ import annotations

import json
import os
import random

FAMILIES = ("baxter_elliptic", "baxter_trig", "ff_elliptic", "ff_tanh",
            "ff_trig", "ff_hyperbolic", "trivial_a", "trivial_b")
GAUGE_FAMILIES = FAMILIES[:6]
VERDICT = {
    "baxter_elliptic": "BAXTER", "baxter_trig": "BAXTER",
    "ff_elliptic": "FREE_FERMION", "ff_tanh": "FREE_FERMION",
    "ff_trig": "FREE_FERMION", "ff_hyperbolic": "FREE_FERMION",
    "trivial_a": "TRIVIAL_A", "trivial_b": "TRIVIAL_B",
}
VERIFY_TOL = 1e-9

# verify_sweep: the sample count of each of the 24 slots; three are
# perturbed.  Runs of equal-size slots sit where the median (slots 10-13)
# and the p90 (slots 20-22) fall, so that each is estimated from many ops.
VERIFY_SIZES = (10, 15, 20, 30, 40, 50, 60, 80, 100, 120,
                150, 150, 150, 150, 200, 250, 300, 350, 400, 500,
                600, 600, 600, 2000)
VERIFY_PERTURBED = frozenset({4, 12, 17})

# classify_mix: eight plain specs, six pipelines
CLASSIFY_SLOTS = (tuple(("plain", f) for f in FAMILIES)
                  + tuple(("pipeline", f) for f in GAUGE_FAMILIES))

# chain_build: (sites, periodic) of each of the 100 slots, cheapest first.
# The median falls in the middle of the 20 open n=7 slots (40-60%), the p90
# in the middle of the 10 periodic n=8 slots (85-95%).  Every fifth slot
# below n=10 dumps its matrix.
CHAIN_SLOTS = (((6, False),) * 20 + ((6, True),) * 20 + ((7, False),) * 20
               + ((7, True),) * 15 + ((8, False),) * 10 + ((8, True),) * 10
               + ((9, False),) * 2 + ((9, True),) * 2 + ((10, True),))
CHAIN_DUMP_EVERY = 5

WORKLOADS = ("verify_sweep", "classify_mix", "chain_build")


def _sign(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _linear(slope: float) -> dict:
    return {"preset": "linear", "params": [slope]}


def _spec(family: str, rng: random.Random) -> dict:
    """One random valid, real-parameter spec of the given family."""
    u = rng.uniform
    doc: dict = {"family": family}
    signs = {"s5": _sign(rng), "s7": _sign(rng), "delta": _sign(rng)}
    if family == "baxter_elliptic":
        doc.update(k=u(0.15, 0.85), mu=u(0.4, 0.9),
                   profiles={"F": _linear(u(-0.4, 0.4))})
        doc["lambda"] = u(0.5, 1.3) * _sign(rng)
    elif family == "baxter_trig":
        doc.update(mu=u(0.35, 1.0), profiles={"F": _linear(u(-0.3, 0.3))})
        doc["lambda"] = u(0.4, 1.0)
    elif family in ("ff_elliptic", "ff_tanh"):
        a, b = u(0.6, 2.0), u(-0.3, 0.3)
        doc["profiles"] = {"F": _linear(u(-0.35, 0.35)),
                           "G": {"preset": "cosh", "params": [a, b]},
                           "H": {"preset": "sinh", "params": [a, b]}}
        if family == "ff_elliptic":
            doc["k"] = u(0.2, 0.85)
            doc["lambda"] = u(0.5, 1.5)
        else:
            doc["lambda"] = u(0.5, 1.4)
    elif family == "ff_trig":
        doc["lambda"] = u(0.4, 1.1)
        doc["profiles"] = {"F": _linear(u(-0.3, 0.3)),
                           "G": {"preset": "cosh",
                                 "params": [u(0.4, 1.2), u(-0.3, 0.5)]}}
    elif family == "ff_hyperbolic":
        doc["lambda"] = u(0.2, 1.0) * _sign(rng)
        doc["mu"] = u(0.25, 0.8) * _sign(rng)
        doc["profiles"] = {"F": _linear(u(-0.4, 0.4)),
                           "G": _linear(u(-0.3, 0.3))}
    elif family == "trivial_a":
        doc["profiles"] = {"spectral": {"preset": "sin_bilinear",
                                        "params": [u(0.5, 1.5), u(0.3, 1.2)]}}
    else:
        doc["profiles"] = {"F": {"preset": "exp",
                                 "params": [u(-0.6, 0.6), u(0.2, 0.8)]}}
    doc["signs"] = signs
    return doc


def _pipeline(rng: random.Random) -> list:
    """Scale by a nowhere-zero exponential, then regauge with a positive
    profile: the result is non-gauge, so classify must gauge-reduce it, and
    it stays a solution of the same type."""
    u = rng.uniform
    return [
        {"kind": "scale",
         "g": {"preset": "exp_affine",
               "params": [u(-0.7, 0.7), u(-0.3, 0.3), u(-0.3, 0.3)]}},
        {"kind": "regauge", "N": {"preset": "exp",
                                  "params": [u(-1.0, 1.0), u(-0.2, 0.2)]},
         "s": u(0.5, 2.0) * _sign(rng)},
    ]


def _perturb(rng: random.Random) -> list[str]:
    delta = rng.uniform(0.05, 0.3) * _sign(rng)
    return ["--perturb", rng.choice(("a1", "a5", "a7")), _num(delta)]


def _num(x: float) -> str:
    """Fixed-point text: argparse takes "-1e-05" for an option, not a value."""
    return f"{x:.9f}"


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _verify_op(slot: int, family: str, rng: random.Random) -> dict:
    perturbed = slot in VERIFY_PERTURBED
    argv = ["verify", "--spec", _dumps(_spec(family, rng)),
            "--samples", str(VERIFY_SIZES[slot]),
            "--seed", str(rng.randrange(1 << 30))]
    if perturbed:
        argv += _perturb(rng)
    return {"argv": argv, "slot": slot,
            "expect": {"kind": "verify", "pass": not perturbed,
                       "tol": VERIFY_TOL}}


def _classify_op(slot: int, rng: random.Random) -> dict:
    kind, family = CLASSIFY_SLOTS[slot]
    argv = ["classify", "--spec", _dumps(_spec(family, rng)),
            "--seed", str(rng.randrange(1 << 30))]
    if kind == "pipeline":
        argv += ["--transform", _dumps(_pipeline(rng))]
    return {"argv": argv, "slot": slot,
            "expect": {"kind": "classify", "verdict": VERDICT[family],
                       "exit": 0}}


def defect_probe(workload: str, seed: int) -> dict | None:
    """The untimed op of a workload that shows a known defect, or None.

    ``classify`` of a perturbed family must answer ``NOT_A_SOLUTION`` with
    exit code 1; at the seed its stdout carries ``NaN`` and so is not
    strict JSON."""
    if workload != "classify_mix":
        return None
    rng = random.Random(seed)
    argv = (["classify", "--spec", _dumps(_spec(rng.choice(FAMILIES), rng)),
             "--seed", str(rng.randrange(1 << 30))] + _perturb(rng))
    return {"argv": argv, "slot": None,
            "expect": {"kind": "classify", "verdict": "NOT_A_SOLUTION",
                       "exit": 1}}


def _chain_op(slot: int, family: str, rng: random.Random, tmpdir: str,
              serial: int) -> dict:
    n, periodic = CHAIN_SLOTS[slot]
    argv = ["couplings", "--spec", _dumps(_spec(family, rng)),
            "--xi", _num(rng.uniform(-0.4, 0.4)), "--sites", str(n)]
    if periodic:
        argv.append("--periodic")
    matrix = None
    if n <= 9 and slot % CHAIN_DUMP_EVERY == 0:
        matrix = os.path.join(tmpdir, f"h{serial}.npy")
        argv += ["--matrix-out", matrix]
    return {"argv": argv, "slot": slot,
            "expect": {"kind": "couplings", "sites": n, "periodic": periodic,
                       "matrix": matrix}}


def slot_count(workload: str) -> int:
    return {"verify_sweep": len(VERIFY_SIZES),
            "classify_mix": len(CLASSIFY_SLOTS),
            "chain_build": len(CHAIN_SLOTS)}[workload]


def ops(workload: str, seed: int, tmpdir: str):
    """Endless op stream of a workload: whole rounds, each a seeded
    shuffle of the workload's slot template.  The family of a slot rotates
    from round to round so that every slot sees every family; the rotation
    does not depend on the seed, so runs of equal length cover the same
    (slot, family) pairs and differ only in parameters and order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    families = GAUGE_FAMILIES if workload == "chain_build" else FAMILIES
    slots = list(range(slot_count(workload)))
    serial = 0
    rnd = 0
    while True:
        rng.shuffle(slots)
        for slot in slots:
            family = families[(slot + rnd) % len(families)]
            if workload == "verify_sweep":
                yield _verify_op(slot, family, rng)
            elif workload == "classify_mix":
                yield _classify_op(slot, rng)
            else:
                yield _chain_op(slot, family, rng, tmpdir, serial)
            serial += 1
        rnd += 1


def warmup(workload: str, tmpdir: str) -> dict:
    """A small untimed op that loads every module the workload touches."""
    rng = random.Random(-1)
    if workload == "verify_sweep":
        op = _verify_op(0, "ff_elliptic", rng)
    elif workload == "classify_mix":
        op = _classify_op(8, rng)
    else:
        op = _chain_op(0, "ff_elliptic", rng, tmpdir, -1)
    op["slot"] = None
    return op


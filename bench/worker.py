"""Benchmark worker: one fresh interpreter per run, started by ``run.py``.

It imports numpy and ``cybe.cli`` first and prints ``ready <CPU seconds so
far> <numpy import s> <cybe.cli import s>``, so the parent can time
start-up; with
``--setup-only`` it stops there.  Otherwise it runs the workload as a
closed loop with one client: each op is one ``cybe.cli.main(argv)`` call
in process with stdout and stderr captured, timed around that call alone,
then checked by its oracle.  The last stdout line is the run's result as
JSON.

Op time is the CPU time (user + system) of the worker over the call, and
start-up is the worker's CPU time until ``import cybe.cli`` has finished.
Ops are single-threaded and CPU-bound (one BLAS thread, no waiting except
the small matrix dumps), so on an unshared core CPU time is the wall time.
On a shared virtual machine wall time also counts the time the host takes
the CPU away (steal), which on a 2-vCPU shared VM made wall time up to 36%
longer than CPU time over a whole run.  The run's details keep only the
wall and CPU time of the whole timed loop, to show that ratio.

With ``--trace 1`` the run has two phases on the same ops: an untraced
phase, then the same ops again with the package traced.  The per-layer
metrics come from the traced phase; ``trace.overhead_ratio`` is the traced
over the untraced time of the ops both phases ran.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import time

import stats


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    return ap.parse_args(argv)


def _import_program(src: str):
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed on its own)
    t1 = time.perf_counter()
    import cybe.cli
    t2 = time.perf_counter()
    origin = os.path.realpath(cybe.cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"cybe was imported from {origin}, not from {src}")
    return cybe.cli, t1 - t0, t2 - t1


def _run_one(main, argv):
    """One op: (CPU seconds, exit code, stdout, escaped exception or
    None)."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cpu = time.process_time()
        try:
            code = main(argv)
        except SystemExit as e:
            exc = f"SystemExit({e.code!r})"
        except Exception as e:  # an escaped exception is a failed op
            exc = f"{type(e).__name__}: {e}"
        cpu = time.process_time() - cpu
    return cpu, code, out.getvalue(), exc


class Loop:
    """Runs ops, checks each, and keeps one record per op."""

    def __init__(self, main, check, n_slots: int):
        self.main = main
        self.check = check
        self.n_slots = n_slots
        self.ops: list[dict] = []
        self.slots: list[int] = []
        self.latencies: list[float] = []     # CPU seconds
        self.ok: list[bool] = []
        self.wrong = 0
        self.reasons: list[str] = []

    def run(self, op) -> None:
        cpu, code, out, exc = _run_one(self.main, op["argv"])
        if exc is not None:
            reason, wrong = f"exception {exc}", True
        else:
            reason, wrong = self.check(op["expect"], code, out)
        self.ops.append(op)
        self.slots.append(op["slot"])
        self.latencies.append(cpu)
        self.ok.append(reason is None)
        self.wrong += wrong
        if reason is not None and len(self.reasons) < 5:
            self.reasons.append(f"{op['argv'][0]} slot {op['slot']}: "
                                f"{reason}")

    def enough(self, tail: bool) -> bool:
        """Every slot ran and, with ``tail``, at least ``stats.MIN_TAIL``
        samples lie beyond the p90."""
        if len(set(self.slots)) < self.n_slots:
            return False
        if not tail:
            return True
        if len(self.slots) < 10 * stats.MIN_TAIL:
            return False
        p90 = stats.weighted_quantile(self.latencies,
                                      stats.slot_weights(self.slots), 0.9)
        return stats.tail_ok(self.latencies, p90)


def _probe(main, check, op) -> tuple[str | None, bool]:
    """Run a workload's known-defect probe untimed and outside the op
    counts: (what it shows, or None without a probe; True when its answer
    is wrong, which makes the run incorrect)."""
    if op is None:
        return None, False
    _, code, out, exc = _run_one(main, op["argv"])
    if exc is not None:
        return f"exception {exc}", True
    reason, wrong = check(op["expect"], code, out)
    return reason or "not reproduced: stdout is strict JSON", wrong


def _environment() -> dict:
    import platform

    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
            "ybe_threads": os.environ.get("YBE_THREADS", "unset")}


def main(argv=None) -> int:
    args = _parse(argv)
    cli, numpy_s, cli_s = _import_program(args.src)
    print(f"ready {time.process_time()!r} {numpy_s!r} {cli_s!r}",
          flush=True)
    if args.setup_only:
        return 0

    import json
    import resource
    import shutil

    import oracles
    import workloads

    os.makedirs(args.out, exist_ok=True)
    tmpdir = os.path.join(args.out, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    hard_stop = time.perf_counter() + args.seconds + 120.0
    try:
        loop = Loop(cli.main, oracles.check,
                    workloads.slot_count(args.workload))
        warm = Loop(cli.main, oracles.check, 1)
        warm.run(workloads.warmup(args.workload, tmpdir))
        stream = workloads.ops(args.workload, args.seed, tmpdir)
        begin, begin_cpu = time.perf_counter(), time.process_time()
        share = 1 / 3 if args.trace else 1.0
        first_deadline = begin + share * args.seconds
        while time.perf_counter() < hard_stop:
            if (time.perf_counter() >= first_deadline
                    and loop.enough(tail=not args.trace)):
                break
            loop.run(next(stream))
        loop_wall = time.perf_counter() - begin
        loop_cpu = time.process_time() - begin_cpu

        result = {"env": _environment(), "numpy_import_s": numpy_s,
                  "cli_import_s": cli_s}
        result["known_defect"], probe_wrong = _probe(
            cli.main, oracles.check,
            workloads.defect_probe(args.workload, args.seed))
        records = [loop, warm]
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            traced = Loop(cli.main, oracles.check, loop.n_slots)
            try:
                for i, op in enumerate(loop.ops):
                    now = time.perf_counter()
                    if now >= hard_stop or (now >= begin + args.seconds
                                            and len(traced.ops) >= loop.n_slots):
                        break
                    tracer.op = i
                    traced.run(op)
            finally:
                tracer.op = None
                uninstall()
            done = len(traced.ops)
            layers = tracing.layer_metrics(tracer, done)
            layers["trace.overhead_ratio"] = (
                sum(traced.latencies) / sum(loop.latencies[:done]), "1")
            tracer.write(os.path.join(
                args.out, f"trace-{args.workload}-{args.seed}.jsonl"))
            result["layers"] = layers
            result["traced_ops"] = done
            records.append(traced)
        else:
            result["summary"] = stats.summarize(loop.slots, loop.latencies,
                                                loop.ok)
        result["timed_wall_s"] = loop_wall
        result["timed_cpu_s"] = loop_cpu
        result["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["attempted"] = sum(len(r.ops) for r in records)
        result["failed"] = sum(r.ok.count(False) for r in records)
        result["wrong"] = sum(r.wrong for r in records) + probe_wrong
        result["reasons"] = [x for r in records for x in r.reasons][:5]
        result["slots"] = loop.n_slots
        result["timed_ops"] = len(loop.ops)
        result["ops"] = [[s, c, good] for s, c, good in
                         zip(loop.slots, loop.latencies, loop.ok)]
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

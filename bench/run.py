"""The cybe benchmark: one command, one workload per call.

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there.  Each run starts fresh worker interpreters (``worker.py``)
with one BLAS thread, ``YBE_THREADS`` unset and glibc's malloc mmap
threshold held at its default (see ``MMAP_THRESHOLD``):

* ``SETUP_SPAWNS - 1`` workers that only import the program.  ``setup_s``
  is the median, over them and the measuring worker, of the worker's CPU time
  from its start until ``import cybe.cli`` has finished (interpreter,
  numpy and cybe): what a CLI user pays on every command.
* one worker that runs the workload for ``--seconds`` (closed loop, one
  client) and checks every op's output.

Times are CPU times of the worker (see ``worker.py`` for why).

It prints each metric by name with its unit and sample count, then, as the
last line, the result as one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  ``correct`` is false when any op gave a wrong answer; ``failed``
counts every op that failed any check, including stdout that is not strict
JSON.  A workload may also run one untimed probe of a known defect, outside
the op counts; its finding is printed before the result line.  Details of
the run go to ``.bench_out/``.  Exits non-zero without a result when the
program cannot be imported or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SPAWNS = 10
BLAS_THREADS = "1"
#: glibc's default mmap threshold (128 KiB), set explicitly so that it stays
#: fixed.  Left dynamic, glibc raises it as large blocks are freed, so the
#: time of an op depended on which ops ran before it in the same worker:
#: chain_build's median op time differed by up to 35% between seeds.  Fixed
#: at the default, every block above 128 KiB is a fresh mapping, as the
#: first one is in a fresh ``cybe`` process.
MMAP_THRESHOLD = "131072"
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB", "ok_ratio": "1"}


def worker_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "YBE_THREADS"}
    env["PYTHONPATH"] = src
    env["MALLOC_MMAP_THRESHOLD_"] = MMAP_THRESHOLD
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(cmd, env, deadline):
    """Start a worker; return (process, (setup CPU s, numpy import s,
    cybe.cli import s)).  Raises RuntimeError when the worker cannot import
    the program."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line.startswith("ready "):
        finish(proc, deadline)
        raise RuntimeError("worker could not import the program")
    return proc, tuple(float(x) for x in line.split()[1:4])


def finish(proc, deadline) -> str:
    """Wait for a worker to end; kill it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.time(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "loadavg": list(os.getloadavg())}


def run(args) -> dict:
    deadline = time.time() + RUN_LIMIT_S
    root = os.getcwd()
    src = os.path.join(root, "src")
    out_dir = os.path.join(root, ".bench_out")
    env = worker_env(src)
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--src", src]
    info = machine()
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        proc, setup = spawn(base + ["--setup-only"], env, deadline)
        finish(proc, deadline)
        setups.append(setup)
    proc, setup = spawn(
        base + ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", out_dir], env, deadline)
    setups.append(setup)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    result["env"].update(info)
    cpu, numpy_s, cli_s = (statistics.median(x) for x in zip(*setups))
    result.update(setup_s=cpu, numpy_import_s=numpy_s, cli_import_s=cli_s,
                  setup_samples=setups)
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        layers = dict(result["layers"])
        layers["cli.import_s"] = (result["cli_import_s"], "s")
        layers["setup.numpy_import_s"] = (result["numpy_import_s"], "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    s = result["summary"]
    values = {"setup_s": result["setup_s"], "ops_per_s": s["ops_per_s"],
              "op_p50_ms": s["op_p50_ms"], "op_p90_ms": s["op_p90_ms"],
              "peak_rss_mb": result["peak_rss_mb"], "ok_ratio": s["ok_ratio"]}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def report(args, result: dict, metrics: dict) -> None:
    env = result["env"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops attempted {result['attempted']} failed {result['failed']} "
          f"wrong {result['wrong']} (timed {result['timed_ops']}, "
          f"{result['slots']} slots per round)")
    for reason in result["reasons"]:
        print(f"  failure: {reason}")
    if result["known_defect"] is not None:
        print(f"known defect probe (untimed, not counted): "
              f"{result['known_defect']}")
    counts = {"setup_s": f"n={len(result['setup_samples'])} spawns"}
    if not args.trace:
        s = result["summary"]
        for k in ("ops_per_s", "op_p50_ms", "ok_ratio"):
            counts[k] = f"n={s['ops']} ops"
        counts["op_p90_ms"] = f"n={s['ops']} ops, {s['p90_tail']} beyond"
        counts["peak_rss_mb"] = "n=1 worker"
    else:
        counts = {k: f"n={result['traced_ops']} traced ops"
                  for k in metrics}
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} "
              f"{counts.get(name, '')}")
    print(f"  timed loop took {result['timed_wall_s']:.4g} s wall clock, "
          f"{result['timed_cpu_s']:.4g} s CPU")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cybe", "cli.py")):
        print("error: run from the root of a cybe source checkout "
              "(src/cybe not found)", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = metrics_of(result, args.trace)
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", f"run-{args.workload}-{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "result": result, "metrics": metrics},
                  fh)
    report(args, result, metrics)
    print(json.dumps({"correct": result["wrong"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of the cybe package from outside, for the per-layer metrics.

``install`` wraps the layer entry points of every module: each module-level
name bound to a traced function at import (``from .x import f`` copies the
binding, so every copy is replaced), three methods at class level, and the
evaluator of every ``WeightFamily`` built while tracing is on.  A span
records name, start, end, the span that caused it and the op id.
Spans of the hot leaf and evaluation calls are aggregated per (nearest
recorded ancestor, immediate parent, name, op) to bound memory; all other
spans are kept whole.  Self time is a span's duration minus the time its
child spans cover; calls are strictly nested in one thread, so that is the
duration minus the sum of the children's durations.

Span names are ``<layer>.<what>``, the layer being the module whose code
the span times.  Spans read the wall clock (``perf_counter``): a CPU clock
costs a system call per reading, which would double the tracing overhead.
End-to-end metrics never come from a traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

#: spans aggregated per parent instead of recorded one by one
HOT = frozenset({
    "numkernel.sncndn", "numkernel.cd", "numkernel.exp",
    "profiles.color", "profiles.spectral",
    "families.eval", "transforms.eval", "cli.eval",
    "weights.vector", "weights.residual", "weights.defect",
    "weights.components", "weights.unitarity",
})

EVALS = ("families.eval", "transforms.eval", "cli.eval")
SAMPLERS = ("sampling.triples", "sampling.points")


def _accepted(args, result):
    return {"accepted": len(result)}


def _chain_info(args, result):
    n = int(args[1])
    # dense build_chain keeps 3n site operators of 4^n complex entries
    return {"n": n, "bytes": 3 * n * 4 ** n * 16}


def _export_info(args, result):
    path, fmt = args[1], (args[2] if len(args) > 2 else "npy")
    if fmt == "npy" and not path.endswith(".npy"):
        path += ".npy"
    return {"bytes": os.path.getsize(path)}


#: (module, function, span name, info) for module-level functions
FUNCTIONS = (
    ("cybe.cli", "main", "cli.main", None),
    ("cybe.numkernel", "jacobi_sncndn", "numkernel.sncndn", None),
    ("cybe.numkernel", "jacobi_cd", "numkernel.cd", None),
    ("cybe.numkernel", "elliptic_exp", "numkernel.exp", None),
    ("cybe.weights", "ybe_residual", "weights.residual", None),
    ("cybe.weights", "ybe_defect", "weights.defect", None),
    ("cybe.weights", "component_residuals", "weights.components", None),
    ("cybe.weights", "unitarity_residual", "weights.unitarity", None),
    ("cybe.sampling", "draw_triples", "sampling.triples", _accepted),
    ("cybe.sampling", "draw_points", "sampling.points", _accepted),
    ("cybe.transforms", "gauge_reduce", "transforms.gauge_reduce", None),
    ("cybe.classify", "classify", "classify.classify", None),
    ("cybe.classify", "hamiltonian_coeffs", "classify.coeffs", None),
    ("cybe.spinchain", "build_chain", "spinchain.build", _chain_info),
    ("cybe.spinchain", "export_matrix", "spinchain.export", _export_info),
)

#: (module, class, method, span name) patched at class level
METHODS = (
    ("cybe.profiles", "ColorProfile", "__call__", "profiles.color"),
    ("cybe.profiles", "SpectralProfile", "__call__", "profiles.spectral"),
    ("cybe.weights", "WeightVector", "__post_init__", "weights.vector"),
)


class Tracer:
    """In-memory span store; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []   # [name, child time, span id, anchor]
        self.spans: list[dict] = []
        self.aggs: dict[tuple, list] = {}
        self.op = None
        self._next_id = 0

    def call(self, name, fn, args, kwargs, info=None):
        stack = self.stack
        parent_name = anchor = None
        if stack:
            parent = stack[-1]
            parent_name = parent[0]
            anchor = parent[2] if parent[2] is not None else parent[3]
        hot = name in HOT
        sid = None
        if not hot:
            sid = self._next_id
            self._next_id += 1
        frame = [name, 0.0, sid, anchor]
        stack.append(frame)
        result = None
        failed = True
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = self.clock()
            stack.pop()
            dur = end - start
            own = dur - frame[1]
            if stack:
                stack[-1][1] += dur
            if hot:
                key = (anchor, parent_name, name, self.op)
                acc = self.aggs.get(key)
                if acc is None:
                    self.aggs[key] = [1, dur, own, int(failed)]
                else:
                    acc[0] += 1
                    acc[1] += dur
                    acc[2] += own
                    acc[3] += failed
            else:
                self.spans.append({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": anchor, "op": self.op, "self": own,
                    "error": failed,
                    "info": info(args, result) if info and not failed else None,
                })

    def wrap(self, fn, name, info=None):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, args, kwargs, info)
        traced.span_name = name
        return traced

    def write(self, path: str) -> None:
        """All spans and aggregates as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"type": "span", **s}) + "\n")
            for (anchor, parent, name, op), (calls, busy, own, errors) \
                    in self.aggs.items():
                fh.write(json.dumps({
                    "type": "aggregate", "name": name, "parent": anchor,
                    "parent_name": parent, "op": op, "calls": calls,
                    "busy": busy, "self": own, "errors": errors}) + "\n")


def _eval_name(fam) -> str:
    """Base evaluators (spec set) belong to families; wrapper evaluators to
    the module whose closure they are (transforms, or the cli's
    ``--perturb`` wrapper)."""
    if fam.spec is not None:
        return "families.eval"
    module = getattr(fam.evaluate, "__module__", "") or ""
    return module.rsplit(".", 1)[-1] + ".eval"


def install(tracer: Tracer):
    """Patch the package; returns a function that undoes every patch."""
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "cybe" or name.startswith("cybe."))]
    for mod_name, attr, name, info in FUNCTIONS:
        orig = getattr(importlib.import_module(mod_name), attr)
        traced = tracer.wrap(orig, name, info)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)
                    undo.append((mod, key, orig))
    for mod_name, cls_name, meth, name in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(orig, name))
        undo.append((cls, meth, orig))

    # Wrappers (transforms, gauge_reduce, --perturb) call the evaluator of
    # the family they wrap directly, not through WeightFamily.eval, so the
    # evaluator itself is traced: every level of a wrapped family is a span
    # of its own and keeps only its own self time.
    fam_cls = importlib.import_module("cybe.families").WeightFamily
    orig_init = fam_cls.__dict__["__init__"]

    @functools.wraps(orig_init)
    def traced_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        if not hasattr(self.evaluate, "span_name"):
            object.__setattr__(self, "evaluate", tracer.wrap(
                self.evaluate, _eval_name(self)))
    fam_cls.__init__ = traced_init
    undo.append((fam_cls, "__init__", orig_init))

    def uninstall():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
    return uninstall


# -------------------- per-layer metrics --------------------

def _totals(tracer: Tracer) -> dict[str, list]:
    """name -> [calls, busy seconds, self seconds, errors]."""
    tot: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for s in tracer.spans:
        t = tot[s["name"]]
        t[0] += 1
        t[1] += s["end"] - s["start"]
        t[2] += s["self"]
        t[3] += s["error"]
    for (_, _, name, _), (calls, busy, own, errors) in tracer.aggs.items():
        t = tot[name]
        t[0] += calls
        t[1] += busy
        t[2] += own
        t[3] += errors
    return tot


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase of ``n_ops`` ops.  Calls, self and
    busy times are per op; ``spinchain.build_s.n*`` and ``export_*`` are
    means per call."""
    tot = _totals(tracer)
    per = 1.0 / max(n_ops, 1)

    def calls(*names):
        return sum(tot[n][0] for n in names) * per

    def busy(*names):
        return sum(tot[n][1] for n in names) * per

    def own(*names):
        return sum(tot[n][2] for n in names) * per

    def errors(*names):
        return sum(tot[n][3] for n in names) * per

    kernel = ("numkernel.sncndn", "numkernel.cd", "numkernel.exp")
    profiles = ("profiles.color", "profiles.spectral")
    spin = ("spinchain.build", "spinchain.export")

    sampler_ids = {s["id"]: s for s in tracer.spans if s["name"] in SAMPLERS}
    accepted = sum((s["info"] or {}).get("accepted", 0)
                   for s in sampler_ids.values())
    triples = sum((s["info"] or {}).get("accepted", 0)
                  for s in sampler_ids.values()
                  if s["name"] == "sampling.triples")
    sampler_evals = sampler_errors = 0
    for (anchor, parent, name, _), acc in tracer.aggs.items():
        if anchor in sampler_ids and parent in SAMPLERS and name in EVALS:
            sampler_evals += acc[0]
            sampler_errors += acc[3]

    builds = [s for s in tracer.spans if s["name"] == "spinchain.build"
              and s["info"] is not None]
    exports = [s for s in tracer.spans if s["name"] == "spinchain.export"
               and s["info"] is not None]

    def mean(xs):
        xs = list(xs)
        return sum(xs) / len(xs) if xs else 0.0

    m = {
        "cli.calls": (calls("cli.main"), "1/op"),
        "cli.self_s": (own("cli.main", "cli.eval"), "s/op"),
        "numkernel.calls": (calls(*kernel), "1/op"),
        "numkernel.self_s": (own(*kernel), "s/op"),
        "numkernel.errors": (errors(*kernel), "1/op"),
        "profiles.calls": (calls(*profiles), "1/op"),
        "profiles.self_s": (own(*profiles), "s/op"),
        "families.evals": (calls("families.eval"), "1/op"),
        "families.self_s": (own("families.eval"), "s/op"),
        "families.errors": (errors("families.eval"), "1/op"),
        "families.evals_per_triple": (
            tot["families.eval"][0] / triples if triples else 0.0, "count"),
        "weights.residual.calls": (calls("weights.residual"), "1/op"),
        "weights.residual.self_s": (own("weights.residual"), "s/op"),
        "weights.defect.self_s": (own("weights.defect"), "s/op"),
        "weights.components.self_s": (own("weights.components"), "s/op"),
        "weights.unitarity.self_s": (own("weights.unitarity"), "s/op"),
        "weights.vectors.calls": (calls("weights.vector"), "1/op"),
        "weights.vectors.self_s": (own("weights.vector"), "s/op"),
        "sampling.calls": (calls(*SAMPLERS), "1/op"),
        "sampling.self_s": (own(*SAMPLERS), "s/op"),
        "sampling.evals_per_accept": (
            sampler_evals / accepted if accepted else 0.0, "count"),
        "sampling.eval_errors": (sampler_errors * per, "1/op"),
        "transforms.evals": (calls("transforms.eval"), "1/op"),
        "transforms.self_s": (own("transforms.eval"), "s/op"),
        "transforms.gauge_reduce.calls": (
            calls("transforms.gauge_reduce"), "1/op"),
        "transforms.gauge_reduce.busy_s": (
            busy("transforms.gauge_reduce"), "s/op"),
        "transforms.gauge_reduce.errors": (
            errors("transforms.gauge_reduce"), "1/op"),
        "classify.calls": (calls("classify.classify"), "1/op"),
        "classify.self_s": (own("classify.classify", "classify.coeffs"),
                            "s/op"),
        "classify.coeffs.busy_s": (busy("classify.coeffs"), "s/op"),
        "spinchain.build.calls": (calls("spinchain.build"), "1/op"),
        "spinchain.self_s": (own(*spin), "s/op"),
        "spinchain.bytes_computed": (
            sum(s["info"]["bytes"] for s in builds) * per, "B/op"),
        "spinchain.export_s": (
            mean(s["end"] - s["start"] for s in exports), "s"),
        "spinchain.export_bytes": (
            mean(s["info"]["bytes"] for s in exports), "B"),
        "trace.op_s": (busy("cli.main"), "s/op"),
    }
    for n in range(6, 11):
        m[f"spinchain.build_s.n{n}"] = (
            mean(s["end"] - s["start"] for s in builds
                 if s["info"]["n"] == n), "s")
    return m

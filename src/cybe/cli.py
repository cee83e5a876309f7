"""Command-line front end: evaluate, verify, classify, transform, export.

Output is JSON by default (CSV opt-in for weight tables).  Runs are
deterministic: identical spec, flags and seed produce byte-identical
output.  Residual sweeps run in one thread.

Exit codes: 0 success (verify: median within tolerance; classify: a
solution verdict), 1 verification failure or non-solution verdict,
2 invalid spec (also a --spec or --transform document nested too deeply
to decode) / size limit (--samples above MAX_SAMPLES, a grid of more
than MAX_GRID_POINTS points, --sites above spinchain.MAX_SITES) /
malformed flag (--samples below 1, --tol negative or non-finite, a
non-finite --u-span, --color-span, --max-weight, --perturb DELTA, --xi,
--h or grid endpoint, --h outside [1e-7, 1e-3], a flag the command does
not take) / a couplings family that is not a gauge family, 3 pole or
overflow at a requested point, or a scale or regauge profile vanishing
there, 4 NOT_EIGHT_VERTEX, 5 INDETERMINATE,
6 pole-free sampling exhausted (widen the spans or relax --max-weight),
7 a non-finite number in a JSON result (nothing is printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

import numpy as np

from .classify import ClassifyPlan, Verdict, classify, hamiltonian_coeffs
from .errors import (CybeError, InvalidSpec, NonFiniteOutput,
                     PoleProximity, SamplingExhausted, SizeLimit, ZeroDivisor)
from .families import (WeightFamily, _spec_checks, make_family,
                       spec_from_json)
from .sampling import (SamplePlan, _point_pair, _point_spans,
                       _triple_points, _triple_spans, evaluate_groups,
                       first_block, residual_sweep, unitarity_sweep)
from .transforms import Pipeline, apply, transform_diagnostics, wrap
from .weights import COMPONENT_IDS

_EXIT_VERDICT = {
    Verdict.BAXTER: 0, Verdict.FREE_FERMION: 0,
    Verdict.TRIVIAL_A: 0, Verdict.TRIVIAL_B: 0,
    Verdict.NOT_A_SOLUTION: 1, Verdict.NOT_EIGHT_VERTEX: 4,
    Verdict.INDETERMINATE: 5,
}

#: exit code of the first matching error class
_EXIT_ERROR = (
    ((InvalidSpec, SizeLimit, json.JSONDecodeError, OSError), 2),
    ((PoleProximity, ZeroDivisor), 3), (SamplingExhausted, 6),
    (NonFiniteOutput, 7),
    (CybeError, 1),
)


#: most samples of a verify or classify sweep; classify holds about 0.2 kB
#: per sample (tracemalloc, 100 000 samples), so a sweep of the cap holds
#: about 0.2 GB
MAX_SAMPLES = 1_000_000

#: most points of an eval or transform grid; the JSON output holds about
#: 5.4 kB per point, so a grid of the cap peaks near 0.6 GB
MAX_GRID_POINTS = 100_000


def _load_json_arg(flag: str, value: str):
    """The JSON document of a flag, inline or in a file; one nested deeper
    than ``json`` can decode is InvalidSpec."""
    text = value.strip()
    try:
        if text.startswith(("{", "[")):
            return json.loads(text)
        with open(value, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise InvalidSpec(f"{flag}: JSON document nested too deeply") from None


def _load_family(args, color_span) -> WeightFamily:
    """The family of --spec, --transform and --perturb; the spec is
    validated on 11 colors spread over ``color_span``, the span of the
    colors the command evaluates."""
    spec = spec_from_json(_load_json_arg("--spec", args.spec))
    fam = make_family(spec)
    diags = _spec_checks(spec, fam.coeffs, color_span)
    if errors := [d for d in diags if not d.startswith("warning:")]:
        raise InvalidSpec("; ".join(errors))
    for diag in diags:
        print(diag, file=sys.stderr)
    if args.transform:
        pipe = Pipeline.from_json(_load_json_arg("--transform", args.transform))
        for step in pipe.steps:
            for diag in transform_diagnostics(step):
                print(f"warning: {diag}", file=sys.stderr)
        fam = apply(pipe, fam)
    if args.perturb:
        field, delta = args.perturb
        delta = _finite("--perturb DELTA", delta)
        fam = _perturbed(fam, field, complex(delta))
    return fam


_FIELD_INDEX = {f"a{i+1}": i for i in range(8)}


def _perturbed(fam: WeightFamily, field: str, delta: complex) -> WeightFamily:
    if field not in _FIELD_INDEX:
        raise InvalidSpec(f"cannot perturb unknown field {field!r}")
    idx = _FIELD_INDEX[field]

    def step(o, base, u, xi, eta):
        a = base(u, xi, eta).copy()
        a[..., idx] += delta
        return a

    return wrap(fam, step, f"perturb_{field}({fam.label})", gauge=False)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_quote = json.encoder.encode_basestring_ascii


def _scalar(x) -> str | None:
    """The JSON text of a finite number, a string, a bool or None, as
    ``json.dumps`` writes it; None for any other value."""
    if isinstance(x, float):
        return float.__repr__(x) if math.isfinite(x) else None
    if isinstance(x, str):
        return _quote(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    return None


def _dumps(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`` for
    a document whose dict keys are strings, at the nesting level whose
    lines start with ``indent`` (a newline and two spaces per level): a
    container's items one per line, one level deeper, keys sorted.  A
    scalar item is written in place and a container by a deeper call.  As
    in ``json``, a NaN or an infinity raises ValueError and a value of any
    other type TypeError, the first in output order."""
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        inner = indent + "  "
        items = list(map(_scalar, doc))
        if None in items:
            items = [t or _dumps(v, inner) for t, v in zip(items, doc)]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = indent + "  "
        items = [f"{_quote(k)}: {_scalar(v) or _dumps(v, inner)}"
                 for k, v in sorted(doc.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if (text := _scalar(doc)) is not None:
        return text
    if isinstance(doc, float):
        raise ValueError(f"Out of range float values are not JSON "
                         f"compliant: {doc!r}")
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON "
                    f"serializable")


def _emit(doc, args) -> None:
    """Strict JSON: a NaN or infinity is NonFiniteOutput, not printed."""
    try:
        text = _dumps(doc)
    except ValueError:
        raise NonFiniteOutput(
            "the result holds a NaN or an infinity, which JSON cannot carry"
        ) from None
    _write(text + "\n", args)


def _grid(flag: str, spec: str):
    """The (start, stop, count) of a flag's grid 'start:stop:count'; its
    endpoints must be finite."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
        if n < 1:
            raise ValueError
    except ValueError:
        raise InvalidSpec(f"grid must be 'start:stop:count', got {spec!r}")
    return _finite(f"{flag} start", lo), _finite(f"{flag} stop", hi), n


#: the columns of an eval/transform row, in output order
_COLUMNS = ("u", "xi", "eta", *(f"a{i}_{part}" for i in range(1, 9)
                                for part in ("re", "im")))


def cmd_eval(args) -> int:
    grids = [_grid(flag, spec) for flag, spec in (
        ("--grid-u", args.grid_u), ("--grid-xi", args.grid_xi),
        ("--grid-eta", args.grid_eta))]
    points = math.prod(n for _, _, n in grids)
    if points > MAX_GRID_POINTS:
        raise SizeLimit(f"grid of {points} points exceeds the cap of "
                        f"{MAX_GRID_POINTS}")
    us, xis, etas = (np.linspace(*g) for g in grids)
    colors = np.concatenate([xis, etas])
    fam = _load_family(args, (colors.min(), colors.max()))
    # raveled, the grid runs eta fastest, then xi, then u
    u, xi, eta = (g.ravel() for g in np.meshgrid(us, xis, etas,
                                                  indexing="ij"))
    W, ok = fam.eval_array(u, xi, eta)
    # a marked point raises its own error in loop order
    for i in np.flatnonzero(~ok):
        W[i] = fam.eval(u[i], xi[i], eta[i]).a
    rows = np.column_stack([u, xi, eta,
                            np.ascontiguousarray(W).view(float)]).tolist()
    if args.format == "csv":
        lines = [",".join(_COLUMNS), *(",".join(map(repr, r)) for r in rows)]
        _write("\n".join(lines) + "\n", args)
    else:
        _emit({"rows": [dict(zip(_COLUMNS, r)) for r in rows]}, args)
    return 0


def _finite(flag: str, value) -> float:
    """The flag's value as a finite float, else InvalidSpec."""
    try:
        x = float(value)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise InvalidSpec(f"{flag} must be a finite number, got {value!r}")
    return x


def _require_sweep_flags(args) -> None:
    if args.samples < 1:
        raise InvalidSpec(f"--samples must be at least 1, got {args.samples}")
    if args.samples > MAX_SAMPLES:
        raise SizeLimit(f"--samples {args.samples} exceeds the cap of "
                        f"{MAX_SAMPLES}")
    if _finite("--tol", args.tol) < 0:
        raise InvalidSpec(f"--tol must be at least 0, got {args.tol!r}")
    _finite("--u-span", args.u_span)
    _finite("--color-span", args.color_span)
    _finite("--max-weight", args.max_weight)


def cmd_verify(args) -> int:
    _require_sweep_flags(args)
    span = (-args.color_span, args.color_span)
    fam = _load_family(args, span)
    plan = SamplePlan(n=args.samples, seed=args.seed,
                      u_span=(-args.u_span, args.u_span), color_span=span,
                      max_weight=args.max_weight)
    # the first block of each sweep in one call; a gauge family also gets
    # the unitarity sweep
    blocks = {"sweep": first_block(plan, _triple_spans(plan),
                                   _triple_points)}
    if fam.gauge:
        unit_plan = dataclasses.replace(plan, n=min(args.samples, 50))
        blocks["unit"] = first_block(unit_plan, _point_spans(unit_plan),
                                     _point_pair)
    rows = evaluate_groups(fam, {k: b.columns for k, b in blocks.items()})
    rels = []
    worst = np.zeros(len(COMPONENT_IDS))
    for _, rel, top in residual_sweep(fam, plan,
                                      (blocks["sweep"], rows["sweep"])):
        rels.append(rel)
        # fmax: a NaN component never lowers the running max
        worst = np.fmax(worst, top)
    rels = np.concatenate(rels)
    offenders = sorted(zip(COMPONENT_IDS, worst.tolist()),
                       key=lambda kv: -kv[1])[:5]

    unit = None
    if fam.gauge:
        unit = max(float(d.max()) for d in unitarity_sweep(
            fam, unit_plan, (blocks["unit"], rows["unit"])))

    median = float(np.median(rels))
    ok = median <= args.tol
    _emit({
        "samples": args.samples,
        "seed": args.seed,
        "tolerance": args.tol,
        "relative_residual": {
            "min": float(rels.min()), "median": median,
            "max": float(rels.max()),
        },
        "worst_components": [{"id": k, "max_residual": v}
                             for k, v in offenders],
        "unitarity_max": unit,
        "pass": ok,
    }, args)
    return 0 if ok else 1


def cmd_classify(args) -> int:
    _require_sweep_flags(args)
    span = (-args.color_span, args.color_span)
    fam = _load_family(args, span)
    plan = ClassifyPlan(n_ybe=args.samples, seed=args.seed,
                        tol_solution=args.tol,
                        u_span=(-args.u_span, args.u_span), color_span=span,
                        max_weight=args.max_weight)
    report = classify(fam, plan)
    _emit(report.to_json(), args)
    return _EXIT_VERDICT[report.verdict]


def cmd_couplings(args) -> int:
    from .spinchain import build_chain, couplings_from_coeffs, export_matrix

    xi, h = _finite("--xi", args.xi), _finite("--h", args.h)
    if not 1e-7 <= h <= 1e-3:
        raise InvalidSpec(f"--h must be in [1e-7, 1e-3], got {args.h!r}")
    fam = _load_family(args, (xi, xi))
    m = hamiltonian_coeffs(fam, np.array([xi]), h=h).m[0]
    # the chain form carries m7 + m8 and, on a periodic chain, m2 + m3 only
    d78, d23 = abs(m[6] - m[7]), abs(m[1] - m[2])
    if max(d78, d23) > 1e-8 * max(1.0, float(np.abs(m).max())):
        raise InvalidSpec(
            f"couplings need a gauge family (m7 = m8 and m2 = m3), got "
            f"|m7 - m8| = {d78:.3e} and |m2 - m3| = {d23:.3e}")
    c = couplings_from_coeffs(m)
    doc = {"xi": args.xi, "couplings": c.to_json(),
           "coefficients": [[v.real, v.imag] for v in m]}
    if args.sites:
        op = build_chain(c, args.sites, periodic=args.periodic)
        doc["sites"] = args.sites
        doc["periodic"] = args.periodic
        doc["hermiticity_defect"] = op.hermiticity_defect()
        if args.matrix_out:
            doc["matrix_file"] = export_matrix(
                op, args.matrix_out, "csv" if args.format == "csv" else "npy")
    _emit(doc, args)
    return 0


def _add_common(p, sweep: bool) -> None:
    """The flags of every command, then either the sampled sweep's flags
    (verify, classify) or the output format (eval, transform, couplings)."""
    p.add_argument("--spec", required=True,
                   help="family spec: JSON file path or inline JSON")
    p.add_argument("--transform",
                   help="transform pipeline: JSON file path or inline JSON")
    p.add_argument("--perturb", nargs=2, metavar=("FIELD", "DELTA"),
                   help="additive perturbation of one weight, e.g. a7 0.1")
    p.add_argument("--out", help="output file (default stdout)")
    if sweep:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--samples", type=int, default=100)
        p.add_argument("--u-span", type=float, default=0.35)
        p.add_argument("--color-span", type=float, default=0.5)
        p.add_argument("--max-weight", type=float, default=15.0)
    else:
        p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_grid_parser(sub, name, help_text):
    """A subcommand tabulating weights over a (u, xi, eta) grid."""
    p = sub.add_parser(name, help=help_text)
    _add_common(p, sweep=False)
    p.add_argument("--grid-u", default="-0.3:0.3:5")
    p.add_argument("--grid-xi", default="-0.4:0.4:5")
    p.add_argument("--grid-eta", default="-0.4:0.4:5")
    p.set_defaults(fn=cmd_eval)


class _Parser(argparse.ArgumentParser):
    """argparse taking -1e-3 and -inf for values as it takes -0.001, and
    raising a malformed command line as InvalidSpec: one error: line, exit
    2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"-\.?\d|-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise InvalidSpec(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = _Parser(
        prog="cybe",
        description="eight-vertex families of the colored Yang-Baxter "
                    "equation: evaluation, verification, classification, "
                    "spin-chain export")
    sub = ap.add_subparsers(dest="command", required=True)

    _add_grid_parser(sub, "eval", "tabulate weights over a grid")

    p = sub.add_parser("verify", help="matrix-identity residual sweep")
    _add_common(p, sweep=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify", help="decide the solution type")
    _add_common(p, sweep=True)
    p.set_defaults(fn=cmd_classify)

    _add_grid_parser(sub, "transform",
                     "tabulate weights of a transformed family")

    p = sub.add_parser("couplings",
                       help="spin-chain couplings and optional matrix dump")
    _add_common(p, sweep=False)
    p.add_argument("--xi", type=float, default=0.3)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--sites", type=int, default=0)
    p.add_argument("--periodic", action="store_true")
    p.add_argument("--matrix-out", help="file for the dense matrix dump")
    p.set_defaults(fn=cmd_couplings)
    return ap


def _parse(argv):
    """The parsed command line.  A known command's own parser reads the
    rest of it, as the top parser would hand it on; any other argv (help,
    no command, an unknown one) goes through the top parser."""
    argv = sys.argv[1:] if argv is None else list(argv)
    top = build_parser()
    commands = next(a.choices for a in top._actions
                    if isinstance(a, argparse._SubParsersAction))
    if not argv or argv[0] not in commands:
        return top.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        # an overflow is a rejection or a named error, never a numpy warning
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (CybeError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_ERROR
                    if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())

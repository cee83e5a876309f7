"""The five solution transformations as composable maps on weight families,
plus gauge reduction of a general eight-vertex solution.

Transform kinds
---------------
swap_23_78        interchange indices 2<->3 and 7<->8
swap_14_56        interchange indices 1<->4 and 5<->6
scale             multiply every weight by a spectral profile g(u,xi,eta)
regauge           rescale a2,a3,a7,a8 by a color profile N and constant s:
                  a2 -> N(xi)/N(eta) a2,  a3 -> N(eta)/N(xi) a3,
                  a7 -> s N(xi)N(eta) a7, a8 -> a8/(s N(xi)N(eta))
negate_56         flip the signs of a5 and a6
rescale_spectral  evaluate at mu*u
recolor           evaluate at (f(xi), f(eta))

Transformations act lazily by wrapping the evaluators; payload profiles make
materializing closed forms impossible in general.  Every kind is one step
of ``wrap``, written once over the operation tables of ``numkernel``; the
wrapper keeps an array evaluator when the wrapped family has one.

``gauge_reduce`` draws its probe plan (``gauge_points``) and evaluates the
probes and the inner points of its gauge check in one ``eval_array`` call.
Classify draws the plan itself, with its own gauge-form points as the
plan's extra points, evaluates the plan beside its other points, and hands
the plan and its rows to the same reduction, whose one ``gauge_rows`` pass
gives the gauge form at the check points and the extra ones.  The
reduction reads its probes as columns, a few array operations per check.
The reduced family at n points reads the wrapped family at their inner
points: the points, and one anchored point per distinct color, whose a3/a2
is M(color).  Its array evaluator evaluates them in one call, and
``gauge_rows`` derives the reduced rows from rows a caller evaluated
beside its own points, since a batch call has a fixed cost at almost any
size (README, "Batch evaluation").
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (CybeError, InvalidSpec, MultiplicativityViolation,
                     NotEightVertex, ZeroDivisor)
from .families import WeightFamily, _sampled, from_form
from .numkernel import SCALAR, Batch, Split, _parts
from .profiles import ColorProfile, SpectralProfile, _check_keys, _cjson, _cval
from .weights import vanishing_weights

#: kind -> {payload field it takes: the message when the field is missing
#: (profiles g, N, f) or zero (numbers s, mu, which default to 1)}
_PAYLOAD = {
    "swap_23_78": {}, "swap_14_56": {}, "negate_56": {},
    "scale": {"g": "scale transform needs a profile g"},
    "regauge": {"N": "regauge transform needs a profile N",
                "s": "regauge constant s must be nonzero"},
    "rescale_spectral": {"mu": "spectral rescale mu must be nonzero"},
    "recolor": {"f": "recolor transform needs a profile f"},
}
_NUMBERS = ("s", "mu")

#: payload field -> its parser from JSON
_FIELDS = {"g": SpectralProfile.from_json, "N": ColorProfile.from_json,
           "s": _cval, "mu": _cval, "f": ColorProfile.from_json}

_ZERO_TOL = 1e-12

#: index permutations of the two swap transforms
_SWAPS = {
    "swap_23_78": np.array([0, 2, 1, 3, 4, 5, 7, 6]),
    "swap_14_56": np.array([3, 1, 2, 0, 5, 4, 6, 7]),
}

#: sampled domain of transform_diagnostics
_DIAG_COLORS = np.linspace(-0.5, 0.5, 9)
_DIAG_US = np.linspace(-0.35, 0.35, 5)
#: the (u, xi, eta) columns of the scale check's 125 points, u slowest
_DIAG_POINTS = tuple(c.ravel() for c in np.meshgrid(
    _DIAG_US, _DIAG_COLORS[::2], _DIAG_COLORS[::2], indexing="ij"))


@dataclass(frozen=True)
class TransformSpec:
    """A transform kind and the payload fields ``_PAYLOAD`` gives it."""

    kind: str
    g: SpectralProfile | None = None
    N: ColorProfile | None = None
    s: complex | None = None
    mu: complex | None = None
    f: ColorProfile | None = None

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in _PAYLOAD):
            raise InvalidSpec(f"unknown transform kind {self.kind!r}")
        takes = _PAYLOAD[self.kind]
        for name in _FIELDS:
            value = getattr(self, name)
            if name not in takes:
                if value is not None:
                    raise InvalidSpec(
                        f"{self.kind} transform takes no field {name}")
            elif name in _NUMBERS:
                value = complex(1.0 if value is None else value)
                object.__setattr__(self, name, value)
                if value == 0:
                    raise InvalidSpec(takes[name])
            elif value is None:
                raise InvalidSpec(takes[name])

    def to_json(self) -> dict:
        return {"kind": self.kind} | {
            name: _cjson(getattr(self, name)) if name in _NUMBERS
            else getattr(self, name).to_json() for name in _PAYLOAD[self.kind]}

    @classmethod
    def from_json(cls, doc: dict) -> "TransformSpec":
        _check_keys(doc, {"kind", *_FIELDS}, "transform")
        if "kind" not in doc:
            raise InvalidSpec("transform needs a 'kind' field")
        return cls(doc["kind"], **{name: _FIELDS[name](value)
                                   for name, value in doc.items()
                                   if name != "kind"})


@dataclass(frozen=True)
class Pipeline:
    """Left-to-right composition of transforms."""

    steps: tuple[TransformSpec, ...] = field(default=())

    def to_json(self) -> list:
        return [t.to_json() for t in self.steps]

    @classmethod
    def from_json(cls, docs: list) -> "Pipeline":
        if not isinstance(docs, list):
            raise InvalidSpec("a transform pipeline must be a JSON array")
        return cls(tuple(TransformSpec.from_json(d) for d in docs))


def compose(ts) -> Pipeline:
    steps: list[TransformSpec] = []
    for t in ts:
        if isinstance(t, Pipeline):
            steps.extend(t.steps)
        else:
            steps.append(t)
    return Pipeline(tuple(steps))


def _nonzero(o, v, what: str):
    o.check(o.abs(v) < _ZERO_TOL, ZeroDivisor,
            lambda: f"{what} vanishes at a requested point")
    return v


def wrap(fam: WeightFamily, step, label: str, gauge: bool) -> WeightFamily:
    """The family whose weights at (u, xi, eta) are ``step(o, base, u, xi,
    eta)``, where ``base(u', xi', eta')`` gives the weights of ``fam`` at a
    point as an (8,) array (``o`` = SCALAR) or an (n, 8) array (``o`` a
    Batch).  The array evaluator exists when ``fam`` has one."""
    evaluate, batch = fam.evaluate, fam.batch

    def form(o, u, xi, eta):
        if o is SCALAR:
            return step(o, lambda *p: evaluate(*p).a, u, xi, eta)
        return step(o, functools.partial(batch, o), u, xi, eta)

    # per-layer tracing names the evaluator after the module of the step
    form.__module__ = step.__module__
    return from_form(form, label, gauge, array=batch is not None)


def _step(t: TransformSpec):
    """The weight map of a transform."""
    kind = t.kind
    if kind in _SWAPS:
        perm = _SWAPS[kind]

        def step(o, base, u, xi, eta):
            return base(u, xi, eta)[..., perm]
    elif kind == "scale":
        def step(o, base, u, xi, eta):
            g = _nonzero(o, t.g(u, xi, eta, o), "scale profile g")
            return base(u, xi, eta) * o.column(g)
    elif kind == "regauge":
        def step(o, base, u, xi, eta):
            a = o.columns(base(u, xi, eta))
            nx = _nonzero(o, t.N(xi, o), "regauge profile N")
            ny = _nonzero(o, t.N(eta, o), "regauge profile N")
            a[1] = a[1] * (nx / ny)
            a[2] = a[2] * (ny / nx)
            a[6] = a[6] * (t.s * nx * ny)
            a[7] = o.npdiv(a[7], t.s * nx * ny)
            return a
    elif kind == "negate_56":
        def step(o, base, u, xi, eta):
            a = base(u, xi, eta).copy()
            a[..., 4:6] = -a[..., 4:6]
            return a
    elif kind == "rescale_spectral":
        def step(o, base, u, xi, eta):
            return base(t.mu * u, xi, eta)
    else:  # recolor
        def step(o, base, u, xi, eta):
            return base(u, t.f(xi, o), t.f(eta, o))
    return step


def apply(t, fam: WeightFamily) -> WeightFamily:
    """Apply a TransformSpec or Pipeline to a family, wrapping its
    evaluators."""
    if isinstance(t, Pipeline):
        return functools.reduce(lambda out, s: apply(s, out), t.steps, fam)
    return wrap(fam, _step(t), f"{t.kind}({fam.label})",
                fam.gauge and t.kind not in ("scale", "regauge"))


def _scale_magnitudes(out: list[str], g: SpectralProfile) -> list:
    """|g| at the scale check's sampled points, from one Batch call.  If
    the batch marks a point, gives a magnitude that is not finite or
    raises, each point is evaluated by the scalar call instead, and
    ``_sampled`` names the points that raise in ``out``."""
    o = Batch(len(_DIAG_POINTS[0]))
    try:
        with np.errstate(all="ignore"):
            mags = o.lift(g(*_DIAG_POINTS, o)).abs()
        if not o.bad.any() and np.isfinite(mags).all():
            return mags.tolist()
    except (CybeError, ArithmeticError, ValueError):
        pass
    return list(_sampled(out, "scale profile g", lambda p: abs(g(*p)),
                         list(zip(*_DIAG_POINTS)), prefix="").values())


def transform_diagnostics(t: TransformSpec) -> list[str]:
    """Payload checks on a sampled domain: scale/regauge profiles must be
    nowhere zero, recolor maps injective.  Diagnostics are data, not errors;
    runtime evaluation still raises ZeroDivisor at an offending point."""
    out: list[str] = []
    if t.kind == "scale":
        if min(_scale_magnitudes(out, t.g), default=np.inf) < _ZERO_TOL:
            out.append("scale profile g vanishes on the sampled domain")
    elif t.kind == "regauge":
        # 9 colors: a Batch call costs more than evaluating them one by one
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


# -------------------- gauge reduction --------------------

@dataclass(frozen=True)
class GaugeCertificate:
    """Evidence recorded while normalizing a family to gauge form."""

    anchor: complex
    u_probe: complex
    M_samples: dict[float, complex]
    l_constant: complex
    nu_estimate: complex
    multiplicativity_defect: float
    gauge_residual: float


class _Probes(NamedTuple):
    """The random points of one gauge reduction, drawn in order."""

    anchor: complex
    u_probe: complex
    columns: tuple        # the (u, xi, eta) columns the reduction evaluates
    at: dict              # segment name -> its slice of ``columns``
    index: tuple          # ``anchored_points`` index of the gauge points

    def point(self, i: int) -> tuple:
        """Point i of ``columns`` as the point-by-point reduction passes it
        to ``eval``: a magnitude probe's u is complex, a nu point three
        floats, M is read at (u_probe, color, anchor) as given, and every
        other coordinate is the column's real part (u a float at the l and
        check points)."""
        u, xi, eta = (c[i] for c in self.columns)
        segment = next(k for k, s in self.at.items() if s.start <= i < s.stop)
        if segment in ("M", "grid"):
            return self.u_probe, xi.real, self.anchor
        if segment == "mag":
            return complex(u), xi.real, eta.real
        if segment == "nu":
            return float(u.real), float(xi.real), float(eta.real)
        if segment == "cocycle":
            return u.real, xi.real, eta.real
        return float(u.real), xi.real, eta.real


def gauge_points(anchor: complex = 0.0, u_probe: complex = 0.1,
                 color_grid=None, seed: int = 0, extra=None) -> _Probes:
    """The probe plan of ``gauge_reduce`` with these arguments.  Its
    ``columns`` are the points the reduction evaluates, in the segments
    that ``at`` names: the probes (``mag``nitude, ``cocycle`` triples,
    ``nu`` and ``l`` points, then ``M`` at the colors of the l points and
    at the ``grid``), then the inner points (``anchored_points``) of the 8
    gauge ``checks`` followed by the ``extra`` points, (u, xi, eta) columns
    whose gauge form the reduction also gives."""
    rng = np.random.default_rng(seed)
    if color_grid is None:
        color_grid = np.linspace(-0.45, 0.45, 7)
    grid = np.asarray(color_grid, dtype=float)
    clo, chi = float(grid.min()), float(grid.max())
    up = abs(complex(u_probe))

    def draw(k, n_u, n_colors):
        """k rows of n_u draws of u in up * [0.5, 2) and n_colors colors in
        [clo, chi), as rng.uniform draws them one by one."""
        R = rng.random((k, n_u + n_colors))
        return np.hstack([up * (0.5 + 1.5 * R[:, :n_u]),
                          clo + (chi - clo) * R[:, n_u:]])

    def anchored(colors):
        return (np.full(len(colors), u_probe, dtype=complex), colors,
                np.full(len(colors), anchor, dtype=complex))

    half = grid[::2]
    spread = 0.6 + 0.8 * rng.random(len(grid) * len(half))
    cocycle, nu, l, checks = (draw(12, 2, 3), draw(6, 1, 1), draw(6, 1, 2),
                              draw(8, 1, 2))
    u, v, xi, eta, lam = cocycle.T
    segments = {
        # complex(u_probe) * s as CPython multiplies a complex by a float
        "mag": ((Split(*_parts(u_probe)) * Split(spread, 0.0)).complex(),
                np.repeat(grid, len(half)), np.tile(half, len(grid))),
        # f(u+v, xi, lam), f(u, xi, eta) and f(v, eta, lam) of each triple
        "cocycle": (np.ravel([u + v, u, v], order="F"),
                    np.ravel([xi, xi, eta], order="F"),
                    np.ravel([lam, eta, lam], order="F")),
        "nu": (nu[:, 0], nu[:, 1], nu[:, 1]),
        "l": tuple(l.T),
        "M": anchored(l[:, 1:].ravel()),
        "grid": anchored(grid),
    }
    gauged = checks.T
    if extra is not None:
        gauged = [np.concatenate(c) for c in zip(gauged, extra)]
    inner, index = anchored_points(*gauged, u_probe, anchor)
    sizes = ([len(s[0]) for s in segments.values()]
             + [len(checks), len(gauged[0]) - len(checks)])
    ends = list(itertools.accumulate(sizes))
    at = dict(zip([*segments, "checks", "extra"],
                  map(slice, [0, *ends], ends)))
    return _Probes(anchor, u_probe,
                   tuple(map(np.concatenate, zip(*segments.values(), inner))),
                   at, index)


def anchored_points(u, xi, eta, u_probe, anchor):
    """The inner points of the gauge form at n points (u, xi, eta): the
    points themselves, then one anchored point (u_probe, c, anchor), whose
    a3/a2 is M(c), for each distinct color c of xi and eta (equal bits).
    Returns their (u, xi, eta) columns and the indices (i_eta, i_xi) of the
    rows of M(eta) and M(xi) of each point."""
    n = len(u)
    colors = np.concatenate([xi, eta]).astype(complex)
    _, first, inverse = np.unique(colors.view(np.dtype((np.void, 16))),
                                  return_index=True, return_inverse=True)
    k = len(first)
    i_xi, i_eta = n + inverse.reshape(2, n)
    return ((np.concatenate([u, np.full(k, u_probe, dtype=complex)]),
             np.concatenate([xi, colors[first]]),
             np.concatenate([eta, np.full(k, anchor, dtype=complex)])),
            (i_eta, i_xi))


def _ratio(o, w):
    """a3/a2 of the weight columns w."""
    return w[2] / _nonzero(o, w[1], "a2")


def _gauge_weights(o, w, a2, m_eta, m_xi, l):
    """The gauge form of the weight columns w at a point, from their a2
    (checked nonzero), M(eta), M(xi) and the constant l."""
    sqrt_l = complex(np.sqrt(l))
    sqrt_eta, sqrt_xi = o.npsqrt(m_eta), o.npsqrt(m_xi)
    r = sqrt_eta / sqrt_xi
    g = r / a2
    my = sqrt_eta ** 2
    return [
        w[0] * g,
        1.0,
        (w[2] / a2) * r * r,
        w[3] * g,
        w[4] * g,
        w[5] * g,
        w[6] / a2 * sqrt_l * my,
        w[7] / a2 / (sqrt_l * my) * r * r,
    ]


def _from_inner(o, W, bad, index, l):
    """The gauge form at the n points of the Batch ``o`` from the family's
    rows W at their inner points, with ``index`` of ``anchored_points``.
    A point is marked when one of its three rows is marked in ``bad``."""
    i_eta, i_xi = index
    n = o.n
    o._flag(bad[:n] | bad[i_eta] | bad[i_xi])
    w = o.columns(W[:n])
    a2 = _nonzero(o, w[1], "a2")
    return _gauge_weights(o, w, a2, _ratio(o, o.columns(W[i_eta])),
                          _ratio(o, o.columns(W[i_xi])), l)


def gauge_rows(W, ok, index, l):
    """The rows (W, ok) of a gauge form of constant l (``GaugeCertificate.
    l_constant``) at n points, from the family's rows (W, ok) at their inner
    points and the ``index`` of ``anchored_points``: bit for bit what the
    reduced family's ``eval_array`` gives at the n points."""
    o = Batch(len(index[0]))
    with np.errstate(all="ignore"):
        W = o.pack(_from_inner(o, W, ~ok, index, l))
    return W, ~o.bad


def gauge_reduce(fam: WeightFamily, anchor: complex = 0.0,
                 u_probe: complex = 0.1, color_grid=None, seed: int = 0
                 ) -> tuple[WeightFamily, GaugeCertificate]:
    """Normalize an eight-vertex family to a2 = a3 = 1, a7 = a8.

    The net map is a scaling by sqrt(M(eta)/M(xi))/a2 followed by a regauge
    with N = sqrt(M) and s = sqrt(l), where M(xi) is the a3/a2 ratio against
    the color anchor and l the constant in a8/a7 = l M(xi) M(eta).  For true
    solutions the ratio f = a3/a2 is u-independent and multiplicative; both
    facts are checked and certified.

    The points are ``gauge_points`` of the same arguments, evaluated in one
    ``eval_array`` call.
    """
    p = gauge_points(anchor, u_probe, color_grid, seed)
    return _reduce(fam, p, fam.eval_array(*p.columns))[:2]


def _reduce(fam: WeightFamily, p: _Probes, rows):
    """``gauge_reduce`` on the plan ``p`` of ``gauge_points`` and the rows
    (W, ok) of ``fam`` at its ``columns``, with the rows (W, ok) of the
    gauge form at the plan's extra points.  Each check is a few array
    operations on the probes' rows, and raises the error of the point-by-
    point reduction: that of the first probe in its read order that is
    marked (the probe's own error, from ``eval``), divides by a2 (a7 at the
    l points) of magnitude below ``_ZERO_TOL``, or takes a magnitude that
    overflows from finite parts (Python's abs raises OverflowError there).
    Magnitudes are Python's complex abs and quotients CPython's; a NaN
    magnitude is skipped, as by ``max``."""
    W, ok = rows
    anchor, u_probe, at = p.anchor, p.u_probe, p.at
    n = at["checks"].start               # the probes come first
    ids = np.arange(n)
    mags, cocycle, nus, ls, ms, grid = (ids[at[k]] for k in (
        "mag", "cocycle", "nu", "l", "M", "grid"))

    def overflows(z, r):
        """Where Python's abs of the Split z, of magnitude r, raises
        OverflowError: r overflows from finite parts."""
        return np.isinf(r) & np.isfinite(z.re) & np.isfinite(z.im)

    with np.errstate(all="ignore"):
        f = Split.of(W[:n, 2]) / Split.of(W[:n, 1])      # a3/a2
        # each probe's divisor: none at a magnitude probe, a7 at the l points
        divisor = W[:n, 1].copy()
        divisor[at["mag"]] = 1
        divisor[at["l"]] = W[at["l"], 6]
        d = Split.of(divisor)
        r = d.abs()
        failed = ~ok[:n] | (r < _ZERO_TOL) | overflows(d, r)
        # after its divisor, a check takes the magnitude of the cocycle
        # defect f(u+v,xi,lam) - f(u,xi,eta) f(v,eta,lam) at the last probe
        # of each triple, and of f at the nu points
        diff = f[cocycle[0::3]] - f[cocycle[1::3]] * f[cocycle[2::3]]
        val = f[at["nu"]]
        diff_r, val_r = diff.abs(), val.abs()
        failed[cocycle[2::3]] |= overflows(diff, diff_r)
        failed[at["nu"]] |= overflows(val, val_r)

        def fail(i):
            """Raise the point-by-point error of the failing probe i."""
            if not ok[i]:
                fam.eval(*p.point(i))     # raises the probe's own error
            if abs(complex(divisor[i])) < _ZERO_TOL:
                raise ZeroDivisor(f"{'a7' if i in ls else 'a2'} "
                                  "vanishes at a requested point")
            raise OverflowError("absolute value too large")   # Python's abs

        def check(read):
            """Raise the error of the first failing probe of ``read``, a
            check's probes in read order."""
            bad = read[failed[read]]
            if len(bad):
                fail(bad[0])

        check(mags)
        dead = vanishing_weights(np.abs(W[at["mag"]]).max(axis=0))
        if dead:
            raise NotEightVertex(
                f"weights {dead} vanish identically on samples")

        # cocycle check: f(u+v,xi,lam) = f(u,xi,eta) f(v,eta,lam)
        check(cocycle)
        defect = float(np.fmax.reduce(diff_r, initial=0.0))
        if defect > 1e-8:
            raise MultiplicativityViolation(
                f"a3/a2 cocycle defect {defect:.3e} exceeds 1e-8; "
                "input is not a solution")

        # nu diagnostic: f(u,xi,xi) = exp(nu u) for near-solutions; no
        # check raises between the nu and the l points, and each l point
        # is read before M at its colors xi and eta
        check(np.concatenate([nus, np.ravel([ls, ms[0::2], ms[1::2]],
                                            order="F")]))
        keep = val_r > _ZERO_TOL
        nu = (complex(np.mean(np.log(val.complex()[keep])
                              / p.columns[0][at["nu"]].real[keep]))
              if keep.any() else 0j)

        # l = a8/a7 / (M(xi) M(eta)) at the l points
        l = complex(np.mean((
            Split.of(W[at["l"], 7]) / Split.of(W[at["l"], 6])
            / (f[ms[0::2]] * f[ms[1::2]])).complex()))

    def M(x) -> complex:
        return _ratio(SCALAR, fam.eval(u_probe, x, anchor).a.tolist())

    def reduced(o, base, u, xi, eta):
        if o is SCALAR:
            w = o.columns(base(u, xi, eta))
            a2 = _nonzero(o, w[1], "a2")
            return _gauge_weights(o, w, a2, M(eta), M(xi), l)
        # the points and their anchored points in one call
        inner, index = anchored_points(*map(o.complex, (u, xi, eta)),
                                       u_probe, anchor)
        s = Batch(len(inner[0]))
        return _from_inner(o, fam.batch(s, *map(s.lift, inner)), s.bad,
                           index, l)

    out = wrap(fam, reduced, f"gauge_reduce({fam.label})", gauge=True)
    # one pass gives the gauge form at the check points and the extra ones
    G, good = gauge_rows(W[n:], ok[n:], p.index, l)
    k = at["checks"].stop - n
    with np.errstate(all="ignore"):
        # per check point |a2 - 1|, |a3 - 1| and |a7 - a8|, in turn
        res = Split.of(np.stack(
            [G[:k, 1] - 1, G[:k, 2] - 1, G[:k, 6] - G[:k, 7]], axis=1))
        r = res.abs()
        bad = ~good[:k] | overflows(res, r).any(axis=1)
        if bad.any():
            j = int(bad.argmax())
            if not good[j]:
                out.eval(*p.point(n + j))   # raises the point's own error
            raise OverflowError("absolute value too large")   # Python's abs
        gauge_res = float(np.fmax.reduce(r, axis=None, initial=0.0))
        check(grid)
    # check(grid) has passed, so every grid row holds its M
    cert = GaugeCertificate(
        anchor=complex(anchor), u_probe=complex(u_probe),
        M_samples=dict(zip(p.columns[1][grid].real.tolist(),
                           f[grid].complex().tolist())),
        l_constant=l, nu_estimate=nu,
        multiplicativity_defect=defect,
        gauge_residual=gauge_res,
    )
    return out, cert, (G[k:], good[k:])

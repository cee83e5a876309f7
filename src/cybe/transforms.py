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
Classify draws the plan itself, evaluates its points beside its own, and
hands the plan and their rows to the same reduction.  The reduced family
at n points reads the wrapped family at their inner points: the points,
and one anchored point per distinct color, whose a3/a2 is M(color).  Its
array evaluator evaluates them in one call, and
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

from .errors import (InvalidSpec, MultiplicativityViolation, NotEightVertex,
                     ZeroDivisor)
from .families import WeightFamily, _sampled, from_form
from .numkernel import SCALAR, Batch
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


def transform_diagnostics(t: TransformSpec) -> list[str]:
    """Payload checks on a sampled domain: scale/regauge profiles must be
    nowhere zero, recolor maps injective.  Diagnostics are data, not errors;
    runtime evaluation still raises ZeroDivisor at an offending point."""
    out: list[str] = []
    if t.kind == "scale":
        points = [(u, xi, eta) for u in _DIAG_US for xi in _DIAG_COLORS[::2]
                  for eta in _DIAG_COLORS[::2]]
        mags = _sampled(out, "scale profile g", lambda p: abs(t.g(*p)),
                        points, prefix="")
        if min(mags.values(), default=np.inf) < _ZERO_TOL:
            out.append("scale profile g vanishes on the sampled domain")
    elif t.kind == "regauge":
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
    points: list          # the probes, in the order they are read
    n_mag: int            # magnitude probes, first in ``points``
    n_cocycle: int        # cocycle triples, three points each
    nu: list              # (u, xi) of the nu diagnostic
    l: list               # (u, xi, eta) of the constant l
    checks: list          # (u, xi, eta) of the gauge check
    m_colors: list        # colors x of the M(x) probes, last in ``points``
    grid: np.ndarray
    columns: tuple        # the (u, xi, eta) columns the reduction evaluates
    check_index: tuple    # the check's ``anchored_points`` index


def gauge_points(anchor: complex = 0.0, u_probe: complex = 0.1,
                 color_grid=None, seed: int = 0) -> _Probes:
    """The probe plan of ``gauge_reduce`` with these arguments.  Its
    ``columns`` are the points the reduction evaluates: its probes, then
    the inner points of its gauge check."""
    rng = np.random.default_rng(seed)
    if color_grid is None:
        color_grid = np.linspace(-0.45, 0.45, 7)
    color_grid = np.asarray(color_grid, dtype=float)
    clo, chi = float(color_grid.min()), float(color_grid.max())
    up = abs(complex(u_probe))

    def draw(k, n_u, n_colors):
        """k rows of n_u draws of u in up * [0.5, 2) and n_colors colors in
        [clo, chi), as rng.uniform draws them one by one."""
        R = rng.random((k, n_u + n_colors))
        return np.hstack([up * (0.5 + 1.5 * R[:, :n_u]),
                          clo + (chi - clo) * R[:, n_u:]])

    spread = 0.6 + 0.8 * rng.random(len(color_grid) * len(color_grid[::2]))
    mag_pts = [(complex(u_probe) * s, xi, eta) for s, (xi, eta) in zip(
        spread, itertools.product(color_grid, color_grid[::2]))]
    cocycle = draw(12, 2, 3)
    nu_pts = [(float(u), float(xi)) for u, xi in draw(6, 1, 1)]
    l_pts = [(float(u), xi, eta) for u, xi, eta in draw(6, 1, 2)]
    gauge_pts = [(float(u), xi, eta) for u, xi, eta in draw(8, 1, 2)]
    m_colors = [*np.ravel([p[1:] for p in l_pts]), *color_grid]
    pts = (mag_pts
           + [p for u, v, xi, eta, lam in cocycle
              for p in ((u + v, xi, lam), (u, xi, eta), (v, eta, lam))]
           + [(u, xi, xi) for u, xi in nu_pts] + l_pts
           + [(u_probe, x, anchor) for x in m_colors])
    inner, index = anchored_points(*map(np.array, zip(*gauge_pts)),
                                   u_probe, anchor)
    columns = tuple(np.concatenate(c)
                    for c in zip(map(np.array, zip(*pts)), inner))
    return _Probes(anchor, u_probe, pts, len(mag_pts), len(cocycle), nu_pts,
                   l_pts, gauge_pts, m_colors, color_grid, columns, index)


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
    return _reduce(fam, p, fam.eval_array(*p.columns))


def _reduce(fam: WeightFamily, p: _Probes, rows
            ) -> tuple[WeightFamily, GaugeCertificate]:
    """``gauge_reduce`` on the plan ``p`` of ``gauge_points`` and the rows
    (W, ok) of ``fam`` at its ``columns``."""
    W, ok = rows
    anchor, u_probe = p.anchor, p.u_probe
    n = len(p.points)
    # rows in probe order; a point marked in W raises its own error in turn
    probe_rows = (W[i] if ok[i] else fam.eval(*q).a
                  for i, q in enumerate(p.points))
    m_row = {x: i for i, x in enumerate(p.m_colors, n - len(p.m_colors))}

    mags = [np.abs(next(probe_rows)) for _ in range(p.n_mag)]
    dead = vanishing_weights(np.max(mags, axis=0))
    if dead:
        raise NotEightVertex(f"weights {dead} vanish identically on samples")

    def f_ratio(a):
        return _ratio(SCALAR, a.tolist())

    # cocycle check: f(u+v,xi,lam) = f(u,xi,eta) f(v,eta,lam)
    defect = 0.0
    for _ in range(p.n_cocycle):
        lhs = f_ratio(next(probe_rows))
        rhs = f_ratio(next(probe_rows)) * f_ratio(next(probe_rows))
        defect = max(defect, abs(lhs - rhs))
    if defect > 1e-8:
        raise MultiplicativityViolation(
            f"a3/a2 cocycle defect {defect:.3e} exceeds 1e-8; "
            "input is not a solution")

    # nu diagnostic: f(u,xi,xi) = exp(nu u) for near-solutions
    nus = []
    for u, _ in p.nu:
        val = f_ratio(next(probe_rows))
        if abs(val) > _ZERO_TOL:
            nus.append(np.log(complex(val)) / u)
    nu = complex(np.mean(nus)) if nus else 0j

    @functools.cache   # x as float, np.float64 or complex(x, 0): one entry
    def M(x) -> complex:
        i = m_row.get(x)
        return f_ratio(W[i] if i is not None and ok[i]
                       else fam.eval(u_probe, x, anchor).a)

    l_vals = []
    for _, xi, eta in p.l:
        w = next(probe_rows).tolist()
        l_vals.append((w[7] / _nonzero(SCALAR, w[6], "a7"))
                      / (M(xi) * M(eta)))
    l = complex(np.mean(l_vals))

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
    gauge_res = 0.0
    checked = gauge_rows(W[n:], ok[n:], p.check_index, l)
    # a point marked in the check's rows raises its own error in turn
    for q, w, good in zip(p.checks, *checked):
        a = (w if good else out.eval(*q).a).tolist()
        gauge_res = max(gauge_res, abs(a[1] - 1), abs(a[2] - 1),
                        abs(a[6] - a[7]))

    cert = GaugeCertificate(
        anchor=complex(anchor), u_probe=complex(u_probe),
        M_samples={float(x): M(float(x)) for x in p.grid},
        l_constant=l, nu_estimate=nu,
        multiplicativity_defect=float(defect),
        gauge_residual=float(gauge_res),
    )
    return out, cert

"""Deterministic pole-free sampling of evaluation points.

A candidate (a triple (u, v, xi, eta, lam), or a point (u, xi, eta)) is
rejected when the family raises at one of its evaluation points -- a pole,
an overflow, a non-finite weight -- or produces weights above
``max_weight`` (which would amplify roundoff in the cubic residuals).  The
accepted samples are the first ``n`` valid candidates in draw order, a pure
function of the seed; ``SamplingExhausted`` is raised when the first
``_MAX_ATTEMPT_FACTOR * n`` candidates hold fewer.

Candidates are drawn in blocks: ``lo + (hi - lo) * rng.random((B, width))``
is bit for bit the stream of per-candidate ``rng.uniform`` calls.  Every
point of a block is evaluated in one ``WeightFamily.eval_array`` call, whose
validity mask stands in for the per-point rejection.  A block holds the
samples still needed at the acceptance rate seen so far, at most
``_DRAW_MAX`` candidates.  An array call has a fixed cost whatever its
size, so the cap is high enough for a 600-sample sweep to be one call; a
cap of 1024 saved no time that could be told from noise and raised peak
memory.  The points of the first block are fixed by the plan
(``first_block``), so a caller may evaluate them beside its own points in
one call (``evaluate_groups``) and hand their rows to the draw: ``verify``
evaluates the first blocks of its residual and unitarity sweeps together,
and classify its sweep's with the points of its later stages.

Each point is evaluated once: the sampler hands on the weights it computed,
so the sweeps and classify's branch stage never evaluate the family
again.  ``residual_sweep`` computes the residuals of each block of
accepted triples with one batched ``ybe_residuals`` call, and
``unitarity_sweep`` the unitarity defects of each block of accepted points
with one ``unitarity_defects`` call.  Both are elementwise column
arithmetic with no matrix product, so a block's values do not depend on
its size or on the BLAS build; ``ybe_residuals`` works through a block in
cache-sized chunks of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import InvalidSpec, SamplingExhausted
from .weights import _WEIGHT_BOUND, unitarity_defects, ybe_residuals

_MAX_ATTEMPT_FACTOR = 200

#: most candidates drawn and evaluated at once; the first block of a
#: 600-sample sweep holds 754
_DRAW_MAX = 768


@dataclass(frozen=True)
class SamplePlan:
    n: int = 100
    seed: int = 0
    u_span: tuple[float, float] = (-0.35, 0.35)
    color_span: tuple[float, float] = (-0.5, 0.5)
    max_weight: float = 15.0

    def __post_init__(self):
        if not self.max_weight <= _WEIGHT_BOUND:
            raise InvalidSpec(f"max_weight must be at most {_WEIGHT_BOUND:g} "
                              f"(weight products would overflow), got "
                              f"{self.max_weight!r}")


def _block_size(need: int, kept: int, attempts: int) -> int:
    """Candidates to draw next: ``need`` more samples at the acceptance
    rate seen so far, with a margin."""
    if not attempts:
        return need + need // 4 + 4
    if not kept:
        return _DRAW_MAX
    return ceil(1.25 * need * attempts / kept) + 4


def _next_size(plan: SamplePlan, kept: int, attempts: int) -> int:
    """Candidates in the next block of a draw, within ``_DRAW_MAX`` and the
    attempt cap."""
    return min(_block_size(plan.n - kept, kept, attempts), _DRAW_MAX,
               _MAX_ATTEMPT_FACTOR * plan.n - attempts)


def _block(rng, spans, size: int, points):
    """``size`` candidates drawn from ``spans`` as a (size, len(spans))
    array, and their evaluation points as (u, xi, eta) columns: the first
    point of every candidate, then the second, and so on."""
    lo = np.array([s[0] for s in spans], dtype=float)
    width = np.array([s[1] - s[0] for s in spans], dtype=float)
    S = lo + width * rng.random((size, len(spans)))
    return S, tuple(np.concatenate(c) for c in zip(*points(*S.T)))


def first_block(plan: SamplePlan, spans, points):
    """The evaluation points of the first block of ``_draw``, as (u, xi,
    eta) columns, so that a caller can evaluate them beside its own."""
    return _block(np.random.default_rng(plan.seed), spans,
                  _next_size(plan, 0, 0), points)[1]


def split_rows(rows, groups: dict) -> dict:
    """The rows (W, ok) of each named group of points, (u, xi, eta)
    columns, from the rows of the groups in order (and of any points after
    them)."""
    W, ok = rows
    out, start = {}, 0
    for name, (u, _, _) in groups.items():
        out[name] = W[start:start + len(u)], ok[start:start + len(u)]
        start += len(u)
    return out


def evaluate_groups(fam, groups: dict) -> dict:
    """The rows (W, ok) of ``fam`` at each named group of points from one
    ``eval_array`` call."""
    return split_rows(
        fam.eval_array(*map(np.concatenate, zip(*groups.values()))), groups)


def _draw(fam, plan: SamplePlan, spans, points, first=None):
    """The rejection loop over candidates whose columns are drawn from
    ``spans``; ``points(*columns)`` gives their evaluation points.  Yields
    (samples, weights) per block of accepted candidates: a (k, len(spans))
    array and a tuple of one (k, 8) weight array per point.  ``first``, when
    given, holds the rows (W, ok) of ``fam`` at the ``first_block`` points,
    which the first block reads instead of evaluating them."""
    rng = np.random.default_rng(plan.seed)
    cap = _MAX_ATTEMPT_FACTOR * plan.n
    kept = attempts = 0
    while kept < plan.n:
        if attempts >= cap:
            raise SamplingExhausted("sample rejection rate too high; widen "
                                    "the spans or relax max_weight")
        size = _next_size(plan, kept, attempts)
        S, columns = _block(rng, spans, size, points)
        W, ok = (first if first is not None and not attempts
                 else fam.eval_array(*columns))
        ok = ok & (np.abs(W).max(axis=1) <= plan.max_weight)
        per = len(ok) // size
        ok = ok.reshape(per, size).all(axis=0)
        W = W.reshape(per, size, 8)
        idx = np.flatnonzero(ok)[:plan.n - kept]
        attempts += size
        kept += len(idx)
        if len(idx):
            yield S[idx], tuple(W[p, idx] for p in range(per))


def _triple_points(u, v, xi, eta, lam):
    """The argument pattern of the matrix identity."""
    return (u, xi, eta), (u + v, xi, lam), (v, eta, lam)


def _point_pair(u, xi, eta):
    """A point and its unitarity partner."""
    return (u, xi, eta), (-u, eta, xi)


def _point(u, xi, eta):
    """A point alone."""
    return (u, xi, eta),


def _triple_spans(plan: SamplePlan):
    """The spans of a triple's columns (u, v, xi, eta, lam)."""
    return (plan.u_span,) * 2 + (plan.color_span,) * 3


def _point_spans(plan: SamplePlan):
    """The spans of a point's columns (u, xi, eta)."""
    return (plan.u_span,) + (plan.color_span,) * 2


def _triples(fam, plan: SamplePlan, first=None):
    return _draw(fam, plan, _triple_spans(plan), _triple_points, first)


def _points(fam, plan: SamplePlan, pattern=_point_pair, first=None):
    """Pole-free points (u, xi, eta), each with the points of ``pattern``."""
    return _draw(fam, plan, _point_spans(plan), pattern, first)


def draw_triples(fam, plan: SamplePlan):
    """Return ``plan.n`` tuples (u, v, xi, eta, lam) whose three evaluation
    points (u,xi,eta), (u+v,xi,lam), (v,eta,lam) are pole-free."""
    return [tuple(row) for S, _ in _triples(fam, plan) for row in S]


def draw_points(fam, plan: SamplePlan):
    """Return ``plan.n`` pole-free single points (u, xi, eta)."""
    return [tuple(row) for S, _ in _points(fam, plan) for row in S]


def residual_sweep(fam, plan: SamplePlan, first=None):
    """Yield, for each block of the ``plan.n`` pole-free triples that the
    sampler accepts at once (at most ``_DRAW_MAX``), (U, rel, comp): the
    (B, 8) weights at (u, xi, eta), the relative residuals (B,) and the
    absolute components (B, 28), each entry bitwise equal to the
    ``ybe_residual`` report of its triple.  ``first``: the rows of the
    first block, as ``_draw`` takes them."""
    for _, (U, W, V) in _triples(fam, plan, first):
        comp, scale = ybe_residuals(U, W, V)
        yield U, comp.max(axis=1) / scale, comp


def unitarity_sweep(fam, plan: SamplePlan, first=None):
    """Yield, for each block of the ``plan.n`` pole-free points that the
    sampler accepts at once, the unitarity defects (B,) of its points, each
    bitwise ``unitarity_defect`` of the point's weights.  A point that is
    not gauge-normalized raises NotGauge before the next block is drawn.
    ``first``: the rows of the first block, as ``_draw`` takes them."""
    for _, (W, Wr) in _points(fam, plan, first=first):
        yield unitarity_defects(W, Wr)

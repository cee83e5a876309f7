"""Deterministic pole-free sampling of evaluation points.

A candidate (a triple (u, v, xi, eta, lam), or a point (u, xi, eta)) is
rejected when the family raises at one of its evaluation points -- a pole,
an overflow, a non-finite weight -- or produces weights above
``max_weight`` (which would amplify roundoff in the cubic residuals).  The
accepted samples are the first ``n`` valid candidates in draw order, a pure
function of the seed; ``SamplingExhausted`` is raised when the first
``_MAX_ATTEMPT_FACTOR * n`` candidates hold fewer.

Candidates are drawn in blocks: ``lo + (hi - lo) * rng.random((B, width))``
is bit for bit the stream of per-candidate ``rng.uniform`` calls, so the
accepted samples do not depend on how the blocks are sized.  Every point of
a block is evaluated in one ``WeightFamily.eval_array`` call, whose
validity mask stands in for the per-point rejection, and the weight
magnitudes that the ``max_weight`` test takes are handed on with the
weights.  The first block holds the samples needed with a margin of 1/32
(plus 4): the benchmark's families reject almost no candidate, so a larger
margin only evaluates points that are never used.  A later block holds the
samples still needed at the acceptance rate seen so far, with a margin of
1/4.  No block holds more than ``_DRAW_MAX`` candidates.  An array call
has a fixed cost whatever its size, so the cap is high enough for a
600-sample sweep to be one call; a cap of 1024 saved no time that could be
told from noise and raised peak memory.  The first block is fixed by the
plan (``first_block``: its candidates, points and generator), so a caller
may evaluate its points beside its own in one call (``evaluate_groups``)
and hand the block and its rows to the draw, which goes on from there:
``verify`` evaluates the first blocks of its residual and unitarity sweeps
together, and classify its sweep's with the points of its later stages.

Each point is evaluated once: the sampler hands on the weights it computed,
so the sweeps and classify's branch stage never evaluate the family
again.  ``residual_sweep`` reduces each block of accepted triples to its
relative residuals and the largest magnitude of each component, chunk by
chunk of rows, with the magnitudes the sampler took as the scale; and
``unitarity_sweep`` computes the unitarity defects of each block of
accepted points with one ``unitarity_defects`` call.  Both are elementwise
column arithmetic with no matrix product, so a block's values do not
depend on its size or on the BLAS build.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import InvalidSpec, SamplingExhausted
from .weights import _WEIGHT_BOUND, _residual_maxima, unitarity_defects

_MAX_ATTEMPT_FACTOR = 200

#: most candidates drawn and evaluated at once; the first block of a
#: 600-sample sweep holds 622
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
    """Candidates to draw next: ``need`` more samples, with a margin of
    1/32 for the first block and at the acceptance rate seen so far, with
    a margin of 1/4, for a later one."""
    if not attempts:
        return need + need // 32 + 4
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


@dataclass
class FirstBlock:
    """The first block of a draw: its candidates, their evaluation points
    as (u, xi, eta) columns, and the generator past them, from which the
    draw goes on; so one ``FirstBlock`` serves one draw."""

    samples: np.ndarray
    columns: tuple
    rng: np.random.Generator


def first_block(plan: SamplePlan, spans, points) -> FirstBlock:
    """The first block of ``_draw``, so that a caller can evaluate its
    points beside its own."""
    rng = np.random.default_rng(plan.seed)
    return FirstBlock(*_block(rng, spans, _next_size(plan, 0, 0), points),
                      rng)


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
    (samples, weights, mags) per block of accepted candidates: a
    (k, len(spans)) array, a tuple of one (k, 8) weight array per point,
    and a tuple of the (k,) largest weight magnitudes of each point's
    rows.  ``first``, when given, is the draw's
    ``first_block`` and the rows (W, ok) of ``fam`` at its points, which
    the first block reads instead of drawing and evaluating them."""
    block, rows = first or (first_block(plan, spans, points), None)
    S, columns, rng = block.samples, block.columns, block.rng
    cap = _MAX_ATTEMPT_FACTOR * plan.n
    kept = attempts = 0
    while kept < plan.n:
        if attempts >= cap:
            raise SamplingExhausted("sample rejection rate too high; widen "
                                    "the spans or relax max_weight")
        if attempts:
            S, columns = _block(rng, spans, _next_size(plan, kept, attempts),
                                points)
            rows = None
        W, ok = rows or fam.eval_array(*columns)
        size = len(S)
        per = len(ok) // size
        mags = np.abs(W).max(axis=1).reshape(per, size)
        ok = ok.reshape(per, size).all(axis=0)
        ok &= (mags <= plan.max_weight).all(axis=0)
        W = W.reshape(per, size, 8)
        idx = np.flatnonzero(ok)[:plan.n - kept]
        attempts += size
        kept += len(idx)
        if len(idx):
            yield (S[idx], tuple(W[p, idx] for p in range(per)),
                   tuple(mags[p, idx] for p in range(per)))


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
    return [tuple(row) for S, _, _ in _triples(fam, plan) for row in S]


def draw_points(fam, plan: SamplePlan):
    """Return ``plan.n`` pole-free single points (u, xi, eta)."""
    return [tuple(row) for S, _, _ in _points(fam, plan) for row in S]


def residual_sweep(fam, plan: SamplePlan, first=None):
    """Yield, for each block of the ``plan.n`` pole-free triples that the
    sampler accepts at once (at most ``_DRAW_MAX``), (U, rel, top): the
    (B, 8) weights at (u, xi, eta), the relative residuals (B,), each
    bitwise the ``ybe_residual`` report of its triple, and the largest
    absolute value of each of the 28 components over the block (NaN
    ignored, as by ``np.fmax``).  ``first``: the first block and its rows,
    as ``_draw`` takes them."""
    for _, (U, W, V), mags in _triples(fam, plan, first):
        norm, top, scale = _residual_maxima(U, W, V, mags)
        yield U, norm / scale, top


def unitarity_sweep(fam, plan: SamplePlan, first=None):
    """Yield, for each block of the ``plan.n`` pole-free points that the
    sampler accepts at once, the unitarity defects (B,) of its points, each
    bitwise ``unitarity_defect`` of the point's weights.  A point that is
    not gauge-normalized raises NotGauge before the next block is drawn.
    ``first``: the first block and its rows, as ``_draw`` takes them."""
    for _, (W, Wr), _ in _points(fam, plan, first=first):
        yield unitarity_defects(W, Wr)

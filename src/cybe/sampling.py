"""Deterministic pole-free sampling of evaluation points.

A candidate (a triple (u, v, xi, eta, lam), or a point (u, xi, eta)) is
rejected when the family raises at one of its evaluation points -- a pole,
an overflow, a non-finite weight -- or produces weights above
``max_weight`` (which would amplify roundoff in the cubic residuals).  The
accepted samples are the first ``n`` valid candidates in draw order, a pure
function of the seed; ``SamplingExhausted`` is raised when the first
``_MAX_ATTEMPT_FACTOR * n`` candidates hold fewer.

Candidates are drawn in blocks: ``lo + (hi - lo) * rng.random((B, width))``
is bit for bit the stream of per-candidate ``rng.uniform`` calls.  A family
with an array evaluator evaluates every point of a block in one
``eval_array`` call, whose validity mask stands in for the per-point
rejection.  A block holds the samples still needed at the acceptance rate
seen so far, at most ``_DRAW_MAX`` candidates, which bounds memory.  A
family with only a scalar evaluator is evaluated one candidate at a time,
stopping at the first point that fails, exactly as an unbatched loop does.

Each point is evaluated once: the sampler hands on the weights it computed,
so ``residual_sweep`` and ``point_weights`` consumers never evaluate the
family again.  ``residual_sweep`` regroups the accepted triples in blocks
of ``_BLOCK`` and computes their residuals with one batched
``ybe_residuals`` call per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import CybeError, SamplingExhausted
from .weights import WeightVector, ybe_residuals

_MAX_ATTEMPT_FACTOR = 200

#: triples per batched residual call of residual_sweep
_BLOCK = 128

#: most candidates drawn and evaluated at once
_DRAW_MAX = 256


@dataclass(frozen=True)
class SamplePlan:
    n: int = 100
    seed: int = 0
    u_span: tuple[float, float] = (-0.35, 0.35)
    color_span: tuple[float, float] = (-0.5, 0.5)
    max_weight: float = 15.0


def _accept(fam, pts, max_weight):
    """The weights at ``pts``, or None at the first point that raises or
    exceeds ``max_weight``."""
    weights = []
    try:
        for p in pts:
            w = fam.eval(*p)
            if not w.scale() <= max_weight:
                return None
            weights.append(w)
    except CybeError:
        return None
    return weights


def _block_size(need: int, kept: int, attempts: int) -> int:
    """Candidates to draw next: ``need`` more samples at the acceptance
    rate seen so far, with a margin."""
    if not attempts:
        return need + need // 4 + 4
    if not kept:
        return _DRAW_MAX
    return ceil(1.25 * need * attempts / kept) + 4


def _draw(fam, plan: SamplePlan, spans, points):
    """The rejection loop over candidates whose columns are drawn from
    ``spans``; ``points(*columns)`` gives their evaluation points.  Yields
    (samples, weights) per block of accepted candidates: a (k, len(spans))
    array and a tuple of one (k, 8) weight array per point."""
    rng = np.random.default_rng(plan.seed)
    lo = np.array([s[0] for s in spans], dtype=float)
    width = np.array([s[1] - s[0] for s in spans], dtype=float)
    cap = _MAX_ATTEMPT_FACTOR * plan.n
    kept = attempts = 0
    while kept < plan.n:
        if attempts >= cap:
            raise SamplingExhausted("sample rejection rate too high; widen "
                                    "the spans or relax max_weight")
        size = min(_block_size(plan.n - kept, kept, attempts), _DRAW_MAX,
                   cap - attempts)
        S = lo + width * rng.random((size, len(spans)))
        if fam.batch is None:
            for row in S:
                attempts += 1
                weights = _accept(fam, points(*row), plan.max_weight)
                if weights is not None:
                    kept += 1
                    yield row[None], tuple(w.a[None] for w in weights)
                    if kept == plan.n:
                        return
            continue
        pts = points(*S.T)
        W, ok = fam.eval_array(*(np.concatenate(c) for c in zip(*pts)))
        ok &= np.abs(W).max(axis=1) <= plan.max_weight
        ok = ok.reshape(len(pts), size).all(axis=0)
        W = W.reshape(len(pts), size, 8)
        idx = np.flatnonzero(ok)[:plan.n - kept]
        attempts += size
        kept += len(idx)
        if len(idx):
            yield S[idx], tuple(W[p, idx] for p in range(len(pts)))


def _triple_points(u, v, xi, eta, lam):
    """The argument pattern of the matrix identity."""
    return (u, xi, eta), (u + v, xi, lam), (v, eta, lam)


def _point_pair(u, xi, eta):
    """A point and its unitarity partner."""
    return (u, xi, eta), (-u, eta, xi)


def _triples(fam, plan: SamplePlan):
    spans = (plan.u_span,) * 2 + (plan.color_span,) * 3
    return _draw(fam, plan, spans, _triple_points)


def _points(fam, plan: SamplePlan):
    spans = (plan.u_span,) + (plan.color_span,) * 2
    return _draw(fam, plan, spans, _point_pair)


def point_weights(fam, plan: SamplePlan):
    """Yield ((u, xi, eta), (w, wr)) for ``plan.n`` points whose weights w
    at (u, xi, eta) and wr at (-u, eta, xi) are pole-free."""
    for S, (W, Wr) in _points(fam, plan):
        for row, a, ar in zip(S, W, Wr):
            yield tuple(row), (WeightVector(a), WeightVector(ar))


def draw_triples(fam, plan: SamplePlan):
    """Return ``plan.n`` tuples (u, v, xi, eta, lam) whose three evaluation
    points (u,xi,eta), (u+v,xi,lam), (v,eta,lam) are pole-free."""
    return [tuple(row) for S, _ in _triples(fam, plan) for row in S]


def draw_points(fam, plan: SamplePlan):
    """Return ``plan.n`` pole-free single points (u, xi, eta)."""
    return [tuple(row) for S, _ in _points(fam, plan) for row in S]


def _regroup(chunks, size):
    """The weight arrays of a ``_draw`` stream in groups of ``size`` rows
    (the last group may be shorter)."""
    parts, have = [], 0
    for _, ws in chunks:
        parts.append(ws)
        have += len(ws[0])
        while have >= size:
            full = [np.concatenate(c) for c in zip(*parts)]
            yield tuple(c[:size] for c in full)
            parts, have = [tuple(c[size:] for c in full)], have - size
    if have:
        yield tuple(np.concatenate(c) for c in zip(*parts))


def residual_sweep(fam, plan: SamplePlan):
    """Yield, for each block of up to ``_BLOCK`` of the ``plan.n`` pole-free
    triples, (U, rel, comp): the (B, 8) weights at (u, xi, eta), the relative
    residuals (B,) and the absolute components (B, 28), each entry bitwise
    equal to the ``ybe_residual`` report of its triple."""
    for U, W, V in _regroup(_triples(fam, plan), _BLOCK):
        norm, comp, scale = ybe_residuals(U, W, V)
        yield U, norm / scale, comp

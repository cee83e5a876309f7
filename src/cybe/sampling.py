"""Deterministic pole-free sampling of evaluation points.

Candidate points are drawn from a seeded generator and rejected when the
family raises near a pole or produces weights above ``max_weight`` (which
would amplify roundoff in the cubic residuals).  Rejection keeps sampling
reproducible: the accepted sequence is a pure function of the seed.

Each point is evaluated once: the rejection loop hands on the weights it
computed to accept a sample, so ``residual_sweep`` and ``point_weights``
consumers never evaluate the family again.  ``residual_sweep`` streams the
accepted triples in blocks of ``_BLOCK`` and computes their residuals with
one batched ``ybe_residuals`` call per block, which bounds memory for
large sample counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import CybeError, SamplingExhausted
from .weights import ybe_residuals

_MAX_ATTEMPT_FACTOR = 200

#: triples per batched residual call of residual_sweep
_BLOCK = 128


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


def _draw(fam, plan: SamplePlan, candidate):
    """The rejection loop: ``candidate(rng)`` returns (sample, points); yield
    (sample, weights at the points) for each of ``plan.n`` samples whose
    points are all accepted."""
    rng = np.random.default_rng(plan.seed)
    kept = attempts = 0
    while kept < plan.n:
        attempts += 1
        if attempts > _MAX_ATTEMPT_FACTOR * plan.n:
            raise SamplingExhausted("sample rejection rate too high; widen "
                                    "the spans or relax max_weight")
        sample, pts = candidate(rng)
        weights = _accept(fam, pts, plan.max_weight)
        if weights is not None:
            kept += 1
            yield sample, weights


def _triples(fam, plan: SamplePlan):
    def candidate(rng):
        u, v = rng.uniform(*plan.u_span, 2)
        xi, eta, lam = rng.uniform(*plan.color_span, 3)
        return (u, v, xi, eta, lam), _triple_points(u, v, xi, eta, lam)
    return _draw(fam, plan, candidate)


def point_weights(fam, plan: SamplePlan):
    """Yield ((u, xi, eta), (w, wr)) for ``plan.n`` points whose weights w
    at (u, xi, eta) and wr at (-u, eta, xi) are pole-free."""
    def candidate(rng):
        u = rng.uniform(*plan.u_span)
        xi, eta = rng.uniform(*plan.color_span, 2)
        return (u, xi, eta), ((u, xi, eta), (-u, eta, xi))
    return _draw(fam, plan, candidate)


def draw_triples(fam, plan: SamplePlan):
    """Return ``plan.n`` tuples (u, v, xi, eta, lam) whose three evaluation
    points (u,xi,eta), (u+v,xi,lam), (v,eta,lam) are pole-free."""
    return [t for t, _ in _triples(fam, plan)]


def draw_points(fam, plan: SamplePlan):
    """Return ``plan.n`` pole-free single points (u, xi, eta)."""
    return [p for p, _ in point_weights(fam, plan)]


def _triple_points(u, v, xi, eta, lam):
    """The argument pattern of the matrix identity."""
    return (u, xi, eta), (u + v, xi, lam), (v, eta, lam)


def residual_sweep(fam, plan: SamplePlan):
    """Yield, for each block of up to ``_BLOCK`` of the ``plan.n`` pole-free
    triples, (U, rel, comp): the (B, 8) weights at (u, xi, eta), the relative
    residuals (B,) and the absolute components (B, 28), each entry bitwise
    equal to the ``ybe_residual`` report of its triple."""
    draws = _triples(fam, plan)
    while block := [ws for _, ws in islice(draws, _BLOCK)]:
        U, W, V = (np.array([ws[k].a for ws in block]) for k in range(3))
        norm, comp, scale = ybe_residuals(U, W, V)
        yield U, norm / scale, comp

"""Deterministic pole-free sampling of evaluation points.

Candidate points are drawn from a seeded generator and rejected when the
family raises near a pole or produces weights above ``max_weight`` (which
would amplify roundoff in the cubic residuals).  Rejection keeps sampling
reproducible: the accepted sequence is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CybeError, SamplingExhausted
from .weights import ybe_residual

_MAX_ATTEMPT_FACTOR = 200


@dataclass(frozen=True)
class SamplePlan:
    n: int = 100
    seed: int = 0
    u_span: tuple[float, float] = (-0.35, 0.35)
    color_span: tuple[float, float] = (-0.5, 0.5)
    max_weight: float = 15.0


def _accept(fam, pts, max_weight) -> bool:
    try:
        return all(fam.eval(*p).scale() <= max_weight for p in pts)
    except CybeError:
        return False


def _draw(fam, plan: SamplePlan, candidate) -> list:
    """The rejection loop: ``candidate(rng)`` returns (sample, points) and
    the sample is kept when every one of its points is accepted."""
    rng = np.random.default_rng(plan.seed)
    out = []
    attempts = 0
    while len(out) < plan.n:
        attempts += 1
        if attempts > _MAX_ATTEMPT_FACTOR * plan.n:
            raise SamplingExhausted("sample rejection rate too high; widen "
                                    "the spans or relax max_weight")
        sample, pts = candidate(rng)
        if _accept(fam, pts, plan.max_weight):
            out.append(sample)
    return out


def draw_triples(fam, plan: SamplePlan):
    """Return ``plan.n`` tuples (u, v, xi, eta, lam) whose three evaluation
    points (u,xi,eta), (u+v,xi,lam), (v,eta,lam) are pole-free."""
    def candidate(rng):
        u, v = rng.uniform(*plan.u_span, 2)
        xi, eta, lam = rng.uniform(*plan.color_span, 3)
        return (u, v, xi, eta, lam), _triple_points(u, v, xi, eta, lam)
    return _draw(fam, plan, candidate)


def draw_points(fam, plan: SamplePlan):
    """Return ``plan.n`` pole-free single points (u, xi, eta)."""
    def candidate(rng):
        u = rng.uniform(*plan.u_span)
        xi, eta = rng.uniform(*plan.color_span, 2)
        return (u, xi, eta), ((u, xi, eta), (-u, eta, xi))
    return _draw(fam, plan, candidate)


def _triple_points(u, v, xi, eta, lam):
    """The argument pattern of the matrix identity."""
    return (u, xi, eta), (u + v, xi, lam), (v, eta, lam)


def residual_sweep(fam, plan: SamplePlan):
    """Yield, for each of ``plan.n`` pole-free triples, the weights at
    (u, xi, eta) and the ``ybe_residual`` report of the triple."""
    for t in draw_triples(fam, plan):
        wu, ww, wv = (fam.eval(*p) for p in _triple_points(*t))
        yield wu, ybe_residual(wu, ww, wv)

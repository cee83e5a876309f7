"""Shared builders: canonical specs and random valid parameterizations."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cybe import (ColorProfile, FamilyId, FamilySpec, SpectralProfile,
                  WeightFamily)


def baxter_elliptic_spec(k=0.4, lam=1.0, mu=0.7, slope=0.3, s5=1, s7=1):
    return FamilySpec(family=FamilyId.BAXTER_ELLIPTIC, k=k, lam=lam, mu=mu,
                      s5=s5, s7=s7, F=ColorProfile("linear", (slope,)))


def baxter_trig_spec(lam=1.0, mu=np.pi / 4, slope=0.0, s5=1, s7=1):
    return FamilySpec(family=FamilyId.BAXTER_TRIG, lam=lam, mu=mu,
                      s5=s5, s7=s7, F=ColorProfile("linear", (slope,)))


def ff_elliptic_spec(k=0.6, lam=1.3, a=2.0, b=0.0, slope=0.3, delta=1, s7=1):
    return FamilySpec(family=FamilyId.FF_ELLIPTIC, k=k, lam=lam,
                      delta=delta, s7=s7,
                      F=ColorProfile("linear", (slope,)),
                      G=ColorProfile("cosh", (a, b)),
                      H=ColorProfile("sinh", (a, b)))


def ff_tanh_spec(lam=1.1, a=2.0, b=0.0, slope=0.3, delta=1, s7=1):
    return FamilySpec(family=FamilyId.FF_TANH, lam=lam, delta=delta, s7=s7,
                      F=ColorProfile("linear", (slope,)),
                      G=ColorProfile("cosh", (a, b)),
                      H=ColorProfile("sinh", (a, b)))


def ff_trig_spec(lam=0.9, a=0.8, b=0.4, slope=0.2, s5=1, s7=1):
    return FamilySpec(family=FamilyId.FF_TRIG, lam=lam, s5=s5, s7=s7,
                      F=ColorProfile("linear", (slope,)),
                      G=ColorProfile("cosh", (a, b)))


def ff_hyperbolic_spec(lam=0.8, mu=0.5, fslope=0.3, gslope=0.2, s5=1, s7=1):
    return FamilySpec(family=FamilyId.FF_HYPERBOLIC, lam=lam, mu=mu,
                      s5=s5, s7=s7,
                      F=ColorProfile("linear", (fslope,)),
                      G=ColorProfile("linear", (gslope,)))


def trivial_a_spec(a=1.0, b=1.0):
    return FamilySpec(family=FamilyId.TRIVIAL_A,
                      spectral=SpectralProfile("sin_bilinear", (a, b)))


def trivial_b_spec(a=0.4, b=0.5):
    return FamilySpec(family=FamilyId.TRIVIAL_B,
                      F=ColorProfile("exp", (a, b)))


def quarter_period_prime(k: float) -> float:
    """K'(k) = pi / (2 agm(1, k)) for 0 < k < 1: sn has a pole at i K'."""
    a, b = 1.0, k
    for _ in range(8):   # the AGM converges quadratically
        a, b = (a + b) / 2, math.sqrt(a * b)
    return math.pi / (2 * a)


CANONICAL_SPECS = {
    FamilyId.BAXTER_ELLIPTIC: baxter_elliptic_spec,
    FamilyId.BAXTER_TRIG: baxter_trig_spec,
    FamilyId.FF_ELLIPTIC: ff_elliptic_spec,
    FamilyId.FF_TANH: ff_tanh_spec,
    FamilyId.FF_TRIG: ff_trig_spec,
    FamilyId.FF_HYPERBOLIC: ff_hyperbolic_spec,
    FamilyId.TRIVIAL_A: trivial_a_spec,
    FamilyId.TRIVIAL_B: trivial_b_spec,
}


def random_spec(family: FamilyId, rng: np.random.Generator) -> FamilySpec:
    """One random valid parameterization of the given family."""
    sign = lambda: int(rng.choice([-1, 1]))
    if family is FamilyId.BAXTER_ELLIPTIC:
        return baxter_elliptic_spec(
            k=rng.uniform(0.15, 0.85), lam=rng.uniform(0.5, 1.3) * sign(),
            mu=rng.uniform(0.4, 0.9), slope=rng.uniform(-0.4, 0.4),
            s5=sign(), s7=sign())
    if family is FamilyId.BAXTER_TRIG:
        return baxter_trig_spec(
            lam=rng.uniform(0.4, 1.0), mu=rng.uniform(0.35, 1.0),
            slope=rng.uniform(-0.3, 0.3), s5=sign(), s7=sign())
    if family is FamilyId.FF_ELLIPTIC:
        return ff_elliptic_spec(
            k=rng.uniform(0.2, 0.85), lam=rng.uniform(0.5, 1.5),
            a=rng.uniform(0.6, 2.0), b=rng.uniform(-0.3, 0.3),
            slope=rng.uniform(-0.35, 0.35), delta=sign(), s7=sign())
    if family is FamilyId.FF_TANH:
        return ff_tanh_spec(
            lam=rng.uniform(0.5, 1.4), a=rng.uniform(0.6, 2.0),
            b=rng.uniform(-0.3, 0.3), slope=rng.uniform(-0.35, 0.35),
            delta=sign(), s7=sign())
    if family is FamilyId.FF_TRIG:
        return ff_trig_spec(
            lam=rng.uniform(0.4, 1.1), a=rng.uniform(0.4, 1.2),
            b=rng.uniform(-0.3, 0.5), slope=rng.uniform(-0.3, 0.3),
            s5=sign(), s7=sign())
    if family is FamilyId.FF_HYPERBOLIC:
        return ff_hyperbolic_spec(
            lam=rng.uniform(-1.0, 1.0), mu=rng.uniform(0.25, 0.8) * sign(),
            fslope=rng.uniform(-0.4, 0.4), gslope=rng.uniform(-0.3, 0.3),
            s5=sign(), s7=sign())
    if family is FamilyId.TRIVIAL_A:
        return trivial_a_spec(a=rng.uniform(0.5, 1.5), b=rng.uniform(0.3, 1.2))
    return trivial_b_spec(a=rng.uniform(-0.6, 0.6), b=rng.uniform(0.2, 0.8))


def outermost_calls(monkeypatch):
    """Counts of the outermost ``eval_array`` and ``eval`` calls on any
    family from now on: a call made inside another is not counted."""
    counts = {"eval_array": 0, "eval": 0}
    depth = [0]
    for name in counts:
        method = getattr(WeightFamily, name)

        def counted(self, *args, _method=method, _name=name):
            counts[_name] += depth[0] == 0
            depth[0] += 1
            try:
                return _method(self, *args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(WeightFamily, name, counted)
    return counts


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)

"""Semantic exception hierarchy. Public functions never raise bare ValueError,
except the ``WeightVector`` constructor (its docstring says why)."""

from __future__ import annotations


class CybeError(Exception):
    """Base error for this package."""


class PoleProximity(CybeError):
    """Evaluation point is within tolerance of a pole of the parameterization."""


class ModulusOutOfRange(CybeError):
    """Elliptic modulus outside the supported domain."""


class InvalidSpec(CybeError, ValueError):
    """Family or transform specification violates its constraints."""


class NotGauge(CybeError):
    """Operation requires a gauge-normalized weight family (a2=a3=1, a7=a8)."""


class NotEightVertex(CybeError):
    """Some weight function is identically zero on the sampled domain."""


class MultiplicativityViolation(CybeError):
    """The a3/a2 ratio fails its cocycle relation; input is not a solution."""


class ZeroDivisor(CybeError):
    """A scaling or regauging profile vanishes at a requested point."""


class SizeLimit(CybeError):
    """Requested operator size exceeds the supported dense-matrix cap."""


class SamplingExhausted(CybeError):
    """Pole-free sampling hit its attempt cap before drawing enough points."""


class NonFiniteOutput(CybeError):
    """A result holds a NaN or an infinity, which JSON output cannot carry."""


class StepUnstable(CybeError):
    """Finite-difference step produced inconsistent derivative estimates."""


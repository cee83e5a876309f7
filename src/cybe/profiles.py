"""Preset algebra for the free functions entering families and transforms.

Two shapes are needed: color profiles f(xi) (the arbitrary one-variable
functions of the closed forms and of the regauge/recolor transforms) and
spectral profiles g(u, xi, eta) (the arbitrary scaling functions and the
free weight of the first trivial solution).  Only a closed preset algebra
is supported; arbitrary user scripting is out of scope.

Each preset is written once over an operation table ``o`` (see
``numkernel``): a profile called with its arguments alone evaluates on
Python complex numbers, and called with a ``numkernel.Batch`` as the last
argument it evaluates whole ``Split`` columns with the same roundings.
"""

from __future__ import annotations

import cmath
import contextlib
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import InvalidSpec
from .numkernel import SCALAR


def _cn_over_sn(o, p, x):
    sn, cn, _ = o.sncndn(x, p[0])
    return cn / sn


#: preset -> (parameter count, function of (ops, params, x))
_COLOR_PRESETS = {
    "constant": (1, lambda o, p, x: p[0]),
    "linear": (1, lambda o, p, x: p[0] * x),
    "affine": (2, lambda o, p, x: p[0] * x + p[1]),
    "cosh": (2, lambda o, p, x: o.cosh(p[0] * x + p[1])),
    "sinh": (2, lambda o, p, x: o.sinh(p[0] * x + p[1])),
    "exp": (2, lambda o, p, x: o.exp(p[0] * x + p[1])),
    "recip_sn": (1, lambda o, p, x: 1.0 / o.sncndn(x, p[0])[0]),
    "cn_over_sn": (1, _cn_over_sn),
}

#: preset -> (parameter count, function of (ops, params, u, xi, eta))
_SPECTRAL_PRESETS = {
    "const": (1, lambda o, p, u, xi, eta: p[0]),
    "exp_affine": (3, lambda o, p, u, xi, eta:
                   o.exp(p[0] * u + p[1] * xi + p[2] * eta)),
    "one_plus_bilinear": (1, lambda o, p, u, xi, eta: 1.0 + p[0] * xi * eta),
    "sin_bilinear": (2, lambda o, p, u, xi, eta: o.sin(p[0] * u
                                                       + p[1] * xi * eta)),
}


def _product(o, factors, *args):
    out = 1.0 + 0j
    for f in factors:
        out *= f(*args, o)
    return out


@dataclass(frozen=True)
class _Profile:
    """A profile from one preset table.

    ``factors`` turns the profile into a pointwise product of its factors;
    in that case ``preset`` must be "product" and ``params`` empty.
    """

    _KIND: ClassVar[str]
    _PRESETS: ClassVar[dict]

    preset: str
    params: tuple[complex, ...] = ()
    factors: tuple["_Profile", ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "params",
                           tuple(complex(p) for p in self.params))
        if self.preset == "product":
            if not self.factors:
                raise InvalidSpec("product profile needs at least one factor")
            count, fn = 0, _product
        elif (not isinstance(self.preset, str)
              or self.preset not in self._PRESETS):
            raise InvalidSpec(
                f"unknown {self._KIND} profile preset {self.preset!r}")
        elif self.factors:
            raise InvalidSpec(f"preset {self.preset!r} takes no factors")
        else:
            count, fn = self._PRESETS[self.preset]
        if len(self.params) != count:
            raise InvalidSpec(
                f"preset {self.preset!r} takes {count} "
                f"parameter(s), got {len(self.params)}")
        object.__setattr__(self, "_fn", fn)
        # what the function takes after the operations: params or factors
        object.__setattr__(self, "_args",
                           self.factors if fn is _product else self.params)

    def __reduce__(self):
        return type(self), (self.preset, self.params, self.factors)

    def to_json(self) -> dict:
        doc = {"preset": self.preset, "params": [_cjson(p) for p in self.params]}
        if self.factors:
            doc["factors"] = [f.to_json() for f in self.factors]
        return doc

    @classmethod
    def from_json(cls, doc: dict):
        what = f"{cls._KIND} profile"
        _check_keys(doc, {"preset", "params", "factors"}, what)
        factors, params = doc.get("factors", []), doc.get("params", [])
        if not (isinstance(factors, list) and isinstance(params, list)):
            raise InvalidSpec(f"{what} params and factors must be JSON arrays")
        factors = tuple(cls.from_json(f) for f in factors)
        if "preset" not in doc:
            raise InvalidSpec(f"{what} needs a 'preset' field")
        return cls(doc["preset"], tuple(_cval(p) for p in params), factors)


class ColorProfile(_Profile):
    """A one-variable profile f(xi) from the preset algebra."""

    _KIND = "color"
    _PRESETS = _COLOR_PRESETS

    def __call__(self, x: complex, o=SCALAR) -> complex:
        return self._fn(o, self._args, o.lift(x))


class SpectralProfile(_Profile):
    """A profile g(u, xi, eta) from the preset algebra."""

    _KIND = "spectral"
    _PRESETS = _SPECTRAL_PRESETS

    def __call__(self, u: complex, xi: complex, eta: complex,
                 o=SCALAR) -> complex:
        return self._fn(o, self._args, o.lift(u), o.lift(xi), o.lift(eta))


def _cjson(z: complex) -> list[float]:
    return [z.real, z.imag]


def _cval(v) -> complex:
    """A finite number, or a [re, im] pair of them; JSON booleans are not."""
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else [v]
    if all(isinstance(p, (int, float)) and not isinstance(p, bool)
           for p in parts):
        with contextlib.suppress(OverflowError):   # an int beyond float
            z = complex(*parts)
            if not cmath.isfinite(z):   # json reads NaN and Infinity
                raise InvalidSpec(f"numbers must be finite, got {v!r}")
            return z
    raise InvalidSpec(f"cannot parse complex value from {v!r}")


def _check_keys(doc: dict, allowed: set, what: str) -> None:
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{what} must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise InvalidSpec(f"unknown fields in {what}: {sorted(unknown)}")

"""Property tests: family specs, profiles and transform pipelines survive a
JSON round trip unchanged, and malformed profiles fail with InvalidSpec
messages naming the problem."""

import json
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cybe import (ColorProfile, FamilyId, FamilySpec, InvalidSpec, Pipeline,
                  SpectralProfile, TransformSpec, spec_from_json,
                  spec_to_json)

#: documented preset arities, kept here as an independent reference
COLOR_ARITY = {"constant": 1, "linear": 1, "affine": 2, "cosh": 2, "sinh": 2,
               "exp": 2, "recip_sn": 1, "cn_over_sn": 1}
SPECTRAL_ARITY = {"const": 1, "exp_affine": 3, "one_plus_bilinear": 1,
                  "sin_bilinear": 2}
KINDS = {"color": (ColorProfile, COLOR_ARITY),
         "spectral": (SpectralProfile, SPECTRAL_ARITY)}

scalars = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                             allow_infinity=False)


def profiles(cls, arity):
    leaves = st.sampled_from(sorted(arity)).flatmap(
        lambda name: st.lists(scalars, min_size=arity[name],
                              max_size=arity[name]).map(
            lambda ps: cls(name, tuple(ps))))
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, min_size=1, max_size=3).map(
            lambda fs: cls("product", (), tuple(fs))),
        max_leaves=6)


color = profiles(ColorProfile, COLOR_ARITY)
spectral = profiles(SpectralProfile, SPECTRAL_ARITY)
signs = st.sampled_from([1, -1])

specs = st.builds(
    FamilySpec, family=st.sampled_from(list(FamilyId)), k=scalars,
    lam=scalars, mu=scalars, s5=signs, s7=signs, delta=signs, F=color,
    G=st.none() | color, H=st.none() | color, spectral=st.none() | spectral)

nonzero = scalars.filter(lambda z: z != 0)
transforms = st.one_of(
    st.sampled_from(["swap_23_78", "swap_14_56", "negate_56"]).map(
        lambda kind: TransformSpec(kind=kind)),
    st.builds(TransformSpec, kind=st.just("scale"), g=spectral),
    st.builds(TransformSpec, kind=st.just("regauge"), N=color, s=nonzero),
    st.builds(TransformSpec, kind=st.just("rescale_spectral"), mu=nonzero),
    st.builds(TransformSpec, kind=st.just("recolor"), f=color),
)


def through_json(doc):
    return json.loads(json.dumps(doc))


@settings(max_examples=80, deadline=None)
@given(specs)
def test_family_spec_round_trip(spec):
    doc = spec_to_json(spec)
    back = spec_from_json(through_json(doc))
    assert back == spec
    assert spec_to_json(back) == doc
    assert pickle.loads(pickle.dumps(spec)) == spec


@settings(max_examples=60, deadline=None)
@given(st.lists(transforms, max_size=4))
def test_pipeline_round_trip(steps):
    pipe = Pipeline(tuple(steps))
    assert Pipeline.from_json(through_json(pipe.to_json())) == pipe
    for t in steps:
        assert TransformSpec.from_json(through_json(t.to_json())) == t


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)),
       name=st.text(min_size=1, max_size=12))
def test_unknown_preset_message(kind, name):
    cls, arity = KINDS[kind]
    assume(name not in arity and name != "product")
    with pytest.raises(InvalidSpec) as info:
        cls.from_json({"preset": name, "params": [1.0]})
    assert str(info.value) == f"unknown {kind} profile preset {name!r}"


@settings(max_examples=40, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(KINDS)))
def test_wrong_parameter_count_message(data, kind):
    cls, arity = KINDS[kind]
    name = data.draw(st.sampled_from(sorted(arity)))
    count = data.draw(st.integers(0, 5).filter(lambda n: n != arity[name]))
    with pytest.raises(InvalidSpec) as info:
        cls.from_json({"preset": name, "params": [0.5] * count})
    assert str(info.value) == (f"preset {name!r} takes {arity[name]} "
                               f"parameter(s), got {count}")

"""Property tests: family specs, profiles and transform pipelines survive a
JSON round trip unchanged, malformed profiles fail with InvalidSpec
messages naming the problem, and any malformed spec or pipeline JSON makes
the CLI exit 2 with one error line."""

import contextlib
import io
import json
import math
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cybe import (ColorProfile, FamilyId, FamilySpec, InvalidSpec, Pipeline,
                  SpectralProfile, TransformSpec, spec_from_json,
                  spec_to_json)
from cybe.cli import main

from conftest import CANONICAL_SPECS, ff_trig_spec

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


# ---- malformed documents ----

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=2),
    max_leaves=4)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: numbers Python's json reads (NaN, Infinity) that no spec field accepts
nonfinite = st.sampled_from([math.nan, math.inf, -math.inf])


NAMES = ({f.value for f in FamilyId} | set(COLOR_ARITY) | set(SPECTRAL_ARITY)
         | {"product", "swap_23_78", "swap_14_56", "scale", "regauge",
            "negate_56", "rescale_spectral", "recolor"})

#: slot kind -> JSON values that are not valid there
BAD = {
    "complex": json_values.filter(lambda v: not (
        is_number(v) or isinstance(v, list) and len(v) == 2
        and all(map(is_number, v)))) | nonfinite
    | st.lists(nonfinite | st.just(0.5), min_size=2, max_size=2).filter(
        lambda p: p != [0.5, 0.5]),
    "sign": json_values.filter(
        lambda v: not (is_number(v) and v in (1, -1))),
    "name": json_values.filter(
        lambda v: not (isinstance(v, str) and v in NAMES)),
    "params": json_values.filter(lambda v: not isinstance(v, list)),
    "object": json_values.filter(lambda v: not isinstance(v, dict)),
}
BAD["factors"] = BAD["params"]

#: object kind -> (allowed keys, required key, key -> slot kind of its value)
OBJECTS = {
    "spec": ({"family", "k", "lambda", "mu", "signs", "profiles"}, "family",
             {"family": "name", "signs": "signs", "profiles": "profiles"}),
    "signs": ({"s5", "s7", "delta"}, None, {}),
    "profiles": ({"F", "G", "H", "spectral"}, None, {}),
    "profile": ({"preset", "params", "factors"}, "preset",
                {"preset": "name", "params": "params", "factors": "factors"}),
    "transform": ({"kind", "g", "N", "s", "mu", "f"}, "kind",
                  {"kind": "name", "s": "complex", "mu": "complex"}),
}
DEFAULT_SLOT = {"spec": "complex", "signs": "sign", "profiles": "profile",
                "transform": "profile"}


def places(node, kind):
    """(container, key, slot kind) of every value below a document node,
    and (node, None, kind) for every object node."""
    if kind in OBJECTS:
        yield node, None, kind
        for key, value in node.items():
            sub = OBJECTS[kind][2].get(key, DEFAULT_SLOT.get(kind))
            yield node, key, sub
            yield from places(value, sub)
    elif kind in ("params", "factors", "pipeline"):
        sub = {"params": "complex", "factors": "profile",
               "pipeline": "transform"}[kind]
        for i, value in enumerate(node):
            yield node, i, sub
            yield from places(value, sub)


#: transform kind -> the payload fields it takes
TRANSFORM_FIELDS = {"swap_23_78": set(), "swap_14_56": set(),
                    "negate_56": set(), "scale": {"g"}, "regauge": {"N", "s"},
                    "rescale_spectral": {"mu"}, "recolor": {"f"}}

#: a valid value of each transform payload field
PAYLOAD = {"g": {"preset": "const", "params": [2.0]},
           "N": {"preset": "constant", "params": [1.0]},
           "f": {"preset": "linear", "params": [1.0]}, "s": 1.0, "mu": 2.0}


def malform(data, doc, kind):
    """One structural fault drawn into a copy of a valid document: a value
    of the wrong type or range, an unknown key, a missing required key, or
    a field its object does not use (params of a product, factors of any
    other preset, a valid payload field the transform kind does not take)."""
    doc = json.loads(json.dumps(doc))
    node, key, slot = data.draw(st.sampled_from(list(places(doc, kind))))
    if key is not None:
        node[key] = data.draw(BAD.get(slot, BAD["object"]))
        return doc
    allowed, required, _ = OBJECTS[slot]
    faults = ["unknown"] + (["missing"] if required else []) + {
        "profile": ["factors", "unused"], "transform": ["unused"]}.get(slot, [])
    fault = data.draw(st.sampled_from(faults))
    if fault == "missing":
        del node[required]
    elif fault == "factors":
        node["factors"] = data.draw(BAD["params"])
    elif fault == "unused" and slot == "transform":
        name = data.draw(st.sampled_from(
            sorted(set(PAYLOAD) - TRANSFORM_FIELDS[node["kind"]])))
        node[name] = PAYLOAD[name]
    elif fault == "unused" and node["preset"] == "product":
        node["params"] = [1.0]
    elif fault == "unused":
        node["factors"] = [json.loads(json.dumps(node))]
    else:
        name = data.draw(st.text(max_size=6).filter(lambda k: k not in allowed))
        node[name] = data.draw(json_values)
    return doc


def cli_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


VALID_SPEC = json.dumps(spec_to_json(ff_trig_spec()))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), family=st.sampled_from(list(FamilyId)))
def test_malformed_spec_exits_2(data, family):
    doc = malform(data, spec_to_json(CANONICAL_SPECS[family]()), "spec")
    with pytest.raises(InvalidSpec):
        spec_from_json(doc)
    code, out, err = cli_error(["verify", "--spec", json.dumps(doc),
                                "--samples", "2"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), steps=st.lists(transforms, min_size=1, max_size=3))
def test_malformed_pipeline_exits_2(data, steps):
    doc = malform(data, Pipeline(tuple(steps)).to_json(), "pipeline")
    with pytest.raises(InvalidSpec):
        Pipeline.from_json(doc)
    code, out, err = cli_error(["verify", "--spec", VALID_SPEC, "--transform",
                                json.dumps(doc), "--samples", "2"])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("profile, message", [
    ({"preset": ["linear"], "params": [1]},
     "unknown color profile preset ['linear']"),
    ({"params": [1]}, "color profile needs a 'preset' field"),
    ({"preset": "linear", "params": 5},
     "color profile params and factors must be JSON arrays"),
    ({"preset": "linear", "params": [True]},
     "cannot parse complex value from True"),
    ({"preset": "cosh", "params": [0.8, math.nan]},
     "numbers must be finite, got nan"),
    ({"preset": "linear", "params": [[1.0, -math.inf]]},
     "numbers must be finite, got [1.0, -inf]"),
    ({"preset": "cosh", "params": [0.8, 0.4],
      "factors": [{"preset": "constant", "params": [5]}]},
     "preset 'cosh' takes no factors"),
    ({"preset": "product", "params": [2],
      "factors": [{"preset": "cosh", "params": [0.8, 0.4]}]},
     "preset 'product' takes 0 parameter(s), got 1"),
])
def test_malformed_profile_message(profile, message):
    with pytest.raises(InvalidSpec) as info:
        ColorProfile.from_json(profile)
    assert str(info.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: TransformSpec.from_json({}), "transform needs a 'kind' field"),
    (lambda: Pipeline.from_json({}),
     "a transform pipeline must be a JSON array"),
    (lambda: ColorProfile("product"),
     "product profile needs at least one factor"),
], ids=["transform_without_kind", "pipeline_object", "empty_product"])
def test_incomplete_document_message(build, message):
    with pytest.raises(InvalidSpec) as info:
        build()
    assert str(info.value) == message


def test_booleans_are_not_numbers():
    doc = spec_to_json(ff_trig_spec())
    with pytest.raises(InvalidSpec, match="cannot parse complex value"):
        spec_from_json({**doc, "k": True})
    with pytest.raises(InvalidSpec, match="s5 must be"):
        spec_from_json({**doc, "signs": {"s5": True}})


@pytest.mark.parametrize("field, doc", [
    ("spec", {**json.loads(VALID_SPEC), "lambda": math.nan}),
    ("spec", {**json.loads(VALID_SPEC), "k": math.inf}),
    ("transform", [{"kind": "rescale_spectral", "mu": [1.0, math.nan]}]),
    ("transform", [{"kind": "regauge", "s": -math.inf,
                    "N": {"preset": "exp", "params": [1, 0]}}]),
])
def test_nonfinite_numbers_exit_2(field, doc):
    """Python's json reads NaN and Infinity; no spec number may be one."""
    argv = (["verify", "--spec", json.dumps(doc)] if field == "spec" else
            ["verify", "--spec", VALID_SPEC, "--transform", json.dumps(doc)])
    code, out, err = cli_error(argv + ["--samples", "20"])
    assert (code, out) == (2, "")
    assert err.startswith("error: numbers must be finite") and \
        len(err.splitlines()) == 1


def nested(depth: int) -> list:
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("value", [
    nested(990), "x" * 10_000,
    {str(i): [i] * 50 for i in range(50)}, 12345678901234567890 ** 5,
], ids=["deep", "long_string", "wide_object", "long_number"])
def test_an_unknown_family_is_named_in_one_short_line(value):
    """The message shows a repr of the value cut to a fixed length, not the
    whole document (a 990-deep array once gave a 6 kB line)."""
    with pytest.raises(InvalidSpec) as exc:
        spec_from_json({"family": value})
    message = str(exc.value)
    assert message.startswith("unknown family ") and "\n" not in message
    assert len(message) <= len("unknown family ") + 60


@pytest.mark.parametrize("name", ["nope", "eight_vertex_" * 3 + "x",
                                  "n" * 58])
def test_an_unknown_family_name_is_quoted_whole(name):
    """A name whose repr fits in the 60 characters is not cut."""
    with pytest.raises(InvalidSpec) as exc:
        spec_from_json({"family": name})
    assert str(exc.value) == f"unknown family {name!r}"

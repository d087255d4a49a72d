"""The compiled manifest check against jsonschema, its test-time oracle.

The check compiled from the packaged schema is the CLI's only validator:
it accepts a manifest or refuses it with a message and path, and the
runtime never imports jsonschema.  These tests hold it to jsonschema's
draft-7 verdict on valid manifests of all five modes and on single
mutations of them, and to jsonschema.validate's wording on every
refusal, through a oneOf too: there it reports the failure of least
rank among all its branches' failures, as best_match descends, or no
branch passing when two share that rank.  Tables fix the wording of
refusals that fail in several places and of each oneOf of the schema.
"""

import copy
import json
import math
import os
import tempfile

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Runner
from equidist import _draft7, cli

SCHEMA = _draft7.packaged_schema()
CHECK = _draft7.packaged_check()
REFERENCE = jsonschema.Draft7Validator(SCHEMA)

POWER_LAW = {"d_o": 1, "D_o": 1.0, "delta_o": 1.0, "C": 1.0, "c": 0.4,
             "A": 1.0, "a": 1.0,
             "growth": {"kind": "power-law", "L1": 1.0, "ell": 1.0,
                        "L2": 1.0}}

# valid manifests reaching every branch of the schema: each growth kind,
# both action forms, a numeric and an "auto" theta, times and a family,
# each profile kind, the bound block, fit columns and verify trials
VALID = [
    {"mode": "ledger", "seed": 7,
     "ledger": {"params": POWER_LAW, "theorem": "A", "r_max": 4,
                "evaluate": [{"r": 1, "Delta": 22026.47,
                              "wiener_norm": 1.0, "s_norms": [1.0]}]}},
    {"mode": "ledger",
     "ledger": {"params": dict(POWER_LAW, growth={
         "kind": "tabulated", "B": [1.0, 2.0], "b": [0.5, 0.6],
         "M": [1.0, 1.5]}), "theorem": "B", "r_max": 64}},
    {"mode": "ledger",
     "ledger": {"params": dict(POWER_LAW, d_o=2, growth={
         "kind": "constant", "B": 2.0, "b": 0.5, "M": 1.5}), "r_max": 1}},
    {"mode": "schedule", "seed": 3,
     "schedule": {"action": {"builtin": "u_mn", "m": 1, "n": 1},
                  "tuples": [[[2.0, 2.0], [5.0, 5.0]]], "theta": "auto"}},
    {"mode": "schedule",
     "schedule": {"action": {"dim_t": 2, "roots": [[1.0, 1.0], [1.0, -1.0]],
                             "multiplicities": [1, 2], "proper": True,
                             "cone_tag": "cone"},
                  "tuples": [[[1.0, 2.0], [3.0, 1.0], [0.5, 0.5]],
                             [[1.0, 1.0], [2.0, 2.0]]],
                  "theta": 0.25}},
    {"mode": "correlate", "seed": 11,
     "correlate": {"sigma": {"dim": 1, "coeffs": [
         {"chi": [0], "re": 1.0, "im": 0.0}, {"chi": [1], "re": 0.1}]},
         "profiles": [{"kind": "bump", "y_lo": 1.5, "y_hi": 3.0},
                      {"kind": "constant", "value": 2.0}],
         "family": {"t_start": 2.0, "t_stop": 12.0, "t_step": 1.0,
                    "pattern": [1.0, 2.0]},
         "nodes": 16384}},
    {"mode": "correlate",
     "correlate": {"sigma": {"dim": 1, "coeffs": [{"chi": [0]}]},
                   "profiles": [{"kind": "indicator", "y_lo": 1.0,
                                 "y_hi": 2.0}, {"kind": "constant"}],
                   "times": [[2.0, 3.0], [0.0, 30.0]],
                   "bound": {"params": POWER_LAW, "theorem": "B"}}},
    {"mode": "fit", "fit": {"input_csv": "results/correlate.csv",
                            "x_column": "Delta_mult",
                            "y_column": "abs_error"}},
    {"mode": "verify", "seed": 42, "verify": {"trials": 400}},
    {"mode": "verify"},
]

# replacement leaves: every JSON type, bools where numbers are expected,
# integral floats where integers are, and the bounds and extremes of the
# schema's numeric ranges
ODD_VALUES = [
    True, False, None, "", "auto", "u_mn", "A", "B", "ledger", "schedule",
    "power-law", "tabulated", "constant", "bump", "indicator", [], {},
    [1.0], [[1.0]], {"kind": "constant"}, 0, 1, 2, -1, 0.0, 1.0, 2.0, -1.0,
    0.5, 0.4999, 0.9999, 9, 10, 15, 16, 16.0, 30, 30.5, 64, 64.0, 65,
    100000, 100000.0, 100001, 2 ** 70, -2 ** 70, float(2 ** 70), 1.7e308,
    -1.7e308, 5e-324, -5e-324,
]
# the schema's numeric bounds and their float neighbours, put in place of
# a number
BOUNDARY = sorted({v for b in (0, 0.5, 1, 10, 16, 30, 64, 1024, 100000)
                   for v in (b, float(b), math.nextafter(b, -math.inf),
                             math.nextafter(b, math.inf))})


def _paths(obj, path=()):
    """Every path from the root to a value in obj, the root included."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))
    elif isinstance(obj, list):
        for idx, value in enumerate(obj):
            yield from _paths(value, path + (idx,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def mutants(draw):
    """A valid manifest with at most one mutation: a value replaced by an
    odd value or any finite number, a number by its int/float twin or by
    a bound or its neighbour, an int by its bool, a key deleted or added,
    or an item appended."""
    manifest = copy.deepcopy(draw(st.sampled_from(VALID)))
    kind = draw(st.sampled_from(["none", "replace", "number", "retype",
                                 "bound", "delete", "add", "append"]))
    if kind == "none":
        return manifest
    paths = list(_paths(manifest))
    if kind in ("delete", "add"):
        paths = [p for p in paths if isinstance(_at(manifest, p), dict)]
    elif kind == "append":
        paths = [p for p in paths if isinstance(_at(manifest, p), list)]
    elif kind in ("retype", "bound"):
        paths = [p for p in paths if _is_number(_at(manifest, p))]
    if not paths:
        return manifest
    path = draw(st.sampled_from(paths))
    target = _at(manifest, path)
    if kind == "delete":
        if target:
            del target[draw(st.sampled_from(sorted(target)))]
        return manifest
    if kind == "add":
        names = sorted({p[-1] for p in _paths(manifest)
                        if p and isinstance(p[-1], str)} | {"extra"})
        target[draw(st.sampled_from(names))] = draw(
            st.sampled_from(ODD_VALUES))
        return manifest
    if kind == "append":
        target.append(copy.deepcopy(target[0]) if target and draw(
            st.booleans()) else draw(st.sampled_from(ODD_VALUES)))
        return manifest
    if kind == "replace":
        new = draw(st.sampled_from(ODD_VALUES))
    elif kind == "number":
        new = draw(st.integers() | st.floats(allow_nan=False,
                                             allow_infinity=False))
    elif kind == "bound":
        new = draw(st.sampled_from(BOUNDARY))
    elif isinstance(target, int):
        new = draw(st.sampled_from([float(target), bool(target)]))
    else:
        new = int(target) if target.is_integer() else target
    if not path:
        return new
    _at(manifest, path[:-1])[path[-1]] = new
    return manifest


@pytest.mark.parametrize("manifest", VALID)
def test_valid_manifests_pass(manifest):
    assert REFERENCE.is_valid(manifest)
    assert CHECK(manifest) is None


@settings(max_examples=1500, deadline=None)
@given(mutants())
def test_compiled_check_agrees_with_jsonschema(manifest):
    assert (CHECK(manifest) is None) == REFERENCE.is_valid(manifest)


@pytest.mark.parametrize("schema,instance", [
    ({"type": "number"}, True),
    ({"type": "integer"}, False),
    ({"type": "integer"}, 1.0),
    ({"type": "integer"}, 1.5),
    ({"type": "integer"}, 2 ** 70),
    ({"type": "number", "minimum": 1}, 1),
    ({"type": "number", "exclusiveMinimum": 0}, 5e-324),
    ({"type": "number", "exclusiveMinimum": 0}, 0.0),
    ({"type": "number", "maximum": 1.7e308}, 2 ** 1100),
    ({"const": 1}, True),
    ({"const": 1}, 1.0),
    ({"const": 0}, False),
    ({"const": [1]}, [True]),
    ({"enum": ["A", 1]}, True),
    ({"enum": ["A", 1]}, 1.0),
    ({"const": "1"}, 1),
    ({"const": {"a": 1}}, {"a": 1.0}),
    ({"if": {"const": 1}}, 1),
    ({"if": {"const": 1}, "then": False}, 1),
    ({"if": {"const": 1}, "then": False}, 2),
    ({"required": ["a"]}, []),
    ({"properties": {"a": True}, "additionalProperties": False},
     {"a": 1, "b": 2}),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1),
    ({"not": {"type": "array"}}, {}),
    ({"not": {"type": "array"}}, []),
])
def test_draft7_semantics(schema, instance):
    assert (_draft7.compile_schema(schema, schema)(instance) is None) == \
        jsonschema.Draft7Validator(schema).is_valid(instance)


@pytest.mark.parametrize("schema", [
    {"type": "array", "uniqueItems": True},
    {"properties": {"a": {"pattern": "^x"}}},
    {"definitions": {"x": {"format": "email"}},
     "items": {"$ref": "#/definitions/x"}},
    # forms of known keywords that the manifest schema does not use
    {"additionalProperties": {"type": "string"}},
    {"items": [{"type": "string"}]},
    {"$ref": "other.json#/definitions/x"},
])
def test_unknown_keyword_raises(schema):
    with pytest.raises(ValueError, match="has no compiled check|have no "
                       "compiled check"):
        _draft7.compile_schema(schema, schema)


@settings(max_examples=150, deadline=None)
@given(mutants())
def test_refusal_is_worded_by_jsonschema(manifest):
    # exit 2 with jsonschema.validate's message and path, byte for byte
    try:
        jsonschema.validate(manifest, SCHEMA)
    except jsonschema.ValidationError as exc:
        error = exc
    else:
        return
    with tempfile.TemporaryDirectory() as tmp:
        mpath = os.path.join(tmp, "m.json")
        with open(mpath, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        res = Runner.invoke(cli.main, ["verify", "--manifest", mpath])
    assert res.exit_code == 2
    assert res.stderr == json.dumps(
        {"error": "schema", "message": error.message,
         "path": [str(p) for p in error.absolute_path]},
        sort_keys=True) + "\n"


def _edited(manifest, path, value=None):
    """A copy of manifest with the value at path replaced by value, or
    deleted when value is None."""
    manifest = copy.deepcopy(manifest)
    *head, last = path
    if value is None:
        del _at(manifest, head)[last]
    else:
        _at(manifest, head)[last] = value
    return manifest


LEDGER, SCHEDULE, CORRELATE = VALID[0], VALID[3], VALID[5]
GROWTH = ("ledger", "params", "growth")
EVALUATE = LEDGER["ledger"]["evaluate"]
PROFILE = ("correlate", "profiles", 0)
ACTION = ("schedule", "action")
BLOCK = CORRELATE["correlate"]
BOTH = dict(BLOCK, times=[[2.0, 3.0]])
NEITHER = {k: v for k, v in BLOCK.items() if k != "family"}


def _refused_as(manifest, message, path):
    """Assert that jsonschema.validate and the compiled check both refuse
    manifest with message at path."""
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(manifest, SCHEMA)
    assert (info.value.message, list(info.value.absolute_path)) == (
        message, list(path))
    assert CHECK(manifest) == (message, list(path))


# manifests that fail in several places, refused as jsonschema ranks
# their failures: the shallowest path, then the greatest, then a schema
# whose type the value does not match, then schema order
@pytest.mark.parametrize("manifest,message,path", [
    # a then-clause, which names no type, before the root's extra key
    ({"mode": "ledger", "x": 1}, "'ledger' is a required property", []),
    (_edited(_edited(LEDGER, GROWTH + ("L1",), 0), ("ledger", "r_max"),
             "three"),
     "'three' is not of type 'integer'", ["ledger", "r_max"]),
    (_edited(_edited(LEDGER, ("ledger", "theorem"), "C"),
             ("ledger", "r_max"), "three"),
     "'C' is not one of ['A', 'B']", ["ledger", "theorem"]),
    (_edited(LEDGER, ("ledger", "r_max"), 0.5),
     "0.5 is not of type 'integer'", ["ledger", "r_max"]),
    (_edited(LEDGER, ("ledger", "evaluate"),
             [dict(EVALUATE[0], r=0)] * 2),
     "0 is less than the minimum of 1", ["ledger", "evaluate", 1, "r"]),
    # under a oneOf, branches failing equally deep are ranked on: the
    # bound of the branch whose type the value matches before the const
    # of the other, and the smallest path ('B' before 'M' and 'kind')
    (_edited(SCHEDULE, ("schedule", "theta"), 1.0),
     "1.0 is greater than or equal to the maximum of 1",
     ["schedule", "theta"]),
    (_edited(SCHEDULE, ("schedule", "theta"), 0),
     "0 is less than or equal to the minimum of 0", ["schedule", "theta"]),
    (_edited(VALID[1], GROWTH + ("B",), 2.0),
     "2.0 is not of type 'array'", [*GROWTH, "B"]),
])
def test_refusal_ranks_failures_as_jsonschema(manifest, message, path):
    _refused_as(manifest, message, path)


def _none_of(instance):
    return "%r is not valid under any of the given schemas" % (instance,)


# each oneOf refused for a wrong kind, a field missing under the right
# kind and a wrong type: the failure of least rank among all branches'
# failures words the refusal, and two failures sharing it make it the
# oneOf's own
@pytest.mark.parametrize("manifest,message,path", [
    # 'kind' fails alike in every branch
    (_edited(LEDGER, GROWTH + ("kind",), "power"),
     _none_of({"kind": "power", "L1": 1.0, "ell": 1.0, "L2": 1.0}), GROWTH),
    (_edited(LEDGER, GROWTH + ("L2",)),
     _none_of({"kind": "power-law", "L1": 1.0, "ell": 1.0}), GROWTH),
    (_edited(LEDGER, GROWTH + ("L1",), "one"),
     "'one' is not of type 'number'", GROWTH + ("L1",)),
    (_edited(CORRELATE, PROFILE + ("kind",), "spike"),
     _none_of({"kind": "spike", "y_lo": 1.5, "y_hi": 3.0}), PROFILE),
    # the constant branch's 'kind' is the only failure one level down
    (_edited(CORRELATE, PROFILE + ("y_hi",)),
     "'constant' was expected", PROFILE + ("kind",)),
    (_edited(CORRELATE, PROFILE + ("y_lo",), "low"),
     "'constant' was expected", PROFILE + ("kind",)),
    (_edited(SCHEDULE, ACTION + ("builtin",), "u_nm"),
     "'u_mn' was expected", ACTION + ("builtin",)),
    (_edited(SCHEDULE, ACTION + ("n",)),
     _none_of({"builtin": "u_mn", "m": 1}), ACTION),
    (_edited(SCHEDULE, ACTION + ("m",), "two"),
     "'two' is not of type 'integer'", ACTION + ("m",)),
    (_edited(SCHEDULE, ("schedule", "theta"), "manual"),
     _none_of("manual"), ("schedule", "theta")),
    (_edited(SCHEDULE, ("schedule", "theta"), 1.0),
     "1.0 is greater than or equal to the maximum of 1",
     ("schedule", "theta")),
    (_edited(SCHEDULE, ("schedule", "theta"), True),
     _none_of(True), ("schedule", "theta")),
    (_edited(CORRELATE, ("correlate",), BOTH), _none_of(BOTH),
     ("correlate",)),
    (_edited(CORRELATE, ("correlate",), NEITHER), _none_of(NEITHER),
     ("correlate",)),
    # the oneOf asks only which of the two is present; a wrong type
    # inside the one present is worded by its own keyword
    (_edited(CORRELATE, ("correlate", "family", "t_step"), "one"),
     "'one' is not of type 'number'", ("correlate", "family", "t_step")),
])
def test_one_of_wording(manifest, message, path):
    _refused_as(manifest, message, path)

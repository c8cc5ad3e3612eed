"""cli._json_text against json.dumps(indent=2): the same bytes for every
payload, through both the flat-record template and the general path,
and the same errors for NaN, infinity and values JSON cannot hold."""

import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfil import cli

# strings that would break a writer that edits encoded text
AWKWARD = ['"', "\\", "{", "}", "}, {", '"}, {"', "%s", "%", "\n", "\t\x00\x1f",
           "é", "☃", "\U0001f600", "\ud800", "a,\n  b"]

texts = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=12))
finite_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308,
                     0.1, 2.0 / 3.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
scalars = st.one_of(texts, st.integers(), st.integers(-2**70, 2**70), st.booleans(),
                    st.none(), finite_floats)


def reference(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


@st.composite
def flat_outcome_lists(draw):
    """Lists of flat dicts: usually one key order for all (the template
    path), sometimes a mixed list (the general path)."""
    keys = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({key: scalars for key in keys}),
                         min_size=1, max_size=8))
    if draw(st.booleans()):
        rows = rows + draw(st.lists(st.dictionaries(texts, scalars, max_size=3), max_size=3))
    return rows


@settings(max_examples=150, deadline=None)
@given(flat_outcome_lists())
def test_flat_outcome_lists_match_json_dumps(rows):
    payload = {"manifest": {"command": "verify"}, "total": len(rows), "outcomes": rows}
    assert cli._json_text(payload) == reference(payload)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(texts, st.booleans(), finite_floats), min_size=1, max_size=30))
def test_verify_shaped_outcomes_match_json_dumps(cases):
    outcomes = [{"case_id": c, "passed": ok, "residual": r} for c, ok, r in cases]
    payload = {"suites": {"lemma4": {"total": len(cases), "failed": 0}},
               "outcomes": outcomes}
    assert cli._json_text(payload) == reference(payload)


json_trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.one_of(texts, st.integers(), st.booleans(), st.none(),
                                  finite_floats), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(json_trees)
def test_any_tree_matches_json_dumps(tree):
    assert cli._json_text(tree) == reference(tree)


@pytest.mark.parametrize("payload", [
    {},
    [],
    {"a": [], "b": {}, "c": [{}], "d": [[], {}]},
    [{"a": 1}, {"a": [1, 2]}],             # a nested value leaves the template path
    [{"a": 1, "b": 2}, {"b": 2, "a": 1}],  # so does a second key order
    [{1: "x"}, {True: "y"}],               # keys that compare equal but print apart
    [{"a": np.float64(0.25)}, {"a": np.float64(-0.0)}],
    [{"a": True}, {"a": 1}, {"a": 1.0}],
    [OrderedDict(a=1), OrderedDict(a=2)],
    ({"t": (1, 2)}, [None]),
    {"%(a)s": [{"%d": 1, "%%": 2}, {"%d": 3, "%%": 4}]},
])
def test_edge_payloads_match_json_dumps(payload):
    assert cli._json_text(payload) == reference(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("where", ["template", "general", "key", "top"])
def test_non_finite_floats_raise_value_error(bad, where):
    payload = {
        "template": {"outcomes": [{"residual": 0.5}, {"residual": bad}]},
        "general": {"outcomes": [{"residual": 0.5}, {"other": bad}]},
        "key": {bad: 1},
        "top": bad,
    }[where]
    with pytest.raises(ValueError):
        reference(payload)
    with pytest.raises(ValueError):
        cli._json_text(payload)


@pytest.mark.parametrize("bad", [
    {"x": {1, 2}}, [{"a": np.int64(3)}], [{"a": 1j}], {(1, 2): 3}, [{"a": object()}],
])
def test_values_json_cannot_hold_raise_type_error(bad):
    with pytest.raises(TypeError):
        reference(bad)
    with pytest.raises(TypeError):
        cli._json_text(bad)


def test_emit_writes_nothing_for_a_payload_with_nan(capsys):
    with pytest.raises(ValueError):
        cli._emit({"rho": math.nan})
    assert capsys.readouterr().out == ""

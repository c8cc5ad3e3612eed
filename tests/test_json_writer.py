"""cli._json_text against json.dumps(indent=2): the same bytes when
verify's outcomes are appended through the row template, for any head
and any outcome list, and the same errors for NaN, infinity and values
JSON cannot hold.  Without outcomes, _json_text is json.dumps itself."""

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
           "é", "☃", "\U0001f600", "\ud800", "a,\n  b", "outcomes", "[]\n}"]

texts = st.one_of(st.sampled_from(AWKWARD), st.text(max_size=12))
finite_floats = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.7976931348623157e308,
                     0.1, 2.0 / 3.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
scalars = st.one_of(texts, st.integers(), st.integers(-2**70, 2**70), st.booleans(),
                    st.none(), finite_floats)
head_keys = st.one_of(texts, st.integers(), st.booleans(), st.none(),
                      finite_floats).filter(lambda key: key != "outcomes")


def reference(payload):
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def with_outcomes(head, outcomes):
    """The bytes of head with the outcomes as its last key, both ways."""
    return cli._json_text(head, outcomes), reference({**head, "outcomes": outcomes})


verify_cases = st.lists(st.tuples(texts, st.booleans(), finite_floats), max_size=30)


@settings(max_examples=100, deadline=None)
@given(verify_cases)
def test_verify_shaped_outcomes_match_json_dumps(cases):
    outcomes = [cli._outcome(c, ok, r) for c, ok, r in cases]
    head = {"manifest": {"command": "verify"}, "total": len(cases), "failed": 0,
            "suites": {"lemma4": {"total": len(cases), "failed": 0}}}
    got, expected = with_outcomes(head, outcomes)
    assert got == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    texts,
    st.one_of(st.booleans(), st.integers(), st.none(), st.sampled_from([np.bool_(True),
                                                                         np.bool_(False)])),
    st.one_of(finite_floats, st.integers(-2**60, 2**60), finite_floats.map(np.float64)),
), min_size=1, max_size=20))
def test_flat_outcome_lists_match_json_dumps(cases):
    """_outcome casts what the suites hand it (numpy bools and floats,
    ints) to the types the template encodes."""
    outcomes = [cli._outcome(c, ok, r) for c, ok, r in cases]
    got, expected = with_outcomes({"total": len(cases)}, outcomes)
    assert got == expected


json_trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(head_keys, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(head_keys, json_trees, max_size=5), verify_cases)
def test_any_tree_matches_json_dumps(head, cases):
    """The outcomes are appended after any head json.dumps can write."""
    outcomes = [cli._outcome(c, ok, r) for c, ok, r in cases]
    got, expected = with_outcomes(head, outcomes)
    assert got == expected


def test_empty_outcome_list_is_json_dumps_empty_list():
    head = {"manifest": {"command": "verify"}, "total": 0}
    got, expected = with_outcomes(head, [])
    assert got == expected
    assert got.endswith('\n  "outcomes": []\n}\n')
    assert cli._json_text({}, []) == reference({"outcomes": []})


ONE_OUTCOME = [cli._outcome("lemma4/p=1/q=3", True, 0.25)]


@pytest.mark.parametrize("payload", [
    {},
    {"a": []},
    {"a": [], "b": {}, "c": [{}], "d": [[], {}]},
    {"a": [{"a": 1}, {"a": [1, 2]}]},
    {"a": [{"a": 1, "b": 2}, {"b": 2, "a": 1}]},
    {1: "x", 2.5: "y", None: "z", False: "w"},  # keys json converts to text
    {"a": np.float64(0.25), "b": np.float64(-0.0)},
    {"a": True, "b": 1, "c": 1.0},
    OrderedDict(a=OrderedDict(b=1)),
    {"t": (1, 2), "u": [None]},
    {"%(a)s": [{"%d": 1, "%%": 2}], "]\n}": "[]\n}"},
])
def test_edge_payloads_match_json_dumps(payload):
    got, expected = with_outcomes(payload, ONE_OUTCOME)
    assert got == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("where", ["template", "general", "key", "top"])
def test_non_finite_floats_raise_value_error(bad, where):
    head, outcomes = {
        "template": ({"total": 2}, [cli._outcome("a", True, 0.5),
                                    cli._outcome("b", False, bad)]),
        "general": ({"rho": bad}, ONE_OUTCOME),
        "key": ({bad: 1}, ONE_OUTCOME),
        "top": (bad, None),
    }[where]
    with pytest.raises(ValueError):
        reference(head if outcomes is None else {**head, "outcomes": outcomes})
    with pytest.raises(ValueError):
        cli._json_text(head, outcomes)


@pytest.mark.parametrize("bad", [
    {"x": {1, 2}}, {"a": np.int64(3)}, {"a": 1j}, {(1, 2): 3}, {"a": object()},
])
def test_values_json_cannot_hold_raise_type_error(bad):
    """A head json.dumps rejects is rejected with outcomes appended too."""
    with pytest.raises(TypeError):
        reference({**bad, "outcomes": ONE_OUTCOME})
    with pytest.raises(TypeError):
        cli._json_text(bad, ONE_OUTCOME)


def test_emit_writes_nothing_for_a_payload_with_nan(capsys):
    with pytest.raises(ValueError):
        cli._emit({"rho": math.nan})
    with pytest.raises(ValueError):
        cli._emit({"total": 2}, ONE_OUTCOME + [cli._outcome("b", True, math.inf)])
    assert capsys.readouterr().out == ""

"""cli._json_text against json.dumps(indent=2): the same bytes when
verify's outcome columns are appended through the row template, for any
head and any outcome list, and the same errors for NaN, infinity and
values JSON cannot hold.  Without outcomes, _json_text is json.dumps
itself.  The suites hand the writer the str, bool and float columns the
template encodes."""

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


def columns(cases):
    """The three outcome columns of (case_id, passed, residual) cases."""
    return tuple(map(list, zip(*cases))) if cases else ([], [], [])


def records(cases):
    """The outcome records json.dumps writes for the same cases."""
    return [{"case_id": c, "passed": ok, "residual": r} for c, ok, r in cases]


def with_outcomes(head, cases):
    """The bytes of head with the cases as its last key, both ways."""
    return cli._json_text(head, columns(cases)), reference({**head, "outcomes": records(cases)})


verify_cases = st.lists(st.tuples(texts, st.booleans(), finite_floats), max_size=30)


@settings(max_examples=100, deadline=None)
@given(verify_cases)
def test_verify_shaped_outcomes_match_json_dumps(cases):
    head = {"manifest": {"command": "verify"}, "total": len(cases), "failed": 0,
            "suites": {"lemma4": {"total": len(cases), "failed": 0}}}
    got, expected = with_outcomes(head, cases)
    assert got == expected


def test_suites_hand_the_writer_str_bool_float_columns():
    """Each suite's three columns have one entry per case, of the types
    the row template encodes as json.dumps does."""
    q_max, m_max = 8, 5
    pairs = [(p, q) for q in range(1, q_max + 1) for p in range(1, q + 1)
             if math.gcd(p, q) == 1]
    totals = {"sums": sum(q // 2 for _, q in pairs), "theorem2": len(pairs) * (m_max - 2),
              "lemma3": 101, "lemma4": len(pairs), "vanishing": len(pairs)}
    found = cli._verify_outcomes(cli._SUITES, q_max, m_max)
    assert list(found) == list(cli._SUITES)
    for name, (case_ids, passed, residuals) in found.items():
        assert len(case_ids) == len(passed) == len(residuals) == totals[name], name
        assert {type(x) for x in case_ids} == {str}, name
        assert {type(x) for x in passed} == {bool}, name
        assert {type(x) for x in residuals} == {float}, name


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
    got, expected = with_outcomes(head, cases)
    assert got == expected


def test_empty_outcome_list_is_json_dumps_empty_list():
    head = {"manifest": {"command": "verify"}, "total": 0}
    got, expected = with_outcomes(head, [])
    assert got == expected
    assert got.endswith('\n  "outcomes": []\n}\n')
    assert cli._json_text({}, ([], [], [])) == reference({"outcomes": []})


ONE_OUTCOME = [("lemma4/p=1/q=3", True, 0.25)]


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
        "template": ({"total": 2}, [("a", True, 0.5), ("b", False, bad)]),
        "general": ({"rho": bad}, ONE_OUTCOME),
        "key": ({bad: 1}, ONE_OUTCOME),
        "top": (bad, None),
    }[where]
    with pytest.raises(ValueError):
        reference(head if outcomes is None else {**head, "outcomes": records(outcomes)})
    with pytest.raises(ValueError):
        cli._json_text(head, None if outcomes is None else columns(outcomes))


@pytest.mark.parametrize("bad", [
    {"x": {1, 2}}, {"a": np.int64(3)}, {"a": 1j}, {(1, 2): 3}, {"a": object()},
])
def test_values_json_cannot_hold_raise_type_error(bad):
    """A head json.dumps rejects is rejected with outcomes appended too."""
    with pytest.raises(TypeError):
        reference({**bad, "outcomes": records(ONE_OUTCOME)})
    with pytest.raises(TypeError):
        cli._json_text(bad, columns(ONE_OUTCOME))


def test_emit_writes_nothing_for_a_payload_with_nan(capsys):
    with pytest.raises(ValueError):
        cli._emit({"rho": math.nan})
    with pytest.raises(ValueError):
        cli._emit({"total": 2}, columns(ONE_OUTCOME + [("b", True, math.inf)]))
    assert capsys.readouterr().out == ""

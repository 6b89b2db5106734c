"""``serialize.dumps`` writes canonical JSON: sorted keys, two-space indent,
ASCII escapes and a trailing newline.  It must produce exactly the bytes
of ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, the oracle
below, on every payload of str, int, bool, None, list and dict, and it
refuses every other type instead of coercing it as ``json`` would."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mixtrace.serialize import dumps


def reference_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# non-ASCII, quotes, backslashes and control characters, plus plain text
texts = st.text(st.characters(codec="utf-8")) | st.sampled_from(
    ["", "\"", "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", " ", "😀",
     "1/2", "-3"])
# machine-size and far larger ints, both signs
ints = st.integers() | st.integers(-2 ** 200, 2 ** 200)
scalars = st.none() | st.booleans() | ints | texts
payloads = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(texts, max_size=5)
                   | st.dictionaries(texts, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_dumps_matches_json(payload):
    assert dumps(payload) == reference_dumps(payload)


@pytest.mark.parametrize("payload", [
    None, True, False, 0, -1, 2 ** 64, -(2 ** 100), "", "a\"b\\c\n",
    [], {}, [[]], [{}], {"": []}, {"a": {}}, [[[], [[]]]],
    ["1", "-2/3", "0"], [["1", "0"], ["0", "1"]],
    ["1", 2, None, True, "x"], [1, "2"], ["1", ["2"]],
    {"b": [1, "x"], "a": {"d": None, "c": False}, "é": "é"},
])
def test_dumps_matches_json_on_edge_cases(payload):
    assert dumps(payload) == reference_dumps(payload)


@pytest.mark.parametrize("payload", [
    Fraction(1, 2), 1.5, {1: "a"}, {"a": Fraction(3)}, [0.0],
    ["1", 2.0], (1, 2), {"a": (1,)}, {None: 1}, {True: 1},
])
def test_dumps_refuses_other_types(payload):
    with pytest.raises(TypeError):
        dumps(payload)

"""``serialize.dumps`` writes canonical JSON: sorted keys, two-space indent,
ASCII escapes and a trailing newline.  It must produce exactly the bytes
of ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, the oracle
below, on every payload of str, int, bool, None, list and dict, and it
refuses every other type instead of coercing it as ``json`` would.

A matrix, a tuple of row tuples as a ``Mor`` holds its entries, is written
as rows of scalar text: byte for byte what the reference writer
``row_joining_dumps`` writes for the rows ``bare_matrix_to_json`` makes,
wherever the matrix sits in the payload."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mixtrace.category import Model, Mor
from mixtrace.errors import ResourceLimitError
from mixtrace.rings import INTEGERS
from mixtrace.serialize import dumps

from trace_reference import bare_matrix_to_json, row_joining_dumps


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
    # lists of strs, with and without items that need an escape
    ["", ""], ["\x7f"], ["0", "é"], ["1", "\""], ["\\"], ["0", "\n"],
    ["1", "-2/3", "0", "\t"],
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


def rows_of_text(payload):
    """The payload with every matrix turned into the reference's rows of
    scalar text."""
    if type(payload) is tuple:
        width = len(payload[0]) if payload else 0
        return bare_matrix_to_json(
            Mor(Model(INTEGERS, 1), width, len(payload), payload))
    if type(payload) is dict:
        return {key: rows_of_text(value) for key, value in payload.items()}
    if type(payload) is list:
        return [rows_of_text(value) for value in payload]
    return payload


def placed(matrix):
    """The matrix alone, as a field, and at three depths of one payload,
    where the same runs of zero cells come at different indents."""
    return [matrix, {"entries": matrix},
            {"a": matrix, "b": [matrix, {"c": [[matrix]]}], "d": "x"}]


@pytest.mark.parametrize("matrix", [
    pytest.param((), id="no-rows"),
    pytest.param(((),) * 3, id="rows-of-width-0"),
    pytest.param(((0,) * 4,) * 3, id="all-zero-rows"),
    pytest.param(((0,) * 299 + (7,), tuple(range(300)), (5,) + (0,) * 299,
                  (0,) * 300), id="width-300"),
    pytest.param(((1, 0), (0, 2), (3, 0)), id="zero-in-last-column"),
    pytest.param(((0, 0, 1, 0, 0), (0, 0, 0, 0, 0), (2, 0, 0, 0, 3)),
                 id="runs-before-between-and-after"),
    pytest.param(((Fraction(1, 2), 0, Fraction(-7, 3)),
                  (Fraction(0), Fraction(6, 3), 0)), id="fractions"),
    pytest.param(((-1, 0, -23), (0, -456, -1)), id="negative"),
    pytest.param(((10 ** 30, 0, 123456789), (0, -10 ** 40, 10)),
                 id="multi-digit"),
])
def test_matrices_are_written_as_the_reference_writes_their_rows(matrix):
    for payload in placed(matrix):
        assert dumps(payload) == row_joining_dumps(rows_of_text(payload))
        assert dumps(payload) == reference_dumps(rows_of_text(payload))


def test_a_cell_past_the_digit_limit_is_a_resource_limit():
    big = 10 ** sys.get_int_max_str_digits()  # one digit past the limit
    matrix = ((0, 1), (big, 0))
    with pytest.raises(ResourceLimitError) as reference:
        rows_of_text(matrix)
    for payload in placed(matrix):
        with pytest.raises(ResourceLimitError) as got:
            dumps(payload)
        assert str(got.value) == str(reference.value)


@pytest.mark.parametrize("matrix", [
    pytest.param((("1",),), id="str"),
    pytest.param(((0, ""),), id="empty-str"),
    pytest.param(((1.5, 0),), id="float"),
    pytest.param(((0, [1]),), id="nested-list"),
    pytest.param((([],),), id="empty-nested-list"),
    pytest.param(((0, (1,)),), id="nested-tuple"),
    pytest.param(((None,),), id="none"),
    pytest.param(((True, 0),), id="bool"),
    pytest.param(([0, 1],), id="row-as-list"),
    pytest.param(((0, 1), 5), id="row-as-int"),
])
def test_matrices_holding_other_types_are_refused(matrix):
    for payload in placed(matrix):
        with pytest.raises(TypeError):
            dumps(payload)

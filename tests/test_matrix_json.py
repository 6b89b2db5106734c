"""Matrix JSON against per-entry oracles: the reference rows of scalar
text equal one ``format_value`` per entry, ``dumps`` writes a matrix from
its entries, and a ``Monomial`` from its index map, as the reference
writer writes those rows, and every loop and staircase diagram survives
the trip through ``dumps`` and back.  A monomial edge that does not fit
its nodes, a monomial column outside its width and a monomial scalar that
is no int or Fraction are refused."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mixtrace import serialize
from mixtrace.category import Model, Monomial, Mor, mor
from mixtrace.errors import InputError
from mixtrace.loops import hidden_symmetry
from mixtrace.rings import (INTEGERS, RATIONALS, format_value,
                            localized_integers, parse_value)
from mixtrace.serialize import (FileFormatError, _bare_matrix_from_json,
                                diagram_from_json, diagram_to_json, dumps,
                                loop_from_json, loop_to_json, mor_to_json)
from mixtrace.traces import free_mixed_trace, random_loop

from trace_reference import (bare_matrix_to_json, emitted_diagram,
                             row_joining_dumps, staircase_diagram)

MODELS = {"zmod:2": Model(INTEGERS, 2),
          "qmod:1/2": Model(RATIONALS, Fraction(1, 2)),
          "zloc:2": Model(localized_integers(2), 2)}


def per_entry(m: Mor):
    return [[format_value(v) for v in row] for row in m.entries]


def assert_written_as_the_reference_writes(f: Mor):
    payload = mor_to_json(f)
    assert dumps(payload) == row_joining_dumps(
        {**payload, "entries": bare_matrix_to_json(f)})


# zeros of both types, both signs, past 2^64, and Fractions, reduced or
# integral, that the constructor normalizes; Mor keeps them as given
entries = (st.just(0) | st.just(Fraction(0)) | st.just(Fraction(6, 3))
           | st.integers(-2 ** 70, 2 ** 70) | st.fractions())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(MODELS)), st.integers(0, 5), st.integers(0, 5),
       st.data())
def test_matrix_rows_match_per_entry_format_value(name, dom, cod, data):
    rows = data.draw(st.lists(st.lists(entries, min_size=dom, max_size=dom),
                              min_size=cod, max_size=cod))
    f = Mor(MODELS[name], dom, cod, tuple(map(tuple, rows)))
    assert bare_matrix_to_json(f) == per_entry(f)
    assert_written_as_the_reference_writes(f)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("dom,cod", [(0, 3), (3, 0), (0, 0)])
def test_empty_matrix_rows(name, dom, cod):
    f = Mor(MODELS[name], dom, cod, ((),) * cod)
    assert bare_matrix_to_json(f) == [[]] * cod
    assert_written_as_the_reference_writes(f)


def test_matrix_rows_of_fixed_entries():
    big = 2 ** 64 + 1
    rows = ((0, -3, big, -big), (Fraction(0), Fraction(6, 3),
                                 Fraction(-1, 2), Fraction(5, 36)))
    f = Mor(MODELS["qmod:1/2"], 4, 2, rows)
    assert bare_matrix_to_json(f) == [
        ["0", "-3", str(big), str(-big)], ["0", "2", "-1/2", "5/36"]]
    assert bare_matrix_to_json(f) == per_entry(f)
    assert_written_as_the_reference_writes(f)


def _dense(f: Monomial, model: Model) -> Mor:
    return Mor(model, f.dom, f.cod, tuple(
        tuple(f.scalar if j == c else 0 for j in range(f.dom))
        for c in f.cols))


@pytest.mark.parametrize("scalar, width, cols", [
    (2, 4, range(4)), (1, 3, (0, None, 2, None, 1)),
    (Fraction(-1, 2), 5, (4, 0, None, 3)), (0, 3, (0, 1, 2)),
    (7, 0, (None, None)), (5, 2, ()), (-3, 1, (0, None)),
    (2 ** 70 + 1, 2, (1, 1, None)), (1, 300, (299, 0, 150, None))],
    ids=["identity", "sparse", "fraction", "zero-scalar", "width-0",
         "no-rows", "width-1", "long-int", "width-300"])
def test_monomial_rows_are_written_as_their_dense_rows(scalar, width, cols):
    f = Monomial(scalar, width, cols)
    dense = _dense(f, MODELS["qmod:1/2"])
    assert dumps(f) == dumps(dense.entries) == row_joining_dumps(
        bare_matrix_to_json(dense))
    # at two depths, sharing the zero runs of the call with a dense matrix
    # that has runs of every length
    other = Mor(dense.model, 300, 2, ((1,) + (0,) * 299, (0,) * 299 + (1,)))
    payload = {"a": [f, other.entries], "b": {"c": f}}
    expected = {"a": [dense.entries, other.entries], "b": {"c": dense.entries}}
    assert dumps(payload) == dumps(expected)


@pytest.mark.parametrize("width, cols", [(2, (0, 2)), (2, (-1,)), (0, (0,)),
                                         (3, (None, 3, 1))])
def test_monomial_column_outside_its_width_is_refused(width, cols):
    with pytest.raises(InputError) as exc:
        Monomial(1, width, cols)
    assert str(exc.value) == f"a monomial column outside 0..{width - 1}"


@pytest.mark.parametrize("scalar", [1.5, 0.0, "1", None, True, [1]])
def test_monomial_scalar_of_another_type_is_refused(scalar):
    with pytest.raises(TypeError) as exc:
        dumps({"entries": Monomial(scalar, 2, (0, None))})
    assert str(exc.value) == f"{type(scalar).__name__} is not a scalar"


@pytest.mark.parametrize("objects, edge, message", [
    ((2, 3), (0, 1, Monomial(1, 2, (0, 1))),
     "edge 'm': codomain rank 2 != node rank 3"),
    ((2, 3), (0, 1, Monomial(1, 3, (0, 1, 2))),
     "edge 'm': domain rank 3 != node rank 2"),
    ((2, 2), (0, 2, Monomial(1, 2, (0, 1))),
     "edge 'm' references a missing node"),
    ((1, 2), (0, 1, Mor(MODELS["zmod:2"], 1, 1, ((1,),))),
     "edge 'm': codomain rank 1 != node rank 2")],
    ids=["rows", "width", "node", "mor"])
def test_edge_that_does_not_fit_its_nodes_is_refused(objects, edge, message):
    src, dst, f = edge
    with pytest.raises(InputError) as exc:
        diagram_to_json(MODELS["zmod:2"], objects, [(src, dst, "m", f)])
    assert str(exc.value) == message


@pytest.mark.parametrize("cell", [
    "0", "00", "-0", "+0", " 0", "0 ", "0/0", "0/1", "", 0, 0.0, False, None,
    ["0"]])
def test_cells_near_zero_read_as_parse_value_reads_them(cell):
    # only the exact text "0" skips the parser; every other cell gets
    # parse_value's value or its error text, and a non-string is refused
    def read():
        return _bare_matrix_from_json([["1", cell]], MODELS["zmod:2"],
                                      2, 1, "m")

    if not isinstance(cell, str):
        with pytest.raises(FileFormatError) as exc:
            read()
        assert str(exc.value) == "m[0][1]: scalars must be strings"
        return
    try:
        value = parse_value(cell)
    except InputError as oracle:
        with pytest.raises(FileFormatError) as exc:
            read()
        assert str(exc.value) == f"m[0][1]: {oracle}"
    else:
        entries = read().entries
        assert entries == ((1, value),) and type(entries[0][1]) is int


def test_zero_cells_skip_the_parser(monkeypatch):
    calls = []
    monkeypatch.setattr(serialize, "parse_value",
                        lambda text: calls.append(text) or parse_value(text))
    # an all-integer row is read without the parser; a row holding a
    # quotient is read per cell, and its "0" cells skip the parser
    f = _bare_matrix_from_json(
        [["0", "3", "00"], ["0", "4/2", "-00"], ["0", "1/2", "0"]],
        MODELS["qmod:1/2"], 3, 3, "m")
    assert f.entries == ((0, 3, 0), (0, 2, 0), (0, Fraction(1, 2), 0))
    assert calls == ["4/2", "-00", "1/2"]


def _through_text(payload):
    return json.loads(dumps(payload))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MODELS)), st.integers(0, 2 ** 32))
def test_loops_and_staircases_survive_json(name, seed):
    p = random_loop(random.Random(seed), MODELS[name], 3, 3)
    assert loop_from_json(_through_text(loop_to_json(p))) == p
    r = free_mixed_trace(p, want_witness=True)
    if r.is_defined:
        aligned = p if r.alpha is None else hidden_symmetry(p, r.alpha)
        d = staircase_diagram(aligned, r.witness)
        drawn = diagram_to_json(d.model, d.objects, d.edges)
        assert diagram_from_json(_through_text(drawn)) == d
        assert emitted_diagram(r, p) == d


def per_cell_read(data, model, dom, cod, where):
    """The reference reader: ``parse_value`` per cell, then the validating
    ``mor()``, which canonicalises and ring-tests every entry."""
    if not isinstance(data, list) or len(data) != cod:
        raise FileFormatError(f"{where}: expected {cod} rows")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dom:
            raise FileFormatError(f"{where}[{i}]: expected {dom} entries")
        new = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise FileFormatError(
                    f"{where}[{i}][{j}]: scalars must be strings")
            try:
                new.append(parse_value(cell))
            except InputError as exc:
                raise FileFormatError(f"{where}[{i}][{j}]: {exc}") from exc
        rows.append(new)
    try:
        return mor(model, dom, cod, rows)
    except InputError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


# integer text with any sign, leading zeros and values past 2^64; quotients,
# integral, negative or with a zero denominator; texts int() reads but the
# scalar syntax refuses; and JSON values that are no strings
integer_cells = st.builds(
    lambda sign, zeros, v: sign + "0" * zeros + str(v),
    st.sampled_from(["", "+", "-"]), st.integers(0, 3),
    st.integers(0, 2 ** 70))
fraction_cells = (st.sampled_from(["4/2", "-1/2", "1/0", "0/0", "3/4", "1/3"])
                  | st.builds(lambda n, d: f"{n}/{d}",
                              st.integers(-9, 9), st.integers(0, 12)))
near_miss_cells = st.sampled_from(
    [" 5", "5 ", "1 2", "1_0", "٣", "", "+", "1/", "1 -2", "+-1"])
non_string_cells = st.sampled_from([0, 0.0, False, None, ["0"]])
cells = st.one_of(integer_cells, fraction_cells, near_miss_cells,
                  non_string_cells)


def _typed(f: Mor):
    return [[(type(x), x) for x in row] for row in f.entries]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(MODELS)), st.integers(0, 4), st.integers(0, 4),
       st.data())
def test_matrix_reader_matches_the_per_cell_reader(name, dom, cod, data):
    # mostly all-integer rows, some with one odd cell, and now and then a
    # row of the wrong length; the reader gives the reference's entries and
    # entry types or raises its error text
    def row():
        cells_of_row = data.draw(st.lists(integer_cells, min_size=dom,
                                          max_size=dom))
        if cells_of_row and data.draw(st.integers(0, 2)) == 0:
            j = data.draw(st.integers(0, dom - 1))
            cells_of_row[j] = data.draw(cells)
        if data.draw(st.integers(0, 19)) == 0:
            cells_of_row.append("1")
        return cells_of_row

    rows = [row() for _ in range(cod)]
    model = MODELS[name]
    try:
        want = per_cell_read(rows, model, dom, cod, "m")
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as got:
            _bare_matrix_from_json(rows, model, dom, cod, "m")
        assert str(got.value) == str(exc)
    else:
        got = _bare_matrix_from_json(rows, model, dom, cod, "m")
        assert got == want and _typed(got) == _typed(want)


@pytest.mark.parametrize("rows,error", [
    # a ring failure in row 0 is reported after row 1's malformed cell
    ([["1/3", "1"], ["1", " 5"]], "m[1][1]: malformed scalar ' 5'"),
    ([["1/3", "1"], ["1", "1/9"]], "m: entry 1/3 is not in Z"),
    ([["1", "1 2"], ["1", "1"]], "m[0][1]: malformed scalar '1 2'"),
    ([["1", "2"], ["1"]], "m[1]: expected 2 entries"),
    ([["1", "٣"], ["1", "1"]], "m[0][1]: malformed scalar '٣'"),
    ([["1", "1_0"], ["1", "1"]], "m[0][1]: malformed scalar '1_0'"),
    ([["1", 1], ["1", "1"]], "m[0][1]: scalars must be strings"),
])
def test_matrix_reader_reports_the_first_error_in_reading_order(rows, error):
    for reader in (per_cell_read, _bare_matrix_from_json):
        with pytest.raises(FileFormatError) as exc:
            reader(rows, MODELS["zmod:2"], 2, 2, "m")
        assert str(exc.value) == error

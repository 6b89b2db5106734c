"""Matrix JSON against per-entry oracles: the written rows equal one
``format_value`` per entry, and every loop and staircase diagram survives
the trip through ``dumps`` and back."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mixtrace.category import Model, Mor, Obj
from mixtrace.loops import hidden_symmetry
from mixtrace.rings import (INTEGERS, RATIONALS, format_value,
                            localized_integers)
from mixtrace.serialize import (_bare_matrix_to_json, diagram_from_json,
                                diagram_to_json, dumps, loop_from_json,
                                loop_to_json)
from mixtrace.traces import free_mixed_trace, random_loop, staircase_diagram

MODELS = {"zmod:2": Model(INTEGERS, 2),
          "qmod:1/2": Model(RATIONALS, Fraction(1, 2)),
          "zloc:2": Model(localized_integers(2), 2)}


def per_entry(m: Mor):
    return [[format_value(v) for v in row] for row in m.entries]


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
    f = Mor(MODELS[name], Obj(dom), Obj(cod), tuple(map(tuple, rows)))
    assert _bare_matrix_to_json(f) == per_entry(f)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("dom,cod", [(0, 3), (3, 0), (0, 0)])
def test_empty_matrix_rows(name, dom, cod):
    f = Mor(MODELS[name], Obj(dom), Obj(cod), ((),) * cod)
    assert _bare_matrix_to_json(f) == [[]] * cod


def test_matrix_rows_of_fixed_entries():
    big = 2 ** 64 + 1
    rows = ((0, -3, big, -big), (Fraction(0), Fraction(6, 3),
                                 Fraction(-1, 2), Fraction(5, 36)))
    f = Mor(MODELS["qmod:1/2"], Obj(4), Obj(2), rows)
    assert _bare_matrix_to_json(f) == [
        ["0", "-3", str(big), str(-big)], ["0", "2", "-1/2", "5/36"]]
    assert _bare_matrix_to_json(f) == per_entry(f)


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
        assert diagram_from_json(_through_text(diagram_to_json(d))) == d

"""The staircase of a loop's lift is its induced trace.

At m != 0 the lift of a loop p = (H, C), hidden part H of length k and
carrier C, is g = (H, 1^k; m^k·C): H followed by k rank-1 objects, over
the carrier scaled by m^k.  Two facts are pinned:

- the free trace's rank-1 tail trace of g over its last k objects is p;
- ``free_mixed_trace(g)`` and ``induced_mixed_trace(p)`` are defined on
  the same loops, with the same value where defined.

A gap loop has its induced trace defined and its own free trace
undefined; the lift turns each into a loop whose free trace is defined.
The lift is built here from ``Loop`` and ``mor_scale``; the library has no
lift of its own.
"""

import itertools
import json
import os
import random

import pytest

from mixtrace.category import mor, mor_scale
from mixtrace.cli import parse_model_arg
from mixtrace.loops import Loop
from mixtrace.serialize import loop_from_json
from mixtrace.traces import (free_mixed_trace, hidden_trace,
                             induced_mixed_trace, random_loop)

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")

# model: gap loops among 600 random_loop(rng, model, 3, 3), rng seeded 5
RANDOM_GAPS = {"zmod:2": 8, "zmod:3": 2, "zmod:-2": 8, "zmod:4": 3,
               "qmod:1/2": 0, "zloc:6": 0, "zloc:2": 0}


def lift(p: Loop) -> Loop:
    return Loop(p.model, p.dom, p.cod, p.hidden + (1,) * p.k,
                mor_scale(p.carrier, p.model.mix ** p.k))


def is_gap_after_checking_the_lift(p: Loop) -> bool:
    """Assert the two facts for p and its lift; whether p is a gap loop."""
    g = lift(p)
    free, induced = free_mixed_trace(g), induced_mixed_trace(p)
    assert (free.status, free.value) == (induced.status, induced.value), p
    assert hidden_trace(g, p.k) == p, p
    return induced.is_defined and not free_mixed_trace(p).is_defined


@pytest.mark.parametrize("name", RANDOM_GAPS)
def test_lift_identity_on_random_loops(name):
    model, rng = parse_model_arg(name), random.Random(5)
    gaps = sum(is_gap_after_checking_the_lift(random_loop(rng, model, 3, 3))
               for _ in range(600))
    assert gaps == RANDOM_GAPS[name]


def test_lift_identity_on_every_small_loop_at_zmod2():
    # A = B = 1, hidden (2, 1) or (1, 2), every 2 x 2 carrier with entries
    # in [-4, 4]
    model, loops, gaps = parse_model_arg("zmod:2"), 0, 0
    for hidden in ((2, 1), (1, 2)):
        for e in itertools.product(range(-4, 5), repeat=4):
            p = Loop(model, 1, 1, hidden, mor(model, 2, 2, [e[:2], e[2:]]))
            gaps += is_gap_after_checking_the_lift(p)
            loops += 1
    assert (loops, gaps) == (13122, 2752)


def test_corpus_lift_pair():
    # the zmod:3 gap loop of the corpus and its lift
    def load(name):
        with open(os.path.join(CORPUS, name)) as fh:
            return loop_from_json(json.load(fh))

    p, g = load("lift_gap_p_zmod3.json"), load("lift_gap_g_zmod3.json")
    assert g == lift(p)
    assert is_gap_after_checking_the_lift(p)

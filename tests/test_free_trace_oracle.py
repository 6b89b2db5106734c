"""Differential test: the free mixed trace against the k! ordering
enumerator in ``trace_reference``, on a seeded corpus of loops."""

import random
from fractions import Fraction
from math import prod

import pytest

from mixtrace.category import Model, Obj, mor
from mixtrace.loops import Loop
from mixtrace.rings import (INTEGERS, RATIONALS, is_unit,
                            localized_integers, ring_contains)
from mixtrace.serialize import dumps, trace_result_to_json
from mixtrace.traces import free_mixed_trace

from trace_reference import free_trace_by_orderings

RINGS = (INTEGERS, RATIONALS, localized_integers(2), localized_integers(3))
MIXES = (0, 1, 2, 3, 4, 6, -2, Fraction(1, 2), Fraction(3, 2))
MODELS = tuple(Model(ring, m) for ring in RINGS for m in MIXES
               if ring_contains(ring, m))
# nonzero non-units: the models where divisibility depends on the ordering
STAIRCASE_MODELS = tuple(model for model in MODELS if model.mix != 0
                         and not is_unit(model.ring, model.mix))


def _coefficient(rng, model):
    c = rng.randint(-3, 3)
    if model.ring.kind == "Q" and rng.random() < 0.2:
        return Fraction(c, rng.choice((2, 3, 5)))
    if model.ring.kind == "Zloc" and rng.random() < 0.2:
        return Fraction(c, model.ring.m)
    return c


def random_corpus_loop(rng):
    """A loop whose carrier entries carry powers of m: either a random
    power per entry, or m^(k-1) or m^(k-2) throughout, so the partial
    contractions fail at varying stages and some loops solve only in a
    non-identity ordering."""
    shortfall = rng.choice((None, 1, 2))
    model = rng.choice(MODELS if shortfall is None else STAIRCASE_MODELS)
    k = rng.randint(0, 5)
    ranks = [0 if rng.random() < 0.05 else rng.choice((1, 2))
             for _ in range(k)]
    if k >= 4:  # keep the k! reference cheap: at most one rank-2 factor
        twos = [i for i, r in enumerate(ranks) if r == 2]
        for i in twos[1:]:
            ranks[i] = 1
    hidden = tuple(Obj(r) for r in ranks)
    a, b = (Obj(0 if rng.random() < 0.05 else rng.choice((1, 1, 2)))
            for _ in range(2))
    h = prod(ranks)
    density = rng.random() * rng.choice((1, 0.3))

    def entry():
        if rng.random() >= density:
            return 0
        power = rng.randint(0, k) if shortfall is None else k - shortfall
        return _coefficient(rng, model) * model.mix ** max(0, power)

    rows = [[entry() for _ in range(a.rank * h)] for _ in range(b.rank * h)]
    carrier = mor(model, Obj(a.rank * h), Obj(b.rank * h), rows)
    return Loop(model, a, b, hidden, carrier)


def _m0_loops():
    """The m = 0 outcomes at k = 5: nonzero pairing form, zero form with
    no rank-0 hidden object, rank-0 hidden objects at two positions, and
    rank-0 endpoints."""
    for ring in (INTEGERS, RATIONALS):
        model = Model(ring, 0)
        r1 = Obj(1)
        yield Loop(model, r1, r1, (r1,) * 5, mor(model, r1, r1, [[1]]))
        yield Loop(model, r1, r1, (r1,) * 5, mor(model, r1, r1, [[0]]))
        z = Obj(0)
        yield Loop(model, r1, r1, (r1, z, r1, z, Obj(2)),
                   mor(model, z, z, []))
        yield Loop(model, z, r1, (r1, Obj(2), r1, r1, r1),
                   mor(model, z, Obj(2), [[], []]))


def _same(p, want_witness):
    got = free_mixed_trace(p, want_witness=want_witness)
    ref = free_trace_by_orderings(p, want_witness=want_witness)
    assert got.status == ref.status, (p, got.status, ref.status)
    assert got.alpha == ref.alpha and got.value == ref.value, p
    assert dumps(trace_result_to_json(got, p)) \
        == dumps(trace_result_to_json(ref, p))
    return got


def test_free_trace_matches_ordering_enumerator():
    rng = random.Random(2016)
    statuses = set()
    reordered = 0
    for case in range(1200):
        p = random_corpus_loop(rng)
        got = _same(p, want_witness=case % 3 == 0)
        statuses.add(got.status)
        if got.alpha is not None and not got.alpha.is_identity:
            reordered += 1
    assert statuses == {"defined", "undefined", "ambiguous"}, statuses
    assert reordered >= 15, reordered


@pytest.mark.parametrize("want_witness", [False, True])
def test_free_trace_m0_closed_form(want_witness):
    outcomes = []
    for p in _m0_loops():
        got = _same(p, want_witness)
        outcomes.append((got.status, got.alpha and got.alpha.images))
    assert outcomes == [
        ("undefined", None), ("ambiguous", None),
        ("defined", (0, 1, 2, 4, 3)), ("defined", (0, 1, 2, 3, 4))] * 2

"""Differential test: the free mixed trace against the k! ordering
enumerator in ``trace_reference``, on seeded corpora of loops: a general
one, one of hidden parts that are mostly rank 1, where the search takes
equal objects of rank <= 1 in their given order only, and one whose
hidden ranks are all <= 1, where at m != 0 the free trace is the induced
one."""

import random
from fractions import Fraction
from math import prod

import pytest

from mixtrace.category import Model, Mor, contract_hidden, mor
from mixtrace.loops import Loop
from mixtrace.rings import (INTEGERS, RATIONALS, divide_by_mix,
                            localized_integers, ring_contains)
from mixtrace.serialize import dumps, trace_result_to_json
from mixtrace.traces import (StaircaseWitness, defined, free_mixed_trace,
                             induced_mixed_trace)
from mixtrace.zigzag import diagram_commutes

from trace_reference import emitted_diagram, free_trace_by_orderings, is_unit

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


def random_corpus_loop(rng, mostly_rank_one=False):
    """A loop whose carrier entries carry powers of m: either a random
    power per entry, or m^(k-1) or m^(k-2) throughout, so the partial
    contractions fail at varying stages and some loops solve only in a
    non-identity ordering.  With ``mostly_rank_one`` the hidden part has
    2 to 6 objects, nearly all of rank 1 and at most two of rank 2."""
    shortfall = rng.choice((None, 1, 2))
    model = rng.choice(MODELS if shortfall is None else STAIRCASE_MODELS)
    if mostly_rank_one:
        k = rng.randint(2, 6)
        ranks = rng.choices((0, 1, 2), weights=(1, 8, 4), k=k)
        keep_twos = 1 if k == 6 else 2
    else:
        k = rng.randint(0, 5)
        ranks = [0 if rng.random() < 0.05 else rng.choice((1, 2))
                 for _ in range(k)]
        keep_twos = 1 if k >= 4 else k
    # keep the k! reference cheap: few rank-2 factors at large k
    for i in [i for i, r in enumerate(ranks) if r == 2][keep_twos:]:
        ranks[i] = 1
    if mostly_rank_one and 2 in ranks:
        # a rank-2 object last: at a shortfall of m, the identity ordering
        # then fails and a later one may solve
        ranks.append(ranks.pop(ranks.index(2)))
    hidden = tuple(ranks)
    a, b = (0 if rng.random() < 0.05 else rng.choice((1, 1, 2))
            for _ in range(2))
    h = prod(ranks)
    density = rng.random() * rng.choice((1, 0.3))

    def entry():
        if rng.random() >= density:
            return 0
        power = rng.randint(0, k) if shortfall is None else k - shortfall
        return _coefficient(rng, model) * model.mix ** max(0, power)

    rows = [[entry() for _ in range(a * h)] for _ in range(b * h)]
    carrier = mor(model, a * h, b * h, rows)
    return Loop(model, a, b, hidden, carrier)


def _m0_loops():
    """The m = 0 outcomes at k = 5: nonzero pairing form, zero form with
    no rank-0 hidden object, rank-0 hidden objects at two positions, and
    rank-0 endpoints."""
    for ring in (INTEGERS, RATIONALS):
        model = Model(ring, 0)
        r1 = 1
        yield Loop(model, r1, r1, (r1,) * 5, mor(model, r1, r1, [[1]]))
        yield Loop(model, r1, r1, (r1,) * 5, mor(model, r1, r1, [[0]]))
        z = 0
        yield Loop(model, r1, r1, (r1, z, r1, z, 2),
                   mor(model, z, z, []))
        yield Loop(model, z, r1, (r1, 2, r1, r1, r1),
                   mor(model, z, 2, [[], []]))


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


def test_free_trace_matches_ordering_enumerator_on_rank_one_parts():
    rng = random.Random(1987)
    statuses = set()
    reordered = 0
    for case in range(300):
        p = random_corpus_loop(rng, mostly_rank_one=True)
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


def rank_at_most_one_loop(rng, model, k):
    """A loop of ``model`` with k hidden objects of rank 0 or 1 and
    endpoints of rank 0 to 2, its entries multiples of m^k, m^(k-1) or a
    random power of m up to m^k, so that some loops are undefined."""
    hidden = tuple(rng.choices((0, 1), weights=(1, 8), k=k))
    a, b = (rng.choice((0, 1, 1, 2)) for _ in range(2))
    h = prod(hidden)
    shortfall = rng.choice((0, 1, 1, None))

    def entry():
        if rng.random() < 0.2:
            return 0
        power = rng.randint(0, k) if shortfall is None else k - shortfall
        return _coefficient(rng, model) * model.mix ** max(0, power)

    rows = [[entry() for _ in range(a * h)] for _ in range(b * h)]
    return Loop(model, a, b, hidden, mor(model, a * h, b * h, rows))


def _contracted_then_divided(p):
    """The induced trace's value the long way: contract every hidden index,
    then divide by m^k; None when a quotient leaves the ring."""
    rows = divide_by_mix(
        contract_hidden(p.carrier, p.dom, p.cod, p.hidden).entries,
        p.model.mix ** p.k, p.model.ring)
    return None if rows is None else Mor(p.model, p.dom, p.cod,
                                         tuple(map(tuple, rows)))


def test_rank_at_most_one_parts_trace_as_the_enumerator_and_induced():
    # every model, m = 0, Fraction mixes and Z[1/M] included, at k = 0..6
    # with rank-0 objects: the free trace agrees with the k! enumerator and
    # with itself asked for a witness, whose bytes are the enumerator's,
    # and at m != 0 it is the induced
    # trace in the identity ordering, which is contract-then-divide
    rng = random.Random(1733)
    statuses = set()
    rank_zero = 0
    tally = {"defined": 0, "undefined": 0}
    for model in MODELS:
        for k in range(7):
            for _ in range(3):
                p = rank_at_most_one_loop(rng, model, k)
                rank_zero += 0 in p.hidden
                got = free_mixed_trace(p)
                ref = free_trace_by_orderings(p, want_witness=True)
                wit = free_mixed_trace(p, want_witness=True)
                statuses.add(got.status)
                for other in (ref, wit):
                    assert (other.status, other.alpha, other.value) \
                        == (got.status, got.alpha, got.value), p
                assert dumps(trace_result_to_json(wit, p)) \
                    == dumps(trace_result_to_json(ref, p)), p
                if model.mix == 0:
                    continue
                ind = induced_mixed_trace(p)
                assert ind.value == _contracted_then_divided(p), p
                assert (ind.status, ind.value) == (got.status, got.value), p
                if got.is_defined:
                    assert got.alpha.images == tuple(range(k)), p
                tally[got.status] += 1
    assert statuses == {"defined", "undefined", "ambiguous"}, statuses
    assert rank_zero >= 150 and tally["defined"] >= 500 \
        and tally["undefined"] >= 40, (rank_zero, tally)


def _nudged(f, rng):
    """f with one entry, chosen by rng, increased by 1."""
    rows = [list(row) for row in f.entries]
    r = rng.randrange(f.cod)
    c = rng.randrange(f.dom)
    rows[r][c] += 1
    return Mor(f.model, f.dom, f.cod, tuple(map(tuple, rows)))


def test_free_trace_witness_commutes():
    # the emitted diagram of every witness the search returns commutes,
    # read back as zigzag-check reads it, and changing one entry of a
    # non-empty filler breaks it
    rng = random.Random(1996)
    checked = nudged = 0
    for case in range(600):
        p = random_corpus_loop(rng, mostly_rank_one=case % 2 == 1)
        got = free_mixed_trace(p, want_witness=True)
        if not got.is_defined or p.model.mix == 0:
            continue
        w = got.witness
        assert w is not None and len(w.fillers) == p.k
        assert diagram_commutes(emitted_diagram(got, p)) is True
        checked += 1
        full = [i for i, f in enumerate(w.fillers)
                if f.dom and f.cod]
        if full:
            i = rng.choice(full)
            fillers = list(w.fillers)
            fillers[i] = _nudged(fillers[i], rng)
            broken = defined(got.value, got.alpha,
                             StaircaseWitness(w.psi, tuple(fillers)))
            assert diagram_commutes(emitted_diagram(broken, p)) is not True
            nudged += 1
    assert checked >= 300 and nudged >= 250, (checked, nudged)

import random
from fractions import Fraction

import pytest

from mixtrace import compactify, traces
from mixtrace.category import (Model, Mor, Obj, canonical_map, compose,
                               contract_hidden, dual_mor, identity, mor,
                               mor_scale, random_mor, tensor_mor)
from mixtrace.cli import parse_model_arg
from mixtrace.compactify import (c_tr, comix, localized_model, loop_value,
                                 realize, verify_compactness)
from mixtrace.errors import InputError, ModelNotCompactifiableError
from mixtrace.loops import (Loop, hidden_symmetry, loop_compose, loop_dual,
                            loop_tensor, morphism_loop)
from mixtrace.rings import (INTEGERS, RATIONALS, localized_integers,
                            ring_contains)
from mixtrace.traces import (_divide_by_mix, free_mixed_trace, hidden_trace,
                             induced_mixed_trace, random_loop)

from trace_reference import all_permutations, hide, loop_par, total_trace

Z0 = Model(INTEGERS, 0)
Z1 = Model(INTEGERS, 1)
Z2 = Model(INTEGERS, 2)
Z3 = Model(INTEGERS, 3)
r1, r2 = Obj(1), Obj(2)


def test_localized_model():
    assert localized_model(Z2).ring == localized_integers(2)
    assert localized_model(Z1).ring == localized_integers(1)
    assert localized_model(Model(RATIONALS, 3)).ring == RATIONALS
    assert localized_model(Model(localized_integers(2), 3)).ring == \
        localized_integers(6)
    with pytest.raises(ModelNotCompactifiableError):
        localized_model(Z0)


def test_localizing_keeps_the_zloc_parameter():
    # Z[1/6] with mix 6 is already local at 6: the parameter is the lcm,
    # not the product, so it prints as given and localizing is a fixpoint
    z6 = Model(localized_integers(6), 6)
    assert str(localized_model(z6).ring) == "Z[1/6]"
    assert localized_model(localized_model(z6)).ring.m == 6


def test_loop_value_examples():
    six = Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[6]]))
    assert loop_value(six).entries == ((3,),)

    f = mor(Z2, r2, r2, [[1, 2], [3, 4]])
    assert loop_value(morphism_loop(f)) == c_tr(f)

    cm = loop_value(comix(Z2, r1, r1))
    assert cm.entries == ((Fraction(1, 2),),)

    with pytest.raises(ModelNotCompactifiableError):
        loop_value(morphism_loop(mor(Z0, r1, r1, [[1]])))


def test_c_tr():
    f = mor(Z2, r1, r1, [[3]])
    assert c_tr(f).entries == ((3,),)
    rng = random.Random(1)
    for _ in range(30):
        a, b, c = (Obj(rng.randint(0, 3)) for _ in range(3))
        g = random_mor(Z2, rng, a, b)
        h = random_mor(Z2, rng, b, c)
        assert c_tr(compose(h, g)) == compose(c_tr(h), c_tr(g))
        assert c_tr(tensor_mor(g, h)) == tensor_mor(c_tr(g), c_tr(h))
        assert c_tr(dual_mor(g)) == dual_mor(c_tr(g))
        g2 = random_mor(Z2, rng, a, b)
        assert (g.entries == g2.entries) == (c_tr(g) == c_tr(g2))


def test_realize_examples():
    target = localized_model(Z2)
    half = Mor(target, r1, r1, ((Fraction(1, 2),),))
    back = realize(half)
    assert back.carrier.entries == ((1,),)
    assert [u.rank for u in back.hidden] == [1]
    assert loop_value(back) == half

    integral = Mor(target, r2, r2, ((3, 0), (0, 5)))
    assert realize(integral).k == 0

    tq = Mor(target, r1, r1, ((Fraction(3, 4),),))
    lifted = realize(tq)
    assert lifted.carrier.entries == ((3,),)
    assert [u.rank for u in lifted.hidden] == [1, 1]
    assert loop_value(lifted) == tq

    with pytest.raises(InputError):
        realize(mor(Z2, r1, r1, [[1]]))

    # localized at |m|, cleared by m^3 = -8
    five_eighths = Mor(localized_model(Model(INTEGERS, -2)), r1, r1,
                       ((Fraction(5, 8),),))
    back = realize(five_eighths)
    assert back.carrier.entries == ((-5,),) and back.k == 3
    assert loop_value(back) == five_eighths


def test_realize_over_q_is_the_identity_section():
    # every nonzero mix is a unit of Q, so the model is its own
    # compactification: the matrix comes back with no hidden objects
    q2 = Model(RATIONALS, 2)
    f = mor(q2, r1, r2, [[Fraction(1, 3)], [5]])
    loop = realize(f)
    assert loop == Loop(q2, r1, r2, (), f)
    assert loop_value(loop) == f
    with pytest.raises(ModelNotCompactifiableError):
        realize(mor(Model(RATIONALS, 0), r1, r1, [[1]]))


def test_realize_roundtrip_random():
    rng = random.Random(7)
    # at a negative mix the clearing power m^k alternates in sign
    for model in (Z2, Z3, Model(INTEGERS, -2), Model(INTEGERS, -3)):
        target = localized_model(model)
        m = int(model.mix)
        for _ in range(60):
            dom, cod = Obj(rng.randint(0, 3)), Obj(rng.randint(0, 3))
            j = rng.randint(0, 3)
            rows = tuple(tuple(Fraction(rng.randint(-8, 8), m ** j)
                               for _ in range(dom.rank))
                         for _ in range(cod.rank))
            matrix = Mor(target, dom, cod, rows)
            assert loop_value(realize(matrix)) == matrix


def test_verify_compactness_runs_the_round_trip_at_negative_mix(
        monkeypatch):
    calls = []

    def counted(m_mor):
        calls.append(m_mor)
        return realize(m_mor)

    monkeypatch.setattr(compactify, "realize", counted)
    report = verify_compactness(Model(INTEGERS, -2), max_rank=2, samples=50)
    assert report.ok and len(calls) == 10


def test_realize_free_trace_over_localized_ring():
    # re-tagged over the localized ring, the staircase of a realized loop
    # divides freely and walks down the integer multiples stage by stage
    target = localized_model(Z2)
    matrix = Mor(target, r1, r1, ((Fraction(3, 4),),))
    base_loop = realize(matrix)
    loc = Loop(target, base_loop.dom, base_loop.cod, base_loop.hidden,
               Mor(target, base_loop.carrier.dom, base_loop.carrier.cod,
                   base_loop.carrier.entries))
    res = free_mixed_trace(loc)
    assert res.status == "defined" and res.value == matrix
    stage = hidden_trace(loc, 1)
    assert stage.carrier.entries == ((Fraction(3, 2),),)


def test_comix_inverts_mix():
    for model, ranks in ((Z1, 4), (Z2, 4), (Z3, 4)):
        target = localized_model(model)
        for ar in range(0, ranks + 1):
            for br in range(0, 3):
                a, b = Obj(ar), Obj(br)
                inv = loop_value(comix(model, a, b))
                mix = c_tr(canonical_map(model, "mix_map", [a, b]))
                ident = identity(target, Obj(ar * br))
                assert compose(inv, mix) == ident
                assert compose(mix, inv) == ident


def test_comix_value_examples():
    assert loop_value(comix(Z2, r1, r1)).entries == ((Fraction(1, 2),),)
    v = loop_value(comix(Z3, r2, r2))
    assert v == mor_scale(identity(localized_model(Z3), Obj(4)),
                          Fraction(1, 3))
    assert loop_value(comix(Z1, r2, r2)) == \
        identity(localized_model(Z1), Obj(4))


def test_comix_mix_is_tensor_of_yankings():
    # the defining composite collapses to hidden mixed symmetries on the
    # nose in this model
    for model, (ar, br) in ((Z2, (1, 1)), (Z2, (2, 1)), (Z3, (2, 2))):
        a, b = Obj(ar), Obj(br)
        lhs = loop_compose(comix(model, a, b),
                           morphism_loop(canonical_map(model, "mix_map",
                                                       [a, b])))
        ya = hide(morphism_loop(canonical_map(model, "mixed_symmetry",
                                              [a, a])), a, a)
        yb = hide(morphism_loop(canonical_map(model, "mixed_symmetry",
                                              [b, b])), b, b)
        assert lhs == loop_tensor(ya, yb)


def test_value_homomorphism():
    rng = random.Random(11)
    for _ in range(60):
        p = random_loop(rng, Z2, 2, 2)
        q = random_loop(rng, Z2, 2, 2)
        assert loop_value(loop_tensor(p, q)) == \
            tensor_mor(loop_value(p), loop_value(q))
        assert loop_value(loop_par(p, q)) == \
            tensor_mor(loop_value(p), loop_value(q))
        assert loop_value(loop_dual(p)) == dual_mor(loop_value(p))
        hid = tuple(Obj(rng.randint(0, 2)) for _ in range(rng.randint(0, 2)))
        h = 1
        for u in hid:
            h *= u.rank
        c = Obj(rng.randint(0, 2))
        q2 = Loop(Z2, p.cod, c, hid,
                  random_mor(Z2, rng, Obj(p.cod.rank * h), Obj(c.rank * h)))
        assert loop_value(loop_compose(q2, p)) == \
            compose(loop_value(q2), loop_value(p))


def test_congruence_moves_preserve_value():
    rng = random.Random(13)
    for model in (Z2, Z3):
        for _ in range(150):
            p = random_loop(rng, model, 3, 2)
            v = loop_value(p)
            for tail in range(0, p.k + 1):
                t = hidden_trace(p, tail)
                if t is not None:
                    assert loop_value(t) == v
            for alpha in all_permutations(p.k):
                assert loop_value(hidden_symmetry(p, alpha)) == v


def test_localization_functor_factors_through_quotient():
    # reading a base loop inside the compact rational model and tracing
    # there lands on the quotient normal form
    rng = random.Random(17)
    QM = Model(RATIONALS, 2)
    for _ in range(60):
        p = random_loop(rng, Z2, 2, 2)
        carrier_q = Mor(QM, p.carrier.dom, p.carrier.cod, p.carrier.entries)
        scaled = mor_scale(carrier_q, Fraction(1, 2 ** p.k))
        ambient = total_trace(scaled, p.dom, p.cod, Obj(p.hidden_size))
        assert ambient.entries == loop_value(p).entries


def test_integral_values_trace_back():
    # whenever the class of a loop is an integral matrix, the induced
    # trace recovers exactly that morphism
    rng = random.Random(19)
    seen = 0
    for _ in range(400):
        p = random_loop(rng, Z2, 2, 2)
        v = loop_value(p)
        if all(Fraction(x).denominator == 1 for row in v.entries
               for x in row):
            seen += 1
            res = induced_mixed_trace(p)
            assert res.status == "defined"
            assert res.value.entries == v.entries
    assert seen > 50


@pytest.mark.parametrize("selector", ["zmod:2", "zmod:-2", "zmod:3", "zloc:2",
                                      "zloc:6", "qmod:2", "qmod:1/2"])
def test_induced_trace_is_the_one_the_embedding_induces(selector):
    # the induced trace of p is loop_value(p) exactly when that value lands
    # back in the base ring: defined gives c_tr(value) == loop_value(p),
    # undefined leaves some entry of loop_value(p) outside the base ring
    model = parse_model_arg(selector)
    rng = random.Random(f"induced:{selector}")
    outcomes = set()
    for _ in range(300):
        p = random_loop(rng, model, 2, 2)
        res = induced_mixed_trace(p)
        outcomes.add(res.status)
        v = loop_value(p)
        if res.is_defined:
            assert c_tr(res.value) == v
        else:
            assert not all(ring_contains(model.ring, x)
                           for row in v.entries for x in row)
    assert "defined" in outcomes


def test_verify_compactness():
    for model in (Z1, Z2, Z3):
        report = verify_compactness(model, max_rank=2, seed=0, samples=150)
        failed = [c.name for c in report.checks if not c.passed]
        assert report.ok, failed
    with pytest.raises(ModelNotCompactifiableError):
        verify_compactness(Z0, max_rank=2)
    # the counts are checked before the model
    with pytest.raises(InputError):
        verify_compactness(Z0, max_rank=2, samples=-5)
    with pytest.raises(InputError):
        verify_compactness(Z0, max_rank=-1)


@pytest.mark.parametrize("name, wrong, failure", [
    ("loop_tensor", lambda build: lambda p, q: build(q, p),
     ("values-functorial", "tensor of values fails at sample 5")),
    ("dual_mor", lambda build: lambda f: mor_scale(build(f), 2),
     ("values-functorial", "dual of values fails at sample 4")),
    ("realize", lambda build: lambda m_mor: build(mor_scale(m_mor, 2)),
     ("realize-round-trip", "realization round trip fails at sample 0")),
], ids=["loop_tensor", "dual_mor", "realize"])
def test_verify_compactness_fails_where_a_map_is_wrong(monkeypatch, name,
                                                       wrong, failure):
    # each map the checks compare through, made wrong, fails its check
    # with the usual detail, whatever the call localizes once
    monkeypatch.setattr(compactify, name, wrong(getattr(compactify, name)))
    report = verify_compactness(Z2, max_rank=2, samples=100)
    assert [(c.name, c.detail) for c in report.checks
            if not c.passed] == [failure]


def test_verify_compactness_localizes_once_plus_once_per_realize_sample(
        monkeypatch):
    # every check compares over one localized model; only the realize
    # round trip, whose loops live over Model(Z, m), localizes its own
    calls = {"localized_model": 0, "realize": 0}

    def counted(name):
        build = getattr(compactify, name)

        def wrapper(arg):
            calls[name] += 1
            return build(arg)
        return wrapper

    for name in calls:
        monkeypatch.setattr(compactify, name, counted(name))
    assert verify_compactness(Z2, max_rank=2, samples=100).ok
    assert calls == {"localized_model": 1 + 20, "realize": 20}


@pytest.mark.parametrize("selector", ["qmod:1/2", "zmod:2", "zloc:6"])
def test_loop_value_divides_without_membership_tests(monkeypatch, selector):
    # every quotient loop_value takes lies in the localized ring, so it
    # tests none of them, and its values are those of the tested division
    model = parse_model_arg(selector)
    target = localized_model(model)
    rng = random.Random(5)
    loops = [random_loop(rng, model, 3, 2) for _ in range(1000)]
    tested = [_divide_by_mix(
        contract_hidden(p.carrier, p.dom, p.cod, p.hidden).entries,
        model.mix ** p.k, target.ring) for p in loops]
    calls = []

    def counted(ring, value):
        calls.append(value)
        return ring_contains(ring, value)

    monkeypatch.setattr(traces, "ring_contains", counted)
    values = [loop_value(p) for p in loops]
    assert calls == []
    assert [v.entries for v in values] == [tuple(map(tuple, rows))
                                           for rows in tested]
    with pytest.raises(ModelNotCompactifiableError):
        loop_value(Loop(Z0, r1, r1, (r1,), mor(Z0, r1, r1, [[1]])))

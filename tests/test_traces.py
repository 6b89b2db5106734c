import random
from fractions import Fraction

import pytest

from mixtrace import traces
from mixtrace.category import (Model, Obj, canonical_map, compose, curry,
                               identity, mor, mor_scale, obj_tensor,
                               random_mor, tensor_mor, uncurry)
from mixtrace.compactify import loop_value
from mixtrace.errors import InputError, ModelNotCompactifiableError
from mixtrace.loops import (Loop, Permutation, hidden_symmetry,
                            morphism_loop, yanking_loop)
from mixtrace.traces import (AMBIGUOUS, DEFINED, UNDEFINED, free_mixed_trace,
                             hidden_trace, induced_mixed_trace, pairing_form,
                             random_loop, run_axiom_suite, staircase_diagram)
from mixtrace.zigzag import diagram_commutes
from mixtrace.rings import INTEGERS, RATIONALS, localized_integers

from trace_reference import (assert_solvable_orderings_agree,
                             pairing_form_by_currying, provisional_trace,
                             provisional_trace_dual, total_trace)

Z0 = Model(INTEGERS, 0)
Z1 = Model(INTEGERS, 1)
Z2 = Model(INTEGERS, 2)
Z3 = Model(INTEGERS, 3)
Q1 = Model(RATIONALS, 1)
r1, r2 = Obj(1), Obj(2)


def test_pairing_form_k0():
    f = mor(Z2, r2, Obj(3), [[1, 2], [3, 4], [5, 6]])
    pf = pairing_form(morphism_loop(f))
    assert pf.dom.rank == 1 and pf.cod.rank == 6
    # column flattening with the target endpoint outermost
    assert tuple(row[0] for row in pf.entries) == (1, 2, 3, 4, 5, 6)


def test_pairing_form_frozen_row():
    carrier = mor(Z2, r2, r2, [[1, 2], [3, 4]])
    p = Loop(Z2, r1, r1, (r2,), carrier)
    assert pairing_form(p).entries == ((1, 3, 2, 4),)


def test_pairing_form_yanking_is_mix():
    # the three-step computation through the bijection lands on the mix map
    for rk in (1, 2, 3):
        u = Obj(rk)
        ms = canonical_map(Z2, "mixed_symmetry", [u, u])
        s1 = uncurry(ms, obj_tensor(u, u), u, u)
        s2 = compose(s1, canonical_map(Z2, "symmetry", [Obj(rk * rk), u]))
        s3 = curry(s2, obj_tensor(u, u), u, u)
        assert s3 == canonical_map(Z2, "mix_map", [u, u])
        assert s3.entries == pairing_form(yanking_loop(Z2, u)).entries


def test_pairing_form_routes_agree():
    for m in (0, 1, 2, 3):
        model = Model(INTEGERS, m)
        rng = random.Random(11 + m)
        for _ in range(120):
            p = random_loop(rng, model, 3, 3)
            assert pairing_form(p).entries == \
                pairing_form_by_currying(p).entries


def test_provisional_examples():
    for rk in (1, 2, 3):
        res = provisional_trace(yanking_loop(Z2, Obj(rk)))
        assert res.status == DEFINED and res.value == identity(Z2, Obj(rk))

    p = Loop(Z2, r1, r1, (r2,), mor(Z2, r2, r2, [[2, 0], [0, 4]]))
    res = provisional_trace(p)
    assert res.status == DEFINED and res.value.entries == ((3,),)

    gap = Loop(Z2, r1, r1, (r2,), identity(Z2, r2))
    assert provisional_trace(gap).status == UNDEFINED


def test_provisional_witness_diagram():
    p = Loop(Z2, r1, r1, (r2,), mor(Z2, r2, r2, [[2, 0], [0, 4]]))
    res = provisional_trace(p, want_witness=True)
    assert res.witness is not None and len(res.witness.fillers) == 1
    assert diagram_commutes(staircase_diagram(p, res.witness)) is True


def test_provisional_dual_route_agrees():
    for m in (0, 1, 2, 3):
        model = Model(INTEGERS, m)
        rng = random.Random(23 + m)
        for _ in range(150):
            p = random_loop(rng, model, 3, 2)
            a = provisional_trace(p)
            b = provisional_trace_dual(p)
            assert a.status == b.status and a.value == b.value


def test_free_trace_yanking_and_k0():
    for m in (1, 2, 3):
        model = Model(INTEGERS, m)
        for rk in range(0, 5):
            res = free_mixed_trace(yanking_loop(model, Obj(rk)))
            assert res.status == DEFINED
            assert res.value == identity(model, Obj(rk))
    f = mor(Z2, r2, r2, [[1, 2], [3, 4]])
    res = free_mixed_trace(morphism_loop(f))
    assert res.status == DEFINED and res.value == f


def test_free_trace_order_dependence():
    # an instance solvable under exactly one of the two hidden orders;
    # the permutation search absorbs the difference
    rows = [[0] * 4 for _ in range(4)]
    rows[0][0] = 2   # ((u=0,v=0),(0,0))
    rows[2][2] = 2   # ((u=1,v=0),(1,0))
    carrier = mor(Z2, Obj(4), Obj(4), rows)
    p = Loop(Z2, r1, r1, (r2, r2), carrier)
    assert provisional_trace(p).status == DEFINED
    assert provisional_trace(hidden_symmetry(p, Permutation((1, 0)))).status \
        == UNDEFINED
    res = free_mixed_trace(p)
    assert_solvable_orderings_agree(p, res)
    assert res.status == DEFINED and res.value.entries == ((1,),)
    flipped = hidden_symmetry(p, Permutation((1, 0)))
    res2 = free_mixed_trace(flipped)
    assert res2.status == DEFINED and res2.alpha.images == (1, 0)
    assert res2.value == res.value


def test_order_dependence_found_by_search():
    # a blind search over small even carriers also turns up loops whose
    # staircase is solvable under exactly one of the two hidden orders
    rng = random.Random(55)
    found = 0
    for _ in range(3000):
        rows = [[2 * rng.randint(0, 2) if rng.random() < 0.4 else 0
                 for _ in range(4)] for _ in range(4)]
        p = Loop(Z2, r1, r1, (r2, r2), mor(Z2, Obj(4), Obj(4), rows))
        a = provisional_trace(p).status
        b = provisional_trace(hidden_symmetry(p, Permutation((1, 0)))).status
        if a != b:
            found += 1
            res = free_mixed_trace(p)
            assert_solvable_orderings_agree(p, res)
            assert res.status == DEFINED
            if found >= 3:
                break
    assert found >= 3


def test_free_trace_permutation_agreement():
    rng = random.Random(31)
    for _ in range(150):
        p = random_loop(rng, Z2, 3, 2)
        assert_solvable_orderings_agree(p, free_mixed_trace(p))


def test_free_trace_has_no_bound_on_k():
    # hidden objects of rank 1 carry no data: the search takes them in
    # order, so a long hidden part costs one path, not 2^k sets
    for k in (7, 300):
        ones = (r1,) * k
        exact = free_mixed_trace(Loop(Z2, r1, r1, ones,
                                      mor(Z2, r1, r1, [[5 * 2 ** k]])))
        assert exact.status == DEFINED and exact.value.entries == ((5,),)
        assert exact.alpha.is_identity
        short = Loop(Z2, r1, r1, ones, mor(Z2, r1, r1, [[2 ** (k - 1)]]))
        assert free_mixed_trace(short).status == UNDEFINED
    # the rank-2 object must come first; the rank-1 ones follow in order
    p = Loop(Z2, r1, r1, (r1,) * 6 + (r2,),
             mor(Z2, r2, r2, [[2, 0], [0, 2 ** 7 - 2]]))
    res = free_mixed_trace(p, want_witness=True)
    assert res.alpha.images == (6, 0, 1, 2, 3, 4, 5)
    assert res.value.entries == ((1,),) and len(res.witness.fillers) == 7


@pytest.mark.parametrize("model", [
    Model(INTEGERS, m) for m in (1, 2, 3, -2, 6)] + [
    Model(localized_integers(2), m) for m in (2, 3, 6)] + [
    Model(localized_integers(3), m) for m in (2, 3)] + [
    Model(RATIONALS, m) for m in (1, 2, Fraction(3, 2))])
def test_free_trace_value_is_induced_and_loop_value(model):
    rng = random.Random(f"value:{model}")
    defined_count = 0
    for _ in range(60):
        p = random_loop(rng, model, 2, 3)
        free = free_mixed_trace(p)
        if not free.is_defined:
            continue
        defined_count += 1
        assert induced_mixed_trace(p).value == free.value
        assert loop_value(p).entries == free.value.entries
    assert defined_count >= 20, defined_count


def test_induced_examples():
    p = Loop(Z2, r1, r1, (r2,), identity(Z2, r2))
    res = induced_mixed_trace(p)
    assert res.status == DEFINED and res.value.entries == ((1,),)

    q = Loop(Z2, r1, r1, (r2,), mor(Z2, r2, r2, [[1, 0], [0, 2]]))
    assert induced_mixed_trace(q).status == UNDEFINED

    with pytest.raises(ModelNotCompactifiableError):
        induced_mixed_trace(morphism_loop(mor(Z0, r1, r1, [[1]])))


def test_minimality_free_implies_induced():
    rng = random.Random(37)
    hits = 0
    for _ in range(400):
        p = random_loop(rng, Z2, 3, 2)
        f = free_mixed_trace(p)
        if f.status == DEFINED:
            hits += 1
            i = induced_mixed_trace(p)
            assert i.status == DEFINED and i.value == f.value
    assert hits > 50


def test_induced_equals_total_trace_on_compact_model():
    rng = random.Random(41)
    for _ in range(100):
        a, b, u = (Obj(rng.randint(0, 3)) for _ in range(3))
        f = random_mor(Q1, rng, obj_tensor(a, u), obj_tensor(b, u))
        p = Loop(Q1, a, b, (u,), f)
        res = induced_mixed_trace(p)
        assert res.status == DEFINED
        assert res.value == total_trace(f, a, b, u)


def test_hidden_trace_examples():
    p = Loop(Z2, r1, r1, (r1, r1), mor(Z2, r1, r1, [[6]]))
    t1 = hidden_trace(p, 1)
    assert t1.carrier.entries == ((3,),) and [u.rank for u in t1.hidden] == [1]
    assert hidden_trace(p, 0) == p
    # the full trace divides by m twice and 6/4 is not integral
    assert hidden_trace(p, 2) is None
    ok = Loop(Z2, r1, r1, (r1, r1), mor(Z2, r1, r1, [[12]]))
    assert hidden_trace(ok, 2).carrier.entries == ((3,),)
    with pytest.raises(InputError):
        hidden_trace(p, 3)


def test_total_trace():
    sig = canonical_map(Q1, "symmetry", [r2, r2])
    assert total_trace(sig, r2, r2, r2) == identity(Q1, r2)

    f = mor(Q1, r2, r2, [[1, 2], [3, 4]])
    lifted = tensor_mor(f, identity(Q1, r1))
    assert total_trace(lifted, r2, r2, r1) == f

    assert total_trace(identity(Q1, Obj(4)), r2, r2, r2) == \
        mor_scale(identity(Q1, r2), 2)

    with pytest.raises(InputError):
        total_trace(identity(Z2, Obj(4)), r2, r2, r2)

    # a compact model with a non-unit mix scalar still satisfies yanking
    Q2 = Model(RATIONALS, 2)
    sig2 = canonical_map(Q2, "symmetry", [r2, r2])
    assert total_trace(sig2, r2, r2, r2) == identity(Q2, r2)


def test_m0_staircase_outcomes():
    # nonzero pairing: no solution at all
    p = Loop(Z0, r1, r1, (r1,), mor(Z0, r1, r1, [[1]]))
    assert provisional_trace(p).status == UNDEFINED
    # zero pairing with room to move: under-determined
    z = Loop(Z0, r1, r1, (r1,), mor(Z0, r1, r1, [[0]]))
    assert provisional_trace(z).status == AMBIGUOUS
    # yanking loop at m=0 is the canonical ambiguous instance
    assert free_mixed_trace(yanking_loop(Z0, r1)).status == AMBIGUOUS
    # degenerate shapes stay determined
    empty = Loop(Z0, Obj(0), r1, (r1,), mor(Z0, Obj(0), r1, [[]]))
    assert provisional_trace(empty).status == DEFINED
    zrank = Loop(Z0, r1, r1, (Obj(0),), mor(Z0, Obj(0), Obj(0), []))
    assert provisional_trace(zrank).status == DEFINED


def test_rank0_hidden_traces():
    p = Loop(Z2, r1, r1, (Obj(0),), mor(Z2, Obj(0), Obj(0), []))
    f = free_mixed_trace(p)
    assert f.status == DEFINED and f.value.entries == ((0,),)
    i = induced_mixed_trace(p)
    assert i.status == DEFINED and i.value.entries == ((0,),)


def test_axiom_suite_small():
    report = run_axiom_suite(Z2, seed=5, cases=150, max_rank=3, max_hidden=2)
    assert report.total_failures == 0
    assert Fraction(report.defined_cases["free"], 150) >= Fraction(3, 10)
    assert Fraction(report.defined_cases["induced"], 150) >= Fraction(3, 10)
    data = report.to_dict()
    assert set(data["axioms"]) == {"free", "induced"}


def test_axiom_suite_compact_integer_model():
    report = run_axiom_suite(Z1, seed=6, cases=80, max_rank=2, max_hidden=2)
    assert report.total_failures == 0
    # with m = 1 every staircase divides, so the free trace is total
    assert report.defined_cases["free"] == 80


def test_axiom_suite_flags_m0():
    report = run_axiom_suite(Z0, seed=7, cases=40, max_rank=2, max_hidden=2)
    assert len(report.stats["free"]["yanking"].failures) > 0
    assert "induced" not in report.stats
    assert report.notes


@pytest.mark.parametrize("model", [Z0, Z2], ids=["zmod:0", "zmod:2"])
def test_axiom_suite_builds_shared_loops_once(monkeypatch, model):
    # the yanking loop depends only on the rank, so a suite builds and
    # traces it at most once per rank and trace kind, and the loops a case
    # derives from p serve every kind; each case still counts its own
    # yanking check
    calls = {"yanking_loop": 0, "hidden_symmetry": 0, "loop_dual": 0,
             "post_compose": 0, "morphism_tensor_loop": 0}

    def counted(name):
        build = getattr(traces, name)

        def wrapper(*args):
            calls[name] += 1
            return build(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(traces, name, counted(name))
    report = run_axiom_suite(model, seed=3, cases=60, max_rank=2,
                             max_hidden=1)
    kinds = len(report.stats)
    assert 0 < calls["yanking_loop"] <= (2 + 1) * kinds
    assert calls["hidden_symmetry"] == calls["loop_dual"] == 60
    defined = max(report.defined_cases.values())
    assert calls["post_compose"] == calls["morphism_tensor_loop"] == defined
    for stats in report.stats.values():
        assert stats["yanking"].checked == 60
    if model.mix == 0:
        # rank 0 yanks at m = 0; every other case records its failure
        failures = report.stats["free"]["yanking"].failures
        assert 0 < len(failures) < 60
        assert len({f["case"] for f in failures}) == len(failures)


def test_vanishing_definedness_is_genuinely_one_sided():
    # the split trace can be undefined while the joint trace is defined:
    # the staircase is order-sensitive before the permutation search
    rows = [[0] * 4 for _ in range(4)]
    rows[0][0] = 2
    rows[2][2] = 2
    carrier = mor(Z2, Obj(4), Obj(4), rows)
    p = Loop(Z2, r1, r1, (r2, r2), carrier)
    q = Loop(Z2, r2, r2, (r2,), carrier)
    tq = free_mixed_trace(q)
    assert tq.status == DEFINED
    outer = Loop(Z2, r1, r1, (r2,), tq.value)
    assert free_mixed_trace(outer).status == UNDEFINED
    assert free_mixed_trace(p).status == DEFINED
    # the induced trace does not show the asymmetry on this witness
    iq = induced_mixed_trace(q)
    assert induced_mixed_trace(
        Loop(Z2, r1, r1, (r2,), iq.value)).value == \
        induced_mixed_trace(p).value

import random

import pytest

from mixtrace.category import (Model, Obj, canonical_map, compose, identity,
                               mor, obj_tensor, random_mor, tensor_mor)
from mixtrace.errors import InputError, ModelNotCompactifiableError
from mixtrace.loops import (Loop, Permutation, all_permutations,
                            compose_permutations, congruent, hidden_symmetry,
                            hide, identity_permutation, loop_compose,
                            loop_dual, loop_par, loop_tensor,
                            morphism_loop, morphism_tensor_loop,
                            one_step_congruent, yanking_loop)
from mixtrace.rings import INTEGERS, RATIONALS

Z2 = Model(INTEGERS, 2)
Z3 = Model(INTEGERS, 3)
Q1 = Model(RATIONALS, 1)
r1, r2 = Obj(1), Obj(2)


def rand_loop(model, rng, dom, cod, k, max_rank=2, bound=3):
    hidden = tuple(Obj(rng.randint(1, max_rank)) for _ in range(k))
    h = 1
    for u in hidden:
        h *= u.rank
    carrier = random_mor(model, rng, Obj(dom.rank * h), Obj(cod.rank * h),
                         bound)
    return Loop(model, dom, cod, hidden, carrier)


def test_make_loop_examples():
    p = yanking_loop(Z2, r1)
    assert p.carrier.entries == ((2,),) and p.k == 1
    f = mor(Z2, r2, r2, [[1, 2], [3, 4]])
    assert Loop(Z2, r2, r2, (), f).k == 0
    with pytest.raises(InputError):
        Loop(Z2, r1, r1, (r1,), mor(Z2, Obj(3), r2, [[0] * 3] * 2))


def test_permutations():
    assert identity_permutation(3).is_identity
    a = Permutation((1, 2, 0))
    assert a.inverse().images == (2, 0, 1)
    assert a.apply(("x", "y", "z")) == ("y", "z", "x")
    perms = list(all_permutations(3))
    assert len(perms) == 6 and perms[0].is_identity
    assert [p.images for p in perms] == sorted(p.images for p in perms)
    with pytest.raises(InputError):
        Permutation((0, 0))


def test_loop_compose_examples():
    f = mor(Z2, r2, Obj(3), [[1, 0], [2, 1], [0, 1]])
    g = mor(Z2, Obj(3), r1, [[1, 1, 1]])
    assert loop_compose(morphism_loop(g), morphism_loop(f)).carrier == \
        compose(g, f)
    six = Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[6]]))
    pre = loop_compose(six, morphism_loop(identity(Z2, r1)))
    assert pre.carrier.entries == ((6,),) and [u.rank for u in pre.hidden] == [1]
    with pytest.raises(InputError):
        loop_compose(six, morphism_loop(identity(Z2, r2)))


def test_loop_compose_associative():
    rng = random.Random(0)
    for _ in range(40):
        a, b, c, d = (Obj(rng.randint(1, 2)) for _ in range(4))
        p = rand_loop(Z2, rng, a, b, rng.randint(0, 1))
        q = rand_loop(Z2, rng, b, c, rng.randint(0, 1))
        r = rand_loop(Z2, rng, c, d, rng.randint(0, 1))
        assert loop_compose(r, loop_compose(q, p)) == \
            loop_compose(loop_compose(r, q), p)


def test_loop_tensor_examples():
    f = mor(Z2, r2, Obj(3), [[1, 0], [2, 1], [0, 1]])
    g = mor(Z2, Obj(3), r2, [[1, 1, 0], [0, 2, 1]])
    assert loop_tensor(morphism_loop(f), morphism_loop(g)).carrier == \
        tensor_mor(f, g)
    two = Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[2]]))
    tt = loop_tensor(two, two)
    assert tt.carrier.entries == ((4,),)
    assert [u.rank for u in tt.hidden] == [1, 1]


def test_tensor_extends_morphism_multiplication():
    rng = random.Random(1)
    for _ in range(30):
        p = rand_loop(Z2, rng, Obj(rng.randint(1, 2)), Obj(rng.randint(1, 2)),
                      rng.randint(0, 2))
        f = random_mor(Z2, rng, Obj(rng.randint(1, 2)), Obj(rng.randint(1, 2)))
        assert loop_tensor(morphism_loop(f), p) == morphism_tensor_loop(f, p)


def test_loop_tensor_associative():
    rng = random.Random(2)
    for _ in range(20):
        ps = [rand_loop(Z2, rng, Obj(rng.randint(1, 2)),
                        Obj(rng.randint(1, 2)), rng.randint(0, 1))
              for _ in range(3)]
        assert loop_tensor(ps[0], loop_tensor(ps[1], ps[2])) == \
            loop_tensor(loop_tensor(ps[0], ps[1]), ps[2])


def test_loop_dual():
    f = mor(Z2, r2, Obj(3), [[1, 0], [2, 1], [0, 1]])
    assert loop_dual(morphism_loop(f)).carrier.entries == ((1, 2, 0), (0, 1, 1))
    rng = random.Random(3)
    for _ in range(20):
        p = rand_loop(Z2, rng, Obj(rng.randint(1, 2)), Obj(rng.randint(1, 2)),
                      rng.randint(0, 3))
        assert loop_dual(loop_dual(p)) == p


def test_dual_commutes_with_hidden_symmetry():
    # in this strict model duality preserves the relabeling action on the
    # nose: the dual of alpha.p is alpha.(dual p), exact matrix equality,
    # and the symmetry orbits of dual loops match
    rng = random.Random(4)
    for _ in range(25):
        k = rng.randint(1, 3)
        p = rand_loop(Z2, rng, Obj(rng.randint(1, 2)), Obj(rng.randint(1, 2)), k)
        images = list(range(k))
        rng.shuffle(images)
        alpha = Permutation(tuple(images))
        assert loop_dual(hidden_symmetry(p, alpha)) == \
            hidden_symmetry(loop_dual(p), alpha)
        orbit_of_dual = {hidden_symmetry(loop_dual(p), b)
                         for b in all_permutations(k)}
        dual_of_orbit = {loop_dual(hidden_symmetry(p, b))
                         for b in all_permutations(k)}
        assert orbit_of_dual == dual_of_orbit


def test_loop_par():
    f = mor(Q1, r2, r2, [[1, 2], [3, 4]])
    g = mor(Q1, r2, r2, [[0, 1], [1, 0]])
    assert loop_par(morphism_loop(f), morphism_loop(g)).carrier == \
        tensor_mor(f, g)
    p = Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[2]]))
    q = Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[3]]))
    assert loop_par(p, q).carrier == loop_tensor(p, q).carrier
    assert loop_dual(loop_par(p, q)) == loop_tensor(loop_dual(p), loop_dual(q))


def test_hide():
    ms = canonical_map(Z2, "mixed_symmetry", [r2, r2])
    p = hide(morphism_loop(ms), r2, r2)
    assert p == yanking_loop(Z2, r2)
    with pytest.raises(InputError):
        hide(morphism_loop(identity(Z2, Obj(3))), r2, r2)
    with pytest.raises(InputError):
        hide(morphism_loop(identity(Z2, Obj(0))), Obj(0), Obj(0))


def test_hide_unit_value():
    # hiding the unit adds one hidden object, hence one more mix factor:
    # the class is unchanged exactly when the mix scalar is 1
    from fractions import Fraction

    from mixtrace.category import mor_scale
    from mixtrace.compactify import loop_value

    for model in (Q1, Z2):
        rng = random.Random(5)
        for _ in range(10):
            p = rand_loop(model, rng, r2, r2, 1)
            more = hide(Loop(model, obj_tensor(p.dom, r1),
                             obj_tensor(p.cod, r1), p.hidden, p.carrier),
                        p.dom, r1)
            expect = loop_value(p) if model.mix == 1 else \
                mor_scale(loop_value(p), Fraction(1, 2))
            assert loop_value(more) == expect


def test_hidden_symmetry():
    rng = random.Random(6)
    p = rand_loop(Z2, rng, r1, r1, 2)
    assert hidden_symmetry(p, identity_permutation(2)) is p

    m_rows = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]]
    carrier = mor(Z2, Obj(4), Obj(4), m_rows)
    q = Loop(Z2, r1, r1, (r2, r2), carrier)
    swapped = hidden_symmetry(q, Permutation((1, 0)))
    perm = mor(Z2, Obj(4), Obj(4),
               [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert swapped.carrier == compose(perm, compose(carrier, perm))

    ones = Loop(Z2, r1, r1, (r1, r1, r1), mor(Z2, r1, r1, [[5]]))
    assert hidden_symmetry(ones, Permutation((2, 0, 1))).carrier == ones.carrier


def test_hidden_symmetry_composition():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 3)
        p = rand_loop(Z2, rng, Obj(rng.randint(1, 2)), Obj(rng.randint(1, 2)), k)
        a_img = list(range(k))
        b_img = list(range(k))
        rng.shuffle(a_img)
        rng.shuffle(b_img)
        a, b = Permutation(tuple(a_img)), Permutation(tuple(b_img))
        assert hidden_symmetry(hidden_symmetry(p, b), a) == \
            hidden_symmetry(p, compose_permutations(a, b))


def test_one_step_congruent():
    six = Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[6]]))
    three = morphism_loop(mor(Z2, r1, r1, [[3]]))
    assert one_step_congruent(six, three)
    assert one_step_congruent(three, six)

    rng = random.Random(8)
    p = rand_loop(Z2, rng, r1, r2, 2)
    assert one_step_congruent(p, hidden_symmetry(p, Permutation((1, 0))))

    odd = Loop(Z2, r1, r1, (r2,), identity(Z2, r2))
    one = morphism_loop(mor(Z2, r1, r1, [[1]]))
    assert not one_step_congruent(odd, one)


def test_congruent_semantic_and_bounded():
    six = Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[6]]))
    three = morphism_loop(mor(Z2, r1, r1, [[3]]))
    assert congruent(six, three, mode="semantic") is True
    assert congruent(six, three, mode="bounded", depth=2) is True

    rng = random.Random(9)
    p = rand_loop(Z2, rng, r1, r2, 2)
    ap = hidden_symmetry(p, Permutation((1, 0)))
    assert congruent(p, ap, mode="semantic") is True
    assert congruent(p, ap, mode="bounded", depth=1) is True

    two = morphism_loop(mor(Z2, r1, r1, [[2]]))
    thr = morphism_loop(mor(Z2, r1, r1, [[3]]))
    assert congruent(two, thr, mode="semantic") is False
    assert congruent(two, thr, mode="bounded", depth=2) is False

    with pytest.raises(ModelNotCompactifiableError):
        congruent(morphism_loop(mor(Model(INTEGERS, 0), r1, r1, [[1]])),
                  morphism_loop(mor(Model(INTEGERS, 0), r1, r1, [[1]])),
                  mode="semantic")


def test_congruent_bounded_generators_and_unknown():
    three = morphism_loop(mor(Z2, r1, r1, [[3]]))
    five = morphism_loop(mor(Z2, r1, r1, [[5]]))
    six = Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[6]]))
    twelve = Loop(Z2, r1, r1, (r1, r1), mor(Z2, r1, r1, [[12]]))
    # tracing alone connects a loop with its full trace
    assert congruent(three, twelve, mode="bounded", depth=2) is True
    # un-tracing through a generator keeps one closure open: undecided
    # within depth 1, refuted once both closures are exhausted
    assert congruent(three, five, mode="bounded", depth=1,
                     generators=(six,)) is None
    assert congruent(three, five, mode="bounded", depth=4,
                     generators=(six,)) is False

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from mixtrace.category import (Model, canonical_map, compose, identity, mor,
                               mor_scale, random_mor, tensor_mor)
from mixtrace.compactify import congruent, _relabellings
from mixtrace.errors import (InputError, ModelNotCompactifiableError,
                             ResourceLimitError)
from mixtrace.loops import (Loop, Permutation, hidden_symmetry,
                            loop_compose, loop_dual, loop_tensor,
                            morphism_loop, yanking_loop)
from mixtrace import traces
from mixtrace.rings import INTEGERS, RATIONALS
from mixtrace.traces import hidden_trace

from trace_reference import (all_permutations, hide, loop_par,
                             morphism_tensor_loop, one_step_congruent,
                             post_compose, pre_compose)

Z2 = Model(INTEGERS, 2)
Z3 = Model(INTEGERS, 3)
Q1 = Model(RATIONALS, 1)
r1, r2 = 1, 2


def rand_loop(model, rng, dom, cod, k, max_rank=2, bound=3):
    hidden = tuple(rng.randint(1, max_rank) for _ in range(k))
    h = 1
    for u in hidden:
        h *= u
    carrier = random_mor(model, rng, dom * h, cod * h,
                         bound)
    return Loop(model, dom, cod, hidden, carrier)


def test_make_loop_examples():
    p = yanking_loop(Z2, r1)
    assert p.carrier.entries == ((2,),) and p.k == 1
    f = mor(Z2, r2, r2, [[1, 2], [3, 4]])
    assert Loop(Z2, r2, r2, (), f).k == 0
    with pytest.raises(InputError):
        Loop(Z2, r1, r1, (r1,), mor(Z2, 3, r2, [[0] * 3] * 2))


def test_permutations():
    assert Permutation((0, 1, 2)).is_identity
    a = Permutation((1, 2, 0))
    assert a.inverse().images == (2, 0, 1)
    assert a.apply(("x", "y", "z")) == ("y", "z", "x")
    perms = list(all_permutations(3))
    assert len(perms) == 6 and perms[0].is_identity
    assert [p.images for p in perms] == sorted(p.images for p in perms)
    with pytest.raises(InputError):
        Permutation((0, 0))


def test_loop_compose_examples():
    f = mor(Z2, r2, 3, [[1, 0], [2, 1], [0, 1]])
    g = mor(Z2, 3, r1, [[1, 1, 1]])
    assert loop_compose(morphism_loop(g), morphism_loop(f)).carrier == \
        compose(g, f)
    six = Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[6]]))
    pre = loop_compose(six, morphism_loop(identity(Z2, r1)))
    assert pre.carrier.entries == ((6,),) and list(pre.hidden) == [1]
    with pytest.raises(InputError):
        loop_compose(six, morphism_loop(identity(Z2, r2)))


def test_loop_compose_associative():
    rng = random.Random(0)
    for _ in range(40):
        a, b, c, d = (rng.randint(1, 2) for _ in range(4))
        p = rand_loop(Z2, rng, a, b, rng.randint(0, 1))
        q = rand_loop(Z2, rng, b, c, rng.randint(0, 1))
        r = rand_loop(Z2, rng, c, d, rng.randint(0, 1))
        assert loop_compose(r, loop_compose(q, p)) == \
            loop_compose(loop_compose(r, q), p)


def test_loop_tensor_examples():
    f = mor(Z2, r2, 3, [[1, 0], [2, 1], [0, 1]])
    g = mor(Z2, 3, r2, [[1, 1, 0], [0, 2, 1]])
    assert loop_tensor(morphism_loop(f), morphism_loop(g)).carrier == \
        tensor_mor(f, g)
    two = Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[2]]))
    tt = loop_tensor(two, two)
    assert tt.carrier.entries == ((4,),)
    assert list(tt.hidden) == [1, 1]


# Each form of a loop with morphisms, as the reference builds it on the
# carrier and as the loop algebra builds it from morphism loops; the last
# is the axiom suite's naturality loop g . p . f.
MORPHISM_FORMS = {
    "pre_compose": (
        lambda p, f, g, h: pre_compose(p, f),
        lambda p, f, g, h: loop_compose(p, morphism_loop(f))),
    "post_compose": (
        lambda p, f, g, h: post_compose(g, p),
        lambda p, f, g, h: loop_compose(morphism_loop(g), p)),
    "morphism_tensor_loop": (
        lambda p, f, g, h: morphism_tensor_loop(h, p),
        lambda p, f, g, h: loop_tensor(morphism_loop(h), p)),
    "naturality": (
        lambda p, f, g, h: post_compose(g, pre_compose(p, f)),
        lambda p, f, g, h: loop_compose(morphism_loop(g),
                                        loop_compose(p, morphism_loop(f)))),
}


def _entries_mor(model, rng, dom, cod):
    """A random matrix with int entries over Z and quotients over Q."""
    def entry():
        v = rng.randint(-3, 3)
        return v if model.ring == INTEGERS else Fraction(v, rng.randint(1, 4))
    return mor(model, dom, cod,
               [[entry() for _ in range(dom)] for _ in range(cod)])


@pytest.mark.parametrize("name", list(MORPHISM_FORMS))
@pytest.mark.parametrize("model", [Z2, Model(RATIONALS, Fraction(1, 2))],
                         ids=["Z", "Q"])
def test_loop_algebra_matches_the_morphism_forms(model, name):
    # a morphism is the loop with an empty hidden part, and composing or
    # tensoring with it is the loop algebra's own operation: hidden parts
    # of 0-3 objects of rank 0-3, so rank 0 and 1 blocks and empty parts
    # are all drawn
    oracle, algebra = MORPHISM_FORMS[name]
    rng = random.Random(f"morphism-forms:{name}")
    drawn = set()
    for _ in range(60):
        hidden = tuple(rng.randint(0, 3)
                       for _ in range(rng.randint(0, 3)))
        size = prod(hidden)
        a, b, x, y = (rng.randint(0, 2) for _ in range(4))
        p = Loop(model, a, b, hidden, _entries_mor(
            model, rng, a * size, b * size))
        f = _entries_mor(model, rng, x, a)
        g = _entries_mor(model, rng, b, y)
        h = _entries_mor(model, rng, x, y)
        assert algebra(p, f, g, h) == oracle(p, f, g, h)
        drawn.add(f"k={min(len(hidden), 1)}")
        drawn.update(f"rank {u}" for u in hidden)
    assert drawn == {"k=0", "k=1", "rank 0", "rank 1", "rank 2", "rank 3"}


def test_loop_tensor_associative():
    rng = random.Random(2)
    for _ in range(20):
        ps = [rand_loop(Z2, rng, rng.randint(1, 2),
                        rng.randint(1, 2), rng.randint(0, 1))
              for _ in range(3)]
        assert loop_tensor(ps[0], loop_tensor(ps[1], ps[2])) == \
            loop_tensor(loop_tensor(ps[0], ps[1]), ps[2])


def test_loop_dual():
    f = mor(Z2, r2, 3, [[1, 0], [2, 1], [0, 1]])
    assert loop_dual(morphism_loop(f)).carrier.entries == ((1, 2, 0), (0, 1, 1))
    rng = random.Random(3)
    for _ in range(20):
        p = rand_loop(Z2, rng, rng.randint(1, 2), rng.randint(1, 2),
                      rng.randint(0, 3))
        assert loop_dual(loop_dual(p)) == p


def test_dual_commutes_with_hidden_symmetry():
    # in this strict model duality preserves the relabeling action on the
    # nose: the dual of alpha.p is alpha.(dual p), exact matrix equality,
    # and the symmetry orbits of dual loops match
    rng = random.Random(4)
    for _ in range(25):
        k = rng.randint(1, 3)
        p = rand_loop(Z2, rng, rng.randint(1, 2), rng.randint(1, 2), k)
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
        hide(morphism_loop(identity(Z2, 3)), r2, r2)
    with pytest.raises(InputError):
        hide(morphism_loop(identity(Z2, 0)), 0, 0)


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
            more = hide(p, p.dom, r1)
            expect = loop_value(p) if model.mix == 1 else \
                mor_scale(loop_value(p), Fraction(1, 2))
            assert loop_value(more) == expect


def test_hidden_symmetry():
    rng = random.Random(6)
    p = rand_loop(Z2, rng, r1, r1, 2)
    assert hidden_symmetry(p, Permutation((0, 1))) is p

    m_rows = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]]
    carrier = mor(Z2, 4, 4, m_rows)
    q = Loop(Z2, r1, r1, (r2, r2), carrier)
    swapped = hidden_symmetry(q, Permutation((1, 0)))
    perm = mor(Z2, 4, 4,
               [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert swapped.carrier == compose(perm, compose(carrier, perm))

    ones = Loop(Z2, r1, r1, (r1, r1, r1), mor(Z2, r1, r1, [[5]]))
    assert hidden_symmetry(ones, Permutation((2, 0, 1))).carrier == ones.carrier


def test_hidden_symmetry_composition():
    rng = random.Random(7)
    for _ in range(20):
        k = rng.randint(1, 3)
        p = rand_loop(Z2, rng, rng.randint(1, 2), rng.randint(1, 2), k)
        a_img = list(range(k))
        b_img = list(range(k))
        rng.shuffle(a_img)
        rng.shuffle(b_img)
        a, b = Permutation(tuple(a_img)), Permutation(tuple(b_img))
        # b first, then a: slot i of the result is slot b[a[i]] of p
        ab = Permutation(tuple(b.images[i] for i in a.images))
        assert hidden_symmetry(hidden_symmetry(p, b), a) == \
            hidden_symmetry(p, ab)


def test_relabellings_match_all_of_s_k():
    # the distinct relabellings reach the same loops as all of S_k, each
    # once, in lexicographic order, and there are k!/(n0!*n1!) of them;
    # k!/prod(n_r!) over every rank r when a rank-0 object empties the
    # carrier
    rng = random.Random(11)
    for _ in range(150):
        ranks = [rng.randint(0, 3) for _ in range(rng.randint(0, 5))]
        while prod(ranks) > 24:
            ranks[ranks.index(max(ranks))] = 1
        hidden = tuple(ranks)
        h = prod(ranks)
        p = Loop(Z2, r1, r2, hidden,
                 random_mor(Z2, rng, h, 2 * h, 3))
        k = p.k
        images = [a.images for a in _relabellings(p)]
        assert images == sorted(set(images))
        free = set(ranks) if h == 0 else {0, 1}
        assert len(images) == factorial(k) // prod(
            factorial(ranks.count(r)) for r in free)
        assert {hidden_symmetry(p, a) for a in _relabellings(p)} == \
            {hidden_symmetry(p, a) for a in all_permutations(k)}


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


def rank_two_among_rank_ones(k):
    """One rank-2 and k-1 rank-1 hidden objects over a 2x2 carrier, and
    the same loop with the rank-2 object moved last."""
    p = Loop(Z2, r1, r1, (r2,) + (r1,) * (k - 1),
             mor(Z2, r2, r2, [[1, 2], [3, 4]]))
    return p, hidden_symmetry(p, Permutation(tuple(range(1, k)) + (0,)))


@pytest.mark.parametrize("k", [6, 7, 9])
def test_one_hidden_symmetry_apart_past_six(k):
    p, q = rank_two_among_rank_ones(k)
    assert p != q and q.hidden[-1] == r2
    assert one_step_congruent(p, q) and one_step_congruent(q, p)
    assert congruent(p, q, mode="bounded", depth=1) is True
    # only the position of the rank-2 object is free
    assert len(list(_relabellings(p))) == k


def test_relabelling_bound():
    # 7!/1! = 5040 distinct relabellings of a carrier with entries
    rng = random.Random(720)
    p = Loop(Z2, r1, r1, (r2,) * 6 + (r1,),
             mor_scale(random_mor(Z2, rng, 64, 64, 3), 2))
    q = hidden_symmetry(p, Permutation((6, 0, 1, 2, 3, 4, 5)))
    assert p != q
    with pytest.raises(ResourceLimitError, match="5040 .* 720"):
        one_step_congruent(p, q)
    with pytest.raises(ResourceLimitError, match="5040 .* 720"):
        congruent(p, q, mode="bounded", depth=1)
    # a hidden trace that matches is found before the relabellings
    assert one_step_congruent(p, hidden_trace(p, 1))


def test_entry_less_carrier_relabels_by_rank_sequence():
    # a rank-0 hidden object empties the carrier, so only the sequence of
    # hidden ranks tells relabellings apart: 7!/(4!*2!*1!) = 105 of them
    ranks = (2, 2, 2, 2, 0, 0, 1)
    z = 0
    p = Loop(Z2, r1, r1, ranks, mor(Z2, z, z, []))
    q = hidden_symmetry(p, Permutation((4, 0, 1, 2, 3, 5, 6)))
    assert p != q
    assert len(list(_relabellings(p))) == 105
    assert one_step_congruent(p, q)
    assert congruent(p, q, mode="bounded", depth=1) is True
    # an endpoint of rank 0 empties it too: 3!/(2!*1!) = 3 relabellings
    e = Loop(Z2, z, r1, (r2, r2, 3), mor(Z2, z, 12, [[]] * 12))
    assert len(list(_relabellings(e))) == 3


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
    with pytest.raises(InputError, match="^unknown congruence mode 'x'$"):
        congruent(two, two, mode="x")


def test_bounded_says_unknown_where_the_values_agree():
    # the criterion-4 loop and [[1]] are congruent (semantic), four free
    # moves apart through an un-tracing no generator supplies: both
    # closures run out, and the bounded search must not say False
    p = Loop(Z2, r1, r1, (r2,), identity(Z2, r2))
    one = morphism_loop(mor(Z2, r1, r1, [[1]]))
    assert congruent(p, one, mode="semantic") is True
    assert congruent(p, one, mode="bounded", depth=4) is None
    # loops whose values differ are still refuted, and at m = 0, where no
    # value exists, exhausted closures still refute
    assert congruent(p, morphism_loop(mor(Z2, r1, r1, [[3]])),
                     mode="bounded", depth=4) is False
    z0 = Model(INTEGERS, 0)
    assert congruent(morphism_loop(mor(z0, r1, r1, [[1]])),
                     morphism_loop(mor(z0, r1, r1, [[2]])),
                     mode="bounded", depth=4) is False


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
    # depth 0 compares the loops as given; a negative depth is an input
    # error, not an undecided search
    assert congruent(three, three, mode="bounded", depth=0) is True
    assert congruent(three, five, mode="bounded", depth=0) is None
    with pytest.raises(InputError):
        congruent(three, five, mode="bounded", depth=-1)


def test_congruent_bounded_traces_each_generator_once(monkeypatch):
    calls = []
    real = traces.hidden_trace

    def counted(p, tail_len):
        calls.append(tail_len)
        return real(p, tail_len)

    monkeypatch.setattr(traces, "hidden_trace", counted)
    rng = random.Random(0)

    def loop():
        return Loop(Z2, r1, r1, (r2, r2, r1),
                    random_mor(Z2, rng, 4, 4))

    p, q = loop(), loop()
    generators = [loop() for _ in range(5)]
    assert congruent(p, q, mode="bounded", depth=2) is False
    assert len(calls) == 36
    calls.clear()
    # 36 for the two closures, then 3 tails for each of 5 generators,
    # where tracing them for every frontier loop took 216
    assert congruent(p, q, mode="bounded", depth=2,
                     generators=generators) is False
    assert len(calls) == 36 + 15

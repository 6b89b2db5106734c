"""Differential tests: every structural map built by ``regroup`` against
the index loops and dense permutation conjugations in ``trace_reference``,
on seeded random shapes with rank-0 and rank-1 factors; and the
properties of ``regroup`` itself."""

import random
from fractions import Fraction
from math import prod

import pytest

from mixtrace.category import (Model, curry, dual_mor, factor_permutation,
                               random_mor, regroup, uncurry)
from mixtrace.errors import InputError
from mixtrace.loops import (Loop, Permutation, hidden_symmetry, loop_compose,
                            loop_tensor)
from mixtrace.rings import INTEGERS, RATIONALS
from mixtrace.traces import pairing_form

from trace_reference import (curry_by_loops, factor_permutation_by_product,
                             hidden_symmetry_by_conjugation,
                             loop_compose_by_conjugation,
                             loop_tensor_by_conjugation,
                             pairing_form_by_loops, uncurry_by_loops)

MODELS = (Model(INTEGERS, 2), Model(RATIONALS, Fraction(1, 2)))
CASES = 150


def _rank(rng):
    return rng.choice((0, 1, 1, 2, 2, 3))


def _loop(rng, model, dom=None, max_k=3):
    hidden = tuple(_rank(rng) for _ in range(rng.randint(0, max_k)))
    dom = dom if dom is not None else _rank(rng)
    cod = _rank(rng)
    h = prod(hidden)
    return Loop(model, dom, cod, hidden,
                random_mor(model, rng, dom * h, cod * h))


def _permutation(rng, k):
    images = list(range(k))
    rng.shuffle(images)
    return Permutation(tuple(images))


def _shape(rng, n):
    return [_rank(rng) for _ in range(n)]


def test_factor_permutation_matches_product_loop():
    rng = random.Random("regroup:perm")
    for _ in range(CASES):
        dims = _shape(rng, rng.randint(0, 4))
        pos_map = _permutation(rng, len(dims)).images
        model = rng.choice(MODELS)
        assert factor_permutation(model, dims, pos_map) == \
            factor_permutation_by_product(model, dims, pos_map)


def test_curry_and_uncurry_match_index_loops():
    rng = random.Random("regroup:curry")
    for _ in range(CASES):
        model = rng.choice(MODELS)
        a, b, c = (_rank(rng) for _ in range(3))
        f = random_mor(model, rng, a * b, c)
        g = random_mor(model, rng, a, c * b)
        assert curry(f, a, b, c) == curry_by_loops(f, a, b, c)
        assert uncurry(g, a, b, c) == uncurry_by_loops(g, a, b, c)
        assert uncurry(curry(f, a, b, c), a, b, c) == f


def test_pairing_form_matches_index_loops():
    rng = random.Random("regroup:pairing")
    for _ in range(CASES):
        p = _loop(rng, rng.choice(MODELS))
        assert pairing_form(p) == pairing_form_by_loops(p)


def test_hidden_symmetry_matches_conjugation():
    rng = random.Random("regroup:symmetry")
    for _ in range(CASES):
        p = _loop(rng, rng.choice(MODELS), max_k=4)
        alpha = _permutation(rng, p.k)
        assert hidden_symmetry(p, alpha) == \
            hidden_symmetry_by_conjugation(p, alpha)


def test_loop_compose_and_tensor_match_conjugation():
    rng = random.Random("regroup:loops")
    for _ in range(CASES):
        model = rng.choice(MODELS)
        p = _loop(rng, model, max_k=2)
        q = _loop(rng, model, dom=p.cod, max_k=2)
        assert loop_compose(q, p) == loop_compose_by_conjugation(q, p)
        assert loop_tensor(p, q) == loop_tensor_by_conjugation(p, q)


def test_regroup_by_inverse_slot_order_gives_back_f():
    rng = random.Random("regroup:inverse")
    for _ in range(CASES):
        model = rng.choice(MODELS)
        row_dims = _shape(rng, rng.randint(0, 3))
        col_dims = _shape(rng, rng.randint(0, 3))
        f = random_mor(model, rng, prod(col_dims), prod(row_dims))
        dims = row_dims + col_dims
        slots = _permutation(rng, len(dims)).images
        split = rng.randint(0, len(dims))
        rows, cols = slots[:split], slots[split:]
        g = regroup(f, row_dims, col_dims, rows, cols)
        # slot rows[i] now sits at position i of the new slot order
        where = {s: i for i, s in enumerate(rows + cols)}
        back = regroup(g, [dims[s] for s in rows], [dims[s] for s in cols],
                       [where[s] for s in range(len(row_dims))],
                       [where[s] for s in range(len(row_dims), len(dims))])
        assert back == f


def test_regroup_keeps_or_transposes():
    model = MODELS[0]
    f = random_mor(model, random.Random(1), 3, 2)
    assert regroup(f, [2], [3], [1], [0]) == dual_mor(f)
    assert dual_mor(f).entries == tuple(zip(*f.entries))
    assert regroup(f, [2], [3], [0], [1]) == f


@pytest.mark.parametrize("row_dims,col_dims,rows,cols", [
    ([3], [3], [1], [0]),        # row factors do not multiply to 2
    ([2], [2], [1], [0]),        # column factors do not multiply to 3
    ([2], [3], [0], [0]),        # a slot used twice, one missing
    ([2], [3], [0, 1], [2]),     # a slot that does not exist
    ([2], [3], [1], []),         # a slot left out
])
def test_regroup_rejects_mismatched_shapes(row_dims, col_dims, rows, cols):
    f = random_mor(MODELS[0], random.Random(2), 3, 2)
    with pytest.raises(InputError):
        regroup(f, row_dims, col_dims, rows, cols)

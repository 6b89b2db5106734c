"""Differential tests: permutations built and read as index maps against
the dense builder in ``trace_reference`` on every shape of up to four
factors of rank at most 4, composed and tensored against the library's
matrix ``compose`` and ``tensor_mor``; and the times rule against its old
three-product composite at every rank 4-tuple up to 3."""

import itertools
from fractions import Fraction
from math import prod

import pytest

from mixtrace.category import (Model, _after, _flat_offsets, _index_map,
                               _permutation_mor, _same_map, _tensor_maps,
                               canonical_map, compose, factor_permutation,
                               identity, mor, mor_scale, tensor_mor)
from mixtrace.rings import INTEGERS, RATIONALS

from trace_reference import factor_permutation_dense, times_rule_by_products

Z2 = Model(INTEGERS, 2)
Q = Model(RATIONALS, Fraction(1, 2))
# every dims of up to four factors of rank <= 4, so of product <= 4^4
SHAPES = [dims for k in range(5)
          for dims in itertools.product(range(5), repeat=k)]


def _pos_maps(k):
    return list(itertools.permutations(range(k)))


def test_every_factor_permutation_matches_the_dense_builder():
    for dims in SHAPES:
        for pos_map in _pos_maps(len(dims)):
            dense = factor_permutation_dense(Z2, dims, pos_map)
            p = _flat_offsets(dims, pos_map)
            assert factor_permutation(Z2, dims, pos_map) == dense
            assert _index_map(dense) == tuple(p)


def test_identity_is_the_unit_matrix():
    for n in range(17):
        assert identity(Z2, n).entries == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def test_index_maps_compose_as_their_matrices():
    # each map after the next one in the order of pos_maps on its dims;
    # dense products past 4^3 rows only make the test slow
    for dims in SHAPES:
        if prod(dims) > 4 ** 3:
            continue
        pos_maps = _pos_maps(len(dims))
        for f_pos, g_pos in zip(pos_maps, pos_maps[1:] + pos_maps[:1]):
            f = factor_permutation_dense(Q, dims, f_pos)
            g = factor_permutation_dense(Q, dims, g_pos)
            composite = _after(_index_map(g), _index_map(f))
            assert _permutation_mor(Q, composite) == compose(g, f)


# the right factors of the tensor test: every permutation of one or two
# factors of rank <= 3
RIGHT = [(dims, pos_map) for k in (1, 2)
         for dims in itertools.product(range(4), repeat=k)
         for pos_map in _pos_maps(k)]


def test_index_maps_tensor_as_their_matrices():
    for dims in SHAPES:
        if len(dims) > 2:
            continue
        for pos_map in _pos_maps(len(dims)):
            f = factor_permutation_dense(Z2, dims, pos_map)
            for right in RIGHT:
                g = factor_permutation_dense(Z2, *right)
                tensored = _tensor_maps(_index_map(f), _index_map(g))
                assert _permutation_mor(Z2, tensored) == tensor_mor(f, g)


@pytest.mark.parametrize("ranks", list(itertools.product(range(4),
                                                         repeat=4)))
def test_times_rule_matches_its_three_products(ranks):
    assert canonical_map(Z2, "times_rule", ranks) == \
        times_rule_by_products(Z2, *ranks)


r2, r3 = 2, 3


@pytest.mark.parametrize("f", [
    mor_scale(identity(Z2, r2), 2),               # an entry 2
    mor(Z2, r2, r2, [[1, 0], [1, 0]]),            # a column hit twice
    mor(Z2, r2, r2, [[1, 1], [0, 1]]),            # two entries in a row
    mor(Z2, r2, r2, [[0, 0], [0, 1]]),            # a row of zeros
    mor(Z2, r2, r2, [[-1, 0], [0, 1]]),           # an entry -1
    mor(Z2, r2, r3, [[1, 0], [0, 1], [0, 0]]),    # not square
    mor(Q, r2, r2, [[Fraction(1, 2), 0], [0, 1]]),
], ids=["doubled", "column-twice", "row-twice", "zero-row", "minus-one",
        "not-square", "half"])
def test_a_matrix_that_is_no_permutation_has_no_index_map(f):
    assert _index_map(f) is None


def test_an_unusable_map_equals_nothing():
    # None stands for a builder matrix that is no permutation matrix: it
    # equals no map, not even another None, and it spoils every composite
    # and tensor, save a tensor with an empty map, whose matrix is empty
    assert not _same_map(None, None)
    assert not _same_map(None, (0,)) and not _same_map((0,), None)
    assert _same_map((1, 0), (1, 0)) and _same_map((), ())
    assert _after(None, (0, 1)) is None and _after((1, 0), None) is None
    assert _tensor_maps(None, (0,)) is None
    assert _tensor_maps((1, 0), None) is None
    assert _tensor_maps(None, ()) == () and _tensor_maps((), None) == ()

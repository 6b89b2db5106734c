import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mixtrace.category import (Model, Obj, UNIT, canonical_map, compose,
                               contract_hidden, curry, dual_mor,
                               factor_permutation, identity, mor, mor_scale,
                               obj_tensor, random_mor, tensor_mor,
                               uncurry, validate_coherence, zero_mor)
from mixtrace.errors import InputError
from mixtrace.rings import INTEGERS, RATIONALS

Z2 = Model(INTEGERS, 2)
Q1 = Model(RATIONALS, 1)

entry = st.integers(-6, 6)


def matrices(rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def test_identity_examples():
    assert identity(Z2, Obj(2)).entries == ((1, 0), (0, 1))
    assert identity(Z2, Obj(0)).entries == ()
    assert identity(Z2, Obj(1)).entries == ((1,),)


def test_compose_examples():
    two = mor(Z2, Obj(1), Obj(1), [[2]])
    three = mor(Z2, Obj(1), Obj(1), [[3]])
    assert compose(two, three).entries == ((6,),)
    f = mor(Z2, Obj(2), Obj(3), [[1, 2], [3, 4], [5, 6]])
    assert compose(identity(Z2, Obj(3)), f) == f
    row = mor(Z2, Obj(2), Obj(1), [[1, 1]])
    col = mor(Z2, Obj(1), Obj(2), [[1], [1]])
    assert compose(row, col).entries == ((2,),)


def test_compose_shape_errors():
    f = mor(Z2, Obj(2), Obj(2), [[1, 0], [0, 1]])
    g = mor(Z2, Obj(3), Obj(3), identity(Z2, Obj(3)).entries)
    with pytest.raises(InputError):
        compose(g, f)
    with pytest.raises(InputError):
        compose(identity(Q1, Obj(2)), f)


def test_tensor_examples():
    assert tensor_mor(mor(Z2, Obj(1), Obj(1), [[2]]),
                      mor(Z2, Obj(1), Obj(1), [[3]])).entries == ((6,),)
    assert tensor_mor(identity(Z2, Obj(2)), identity(Z2, Obj(3))) == \
        identity(Z2, Obj(6))
    col = mor(Z2, Obj(1), Obj(2), [[1], [0]])
    one = mor(Z2, Obj(1), Obj(1), [[1]])
    assert tensor_mor(col, one).entries == ((1,), (0,))


def test_dual_examples():
    f = mor(Z2, Obj(2), Obj(2), [[1, 2], [3, 4]])
    assert dual_mor(f).entries == ((1, 3), (2, 4))
    assert dual_mor(identity(Z2, Obj(3))) == identity(Z2, Obj(3))
    assert dual_mor(dual_mor(f)) == f


@given(matrices(2, 2), matrices(2, 2))
def test_dual_contravariant(a_rows, b_rows):
    a = mor(Z2, Obj(2), Obj(2), a_rows)
    b = mor(Z2, Obj(2), Obj(2), b_rows)
    assert dual_mor(compose(a, b)) == compose(dual_mor(b), dual_mor(a))


@given(matrices(2, 2), matrices(2, 2), matrices(3, 2), matrices(2, 3))
@settings(max_examples=40)
def test_tensor_functorial(f1r, f2r, g1r, g2r):
    f1 = mor(Z2, Obj(2), Obj(2), f1r)
    f2 = mor(Z2, Obj(2), Obj(2), f2r)
    g1 = mor(Z2, Obj(2), Obj(3), g1r)
    g2 = mor(Z2, Obj(3), Obj(2), g2r)
    lhs = tensor_mor(compose(f2, f1), compose(g2, g1))
    rhs = compose(tensor_mor(f2, g2), tensor_mor(f1, g1))
    assert lhs == rhs


def test_canonical_examples():
    coev = canonical_map(Z2, "coev", [Obj(2)])
    assert coev.entries == ((1,), (0,), (0,), (1,))
    assert canonical_map(Z2, "ev", [Obj(2)]).entries == ((1, 0, 0, 1),)
    assert canonical_map(Z2, "mix", []).entries == ((2,),)
    assert canonical_map(Z2, "mixed_ev", [Obj(2)]).entries == ((2, 0, 0, 2),)
    mix23 = canonical_map(Z2, "mix_map", [Obj(2), Obj(3)])
    assert mix23 == mor_scale(identity(Z2, Obj(6)), 2)
    ms = canonical_map(Z2, "mixed_symmetry", [Obj(1), Obj(1)])
    assert ms.entries == ((2,),)
    with pytest.raises(InputError):
        canonical_map(Z2, "mix_map", [Obj(1)])
    with pytest.raises(InputError):
        canonical_map(Z2, "no_such_map", [])


def test_mix_map_from_composite():
    # the defining composite through currying and the mixed evaluation
    a, b = Obj(2), Obj(3)
    inner = tensor_mor(identity(Z2, a), canonical_map(Z2, "mixed_ev", [b]))
    via = curry(inner, obj_tensor(a, b), b, a)
    assert via == canonical_map(Z2, "mix_map", [a, b])


def test_mixed_symmetry_from_composition():
    a, b = Obj(2), Obj(2)
    ms = canonical_map(Z2, "mixed_symmetry", [a, b])
    tau = canonical_map(Z2, "par_symmetry", [a, b])
    sig = canonical_map(Z2, "symmetry", [a, b])
    assert ms == compose(tau, canonical_map(Z2, "mix_map", [a, b]))
    assert ms == compose(canonical_map(Z2, "mix_map", [b, a]), sig)


def test_curry_examples():
    f = mor(Z2, Obj(2), Obj(1), [[5, 7]])
    th = curry(f, UNIT, Obj(2), UNIT)
    assert th.entries == ((5,), (7,))
    assert uncurry(th, UNIT, Obj(2), UNIT) == f


@given(matrices(3, 6))
@settings(max_examples=30)
def test_curry_bijection(rows):
    f = mor(Z2, Obj(6), Obj(3), rows)
    assert uncurry(curry(f, Obj(2), Obj(3), Obj(3)), Obj(2), Obj(3), Obj(3)) == f


@given(matrices(2, 4), matrices(3, 2))
@settings(max_examples=30)
def test_curry_natural_in_target(frows, prows):
    # post-composition commutes with currying through the par side
    f = mor(Z2, Obj(4), Obj(2), frows)
    phi = mor(Z2, Obj(2), Obj(3), prows)
    lhs = curry(compose(phi, f), Obj(2), Obj(2), Obj(3))
    rhs = compose(tensor_mor(phi, identity(Z2, Obj(2))),
                  curry(f, Obj(2), Obj(2), Obj(2)))
    assert lhs == rhs


@given(matrices(6, 2), matrices(2, 2))
@settings(max_examples=30)
def test_uncurry_natural_in_source(grows, prows):
    g = mor(Z2, Obj(2), Obj(6), grows)  # 2 -> (2 par 3*)
    psi = mor(Z2, Obj(2), Obj(2), prows)
    lhs = uncurry(compose(g, psi), Obj(2), Obj(3), Obj(2))
    rhs = compose(uncurry(g, Obj(2), Obj(3), Obj(2)),
                  tensor_mor(psi, identity(Z2, Obj(3))))
    assert lhs == rhs


def test_curry_note_composite():
    # the bijection agrees with its coevaluation/distributivity composite
    rng = random.Random(4)
    for _ in range(25):
        a, b, c = (Obj(rng.randint(0, 3)) for _ in range(3))
        f = random_mor(Z2, rng, obj_tensor(a, b), c)
        via = compose(
            tensor_mor(f, identity(Z2, b)),
            compose(canonical_map(Z2, "distributivity", [a, b, b]),
                    tensor_mor(identity(Z2, a),
                               canonical_map(Z2, "coev", [b]))))
        assert via == curry(f, a, b, c)
    # the currying of an identity is the coevaluation-style flattening
    a, b = Obj(2), Obj(3)
    ab = obj_tensor(a, b)
    flat = curry(identity(Z2, ab), a, b, ab)
    via = compose(
        tensor_mor(identity(Z2, ab), identity(Z2, b)),
        compose(canonical_map(Z2, "distributivity", [a, b, b]),
                tensor_mor(identity(Z2, a), canonical_map(Z2, "coev", [b]))))
    assert flat == via


def test_curry_naturality_random_ranks():
    rng = random.Random(12)
    for _ in range(40):
        a, b, c, c2, a2 = (Obj(rng.randint(0, 3)) for _ in range(5))
        f = random_mor(Z2, rng, obj_tensor(a, b), c)
        phi = random_mor(Z2, rng, c, c2)
        assert curry(compose(phi, f), a, b, c2) == \
            compose(tensor_mor(phi, identity(Z2, b)), curry(f, a, b, c))
        g = curry(f, a, b, c)
        psi = random_mor(Z2, rng, a2, a)
        assert uncurry(compose(g, psi), a2, b, c) == \
            compose(uncurry(g, a, b, c), tensor_mor(psi, identity(Z2, b)))


def test_mix_composite_up_to_rank_four():
    for ar in range(0, 5):
        for br in range(0, 5):
            a, b = Obj(ar), Obj(br)
            inner = tensor_mor(identity(Z2, a),
                               canonical_map(Z2, "mixed_ev", [b]))
            via = curry(inner, obj_tensor(a, b), b, a)
            assert via == mor_scale(identity(Z2, Obj(ar * br)), 2)


def test_factor_permutation_shapes():
    p = factor_permutation(Z2, [2, 3], [1, 0])
    assert p.dom.rank == 6 and compose(p, dual_mor(p)) == identity(Z2, Obj(6))
    with pytest.raises(InputError):
        factor_permutation(Z2, [2, 3], [0, 0])


def test_contract_hidden():
    f = identity(Z2, Obj(4))
    out = contract_hidden(f, Obj(2), Obj(2), [Obj(2)])
    assert out == mor_scale(identity(Z2, Obj(2)), 2)
    g = mor(Z2, Obj(2), Obj(2), [[1, 2], [3, 4]])
    assert contract_hidden(g, Obj(2), Obj(2), []) == g


def test_zero_rank_matrices():
    e = zero_mor(Z2, Obj(0), Obj(3))
    f = zero_mor(Z2, Obj(3), Obj(0))
    assert compose(f, e).entries == ()
    assert tensor_mor(e, identity(Z2, Obj(2))).dom.rank == 0


def test_model_validation():
    with pytest.raises(InputError):
        Model(INTEGERS, Fraction(1, 2))
    assert Model(RATIONALS, 2).is_compact
    assert Model(INTEGERS, 1).is_compact
    assert not Z2.is_compact
    assert not Model(INTEGERS, 0).is_compact


@pytest.mark.parametrize("model", [
    Model(INTEGERS, 0), Model(INTEGERS, 1), Model(INTEGERS, 2),
    Model(INTEGERS, 3), Q1,
])
def test_validate_coherence(model):
    report = validate_coherence(model, 2)
    failed = [c.name for c in report.checks if not c.passed]
    assert report.ok, failed

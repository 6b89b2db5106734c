import random
import re
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from mixtrace import category
from mixtrace.category import (Model, canonical_map, compose, contract_hidden,
                               curry, dual_mor, factor_permutation, identity,
                               mor, mor_scale, random_mor, tensor_mor, uncurry,
                               validate_coherence, whisker, zero_mor)
from mixtrace.errors import InputError, ResourceLimitError
from mixtrace.loops import (Loop, Permutation, hidden_symmetry, loop_compose,
                            loop_tensor, morphism_loop, yanking_loop)
from mixtrace.rings import INTEGERS, RATIONALS, RingTag, localized_integers
from mixtrace.zigzag import Diagram, ZigZagInstance

from trace_reference import is_compact

Z2 = Model(INTEGERS, 2)
Z3 = Model(INTEGERS, 3)
Q1 = Model(RATIONALS, 1)
r1, r2 = 1, 2

entry = st.integers(-6, 6)


def matrices(rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def test_identity_examples():
    assert identity(Z2, 2).entries == ((1, 0), (0, 1))
    assert identity(Z2, 0).entries == ()
    assert identity(Z2, 1).entries == ((1,),)


def test_compose_examples():
    two = mor(Z2, 1, 1, [[2]])
    three = mor(Z2, 1, 1, [[3]])
    assert compose(two, three).entries == ((6,),)
    f = mor(Z2, 2, 3, [[1, 2], [3, 4], [5, 6]])
    assert compose(identity(Z2, 3), f) == f
    row = mor(Z2, 2, 1, [[1, 1]])
    col = mor(Z2, 1, 2, [[1], [1]])
    assert compose(row, col).entries == ((2,),)


def test_compose_shape_errors():
    f = mor(Z2, 2, 2, [[1, 0], [0, 1]])
    g = mor(Z2, 3, 3, identity(Z2, 3).entries)
    with pytest.raises(InputError):
        compose(g, f)
    with pytest.raises(InputError):
        compose(identity(Q1, 2), f)


def test_tensor_examples():
    assert tensor_mor(mor(Z2, 1, 1, [[2]]),
                      mor(Z2, 1, 1, [[3]])).entries == ((6,),)
    assert tensor_mor(identity(Z2, 2), identity(Z2, 3)) == \
        identity(Z2, 6)
    col = mor(Z2, 1, 2, [[1], [0]])
    one = mor(Z2, 1, 1, [[1]])
    assert tensor_mor(col, one).entries == ((1,), (0,))


def test_dual_examples():
    f = mor(Z2, 2, 2, [[1, 2], [3, 4]])
    assert dual_mor(f).entries == ((1, 3), (2, 4))
    assert dual_mor(identity(Z2, 3)) == identity(Z2, 3)
    assert dual_mor(dual_mor(f)) == f


@given(matrices(2, 2), matrices(2, 2))
def test_dual_contravariant(a_rows, b_rows):
    a = mor(Z2, 2, 2, a_rows)
    b = mor(Z2, 2, 2, b_rows)
    assert dual_mor(compose(a, b)) == compose(dual_mor(b), dual_mor(a))


@given(matrices(2, 2), matrices(2, 2), matrices(3, 2), matrices(2, 3))
@settings(max_examples=40)
def test_tensor_functorial(f1r, f2r, g1r, g2r):
    f1 = mor(Z2, 2, 2, f1r)
    f2 = mor(Z2, 2, 2, f2r)
    g1 = mor(Z2, 2, 3, g1r)
    g2 = mor(Z2, 3, 2, g2r)
    lhs = tensor_mor(compose(f2, f1), compose(g2, g1))
    rhs = compose(tensor_mor(f2, g2), tensor_mor(f1, g1))
    assert lhs == rhs


def test_canonical_examples():
    coev = canonical_map(Z2, "coev", [2])
    assert coev.entries == ((1,), (0,), (0,), (1,))
    assert canonical_map(Z2, "ev", [2]).entries == ((1, 0, 0, 1),)
    assert canonical_map(Z2, "mix", []).entries == ((2,),)
    assert canonical_map(Z2, "mixed_ev", [2]).entries == ((2, 0, 0, 2),)
    mix23 = canonical_map(Z2, "mix_map", [2, 3])
    assert mix23 == mor_scale(identity(Z2, 6), 2)
    ms = canonical_map(Z2, "mixed_symmetry", [1, 1])
    assert ms.entries == ((2,),)
    with pytest.raises(InputError):
        canonical_map(Z2, "mix_map", [1])
    with pytest.raises(InputError):
        canonical_map(Z2, "no_such_map", [])


def test_mix_map_from_composite():
    # the defining composite through currying and the mixed evaluation
    a, b = 2, 3
    inner = tensor_mor(identity(Z2, a), canonical_map(Z2, "mixed_ev", [b]))
    via = curry(inner, a * b, b, a)
    assert via == canonical_map(Z2, "mix_map", [a, b])


def test_mixed_symmetry_from_composition():
    a, b = 2, 2
    ms = canonical_map(Z2, "mixed_symmetry", [a, b])
    tau = canonical_map(Z2, "par_symmetry", [a, b])
    sig = canonical_map(Z2, "symmetry", [a, b])
    assert ms == compose(tau, canonical_map(Z2, "mix_map", [a, b]))
    assert ms == compose(canonical_map(Z2, "mix_map", [b, a]), sig)


def test_curry_examples():
    f = mor(Z2, 2, 1, [[5, 7]])
    th = curry(f, 1, 2, 1)
    assert th.entries == ((5,), (7,))
    assert uncurry(th, 1, 2, 1) == f


@given(matrices(3, 6))
@settings(max_examples=30)
def test_curry_bijection(rows):
    f = mor(Z2, 6, 3, rows)
    assert uncurry(curry(f, 2, 3, 3), 2, 3, 3) == f


@given(matrices(2, 4), matrices(3, 2))
@settings(max_examples=30)
def test_curry_natural_in_target(frows, prows):
    # post-composition commutes with currying through the par side
    f = mor(Z2, 4, 2, frows)
    phi = mor(Z2, 2, 3, prows)
    lhs = curry(compose(phi, f), 2, 2, 3)
    rhs = compose(tensor_mor(phi, identity(Z2, 2)),
                  curry(f, 2, 2, 2))
    assert lhs == rhs


@given(matrices(6, 2), matrices(2, 2))
@settings(max_examples=30)
def test_uncurry_natural_in_source(grows, prows):
    g = mor(Z2, 2, 6, grows)  # 2 -> (2 par 3*)
    psi = mor(Z2, 2, 2, prows)
    lhs = uncurry(compose(g, psi), 2, 3, 2)
    rhs = compose(uncurry(g, 2, 3, 2),
                  tensor_mor(psi, identity(Z2, 3)))
    assert lhs == rhs


def test_curry_note_composite():
    # the bijection agrees with its coevaluation/distributivity composite
    rng = random.Random(4)
    for _ in range(25):
        a, b, c = (rng.randint(0, 3) for _ in range(3))
        f = random_mor(Z2, rng, a * b, c)
        via = compose(
            tensor_mor(f, identity(Z2, b)),
            compose(canonical_map(Z2, "distributivity", [a, b, b]),
                    tensor_mor(identity(Z2, a),
                               canonical_map(Z2, "coev", [b]))))
        assert via == curry(f, a, b, c)
    # the currying of an identity is the coevaluation-style flattening
    a, b = 2, 3
    ab = a * b
    flat = curry(identity(Z2, ab), a, b, ab)
    via = compose(
        tensor_mor(identity(Z2, ab), identity(Z2, b)),
        compose(canonical_map(Z2, "distributivity", [a, b, b]),
                tensor_mor(identity(Z2, a), canonical_map(Z2, "coev", [b]))))
    assert flat == via


def test_curry_naturality_random_ranks():
    rng = random.Random(12)
    for _ in range(40):
        a, b, c, c2, a2 = (rng.randint(0, 3) for _ in range(5))
        f = random_mor(Z2, rng, a * b, c)
        phi = random_mor(Z2, rng, c, c2)
        assert curry(compose(phi, f), a, b, c2) == \
            compose(tensor_mor(phi, identity(Z2, b)), curry(f, a, b, c))
        g = curry(f, a, b, c)
        psi = random_mor(Z2, rng, a2, a)
        assert uncurry(compose(g, psi), a2, b, c) == \
            compose(uncurry(g, a, b, c), tensor_mor(psi, identity(Z2, b)))


def test_mix_composite_up_to_rank_four():
    for a in range(0, 5):
        for b in range(0, 5):
            inner = tensor_mor(identity(Z2, a),
                               canonical_map(Z2, "mixed_ev", [b]))
            via = curry(inner, a * b, b, a)
            assert via == mor_scale(identity(Z2, a * b), 2)


def test_factor_permutation_shapes():
    p = factor_permutation(Z2, [2, 3], [1, 0])
    assert p.dom == 6 and compose(p, dual_mor(p)) == identity(Z2, 6)
    with pytest.raises(InputError):
        factor_permutation(Z2, [2, 3], [0, 0])


def test_whisker_matches_tensor_with_identities():
    # the block copy against the two Kronecker products it replaces, rank 0
    # on every side included, over Z and with Fraction entries over Q
    rng = random.Random("whisker")
    for trial in range(300):
        model = Q1 if trial % 3 == 0 else Z2
        pre, post, dom, cod = (rng.randint(0, 3) for _ in range(4))
        f = random_mor(model, rng, dom, cod, 2)
        if model is Q1:
            f = mor_scale(f, Fraction(1, rng.randint(1, 3)))
        expected = tensor_mor(tensor_mor(identity(model, pre), f),
                              identity(model, post))
        assert whisker(pre, f, post) == expected, (pre, post, dom, cod)


def test_contract_hidden():
    f = identity(Z2, 4)
    out = contract_hidden(f, 2, 2, [2])
    assert out == mor_scale(identity(Z2, 2), 2)
    g = mor(Z2, 2, 2, [[1, 2], [3, 4]])
    assert contract_hidden(g, 2, 2, []) == g


@pytest.mark.parametrize("seed", [0, 1, 7, 2016])
@pytest.mark.parametrize("bound", [0, 1, 3, 4, 50])
def test_random_mor_draws_what_randint_draws(seed, bound):
    # the axiom suite, zig-zag search and compactify samplers are seeded:
    # their matrices, and every draw after them, are the randint stream
    rng, ref = random.Random(seed), random.Random(seed)
    for dom, cod in ((3, 2), (0, 2), (2, 0), (1, 1), (4, 5)):
        got = random_mor(Z2, rng, dom, cod, bound).entries
        assert got == tuple(tuple(ref.randint(-bound, bound)
                                  for _ in range(dom)) for _ in range(cod))
    assert rng.random() == ref.random()


def test_zero_rank_matrices():
    e = zero_mor(Z2, 0, 3)
    f = zero_mor(Z2, 3, 0)
    assert compose(f, e).entries == ()
    assert tensor_mor(e, identity(Z2, 2)).dom == 0


def test_model_validation():
    with pytest.raises(InputError):
        Model(INTEGERS, Fraction(1, 2))
    assert is_compact(Model(RATIONALS, 2))
    assert is_compact(Model(INTEGERS, 1))
    assert not is_compact(Z2)
    assert not is_compact(Model(INTEGERS, 0))


@pytest.mark.parametrize("model", [
    Model(INTEGERS, 0), Model(INTEGERS, 1), Model(INTEGERS, 2),
    Model(INTEGERS, 3), Q1,
])
def test_validate_coherence(model):
    report = validate_coherence(model, 2)
    failed = [c.name for c in report.checks if not c.passed]
    assert report.ok, failed


def _doubled_at(build, hit):
    """``build`` with its result doubled where ``hit`` holds of its
    arguments."""
    def wrong(*args):
        f = build(*args)
        return mor_scale(f, 2) if hit(*args) else f
    return wrong


def _kind_at(kind, *ranks):
    """A ``hit`` for canonical_map: the structure map ``kind`` at these
    object ranks."""
    return lambda _, k, params: (k, list(params)) == (kind, list(ranks))


@pytest.mark.parametrize("name, hit, failures", [
    ("factor_permutation",
     lambda _, dims, pos_map: (list(dims), list(pos_map)) == (
         [1, 2, 2, 1], [0, 2, 1, 3]),
     [("shuffle-composition-orders",
       "times rule disagrees with direct permutation")]),
    ("canonical_map", _kind_at("times_rule", 2, 1, 1, 2),
     [("shuffle-composition-orders",
       "composition orders disagree at 1,2,2,1")]),
    ("identity", lambda _, a: a == 8,
     [("distributivities-vs-bijection", "distributivity fails at 2,2,2"),
      ("currying-triangle", "currying triangle fails at 2,2,2,2"),
      ("shuffle-composition-orders",
       "composition orders disagree at 2,2,2,1")]),
    ("canonical_map", _kind_at("symmetry", 1, 1),
     [("dual-ev-coev-symmetry", "ev symmetry fails at rank 1"),
      ("mix-map-definition", "mixed symmetry fails at 1,1"),
      ("distributivities-vs-bijection",
       "right distributivity fails at 1,1,1"),
      ("shuffle-composition-orders",
       "composition orders disagree at 1,1,1,1")]),
    ("canonical_map", _kind_at("par_symmetry", 1, 1),
     [("dual-ev-coev-symmetry", "coev symmetry fails at rank 1"),
      ("mix-map-definition", "mixed symmetry fails at 1,1"),
      ("distributivities-vs-bijection",
       "right distributivity fails at 1,1,1"),
      ("shuffle-composition-orders",
       "composition orders disagree at 1,1,1,1")]),
    # at 1,1,1 both sides of each triangle double, so the second triangle
    # fails first at 1,1,2
    ("canonical_map", _kind_at("mix_map", 1, 1),
     [("mix-map-definition", "mix map composite fails at 1,1"),
      ("mix-distributivity-triangles", "second triangle fails at 1,1,2")]),
    ("canonical_map", _kind_at("distributivity", 1, 1, 1),
     [("mix-distributivity-triangles", "first triangle fails at 1,1,1"),
      ("currying-triangle", "currying triangle fails at 1,2,1,1"),
      ("shuffle-composition-orders",
       "composition orders disagree at 1,1,1,1")]),
    ("canonical_map", _kind_at("right_distributivity", 1, 1, 1),
     [("distributivities-vs-bijection",
       "right distributivity fails at 1,1,1")]),
    # a tensor whose left factor is the 1 x 1 mix of Z2 (or any [[2]]):
    # the unit square's left side, and the second triangle at 1,1,1
    ("tensor_mor", lambda f, g: f.entries == ((2,),),
     [("mix-unit-square", ""),
      ("mix-distributivity-triangles", "second triangle fails at 1,1,1")]),
], ids=["factor_permutation", "times_rule", "identity", "symmetry",
        "par_symmetry", "mix_map", "distributivity", "right_distributivity",
        "tensor_mor"])
def test_validate_coherence_fails_where_a_structure_map_is_wrong(
        monkeypatch, name, hit, failures):
    # one structure map made wrong at one shape fails exactly the checks
    # that build that shape, with their usual detail: whatever one call
    # shares, every check still runs on the builders' own output
    monkeypatch.setattr(category, name, _doubled_at(getattr(category, name),
                                                    hit))
    report = validate_coherence(Z2, 2)
    assert [(c.name, c.detail) for c in report.checks
            if not c.passed] == failures


def test_validate_coherence_builds_each_structure_map_once_per_call(
        monkeypatch):
    # the builders are shared within one call only: a second call in the
    # same process builds exactly as many maps as the first (counts include
    # canonical_map's own calls of the other builders)
    calls = dict.fromkeys(["canonical_map", "factor_permutation",
                           "identity"], 0)

    def counted(name):
        build = getattr(category, name)

        def wrapper(*args):
            calls[name] += 1
            return build(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(category, name, counted(name))
    per_call = []
    for _ in range(2):
        assert validate_coherence(Z2, 2).ok
        per_call.append(dict(calls))
        calls.update(dict.fromkeys(calls, 0))
    expected = {"canonical_map": 205, "factor_permutation": 127,
                "identity": 83}
    assert per_call == [expected, expected]


class _Built(Exception):
    pass


def _refuse_to_build(monkeypatch):
    def refuse(self):
        raise _Built

    monkeypatch.setattr(category.Mor, "__post_init__", refuse)


@pytest.mark.parametrize("max_rank,size", [
    (6, "6^8 = 1679616"), (40, "40^8 = 6553600000000"), (256, "256^8")])
def test_validate_size_bound(monkeypatch, max_rank, size):
    # the times-rule maps at four objects of rank max_rank are the largest
    # matrices: sized before any matrix is built, and past 2^64 the count
    # is named, not computed
    _refuse_to_build(monkeypatch)
    with pytest.raises(ResourceLimitError, match=(
            rf"^a coherence check at max_rank {max_rank} builds matrices of "
            rf"up to {re.escape(size)} entries, more than the bound "
            rf"1000000$")):
        validate_coherence(Z2, max_rank)


def test_validate_size_bound_admits_up_to_the_bound(monkeypatch):
    # 5^8 = 390625 entries pass the check, and the first matrix is built
    _refuse_to_build(monkeypatch)
    with pytest.raises(_Built):
        validate_coherence(Z2, 5)


def _zigzag(**changed):
    """A well-formed one-factor zig-zag instance over Z2, with the given
    fields changed."""
    one = identity(Z2, r1)
    fields = dict(model=Z2, upper=(r1,), apex=(r1,), lower=(r1,),
                  down_maps=(one,), up_maps=(one,), perm=Permutation((0,)),
                  hub=r1, left_fillers=(one, one), right_fillers=(one, one))
    fields.update(changed)
    return ZigZagInstance(**fields)


def _rank_refusals():
    """A rank that is no non-negative int, given to each field of each
    constructor that takes ranks from a caller.  Python counts bool as int,
    but a rank or a parameter is no bool: a rank True would pass as 1, and
    Z[1/True] would not read back."""
    one = identity(Z2, r1)
    fields = {
        "": lambda r: mor(Z2, r, r1, []),
        "-mor-cod": lambda r: mor(Z2, r1, r, []),
        "-loop-dom": lambda r: Loop(Z2, r, r1, (), one),
        "-loop-cod": lambda r: Loop(Z2, r1, r, (), one),
        "-loop-hidden": lambda r: Loop(Z2, r1, r1, (r1, r), one),
        "-diagram": lambda r: Diagram(Z2, (r1, r), ()),
        "-zigzag-upper": lambda r: _zigzag(upper=(r,)),
        "-zigzag-apex": lambda r: _zigzag(apex=(r,)),
        "-zigzag-lower": lambda r: _zigzag(lower=(r,)),
        "-zigzag-hub": lambda r: _zigzag(hub=r),
    }
    for field, build in fields.items():
        for suffix, rank in (("", -1), ("-bool", True),
                             ("-bool-false", False), ("-str", "3")):
            yield pytest.param(partial(build, rank),
                               "object rank must be a non-negative integer",
                               id=f"obj{field}{suffix}")


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: mor(Z2, r2, r2, [[1, 2]]), "expected 2 rows, got 1",
                 id="mor-rows"),
    pytest.param(lambda: mor(Z2, r2, r1, [[1]]), "expected 2 columns, got 1",
                 id="mor-columns"),
    pytest.param(lambda: mor(Z2, r1, r1, [["1"]]),
                 "matrix entries must be int or Fraction, got str",
                 id="mor-entry"),
    *_rank_refusals(),
    pytest.param(lambda: contract_hidden(identity(Z2, r2), r1, r1, (3,)),
                 "contract_hidden: shape mismatch", id="contract_hidden"),
    pytest.param(lambda: Permutation((1, 0)).apply("abc"),
                 "permutation size mismatch", id="permutation-apply"),
    pytest.param(lambda: hidden_symmetry(yanking_loop(Z2, r1),
                                         Permutation((1, 0))),
                 "permutation size does not match the hidden part",
                 id="hidden_symmetry"),
    pytest.param(lambda: Loop(Z2, r1, r1, (), identity(Z3, r1)),
                 "carrier belongs to a different model", id="loop-carrier"),
    pytest.param(lambda: loop_compose(morphism_loop(identity(Z3, r1)),
                                      morphism_loop(identity(Z2, r1))),
                 "loops belong to different models", id="loop_compose"),
    pytest.param(lambda: loop_tensor(morphism_loop(identity(Z3, r1)),
                                     morphism_loop(identity(Z2, r1))),
                 "loops belong to different models", id="loop_tensor"),
    pytest.param(lambda: Diagram(Z2, (r1, r1),
                                 ((0, 1, "f", identity(Z3, r1)),)),
                 "edge 'f' is in the wrong model", id="diagram-model"),
    pytest.param(lambda: Diagram(Z2, (r2, r1),
                                 ((0, 1, "f", identity(Z2, r1)),)),
                 "edge 'f': domain rank 1 != node rank 2",
                 id="diagram-domain"),
    pytest.param(lambda: _zigzag(upper=(r1, r1)), "tuple lengths disagree",
                 id="zigzag-lengths"),
    pytest.param(lambda: _zigzag(perm=Permutation((1, 0))),
                 "permutation size disagrees with the tuples",
                 id="zigzag-permutation"),
    pytest.param(lambda: _zigzag(up_maps=(identity(Z2, r2),)),
                 "up map 0 has the wrong shape", id="zigzag-up-map"),
    pytest.param(lambda: _zigzag(left_fillers=(identity(Z2, r1),
                                               identity(Z2, r2))),
                 "left filler 1 has the wrong shape", id="zigzag-filler"),
    pytest.param(lambda: RingTag("R"), "unknown ring kind 'R'",
                 id="ring-kind"),
    pytest.param(lambda: RingTag("Zloc", 0),
                 "localization requires an integer m >= 1",
                 id="ring-zloc-parameter"),
    pytest.param(lambda: RingTag("Z", 2), "ring 'Z' takes no parameter",
                 id="ring-parameter"),
    pytest.param(lambda: localized_integers(True),
                 "localization requires an integer m >= 1",
                 id="ring-zloc-bool"),
])
def test_constructors_refuse_malformed_input(build, message):
    with pytest.raises(InputError, match=re.escape(message)):
        build()

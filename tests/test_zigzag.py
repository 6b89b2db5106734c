import pytest

from mixtrace import zigzag
from mixtrace.category import (Model, Obj, canonical_map, compose, identity,
                               mor)
from mixtrace.errors import InputError
from mixtrace.loops import Permutation
from mixtrace.zigzag import (CounterPath, Diagram, Edge, ZigZagInstance,
                             build_zigzag_diagram, check_zigzag_instance,
                             diagram_commutes, search_counterexample)
from mixtrace.rings import INTEGERS

Z0 = Model(INTEGERS, 0)
Z1 = Model(INTEGERS, 1)
Z2 = Model(INTEGERS, 2)
r1, r2 = Obj(1), Obj(2)


def triangle(model, f, g, h):
    return Diagram(model, (f.dom, f.cod, g.cod), (
        Edge(0, 1, f, "f"), Edge(1, 2, g, "g"), Edge(0, 2, h, "h")))


def test_triangle_commutes():
    f = mor(Z2, r2, r2, [[1, 1], [0, 1]])
    g = mor(Z2, r2, r2, [[1, 0], [1, 1]])
    good = triangle(Z2, f, g, compose(g, f))
    assert diagram_commutes(good) is True
    bad = triangle(Z2, f, g, identity(Z2, r2))
    counter = diagram_commutes(bad)
    assert isinstance(counter, CounterPath)
    assert counter.src == 0 and counter.dst == 2


def test_cycles_compare_to_identity():
    p = canonical_map(Z2, "symmetry", [r2, r2])
    d = Diagram(Z2, (Obj(4), Obj(4)),
                (Edge(0, 1, p, "p"), Edge(1, 0, p, "p-inv")))
    assert diagram_commutes(d) is True
    bad = Diagram(Z2, (Obj(4), Obj(4)),
                  (Edge(0, 1, p, "p"), Edge(1, 0, identity(Z2, Obj(4)), "id")))
    assert isinstance(diagram_commutes(bad), CounterPath)


def test_diagram_validation_and_limits():
    with pytest.raises(InputError):
        Diagram(Z2, (r1,), (Edge(0, 1, identity(Z2, r1), "off-end"),))
    with pytest.raises(InputError):
        Diagram(Z2, (r1, r2), (Edge(0, 1, identity(Z2, r1), "shape"),))
    f = identity(Z2, r1)
    edges = tuple(Edge(0, 1, f, str(i)) for i in range(20))
    fan = Diagram(Z2, (r1, r1), edges)
    assert diagram_commutes(fan) is True


def test_mix_square_as_diagram():
    # the unit coherence square checked through the generic engine
    for model in (Z0, Z1, Z2):
        mix = canonical_map(model, "mix", [])
        d = Diagram(model, (r1, r1, r1), (
            Edge(0, 1, mix, "mix-left"),
            Edge(0, 2, mix, "mix-right"),
            Edge(1, 2, identity(model, r1), "unit"),
            Edge(2, 1, identity(model, r1), "unit-inv"),
        ))
        assert diagram_commutes(d) is True


def test_mix_distributivity_triangle_as_diagram():
    # the same triangles the coherence validator checks, fed through the
    # generic path engine
    from mixtrace.category import obj_tensor, tensor_mor

    for model in (Z0, Z2):
        for ranks in ((1, 2, 2), (2, 1, 2), (2, 2, 2)):
            a, b, c = (Obj(r) for r in ranks)
            abc = obj_tensor(a, b, c)
            d = Diagram(model, (abc, abc, abc), (
                Edge(0, 1, tensor_mor(identity(model, a),
                                      canonical_map(model, "mix_map", [b, c])),
                     "inner-mix"),
                Edge(1, 2, canonical_map(model, "distributivity", [a, b, c]),
                     "distribute"),
                Edge(0, 2, canonical_map(model, "mix_map",
                                         [obj_tensor(a, b), c]),
                     "outer-mix"),
            ))
            assert diagram_commutes(d) is True
    # and a deliberately broken triangle is caught
    a, b, c = Obj(1), Obj(2), Obj(2)
    abc = Obj(4)
    bad = Diagram(Z2, (abc, abc, abc), (
        Edge(0, 1, tensor_mor(identity(Z2, a),
                              canonical_map(Z2, "mix_map", [b, c])), "inner"),
        Edge(1, 2, canonical_map(Z2, "distributivity", [a, b, c]), "dist"),
        Edge(0, 2, identity(Z2, abc), "wrong"),
    ))
    assert isinstance(diagram_commutes(bad), CounterPath)


def frozen_instance(model, left_apex, right_apex):
    return ZigZagInstance(
        model,
        upper=(r1,), apex=(r1,), lower=(r1,),
        down_maps=(canonical_map(model, "mix_map", [r1, r1]),),
        up_maps=(canonical_map(model, "coev", [r1]),),
        perm=Permutation((0,)),
        hub=r1,
        left_fillers=(mor(model, r1, r1, [[0]]),
                      mor(model, r1, r1, [[left_apex]])),
        right_fillers=(mor(model, r1, r1, [[0]]),
                       mor(model, r1, r1, [[right_apex]])),
    )


def test_frozen_m0_witness():
    out = check_zigzag_instance(frozen_instance(Z0, 1, 2))
    assert out.status == "violated"
    assert out.counter is not None
    # the same data over m = 2 already fails the premise
    assert check_zigzag_instance(frozen_instance(Z2, 1, 2)).status == \
        "premise_fails"
    # compatible fillers hold even at m = 0
    assert check_zigzag_instance(frozen_instance(Z0, 1, 1)).status == "holds"


def test_witness_is_stable_under_rebuild():
    inst = frozen_instance(Z0, 1, 2)
    first = check_zigzag_instance(inst)
    second = check_zigzag_instance(inst)
    assert first == second
    d = build_zigzag_diagram(inst)
    counter = diagram_commutes(d)
    assert isinstance(counter, CounterPath)


def test_check_builds_one_diagram_and_reuses_the_levels(monkeypatch):
    # the premise is a prefix of the instance's one diagram, and the level
    # ranks are the instance's own, computed when it was built
    instances = [frozen_instance(Z0, 1, 2), frozen_instance(Z2, 1, 2),
                 frozen_instance(Z0, 1, 1)]
    counts = {"diagrams": 0, "levels": 0}
    post_init, levels = Diagram.__post_init__, zigzag.level_ranks

    def count_diagram(self):
        counts["diagrams"] += 1
        post_init(self)

    def count_levels(*args):
        counts["levels"] += 1
        return levels(*args)

    monkeypatch.setattr(Diagram, "__post_init__", count_diagram)
    monkeypatch.setattr(zigzag, "level_ranks", count_levels)
    for inst, status in zip(instances, ("violated", "premise_fails", "holds")):
        assert check_zigzag_instance(inst).status == status
    assert counts == {"diagrams": 3, "levels": 0}


def test_search_computes_the_levels_once_per_sample(monkeypatch):
    # the random-filler branch sizes its fillers by the level ranks and
    # hands them to the instance; the pullback branch leaves them to it
    calls = []
    levels = zigzag.level_ranks

    def count_levels(*args):
        calls.append(args)
        return levels(*args)

    monkeypatch.setattr(zigzag, "level_ranks", count_levels)
    res = search_counterexample(Z2, n=2, max_rank=2, seed=0, budget=1500)
    assert res.status == "none_found" and res.samples == 1500
    assert len(calls) == 1500


def test_instance_validation():
    with pytest.raises(InputError):
        ZigZagInstance(
            Z2, (r1,), (r1,), (r1,),
            (canonical_map(Z2, "mix_map", [r1, r1]),),
            (canonical_map(Z2, "coev", [r1]),),
            Permutation((0,)), r1,
            (mor(Z2, r1, r1, [[0]]),),  # missing one filler
            (mor(Z2, r1, r1, [[0]]), mor(Z2, r1, r1, [[1]])))
    with pytest.raises(InputError):
        ZigZagInstance(
            Z2, (r2,), (r1,), (r1,),
            (canonical_map(Z2, "mix_map", [r1, r1]),),  # wrong down shape
            (canonical_map(Z2, "coev", [r1]),),
            Permutation((0,)), r1,
            (mor(Z2, r2, r1, [[0, 0]]), mor(Z2, r1, r1, [[1]])),
            (mor(Z2, r2, r1, [[0, 0]]), mor(Z2, r1, r1, [[1]])))


def test_search_m0_finds_violation():
    res = search_counterexample(Z0, n=1, max_rank=2, seed=5, budget=60)
    assert res.status == "violated"
    assert res.instance is not None
    assert check_zigzag_instance(res.instance).status == "violated"


def test_search_invertible_mix_finds_nothing():
    for model in (Z1, Z2):
        for n in (1, 2):
            res = search_counterexample(model, n=n, max_rank=2, seed=3,
                                        budget=300)
            assert res.status == "none_found"
            assert res.stats["violated"] == 0
            # the pullback strategy must actually exercise the Holds branch
            assert res.stats["holds"] > 0


def test_pullback_instances_hold_even_at_m0():
    res = search_counterexample(Z0, n=2, max_rank=2, seed=9, budget=3)
    # sample 0 uses the pullback strategy and must commute end to end
    assert res.stats["holds"] >= 1


def test_random_alpha_search():
    # nontrivial permutations with mixed ranks exercise the iso edges
    res = search_counterexample(Z2, n=3, max_rank=2, seed=11, budget=45)
    assert res.status == "none_found"
    assert res.stats["holds"] > 0

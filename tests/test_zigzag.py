import re

import pytest

from mixtrace import zigzag
from mixtrace.category import (Model, Obj, canonical_map, compose, identity,
                               mor, mor_scale)
from mixtrace.errors import InputError, ResourceLimitError
from mixtrace.loops import Permutation
from mixtrace.zigzag import (CounterPath, Diagram, Edge, ZigZagInstance,
                             build_zigzag_frame, check_zigzag_instance,
                             diagram_commutes, level_ranks,
                             search_counterexample)
from mixtrace.rings import INTEGERS

from trace_reference import build_zigzag_diagram, frame_walks
from trace_reference import check_zigzag as reference_check_zigzag

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


def own_frame(inst):
    return build_zigzag_frame(inst.model, inst.upper, inst.lower,
                              inst.down_maps, inst.up_maps, inst.perm,
                              level_ranks(inst.upper, inst.apex, inst.lower,
                                          inst.perm))


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
    d = build_zigzag_diagram(inst.model, own_frame(inst), inst.hub,
                             inst.left_fillers, inst.right_fillers)
    counter = diagram_commutes(d)
    assert isinstance(counter, CounterPath)


def _replay_frame(model, frame, fillers):
    """The check of a sample or an instance: the frame's fresh walks
    replayed with its fillers."""
    return zigzag._check_zigzag(frame[0], *frame_walks(model, *frame),
                                fillers)


def test_frame_replay_gives_the_instance_check():
    # the search and check_zigzag_instance replay a frame's walks with a
    # sample's fillers; on the frozen instances a replay of the instance's
    # own frame gives check_zigzag_instance's outcome, and the m = 0
    # violation is a mismatch of two filler products in a source after the
    # first
    for inst in (frozen_instance(Z0, 1, 2), frozen_instance(Z2, 1, 2),
                 frozen_instance(Z0, 1, 1)):
        fillers = {"left": inst.left_fillers, "right": inst.right_fillers}
        out = _replay_frame(inst.model, own_frame(inst), fillers)
        assert out == check_zigzag_instance(inst)
    objects, edges = own_frame(inst)
    m0 = check_zigzag_instance(frozen_instance(Z0, 1, 2)).counter
    assert m0.dst == len(objects) and m0.src > 0
    # a failing frame edge of an m = 0 frame, the top symmetry's inverse
    # negated, is found by the walk: both paths end in the frame, and the
    # pair is the one a full check of the premise names
    at = [getattr(e, "label", None) for e in edges].index("top-iso-inv")
    e = edges[at]
    broken = (objects, edges[:at] + (Edge(e.src, e.dst, mor_scale(e.mor, -1),
                                          e.label),) + edges[at + 1:])
    out = _replay_frame(Z0, broken, fillers)
    assert out.status == "premise_fails" and out.counter.dst < len(objects)
    whole = build_zigzag_diagram(Z0, broken, inst.hub, inst.left_fillers,
                                 inst.right_fillers)
    assert out.counter == diagram_commutes(
        Diagram(Z0, whole.objects, whole.edges[:-2]))


def _search_witnesses():
    """Every witness the search returns at mix -1..3, n = 0..3, seeds 0..2
    and max_rank 1..3 (n = 3 only up to max_rank 2), 60 samples each."""
    for mix in range(-1, 4):
        for n in range(4):
            for max_rank in range(1, 4 if n < 3 else 3):
                for seed in range(3):
                    res = search_counterexample(
                        Model(INTEGERS, mix), n, max_rank=max_rank,
                        seed=seed, budget=60)
                    if res.instance is not None:
                        yield res.instance


def _with(inst, name, k, f):
    """A copy of the instance with entry k of its tuple field ``name``
    replaced by f."""
    fields = {slot: getattr(inst, slot) for slot in ZigZagInstance.__slots__}
    column = list(fields[name])
    column[k] = f
    fields[name] = column
    return ZigZagInstance(**fields)


def _raised_entries(f):
    """A copy of f per entry, with that entry raised by 1."""
    for i, row in enumerate(f.entries):
        for j in range(len(row)):
            yield mor(f.model, f.dom, f.cod,
                      [[x + (r == i and c == j) for c, x in enumerate(rw)]
                       for r, rw in enumerate(f.entries)])


def test_instance_check_matches_the_reference_check_of_its_diagram():
    # check_zigzag_instance against the reference tree check of the whole
    # diagram, the instance's frame with its hub and fillers filled in, on
    # the frozen instances, every search witness, copies of each witness
    # with one filler entry raised by 1 and copies with one down-map entry
    # raised by 1, whose failures run through the changed frame edge
    witnesses = list(_search_witnesses())
    cases = [(inst, None) for inst in (
        frozen_instance(Z0, 1, 2), frozen_instance(Z2, 1, 2),
        frozen_instance(Z0, 1, 1))]
    for inst in witnesses:
        cases.append((inst, None))
        for name in ("left_fillers", "right_fillers"):
            for k, f in enumerate(getattr(inst, name)):
                cases += [(_with(inst, name, k, g), None)
                          for g in _raised_entries(f)]
        for k, f in enumerate(inst.down_maps):
            cases += [(_with(inst, "down_maps", k, g), k)
                      for g in _raised_entries(f)]
    statuses = {"premise_fails": 0, "violated": 0, "holds": 0}
    through_down = 0
    for inst, changed in cases:
        frame = own_frame(inst)
        whole = build_zigzag_diagram(inst.model, frame, inst.hub,
                                     inst.left_fillers, inst.right_fillers)
        outcome = check_zigzag_instance(inst)
        # ZigZagOutcome equality covers the status and the whole
        # CounterPath: src, dst, both paths and both values
        assert outcome == reference_check_zigzag(whole), inst
        statuses[outcome.status] += 1
        if changed is not None and outcome.counter is not None:
            labels = {whole.edges[i].label for i in
                      outcome.counter.path_a + outcome.counter.path_b}
            through_down += bool({f"left-down-{changed + 1}",
                                  f"right-down-"
                                  f"{inst.perm.images.index(changed) + 1}"}
                                 & labels)
    assert len(witnesses) >= 10 and all(statuses.values()), statuses
    assert through_down > 0


def test_check_builds_no_diagram_and_derives_the_levels_once(monkeypatch):
    # the check replays the walks of the instance's frame with its fillers,
    # as the search checks a sample: it builds no diagram with the hub, and
    # derives the level ranks once, for the frame
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
    assert counts == {"diagrams": 0, "levels": 3}


def test_search_computes_the_levels_once_per_frame(monkeypatch):
    # a frame is the base ranks and the permutation; its level ranks are
    # computed with its diagram frame and handed to every instance in it.
    # At n = 2 and max_rank 2 there are 2 * 2 * 2 = 8 frames.
    calls, frames = [], []
    levels, build = zigzag.level_ranks, zigzag.build_zigzag_frame

    def count_levels(*args):
        calls.append(args)
        return levels(*args)

    def count_frames(*args):
        frames.append(args)
        return build(*args)

    monkeypatch.setattr(zigzag, "level_ranks", count_levels)
    monkeypatch.setattr(zigzag, "build_zigzag_frame", count_frames)
    res = search_counterexample(Z2, n=2, max_rank=2, seed=0, budget=1500)
    assert res.status == "none_found" and res.samples == 1500
    keys = {(tuple(u.rank for u in upper), perm.images)
            for _, upper, _, _, _, perm, _ in frames}
    assert len(calls) == len(frames) == len(keys) <= 8


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
    # every map and filler is in the instance's model; the check, which
    # builds no diagram, never compares models
    inst, other = frozen_instance(Z2, 1, 2), frozen_instance(Z0, 1, 2)
    for name, k in (("down_maps", 0), ("up_maps", 0), ("left_fillers", 1),
                    ("right_fillers", 0)):
        with pytest.raises(InputError, match=re.escape(
                f"{name}[{k}] is in the wrong model")):
            _with(inst, name, k, getattr(other, name)[k])
    # the level ranks follow from the objects and the permutation: they
    # are derived where needed, never handed over or kept
    inst = frozen_instance(Z2, 1, 2)
    args = [getattr(inst, name) for name in (
        "model", "upper", "apex", "lower", "down_maps", "up_maps", "perm",
        "hub", "left_fillers", "right_fillers")]
    assert ZigZagInstance(*args) == inst
    levels = level_ranks(*args[1:4], inst.perm)
    assert levels == {"left": ([1, 1], [1, 1]), "right": ([1, 1], [1, 1])}
    assert not hasattr(inst, "levels")
    with pytest.raises(TypeError):
        ZigZagInstance(*args, levels=levels)


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


@pytest.mark.parametrize("n,max_rank,size", [
    (5, 2, "2^20 = 1048576"), (3, 12, "12^12 = 8916100448256"),
    (0, 10 ** 6 + 1, "1000001"), (0, 2 ** 64, "18446744073709551616"),
    (16, 2, "2^64"), (10 ** 9, 3, "3^4000000000"),
])
def test_search_size_bound(n, max_rank, size):
    # the largest matrix, the top symmetry or a filler out of the top level,
    # is sized from n and max_rank before the first sample; past 2^64 the
    # count is named, not computed
    with pytest.raises(ResourceLimitError, match=(
            rf"n = {n} and max_rank {max_rank} builds matrices of up to "
            rf"{re.escape(size)} entries, more than the bound 1000000$")):
        search_counterexample(Z2, n=n, max_rank=max_rank, budget=0)


@pytest.mark.parametrize("n,max_rank", [
    (3, 2), (3, 3), (2, 5), (0, 10 ** 6), (10 ** 9, 1)])
def test_search_size_bound_admits_up_to_the_bound(n, max_rank):
    res = search_counterexample(Z2, n=n, max_rank=max_rank, budget=0)
    assert res.status == "none_found" and res.samples == 0


@pytest.mark.parametrize("n,nodes,edges", [
    (20, 83, 126), (800, 3203, 4806), (10 ** 9, 4000000003, 6000000006)])
def test_search_tree_bound(n, nodes, edges):
    # at max_rank 1 every matrix is 1 x 1, but each sample's check grows a
    # tree from every node over every edge: refused before the first sample
    with pytest.raises(ResourceLimitError, match=(
            rf"n = {n} checks diagrams of {nodes} nodes and {edges} edges, "
            rf"{nodes * edges} node-edge steps per sample, more than the "
            rf"bound 10000$")):
        search_counterexample(Z2, n=n, max_rank=1, budget=1)


def test_search_tree_bound_admits_up_to_the_bound():
    # 79 nodes x 120 edges = 9480 steps; a search without samples does no
    # tree work at any n
    res = search_counterexample(Z2, n=19, max_rank=1, seed=1, budget=2)
    assert res.status == "none_found" and res.samples == 2
    res = search_counterexample(Z2, n=10 ** 9, max_rank=1, budget=0)
    assert res.status == "none_found" and res.samples == 0


def test_random_alpha_search():
    # nontrivial permutations with mixed ranks exercise the iso edges
    res = search_counterexample(Z2, n=3, max_rank=2, seed=11, budget=45)
    assert res.status == "none_found"
    assert res.stats["holds"] > 0

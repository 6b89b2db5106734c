"""Differential test for the zig-zag search: pinned results and per-sample
outcomes.

Every search result over mix -1..3, n = 0..3 and three seeds is pinned:
status, samples, stats and a digest of the canonical witness JSON.  A
search builds one instance, its witness, and only when it returns one.
And every sample a search checks, rebuilt as an instance from its own
draw, gets the outcome that ``check_zigzag_instance`` gives that instance
on its own, the whole ``CounterPath`` included, and the outcome that the
reference tree check ``trace_reference.check_zigzag`` gives its diagram.
"""

import hashlib

import pytest

from mixtrace import zigzag
from mixtrace.category import Model
from mixtrace.rings import INTEGERS
from mixtrace.serialize import dumps, zigzag_to_json
from mixtrace.zigzag import (ZigZagInstance, check_zigzag_instance,
                             search_counterexample)

from trace_reference import build_zigzag_diagram
from trace_reference import check_zigzag as reference_check_zigzag

# (mix, n, seed): (status, samples, (premise_fails, holds, violated),
# first 16 hex digits of the sha256 of the witness JSON, or None)
PINNED = {
    (-1, 0, 0): ("none_found", 40, (12, 28, 0), None),
    (-1, 0, 1): ("none_found", 40, (12, 28, 0), None),
    (-1, 0, 2): ("none_found", 40, (10, 30, 0), None),
    (-1, 1, 0): ("none_found", 40, (26, 14, 0), None),
    (-1, 1, 1): ("none_found", 40, (26, 14, 0), None),
    (-1, 1, 2): ("none_found", 40, (26, 14, 0), None),
    (-1, 2, 0): ("none_found", 40, (26, 14, 0), None),
    (-1, 2, 1): ("none_found", 40, (26, 14, 0), None),
    (-1, 2, 2): ("none_found", 40, (26, 14, 0), None),
    (-1, 3, 0): ("none_found", 20, (13, 7, 0), None),
    (-1, 3, 1): ("none_found", 20, (13, 7, 0), None),
    (-1, 3, 2): ("none_found", 20, (13, 7, 0), None),
    (0, 0, 0): ("none_found", 40, (12, 28, 0), None),
    (0, 0, 1): ("none_found", 40, (12, 28, 0), None),
    (0, 0, 2): ("none_found", 40, (10, 30, 0), None),
    (0, 1, 0): ("violated", 2, (0, 1, 1), "477858f86d278ba6"),
    (0, 1, 1): ("violated", 2, (0, 1, 1), "63ea878d21586e3e"),
    (0, 1, 2): ("violated", 2, (0, 1, 1), "c3881563de9ebcd9"),
    (0, 2, 0): ("none_found", 40, (26, 14, 0), None),
    (0, 2, 1): ("none_found", 40, (26, 14, 0), None),
    (0, 2, 2): ("none_found", 40, (26, 14, 0), None),
    (0, 3, 0): ("none_found", 20, (13, 7, 0), None),
    (0, 3, 1): ("none_found", 20, (13, 7, 0), None),
    (0, 3, 2): ("none_found", 20, (13, 7, 0), None),
    (1, 0, 0): ("none_found", 40, (12, 28, 0), None),
    (1, 0, 1): ("none_found", 40, (12, 28, 0), None),
    (1, 0, 2): ("none_found", 40, (10, 30, 0), None),
    (1, 1, 0): ("none_found", 40, (26, 14, 0), None),
    (1, 1, 1): ("none_found", 40, (26, 14, 0), None),
    (1, 1, 2): ("none_found", 40, (26, 14, 0), None),
    (1, 2, 0): ("none_found", 40, (26, 14, 0), None),
    (1, 2, 1): ("none_found", 40, (26, 14, 0), None),
    (1, 2, 2): ("none_found", 40, (26, 14, 0), None),
    (1, 3, 0): ("none_found", 20, (13, 7, 0), None),
    (1, 3, 1): ("none_found", 20, (13, 7, 0), None),
    (1, 3, 2): ("none_found", 20, (13, 7, 0), None),
    (2, 0, 0): ("none_found", 40, (12, 28, 0), None),
    (2, 0, 1): ("none_found", 40, (12, 28, 0), None),
    (2, 0, 2): ("none_found", 40, (10, 30, 0), None),
    (2, 1, 0): ("none_found", 40, (26, 14, 0), None),
    (2, 1, 1): ("none_found", 40, (26, 14, 0), None),
    (2, 1, 2): ("none_found", 40, (26, 14, 0), None),
    (2, 2, 0): ("none_found", 40, (26, 14, 0), None),
    (2, 2, 1): ("none_found", 40, (26, 14, 0), None),
    (2, 2, 2): ("none_found", 40, (26, 14, 0), None),
    (2, 3, 0): ("none_found", 20, (13, 7, 0), None),
    (2, 3, 1): ("none_found", 20, (13, 7, 0), None),
    (2, 3, 2): ("none_found", 20, (13, 7, 0), None),
    (3, 0, 0): ("none_found", 40, (12, 28, 0), None),
    (3, 0, 1): ("none_found", 40, (12, 28, 0), None),
    (3, 0, 2): ("none_found", 40, (10, 30, 0), None),
    (3, 1, 0): ("none_found", 40, (26, 14, 0), None),
    (3, 1, 1): ("none_found", 40, (26, 14, 0), None),
    (3, 1, 2): ("none_found", 40, (26, 14, 0), None),
    (3, 2, 0): ("none_found", 40, (26, 14, 0), None),
    (3, 2, 1): ("none_found", 40, (26, 14, 0), None),
    (3, 2, 2): ("none_found", 40, (26, 14, 0), None),
    (3, 3, 0): ("none_found", 20, (13, 7, 0), None),
    (3, 3, 1): ("none_found", 20, (13, 7, 0), None),
    (3, 3, 2): ("none_found", 20, (13, 7, 0), None),
}


def _recorder(fn, log):
    def record(*args):
        log.append((args, fn(*args)))
        return log[-1][1]
    return record


def _recorded_search(monkeypatch, model, n, seed, budget):
    """Run one search and return it with the instances it built, and every
    sample it checked as (instance, frame, outcome), in order.

    The search makes no instance or diagram of a sample it does not
    return, so each is rebuilt here from its own draw: the objects, maps
    and permutation of the shape ``_corollary_shape`` built for its key,
    and the hub and fillers its check replayed that shape's walks with.
    A shape, its permutation, its level ranks, its frame and its walks
    are each built once per key, the last three by ``_shape_walks``, the
    helper ``check_zigzag_instance`` shares."""
    logs = {name: [] for name in ("_corollary_shape", "Permutation",
                                  "level_ranks", "build_zigzag_frame",
                                  "_shape_walks", "Diagram", "_check_zigzag",
                                  "ZigZagInstance")}
    for name, log in logs.items():
        monkeypatch.setattr(zigzag, name, _recorder(getattr(zigzag, name),
                                                    log))
    result = search_counterexample(model, n, max_rank=2, seed=seed,
                                   budget=budget)
    monkeypatch.undo()
    (shapes, perms, levels, frames, walks, diagrams, checks,
     built) = logs.values()
    # the witness, when there is one, derives its level ranks once more
    # to validate its fillers
    keys = {args[1:3] for args, _ in shapes}
    assert (len(shapes) == len(perms) == len(levels) - len(built)
            == len(frames) == len(walks) == len(keys))
    assert diagrams == [] and len(checks) == result.samples
    by_premise = {}
    for (args, shape), (_, perm), (frame_args, frame), (walk_args, walked) in (
            zip(shapes, perms, frames, walks)):
        fields = shape[0]
        assert args[0] is fields[0] is model and fields[6] is perm
        assert perm.images == args[2] and frame_args[5] is perm
        assert walk_args == fields and shape[1:] == walked
        assert walked[1] is frame
        by_premise[id(shape[3])] = fields, frame, shape[3:]
    samples = []
    for (objects, premise, conclusion, fillers), outcome in checks:
        fields, frame, pair = by_premise[id(premise)]
        assert objects is frame[0] and pair == (premise, conclusion)
        left, right = fillers["left"], fillers["right"]
        inst = ZigZagInstance(*fields, left[0].cod, left, right)
        samples.append((inst, frame, outcome))
    return result, [inst for _, inst in built], samples


@pytest.mark.parametrize("mix", (-1, 0, 1, 2, 3))
def test_search_results_are_pinned_and_match_fresh_checks(monkeypatch, mix):
    for n in range(4):
        for seed in range(3):
            budget = 20 if n == 3 else 40
            result, built, samples = _recorded_search(
                monkeypatch, Model(INTEGERS, mix), n, seed, budget)
            digest = None
            if result.instance is not None:
                digest = hashlib.sha256(dumps(zigzag_to_json(
                    result.instance)).encode()).hexdigest()[:16]
            stats = result.stats
            got = (result.status, result.samples, (
                stats["premise_fails"], stats["holds"], stats["violated"]),
                digest)
            assert got == PINNED[mix, n, seed], (mix, n, seed)
            # one instance, the witness, and only when one is returned
            if result.status == "violated":
                assert built == [result.instance]
                assert result.instance is built[0]
                assert result.instance == samples[-1][0]
            else:
                assert built == [] and result.instance is None
            for inst, _, outcome in samples:
                # ZigZagOutcome equality covers the status and the whole
                # CounterPath: src, dst and both paths
                assert check_zigzag_instance(inst) == outcome


@pytest.mark.parametrize("mix", (-1, 0, 1, 2, 3))
def test_each_sample_matches_the_reference_tree_check(monkeypatch, mix):
    # every sample's outcome, CounterPath included, is the one the
    # reference check of the pre-split tree walk gives its whole diagram
    for n in range(4):
        for seed in range(3):
            samples = _recorded_search(monkeypatch, Model(INTEGERS, mix), n,
                                       seed, 20 if n == 3 else 40)[2]
            for inst, frame, outcome in samples:
                whole = build_zigzag_diagram(
                    inst.model, frame, inst.hub, inst.left_fillers,
                    inst.right_fillers)
                assert reference_check_zigzag(whole) == outcome, (mix, n,
                                                                  seed)


@pytest.mark.parametrize("mix", (0, 2))
def test_each_frame_matches_one_built_for_its_own_instance(monkeypatch, mix):
    # the search builds a frame for the first sample of each (base ranks,
    # permutation) and checks every later one in it; a frame built afresh
    # from any of those samples' own draws has equal objects and edges
    checked = []
    for n in range(4):
        checked += _recorded_search(monkeypatch, Model(INTEGERS, mix), n,
                                    seed=4, budget=20 if n == 3 else 40)[2]
    shared = 0
    for inst, frame, _ in checked:
        fresh = zigzag.build_zigzag_frame(
            inst.model, inst.upper, inst.lower, inst.down_maps, inst.up_maps,
            inst.perm, zigzag.level_ranks(inst.upper, inst.apex, inst.lower,
                                          inst.perm))
        assert fresh is not frame and fresh == frame
        shared += sum(other is frame for _, other, _ in checked) > 1
    assert len(checked) > 100 and shared > len(checked) // 2

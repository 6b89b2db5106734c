"""Differential test for the zig-zag search: pinned results and per-sample
outcomes.

Every search result over mix -1..3, n = 0..3 and three seeds is pinned:
status, samples, stats and a digest of the canonical witness JSON.  And
every instance a search samples gets the outcome that
``check_zigzag_instance`` gives the same instance on its own, the whole
``CounterPath`` included.
"""

import hashlib

import pytest

from mixtrace import zigzag
from mixtrace.category import Model
from mixtrace.rings import INTEGERS
from mixtrace.serialize import dumps, zigzag_to_json
from mixtrace.zigzag import check_zigzag_instance, search_counterexample

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


def _recorded_search(monkeypatch, model, n, seed, budget):
    """Run one search and return it with every instance it built and
    every outcome it reached, in order.  Both are recorded where the
    module constructs them, so the record does not depend on which
    function the search calls per sample."""
    instances, outcomes = [], []
    make_instance, make_outcome = zigzag.ZigZagInstance, zigzag.ZigZagOutcome

    def record_instance(*args, **kwargs):
        instances.append(make_instance(*args, **kwargs))
        return instances[-1]

    def record_outcome(*args, **kwargs):
        outcomes.append(make_outcome(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(zigzag, "ZigZagInstance", record_instance)
    monkeypatch.setattr(zigzag, "ZigZagOutcome", record_outcome)
    result = search_counterexample(model, n, max_rank=2, seed=seed,
                                   budget=budget)
    monkeypatch.undo()
    return result, instances, outcomes


@pytest.mark.parametrize("mix", (-1, 0, 1, 2, 3))
def test_search_results_are_pinned_and_match_fresh_checks(monkeypatch, mix):
    for n in range(4):
        for seed in range(3):
            budget = 20 if n == 3 else 40
            result, instances, outcomes = _recorded_search(
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
            assert len(instances) == len(outcomes) == result.samples
            assert result.instance in (None, instances[-1])
            for inst, outcome in zip(instances, outcomes):
                # ZigZagOutcome equality covers the status and the whole
                # CounterPath: src, dst, both paths and both values
                assert check_zigzag_instance(inst) == outcome


@pytest.mark.parametrize("mix", (0, 2))
def test_each_frame_matches_one_built_for_its_own_instance(monkeypatch, mix):
    # the search builds a frame for the first instance of each (base
    # ranks, permutation) and checks every later one in it; a frame built
    # afresh from any of those instances has equal objects and edges
    checked = []
    original = zigzag._check_in_frame

    def record(inst, frame):
        checked.append((inst, frame))
        return original(inst, frame)

    monkeypatch.setattr(zigzag, "_check_in_frame", record)
    for n in range(4):
        search_counterexample(Model(INTEGERS, mix), n, max_rank=2, seed=4,
                              budget=20 if n == 3 else 40)
    monkeypatch.undo()
    shared = 0
    for inst, frame in checked:
        fresh = zigzag.build_zigzag_frame(
            inst.model, inst.upper, inst.lower, inst.down_maps, inst.up_maps,
            inst.perm, inst.levels)
        assert fresh is not frame and fresh == frame
        shared += sum(other is frame for _, other in checked) > 1
    assert len(checked) > 100 and shared > len(checked) // 2

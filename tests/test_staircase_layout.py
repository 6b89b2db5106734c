"""The witness diagram of a free trace, as ``trace --mode free --witness``
emits it, is byte for byte what the library's diagram writer writes for
the dense staircase diagram of ``trace_reference.staircase_diagram``: on
seeded random loops in seven models, on loops with a hidden object or an
endpoint of rank 0, and on the k = 5 hidden shapes of the deep-trace
benchmark.  Both the diagram alone and the whole reply, where the diagram
is written two levels deep, are compared."""

import random
from math import prod

import pytest

from mixtrace.category import mor_scale, random_mor, zero_mor
from mixtrace.cli import parse_model_arg
from mixtrace.loops import Loop, hidden_symmetry
from mixtrace.serialize import diagram_to_json, dumps, trace_result_to_json
from mixtrace.traces import free_mixed_trace, random_loop

from trace_reference import staircase_diagram

MODELS = ("zmod:1", "zmod:2", "zmod:3", "zmod:-2", "qmod:1/2", "zloc:2",
          "zloc:6")
LOOPS_PER_MODEL = 200

# The hidden ranks of the deep-trace benchmark's k = 5 loops whose witness
# is inside the entry bound; (2, 2, 2, 2, 2) is refused at 32^4 entries.
DEEP_K5 = ((2, 1, 2, 2, 1), (1, 2, 2, 2, 2), (2, 2, 1, 2, 2))


def _emits_as_drawn(p: Loop) -> bool:
    """Check the emitted witness diagram of p's free trace against the
    drawn one; False when the trace has no witness."""
    r = free_mixed_trace(p, want_witness=True)
    if r.witness is None:
        return False
    emitted = trace_result_to_json(r, p)
    aligned = p if r.alpha is None else hidden_symmetry(p, r.alpha)
    d = staircase_diagram(aligned, r.witness)
    drawn = diagram_to_json(d.model, d.objects, d.edges)
    assert dumps(emitted["witness"]["diagram"]) == dumps(drawn)
    expected = dict(emitted, witness=dict(emitted["witness"], diagram=drawn))
    assert dumps(emitted) == dumps(expected)
    return True


@pytest.mark.parametrize("name", MODELS)
def test_random_witnesses_are_emitted_as_drawn(name):
    model = parse_model_arg(name)
    rng = random.Random(f"staircase-layout:{name}")
    emitted = sum(_emits_as_drawn(random_loop(rng, model, 3, 3))
                  for _ in range(LOOPS_PER_MODEL))
    assert emitted >= LOOPS_PER_MODEL // 4, emitted


@pytest.mark.parametrize("name", ["zmod:2", "qmod:1/2", "zloc:6"])
@pytest.mark.parametrize("a, b, hidden", [
    (2, 1, (2, 0, 3)), (1, 1, (0,)), (2, 3, (3, 2, 0)),
    (0, 2, (2, 3)), (2, 0, (3, 1, 2)), (0, 0, (2,))],
    ids=["hidden-rank-0", "only-hidden-rank-0", "last-hidden-rank-0",
         "A-rank-0", "B-rank-0", "both-rank-0"])
def test_rank_zero_witnesses_are_emitted_as_drawn(name, a, b, hidden):
    model = parse_model_arg(name)
    h = prod(hidden)
    assert _emits_as_drawn(Loop(model, a, b, hidden,
                                zero_mor(model, a * h, b * h)))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("dims", DEEP_K5, ids=str)
def test_deep_trace_k5_witnesses_are_emitted_as_drawn(dims, m):
    model = parse_model_arg(f"zmod:{m}")
    rng = random.Random(f"deep-k5:{dims}:{m}")
    h, k = prod(dims), len(dims)
    # scaled by m^k the carrier solves in the identity ordering; scaled by
    # m^(k-1) it solves in a later one, if in any
    solved = [_emits_as_drawn(Loop(model, 1, 1, dims, mor_scale(
        random_mor(model, rng, h, h), m ** power))) for power in (k, k - 1)]
    assert solved[0]

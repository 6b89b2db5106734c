"""Tests of the benchmark's own code: the contraction reference, the
deep-trace generators, seeding, and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import itertools
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(HERE))

import workloads  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402


def identity_loop_carrier(k):
    h = 2 ** k
    return [[1 if i == j else 0 for j in range(h)] for i in range(h)]


def solvable(carrier, dims, m, order):
    return all(all(v % m ** (s + 1) == 0 for v in workloads.contract(
        carrier, 1, 1, dims, frozenset(order[:s])).values())
        for s in range(len(dims)))


def test_reference_criterion_4_loop():
    for k in (3, 4):
        carrier = identity_loop_carrier(k)
        assert workloads.trace_reference(carrier, 1, 1, (2,) * k, 2) == \
            (None, [[1]])
        assert workloads.trace_reference(carrier, 1, 1, (2,) * k, 3) == \
            (None, None)


def test_traced_free_trace_of_criterion_4_loop(tmp_path):
    from mixtrace import cli

    path = tmp_path / "loop.json"
    path.write_text(json.dumps(workloads.loop_json(
        2, 1, 1, (2, 2, 2), identity_loop_carrier(3))))
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(["trace", "--mode", "free", "--loop", str(path)])
    finally:
        tracer.uninstall()
    assert rc == 0 and json.loads(out.getvalue())["status"] == "undefined"
    metrics = tracer.metrics()
    assert metrics["traces.provisional_trace.calls"] == 6
    assert metrics["traces.free_defined_frac"] == 0
    assert metrics["traces.orderings_per_free_trace"] == 6
    assert not hasattr(cli.main, "__wrapped__")


@pytest.mark.parametrize("m,k", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_family_2_solves_only_in_orderings_ending_in_index_0(m, k):
    dims = workloads.DEEP_DIMS[(2, k)]
    carrier = workloads.family_carrier(random.Random(f"t{m}{k}"), 2, m, dims)
    for order in itertools.permutations(range(k)):
        assert solvable(carrier, dims, m, order) == (order[-1] == 0)
    first, value = workloads.trace_reference(carrier, 1, 1, dims, m)
    assert first == tuple(range(1, k)) + (0,)
    assert value is not None


@pytest.mark.parametrize("m,k", [(2, 3), (3, 4)])
def test_family_3_solves_in_no_ordering(m, k):
    dims = workloads.DEEP_DIMS[(3, k)]
    carrier = workloads.family_carrier(random.Random(f"t{m}{k}"), 3, m, dims)
    assert not any(solvable(carrier, dims, m, order)
                   for order in itertools.permutations(range(k)))


def test_permute_hidden_matches_the_library():
    from mixtrace import serialize
    from mixtrace.loops import Permutation, hidden_symmetry

    dims = (2, 1, 2)
    carrier = workloads.family_carrier(random.Random(5), 1, 2, dims)
    loop = serialize.loop_from_json(workloads.loop_json(2, 1, 1, dims,
                                                        carrier))
    for order in itertools.permutations(range(3)):
        image = workloads.permute_hidden(carrier, 1, 1, dims, order)
        want = serialize.loop_from_json(workloads.loop_json(
            2, 1, 1, [dims[i] for i in order], image))
        assert hidden_symmetry(loop, Permutation(order)) == want


def rounds(workload, seed, n, workdir):
    return [workloads.make_round(workload, seed, r, workdir)
            for r in range(-1, n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeding(workload, tmp_path):
    wd = str(tmp_path)
    first = rounds(workload, 1, 2, wd)
    assert first == rounds(workload, 1, 2, wd)
    other = rounds(workload, 2, 2, wd)
    assert first[0] == other[0]  # the warm-up round is fixed
    assert first[1:] != other[1:]
    # No input repeats: compare argument lists with each file path
    # replaced by the file's content.
    inputs = []
    for rnd in first:
        files = {p: v for req in rnd for p, v in req["files"].items()}
        inputs += [json.dumps([files.get(a, a) for a in req["argv"]])
                   for req in rnd]
    assert len(inputs) == len(set(inputs))


def test_benchmark_json_lists_the_reported_metrics():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        tracer.PER_LAYER_UNITS

"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and the reported statistics.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from mixtrace.category import (Model, Obj, canonical_map, compose,
                               dual_mor, identity, mor, obj_tensor,
                               random_mor, tensor_mor, validate_coherence)
from mixtrace.compactify import loop_value, verify_compactness
from mixtrace.errors import ModelNotCompactifiableError
from mixtrace.loops import (Loop, Permutation, all_permutations,
                            hidden_symmetry, loop_compose, loop_dual,
                            loop_par, loop_tensor,
                            morphism_tensor_loop, one_step_congruent,
                            post_compose, pre_compose, yanking_loop)
from mixtrace.rings import INTEGERS, RATIONALS
from mixtrace.serialize import dumps, loop_to_json
from mixtrace.traces import (free_mixed_trace, hidden_trace,
                             induced_mixed_trace, random_loop,
                             run_axiom_suite, total_trace)
from mixtrace.zigzag import check_zigzag_instance, search_counterexample
from mixtrace import serialize

from trace_reference import assert_solvable_orderings_agree

Q1 = Model(RATIONALS, 1)


def zmodel(m):
    return Model(INTEGERS, m)


def report(criterion, detail=""):
    print(f"PASS criterion {criterion}" + (f": {detail}" if detail else ""))


def test_criterion_1_coherence_suite():
    start = time.monotonic()
    models = [zmodel(m) for m in (0, 1, 2, 3)] + [Q1]
    for model in models:
        rep = validate_coherence(model, max_rank=3)
        failed = [c.name for c in rep.checks if not c.passed]
        assert rep.ok, (str(model), failed)
        assert any(c.name == "shuffle-composition-orders" for c in rep.checks)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"coherence suite took {elapsed:.1f}s"
    report(1, f"coherence of 5 models at ranks <= 3 in {elapsed:.1f}s")


def test_criterion_2_yanking():
    for m in (1, 2, 3):
        model = zmodel(m)
        for rank in range(0, 5):
            loop = yanking_loop(model, Obj(rank))
            res = free_mixed_trace(loop)
            assert_solvable_orderings_agree(loop, res)
            assert res.status == "defined"
            assert res.value == identity(model, Obj(rank))
    report(2, "free trace of the mixed-symmetry loop is the identity, "
              "ranks <= 4, m in {1,2,3}")


def test_criterion_3_axiom_suite():
    start = time.monotonic()
    ratios = {}
    for m in (1, 2, 3):
        rep = run_axiom_suite(zmodel(m), seed=42, cases=1000, max_rank=3,
                              max_hidden=2)
        assert rep.total_failures == 0, rep.to_dict()
        for kind in ("free", "induced"):
            ratio = rep.definedness_ratio(kind)
            assert ratio >= Fraction(3, 10), (m, kind, ratio)
            ratios[(m, kind)] = float(ratio)
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"axiom suite took {elapsed:.1f}s"
    report(3, f"3000 seeded cases, zero violations, defined ratios "
              f"{ratios} in {elapsed:.1f}s")


def test_criterion_4_minimality_gap():
    model = zmodel(2)
    p = Loop(model, Obj(1), Obj(1), (Obj(2),), identity(model, Obj(2)))
    ind = induced_mixed_trace(p)
    assert ind.status == "defined" and ind.value.entries == ((1,),)
    assert free_mixed_trace(p).status == "undefined"
    report(4, "identity carrier over a hidden rank-2 object: induced trace "
              "[[1]], free trace undefined")


def test_criterion_5_zigzag():
    res = search_counterexample(zmodel(0), n=1, max_rank=2, seed=5, budget=60)
    assert res.status == "violated"
    replay = check_zigzag_instance(res.instance)
    assert replay.status == "violated"
    round_trip = serialize.zigzag_from_json(
        json.loads(json.dumps(serialize.zigzag_to_json(res.instance))))
    assert check_zigzag_instance(round_trip).status == "violated"

    stats = {}
    for m in (1, 2):
        out = search_counterexample(zmodel(m), n=1, max_rank=2, seed=17,
                                    budget=5000)
        assert out.status == "none_found" and out.stats["violated"] == 0
        out2 = search_counterexample(zmodel(m), n=2, max_rank=2, seed=23,
                                     budget=5000)
        assert out2.status == "none_found" and out2.stats["violated"] == 0
        stats[m] = {"n1": out.stats, "n2": out2.stats}
    report(5, f"m=0 violated with replayable witness; 10^4 samples for each "
              f"of m=1,2 with no violation: {stats}")


def test_criterion_6_compactification():
    for m in (1, 2, 3):
        rep = verify_compactness(zmodel(m), max_rank=3, seed=0, samples=1000)
        failed = [c.name for c in rep.checks if not c.passed]
        assert rep.ok, (m, failed)
    with pytest.raises(ModelNotCompactifiableError):
        verify_compactness(zmodel(0), max_rank=3)
    report(6, "comix inverts mix, embedding faithful on 10^3 sampled pairs, "
              "realize round-trips denominators up to m^3; m=0 reports "
              "ModelNotCompactifiable")


def test_criterion_7_congruence_soundness():
    move_count = 0
    for m in (2, 3):
        model = zmodel(m)
        rng = random.Random(f"moves:{m}")
        while_moves = 0
        attempts = 0
        while while_moves < 1000 and attempts < 20000:
            attempts += 1
            p = random_loop(rng, model, 3, 2)
            v = loop_value(p)
            for tail in range(1, p.k + 1):
                t = hidden_trace(p, tail)
                if t is not None:
                    assert loop_value(t) == v
                    while_moves += 1
            for alpha in all_permutations(p.k):
                if not alpha.is_identity:
                    assert loop_value(hidden_symmetry(p, alpha)) == v
                    while_moves += 1
        assert while_moves >= 1000, f"only {while_moves} moves at m={m}"
        move_count += while_moves

    pair_count = 0
    for m in (2, 3):
        model = zmodel(m)
        rng = random.Random(f"pairs:{m}")
        while pair_count < 500 * (1 if m == 2 else 2):
            p = random_loop(rng, model, 2, 2)
            if p.k == 0:
                continue
            t = hidden_trace(p, rng.randint(1, p.k))
            if t is None:
                images = list(range(p.k))
                rng.shuffle(images)
                q = hidden_symmetry(p, Permutation(tuple(images)))
            else:
                q = t
            assert one_step_congruent(p, q)
            f = random_mor(model, rng, Obj(rng.randint(0, 2)), p.dom)
            g = random_mor(model, rng, p.cod, Obj(rng.randint(0, 2)))
            lhs = post_compose(g, pre_compose(p, f))
            rhs = post_compose(g, pre_compose(q, f))
            assert loop_value(lhs) == loop_value(rhs)
            h = random_mor(model, rng, Obj(rng.randint(0, 2)),
                           Obj(rng.randint(0, 2)))
            assert loop_value(morphism_tensor_loop(h, p)) == \
                loop_value(morphism_tensor_loop(h, q))
            r = random_loop(rng, model, 2, 1)
            assert loop_value(loop_tensor(p, r)) == \
                loop_value(loop_tensor(q, r))
            assert loop_value(loop_par(p, r)) == loop_value(loop_par(q, r))
            assert loop_value(loop_dual(p)) == loop_value(loop_dual(q))
            hid = tuple(Obj(rng.randint(0, 2))
                        for _ in range(rng.randint(0, 2)))
            hsize = 1
            for x in hid:
                hsize *= x.rank
            cc = Obj(rng.randint(0, 2))
            follow = Loop(model, p.cod, cc, hid,
                          random_mor(model, rng, Obj(p.cod.rank * hsize),
                                     Obj(cc.rank * hsize)))
            assert loop_value(loop_compose(follow, p)) == \
                loop_value(loop_compose(follow, q))
            pair_count += 1
    report(7, f"{move_count} one-step moves preserve the loop value; "
              f"{pair_count} congruent pairs respect composition, tensor, "
              f"dual and cotensor")


def test_criterion_8_total_trace_axioms():
    rng = random.Random("total-trace")
    cases = 0
    while cases < 1000:
        a, b, x, y = (Obj(rng.randint(0, 3)) for _ in range(4))
        u, v = Obj(rng.randint(0, 2)), Obj(rng.randint(0, 2))
        au = obj_tensor(a, u)
        bu = obj_tensor(b, u)
        phi = random_mor(Q1, rng, au, bu)
        f = random_mor(Q1, rng, x, a)
        g = random_mor(Q1, rng, b, y)

        # naturality
        lhs = compose(g, compose(total_trace(phi, a, b, u), f))
        rhs = total_trace(compose(tensor_mor(g, identity(Q1, u)),
                                  compose(phi, tensor_mor(f, identity(Q1, u)))),
                          x, y, u)
        assert lhs == rhs

        # strength
        s = random_mor(Q1, rng, x, y)
        assert tensor_mor(s, total_trace(phi, a, b, u)) == \
            total_trace(tensor_mor(s, phi), obj_tensor(x, a),
                        obj_tensor(y, b), u)

        # dinaturality w.r.t. symmetries and vanishing need a two-factor
        # hidden object
        psi = random_mor(Q1, rng, obj_tensor(a, u, v), obj_tensor(b, u, v))
        uv = obj_tensor(u, v)
        direct = total_trace(psi, a, b, uv)
        swap_in = tensor_mor(identity(Q1, a),
                             canonical_map(Q1, "symmetry", [v, u]))
        swap_out = tensor_mor(identity(Q1, b),
                              canonical_map(Q1, "symmetry", [u, v]))
        assert direct == total_trace(compose(swap_out, compose(psi, swap_in)),
                                     a, b, obj_tensor(v, u))
        inner = total_trace(psi, obj_tensor(a, u), obj_tensor(b, u), v)
        assert direct == total_trace(inner, a, b, u)

        # yanking and the unit identity
        r = Obj(rng.randint(0, 3))
        assert total_trace(canonical_map(Q1, "symmetry", [r, r]), r, r, r) \
            == identity(Q1, r)
        h = random_mor(Q1, rng, a, b)
        assert total_trace(tensor_mor(h, identity(Q1, Obj(1))), a, b,
                           Obj(1)) == h
        cases += 1
    report(8, "total-trace axioms (with the unit identity) hold on 1000 "
              "seeded cases over the compact rational model")


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "mixtrace.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_criterion_9_cli_determinism(tmp_path):
    suite_cmds = [
        ("validate", "--model", "zmod:2", "--max-rank", "2", "--seed", "42"),
        ("axioms", "--model", "zmod:2", "--cases", "200", "--seed", "42"),
        ("zigzag-search", "--model", "zmod:0", "--n", "1", "--max-rank", "2",
         "--seed", "42"),
        ("zigzag-search", "--model", "zmod:2", "--n", "1", "--max-rank", "2",
         "--seed", "42", "--budget", "300"),
        ("compactify-verify", "--model", "zmod:2", "--max-rank", "2",
         "--samples", "100", "--seed", "42"),
    ]
    outputs = []
    for cmd in suite_cmds:
        code_a, out_a = run_cli(*cmd)
        code_b, out_b = run_cli(*cmd)
        assert code_a == code_b
        assert out_a == out_b, f"nondeterministic output for {cmd}"
        outputs.append(out_a)

    # every emitted witness re-checks
    search_payload = json.loads(outputs[2])
    assert search_payload["status"] == "violated"
    wit = tmp_path / "witness.json"
    wit.write_text(dumps(search_payload["witness"]))
    code, out = run_cli("zigzag-check", "--instance", str(wit))
    assert code == 1 and json.loads(out)["outcome"] == "violated"

    loop_file = tmp_path / "loop.json"
    p = Loop(zmodel(2), Obj(1), Obj(1), (Obj(2),),
             mor(zmodel(2), Obj(2), Obj(2), [[2, 0], [0, 4]]))
    loop_file.write_text(dumps(loop_to_json(p)))
    code, out = run_cli("trace", "--mode", "free", "--loop", str(loop_file),
                        "--witness")
    assert code == 0
    payload = json.loads(out)
    diag = tmp_path / "diagram.json"
    diag.write_text(dumps(payload["witness"]["diagram"]))
    code, out = run_cli("zigzag-check", "--instance", str(diag))
    assert code == 0 and json.loads(out)["outcome"] == "commutes"

    # printed values re-parse to equal typed data
    assert serialize.mor_from_json(payload["value"]) == \
        induced_mixed_trace(p).value
    report(9, "five CLI reports byte-identical across reruns; search and "
              "staircase witnesses re-check")

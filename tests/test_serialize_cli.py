import json
import os
import random
import subprocess
import sys

import pytest

from mixtrace.category import Model, canonical_map, mor, random_mor
from mixtrace.compactify import localized_model
from mixtrace.loops import Loop, Permutation, hidden_symmetry, yanking_loop
from mixtrace.rings import INTEGERS, localized_integers
from mixtrace.serialize import (FileFormatError, dumps, loop_from_json,
                                loop_to_json, model_from_json, model_to_json,
                                mor_from_json, mor_to_json, zigzag_from_json,
                                zigzag_to_json, diagram_from_json,
                                diagram_to_json)
from mixtrace.zigzag import ZigZagInstance, check_zigzag_instance
from mixtrace import cli

from trace_reference import provisional_trace, staircase_diagram

Z0 = Model(INTEGERS, 0)
Z2 = Model(INTEGERS, 2)
r1, r2 = 1, 2


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "mixtrace.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_model_roundtrip():
    for model in (Z0, Z2, Model(localized_integers(2), 2)):
        assert model_from_json(model_to_json(model)) == model
    with pytest.raises(FileFormatError):
        model_from_json({"ring": "Z", "mix": "1/2"})
    with pytest.raises(FileFormatError):
        model_from_json({"ring": {"Zloc": 0}, "mix": "1"})
    with pytest.raises(FileFormatError):
        model_from_json({"ring": "Z"})


def _plain(payload):
    """A ``*_to_json`` payload as the JSON it is written as."""
    return json.loads(dumps(payload))


def test_mor_roundtrip():
    f = mor(Z2, r2, r2, [[1, -2], [0, 7]])
    data = _plain(mor_to_json(f))
    assert data["entries"] == [["1", "-2"], ["0", "7"]]
    assert mor_from_json(data) == f
    loc = localized_model(Z2)
    from fractions import Fraction

    g = mor(loc, r1, r1, [[Fraction(3, 4)]])
    assert mor_from_json(_plain(mor_to_json(g))) == g
    bad = dict(data)
    bad["entries"] = [["1", "3/0"], ["0", "7"]]
    with pytest.raises(FileFormatError):
        mor_from_json(bad)


def test_loop_roundtrip():
    p = Loop(Z2, r1, r1, (r2,), mor(Z2, r2, r2, [[2, 0], [0, 4]]))
    assert loop_from_json(_plain(loop_to_json(p))) == p
    data = _plain(loop_to_json(p))
    data["hidden"] = [3]
    with pytest.raises(FileFormatError):
        loop_from_json(data)


def test_zigzag_roundtrip():
    inst = ZigZagInstance(
        Z0, (r1,), (r1,), (r1,),
        (canonical_map(Z0, "mix_map", [r1, r1]),),
        (canonical_map(Z0, "coev", [r1]),),
        Permutation((0,)), r1,
        (mor(Z0, r1, r1, [[0]]), mor(Z0, r1, r1, [[1]])),
        (mor(Z0, r1, r1, [[0]]), mor(Z0, r1, r1, [[2]])))
    back = zigzag_from_json(_plain(zigzag_to_json(inst)))
    assert back == inst
    assert check_zigzag_instance(back).status == "violated"


def test_diagram_roundtrip():
    p = Loop(Z2, r1, r1, (r2,), mor(Z2, r2, r2, [[2, 0], [0, 4]]))
    res = provisional_trace(p, want_witness=True)
    d = staircase_diagram(p, res.witness)
    assert diagram_from_json(_plain(diagram_to_json(d.model, d.objects,
                                                    d.edges))) == d


@pytest.mark.parametrize("end, node", [("src", 3), ("dst", 2)])
def test_diagram_node_index_past_the_objects(end, node):
    data = {"model": {"ring": "Z", "mix": "2"}, "objects": [1, 1],
            "edges": [{"src": 0, "dst": 1, "entries": [["1"]]}]}
    data["edges"][0][end] = node
    with pytest.raises(FileFormatError) as info:
        diagram_from_json(data)
    assert str(info.value) == (f"diagram.edges[0].{end}: node {node}, but "
                               f"the diagram has 2 objects")


@pytest.mark.parametrize("mode", [None, "semantic", "semantic:junk"])
def test_cli_refuses_generators_outside_bounded_mode(tmp_path, capsys,
                                                     mode):
    # refused before any file is read: none of the three files exists
    missing = str(tmp_path / "missing.json")
    argv = ["congruent", "--left", missing, "--right", missing,
            "--generators", missing] + (["--mode", mode] if mode else [])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "input error: --generators is read only by --mode bounded\n")


@pytest.mark.parametrize("mode, error", [
    ("bounded:x", "bad bounded depth 'x'"),
    ("weird", "unknown congruence mode 'weird'")])
def test_cli_parses_the_mode_before_reading_files(tmp_path, capsys, mode,
                                                  error):
    # a malformed mode is named first, with or without readable files
    missing = str(tmp_path / "missing.json")
    loop = write(tmp_path, "l.json", LOOP)
    for left in (missing, loop):
        argv = ["congruent", "--mode", mode, "--left", left, "--right", loop]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"input error: {error}\n"


@pytest.mark.parametrize("generators", [{"loops": 5}, [1]])
def test_cli_bounded_mode_reads_a_loops_list(tmp_path, capsys, generators):
    loop = write(tmp_path, "l.json", LOOP)
    g = write(tmp_path, "g.json", generators)
    argv = ["congruent", "--mode", "bounded:1", "--left", loop, "--right",
            loop, "--generators", g]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f'input error: {g}: expected {{"loops": [...]}}\n')


def _rank_one_loop(k, carrier):
    return loop_to_json(Loop(Z2, r1, r1, (r1,) * k,
                             mor(Z2, r1, r1, [[carrier]])))


def test_cli_answers_400_rank_one_hidden_objects(tmp_path, capsys):
    # each bounded move traces a tail of rank-1 objects; such a tail is
    # divided by a power of m, not searched, so k = 400 stays cheap
    left = write(tmp_path, "l.json", _rank_one_loop(400, 2 ** 400))
    short = write(tmp_path, "s.json", _rank_one_loop(400, 2 ** 399))
    right = write(tmp_path, "r.json", _rank_one_loop(0, 1))
    assert cli.main(["congruent", "--mode", "bounded:1", "--left", left,
                     "--right", right]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "congruent": True, "mode": "bounded:1"}
    assert cli.main(["trace", "--mode", "free", "--loop", left]) == 0
    reply = json.loads(capsys.readouterr().out)
    assert reply["status"] == "defined"
    assert reply["value"]["entries"] == [["1"]]
    assert reply["alpha"] == list(range(400))
    assert cli.main(["trace", "--mode", "free", "--loop", short]) == 0
    assert json.loads(capsys.readouterr().out) == {"status": "undefined"}


@pytest.mark.parametrize("name", ["", "missing.json"])
def test_cli_refuses_an_absent_generators_file(tmp_path, capsys, monkeypatch,
                                               name):
    # an empty --generators path names no file, and is refused as a
    # missing one is, not read as no generators
    monkeypatch.chdir(tmp_path)
    loop = write(tmp_path, "l.json", LOOP)
    argv = ["congruent", "--mode", "bounded:1", "--left", loop, "--right",
            loop, "--generators", name]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", (
        f"input error: {name}: [Errno 2] No such file or directory: "
        f"{name!r}\n"))


def test_cli_names_two_unequal_parallel_edges(tmp_path, capsys):
    # two parallel edges with string labels and unequal matrices: the
    # diagram file is read and the counterexample names both edges
    two = dict(DIAGRAM, edges=DIAGRAM["edges"] + [
        {"src": 0, "dst": 1, "label": "g", "entries": [["2"]]}])
    assert cli.main(["zigzag-check", "--instance",
                     write(tmp_path, "d.json", two)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "outcome": "counterexample", "paths": {"a": [0], "b": [1]},
        "src": 0, "dst": 1}


@pytest.mark.parametrize("mix", ["0", "1/2"])
def test_cli_realize_needs_a_nonzero_integer_mix(tmp_path, capsys, mix):
    # m = 0 admits no compactification; a fractional mix is malformed input
    matrix = write(tmp_path, "m.json", dict(MATRIX, model={
        "ring": {"Zloc": 2}, "mix": mix}))
    assert cli.main(["realize", "--matrix", matrix]) == 2
    assert capsys.readouterr().err == (
        "input error: realize needs a nonzero integer mix scalar\n")


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps(payload) if not isinstance(payload, str)
                    else payload)
    return str(path)


def test_cli_trace_yanking(tmp_path):
    path = write(tmp_path, "yank.json", loop_to_json(yanking_loop(Z2, r2)))
    code, out, _ = run_cli("trace", "--mode", "free", "--loop", path,
                           "--expect-defined")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "defined"
    assert payload["value"]["entries"] == [["1", "0"], ["0", "1"]]


def test_cli_trace_witness_recheck(tmp_path):
    p = Loop(Z2, r1, r1, (r2,), mor(Z2, r2, r2, [[2, 0], [0, 4]]))
    path = write(tmp_path, "loop.json", loop_to_json(p))
    code, out, _ = run_cli("trace", "--mode", "free", "--loop", path,
                           "--witness")
    assert code == 0
    payload = json.loads(out)
    diag_path = write(tmp_path, "diag.json", payload["witness"]["diagram"])
    code2, out2, _ = run_cli("zigzag-check", "--instance", diag_path)
    assert code2 == 0
    assert json.loads(out2)["outcome"] == "commutes"


def test_cli_trace_undefined_expectation(tmp_path):
    p = Loop(Z2, r1, r1, (r2,), mor(Z2, r2, r2, [[1, 0], [0, 1]]))
    path = write(tmp_path, "gap.json", loop_to_json(p))
    code, out, _ = run_cli("trace", "--mode", "free", "--loop", path)
    assert code == 0 and json.loads(out)["status"] == "undefined"
    code, out, _ = run_cli("trace", "--mode", "free", "--loop", path,
                           "--expect-defined")
    assert code == 1
    code, out, _ = run_cli("trace", "--mode", "induced", "--loop", path)
    assert code == 0 and json.loads(out)["status"] == "defined"


def test_cli_parse_errors(tmp_path):
    bad = write(tmp_path, "bad.json", '{"model": {"ring": "Z"')
    code, _, err = run_cli("trace", "--mode", "free", "--loop", bad)
    assert code == 2 and "line" in err

    mismatch = write(tmp_path, "mismatch.json", {
        "model": {"ring": "Z", "mix": "1/2"}, "A": 1, "B": 1, "hidden": [],
        "carrier": {"model": {"ring": "Z", "mix": "1/2"}, "dom": 1, "cod": 1,
                    "entries": [["1"]]}})
    code, _, err = run_cli("trace", "--mode", "free", "--loop", mismatch)
    assert code == 2 and "mix" in err

    zero_den = write(tmp_path, "zden.json", {
        "model": {"ring": "Z", "mix": "2"}, "A": 1, "B": 1, "hidden": [],
        "carrier": {"model": {"ring": "Z", "mix": "2"}, "dom": 1, "cod": 1,
                    "entries": [["3/0"]]}})
    code, _, err = run_cli("trace", "--mode", "free", "--loop", zero_den)
    assert code == 2 and "denominator" in err

    one = write(tmp_path, "one.json", loop_to_json(
        Loop(Z2, r1, r1, (), mor(Z2, r1, r1, [[1]]))))
    gens = write(tmp_path, "gens.json", {"loops": 5})
    code, _, err = run_cli("congruent", "--mode", "bounded:1", "--left", one,
                           "--right", one, "--generators", gens)
    assert code == 2 and "loops" in err and "Traceback" not in err


def test_cli_congruent(tmp_path):
    six = write(tmp_path, "six.json", loop_to_json(
        Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[6]]))))
    three = write(tmp_path, "three.json", loop_to_json(
        Loop(Z2, r1, r1, (), mor(Z2, r1, r1, [[3]]))))
    code, out, _ = run_cli("congruent", "--mode", "semantic",
                           "--left", six, "--right", three)
    assert code == 0 and json.loads(out)["congruent"] is True
    code, out, _ = run_cli("congruent", "--mode", "bounded:3",
                           "--left", six, "--right", three)
    assert code == 0 and json.loads(out)["congruent"] is True
    two = write(tmp_path, "two.json", loop_to_json(
        Loop(Z2, r1, r1, (), mor(Z2, r1, r1, [[2]]))))
    code, out, _ = run_cli("congruent", "--mode", "semantic",
                           "--left", two, "--right", three)
    assert code == 1 and json.loads(out)["congruent"] is False


@pytest.mark.parametrize("mode,code", [
    ("bounded:-1", 2), ("bounded:x", 2), ("bounded:0", 0), ("bounded", 0),
    ("bounded:", 2), ("bounded: 3", 2), ("bounded:+2", 2),
    ("bounded:1_0", 2), ("bounded:\u0663", 2)])
def test_cli_congruent_depth(tmp_path, mode, code):
    six = write(tmp_path, "six.json", loop_to_json(
        Loop(Z2, r1, r1, (r1,), mor(Z2, r1, r1, [[6]]))))
    got, out, err = run_cli("congruent", "--mode", mode,
                            "--left", six, "--right", six)
    assert got == code, (got, err)
    if code == 2:
        assert err.startswith("input error:") and "depth" in err
    else:
        assert json.loads(out)["congruent"] is True


def test_cli_realize_output_has_a_free_trace(tmp_path):
    # 1/128 over Z[1/2] realizes with seven rank-1 hidden objects
    matrix = write(tmp_path, "m.json", {
        "model": {"ring": {"Zloc": 2}, "mix": "2"}, "dom": 1, "cod": 1,
        "entries": [["1/128"]]})
    code, out, _ = run_cli("realize", "--matrix", matrix)
    assert code == 0 and json.loads(out)["hidden"] == [1] * 7
    loop = write(tmp_path, "loop.json", json.loads(out))
    code, out, err = run_cli("trace", "--mode", "free", "--loop", loop)
    assert code == 0, err
    assert json.loads(out) == {"status": "undefined"}


def test_cli_free_trace_of_a_long_rank_one_part(tmp_path):
    k = 2000
    model = {"ring": "Z", "mix": "2"}
    loop = write(tmp_path, "long.json", {
        "model": model, "A": 1, "B": 1, "hidden": [1] * k,
        "carrier": {"model": model, "dom": 1, "cod": 1,
                    "entries": [[str(3 * 2 ** k)]]}})
    proc = subprocess.run([sys.executable, "-m", "mixtrace.cli", "trace",
                           "--mode", "free", "--loop", loop],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["status"] == "defined"
    assert payload["alpha"] == list(range(k))


def _hidden_size_32_loop(diagonal):
    """A loop over Z at mix 2 with five hidden objects of rank 2, hidden
    size 32, whose carrier is ``diagonal`` times the identity."""
    model = {"ring": "Z", "mix": "2"}
    rows = [[diagonal if i == j else "0" for j in range(32)]
            for i in range(32)]
    return {"model": model, "A": 1, "B": 1, "hidden": [2] * 5,
            "carrier": {"model": model, "dom": 32, "cod": 32,
                        "entries": rows}}


@pytest.mark.parametrize("diagonal, witness, code, status", [
    ("32", True, 1, None),
    ("32", False, 0, "defined"),
    ("1", True, 0, "undefined")])
def test_cli_witness_size_bound(tmp_path, capsys, diagonal, witness, code,
                                status):
    # a witness diagram's mix-0 edge has h^4 entries at hidden size h:
    # past the bound once an ordering is found, while the trace alone, and
    # an undefined trace, which has no witness, are still reported
    loop = write(tmp_path, "l.json", _hidden_size_32_loop(diagonal))
    argv = ["trace", "--mode", "free", "--loop", loop]
    assert cli.main(argv + ["--witness"] * witness) == code
    out, err = capsys.readouterr()
    if status is None:
        assert (out, err) == ("", (
            "resource limit: a staircase witness at hidden size 32 builds "
            "matrices of up to 32^4 = 1048576 entries, more than the bound "
            "1000000\n"))
    else:
        assert err == "" and json.loads(out)["status"] == status


def test_cli_congruent_past_six_hidden_objects(tmp_path):
    # one rank-2 and six rank-1 hidden objects, one hidden symmetry apart
    model = {"ring": "Z", "mix": "2"}
    carrier = {"model": model, "dom": 2, "cod": 2,
               "entries": [["1", "2"], ["3", "4"]]}
    left = write(tmp_path, "left.json", {
        "model": model, "A": 1, "B": 1, "hidden": [2] + [1] * 6,
        "carrier": carrier})
    right = write(tmp_path, "right.json", {
        "model": model, "A": 1, "B": 1, "hidden": [1] * 6 + [2],
        "carrier": carrier})
    code, out, err = run_cli("congruent", "--mode", "bounded:1",
                             "--left", left, "--right", right)
    assert code == 0, err
    assert json.loads(out)["congruent"] is True


def test_cli_congruent_relabelling_bound(tmp_path):
    # 7!/1! = 5040 distinct relabellings of a carrier with entries, past
    # the bound 720
    rng = random.Random(720)
    p = Loop(Z2, r1, r1, (r2,) * 6 + (r1,),
             random_mor(Z2, rng, 64, 64, 3))
    left = write(tmp_path, "left.json", loop_to_json(p))
    right = write(tmp_path, "right.json", loop_to_json(
        hidden_symmetry(p, Permutation((6, 0, 1, 2, 3, 4, 5)))))
    code, out, err = run_cli("congruent", "--mode", "bounded:1",
                             "--left", left, "--right", right)
    assert code == 1 and out == ""
    assert err.startswith("resource limit:") and "Traceback" not in err
    assert "5040" in err and "720" in err, err


def test_cli_zigzag_search_size_bound(monkeypatch, capsys):
    # (12^6)^2 entries in the top symmetry alone: refused before any
    # matrix is built, so no Mor is constructed
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(cli.zigzag.Mor, "__post_init__", no_matrix)
    code = cli.main(["zigzag-search", "--model", "zmod:2", "--n", "3",
                     "--max-rank", "12"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == ("resource limit: a zig-zag search at n = 3 and max_rank "
                   "12 builds matrices of up to 12^12 = 8916100448256 "
                   "entries, more than the bound 1000000\n")


def test_cli_zigzag_search_tree_bound(monkeypatch, capsys):
    # rank-1 matrices only, but 3203 nodes x 4806 edges per sample's check:
    # refused before any matrix is built
    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(cli.zigzag.Mor, "__post_init__", no_matrix)
    code = cli.main(["zigzag-search", "--model", "zmod:2", "--n", "800",
                     "--max-rank", "1", "--budget", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == ("resource limit: a zig-zag search at n = 800 checks "
                   "diagrams of 3203 nodes and 4806 edges, 15393618 "
                   "node-edge steps per sample, more than the bound 10000\n")


@pytest.mark.parametrize("upper, lower, hub, size", [
    ([100] * 3, [1] * 3, 0, "rank 1000000 builds matrices of up to "
     "1000000^2 = 1000000000000 entries"),
    ([1], [1000], 1001, "rank 1000 and hub 1001 builds matrices of up to "
     "1001000 entries")], ids=["level", "hub"])
def test_cli_zigzag_check_size_bound(tmp_path, capsys, upper, lower, hub,
                                     size):
    # a level of rank 10^6 makes frame maps of 10^12 entries; a filler to
    # a hub of rank 1001 times a path composite out of a level of rank 1000
    # has 1001 * 1000: each refused before the frame is built
    n = len(upper)
    inst = write(tmp_path, "big.json", {
        "model": {"ring": "Z", "mix": "2"}, "upper": upper, "apex": [1] * n,
        "lower": lower, "alpha": list(range(n)), "hub": hub,
        "down_maps": [[["0"] * u] for u in upper],
        "up_maps": [[["0"] * v] for v in lower],
        "left_fillers": [[["0"]] * hub] * (n + 1),
        "right_fillers": [[["0"]] * hub] * (n + 1)})
    assert cli.main(["zigzag-check", "--instance", inst]) == 1
    assert capsys.readouterr() == ("", (
        f"resource limit: a zig-zag instance of largest level {size}, more "
        "than the bound 1000000\n"))


def test_cli_zigzag_check_admits_the_largest_search_shape(tmp_path, capsys):
    # the widest shape a search at n = 3 and max_rank 3 can emit, base
    # ranks (3, 3, 3), has levels of rank 9^3 = 729 and 729^2 = 3^12
    # entries in its widest maps, inside the bound: it re-checks
    fields, domains, *_ = cli.zigzag._corollary_shape(Z0, (3, 3, 3),
                                                      (2, 0, 1), {})
    left, right = (tuple(mor(Z0, r, 1, [[0] * r]) for r in side)
                   for side in domains)
    inst = write(tmp_path, "wide.json", zigzag_to_json(
        ZigZagInstance(*fields, 1, left, right)))
    assert cli.main(["zigzag-check", "--instance", inst]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out), err) == ({"outcome": "holds"}, "")


@pytest.mark.parametrize("hidden, alpha", [([300, 300], [0, 1]),
                                           ([100, 100, 100], [0, 1, 2])],
                         ids=["k2", "k3"])
def test_cli_loop_with_no_rows_past_the_bound(tmp_path, capsys, hidden,
                                              alpha):
    # A = B = 0 over hidden objects of size 9 * 10^4 or 10^6: the pairing
    # form has no rows and h^2 columns, so no column offset is listed and
    # the traces and the bounded search answer; a witness is still refused
    model = {"ring": "Z", "mix": "2"}
    loop = write(tmp_path, "l.json", {
        "model": model, "A": 0, "B": 0, "hidden": hidden,
        "carrier": {"model": model, "dom": 0, "cod": 0, "entries": []}})
    value = {"model": model, "dom": 0, "cod": 0, "entries": []}
    for argv, expect in (
            (["trace", "--mode", "free"],
             {"status": "defined", "alpha": alpha, "value": value}),
            (["trace", "--mode", "induced"],
             {"status": "defined", "value": value}),
            (["congruent", "--mode", "bounded:1", "--right", loop],
             {"mode": "bounded:1", "congruent": True}),
            (["congruent", "--mode", "semantic", "--right", loop],
             {"mode": "semantic", "congruent": True})):
        flag = "--left" if argv[0] == "congruent" else "--loop"
        assert cli.main(argv + [flag, loop]) == 0
        out, err = capsys.readouterr()
        assert (json.loads(out), err) == (expect, "")
    assert cli.main(["trace", "--mode", "free", "--loop", loop,
                     "--witness"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("resource limit: a staircase witness")


class _Built(Exception):
    pass


def _refuse_to_build(monkeypatch):
    def refuse(*args):
        raise _Built

    monkeypatch.setattr(cli.compactify.Mor, "__post_init__", refuse)


@pytest.mark.parametrize("argv, size", [
    (["axioms", "--max-rank", "4", "--max-hidden", "3"], "4^10 = 1048576"),
    (["axioms", "--max-rank", "32", "--max-hidden", "0"], "32^4 = 1048576"),
    (["axioms", "--max-rank", "2", "--max-hidden", "1000"], "2^2004"),
    (["compactify-verify", "--max-rank", "4"], "4^12 = 16777216"),
    (["compactify-verify", "--max-rank", "100"], "100^12"),
])
def test_cli_axioms_and_compactify_verify_size_bounds(monkeypatch, capsys,
                                                      argv, size):
    # the largest matrix, sized from the options before any is built:
    # axioms' strength loop f (x) p, max_rank^(2 max_hidden + 4) entries,
    # and compactify-verify's tensor of two loops with two hidden objects
    # each, max_rank^12
    _refuse_to_build(monkeypatch)
    what = (f"an axiom suite at max_rank {argv[2]} and max_hidden {argv[4]}"
            if argv[0] == "axioms" else
            f"a compactness check at max_rank {argv[2]}")
    code = cli.main([*argv, "--model", "zmod:2"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (f"resource limit: {what} builds matrices of up to {size} "
                   "entries, more than the bound 1000000\n")


@pytest.mark.parametrize("rank, hidden", [("1", "1000000000"), ("0", "33")])
def test_cli_axioms_hidden_object_bound(monkeypatch, capsys, rank, hidden):
    # at max_rank <= 1 every matrix is 1 x 1, so the entry bound admits any
    # max_hidden; past 32 hidden objects the suite is refused before its
    # first loop is drawn
    def no_loop(*args):
        raise AssertionError("a loop was drawn")

    monkeypatch.setattr(cli.traces, "random_loop", no_loop)
    code = cli.main(["axioms", "--model", "zmod:2", "--max-rank", rank,
                     "--max-hidden", hidden])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (f"resource limit: an axiom suite at max_hidden {hidden} "
                   f"draws loops of up to {hidden} hidden objects, more than "
                   "the bound 32\n")


@pytest.mark.parametrize("argv", [
    ["axioms", "--max-rank", "3", "--max-hidden", "4"],   # 3^12 = 531441
    ["axioms", "--max-rank", "31", "--max-hidden", "0"],  # 31^4 = 923521
    ["compactify-verify", "--max-rank", "3"],             # 3^12 = 531441
    ["axioms", "--max-rank", "1", "--max-hidden", "32"],  # 32 hidden objects
])
def test_cli_size_bounds_admit_up_to_the_bound(monkeypatch, argv):
    _refuse_to_build(monkeypatch)
    with pytest.raises(_Built):
        cli.main([*argv, "--model", "zmod:2"])


def test_cli_size_bounds_come_after_the_input_checks(capsys):
    # a negative count is malformed input, and a zero mix is not
    # compactifiable, however large the matrices would be
    assert cli.main(["axioms", "--model", "zmod:2", "--max-rank", "100",
                     "--cases", "-1"]) == 2
    assert cli.main(["compactify-verify", "--model", "zmod:2",
                     "--max-rank", "100", "--samples", "-1"]) == 2
    capsys.readouterr()
    assert cli.main(["compactify-verify", "--model", "zmod:0",
                     "--max-rank", "100"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == \
        "ModelNotCompactifiable"


def test_cli_congruent_entry_less_carrier(tmp_path):
    # a rank-0 hidden object empties the carrier, so the two loops differ
    # only in the order of their hidden ranks: 105 relabellings, one step
    model = {"ring": "Z", "mix": "2"}
    carrier = {"model": model, "dom": 0, "cod": 0, "entries": []}
    left = write(tmp_path, "left.json", {
        "model": model, "A": 1, "B": 1, "hidden": [2, 2, 2, 2, 0, 0, 1],
        "carrier": carrier})
    right = write(tmp_path, "right.json", {
        "model": model, "A": 1, "B": 1, "hidden": [0, 2, 2, 2, 2, 0, 1],
        "carrier": carrier})
    code, out, err = run_cli("congruent", "--mode", "bounded:1",
                             "--left", left, "--right", right)
    assert code == 0, err
    assert json.loads(out) == {"congruent": True, "mode": "bounded:1"}


@pytest.mark.parametrize("flag,value", [("--samples", "-5"),
                                        ("--max-rank", "-1")])
def test_cli_counts_are_checked_before_the_model(flag, value):
    # a malformed count is an input error even where the model itself
    # would be refused (m = 0 has no compactification)
    code, out, err = run_cli("compactify-verify", "--model", "zmod:0",
                             flag, value)
    assert code == 2 and out == "" and err.startswith("input error:")


def test_cli_zigzag_search_and_replay(tmp_path):
    code, out, _ = run_cli("zigzag-search", "--model", "zmod:0", "--n", "1",
                           "--max-rank", "2", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "violated"
    wit = write(tmp_path, "wit.json", payload["witness"])
    code2, out2, _ = run_cli("zigzag-check", "--instance", wit)
    assert code2 == 1 and json.loads(out2)["outcome"] == "violated"


def test_cli_validate_and_axioms():
    code, out, _ = run_cli("validate", "--model", "zmod:2", "--max-rank", "2")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run_cli("axioms", "--model", "zmod:2", "--cases", "40",
                           "--seed", "3", "--max-rank", "2",
                           "--max-hidden", "2")
    assert code == 0
    assert json.loads(out)["totalFailures"] == 0


def test_cli_compactify_verify_and_realize(tmp_path):
    code, out, _ = run_cli("compactify-verify", "--model", "zmod:2",
                           "--max-rank", "2", "--samples", "60")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run_cli("compactify-verify", "--model", "zmod:0",
                           "--max-rank", "2")
    assert code == 1 and json.loads(out)["status"] == "ModelNotCompactifiable"

    matrix = write(tmp_path, "m.json", {
        "model": {"ring": {"Zloc": 2}, "mix": "2"}, "dom": 1, "cod": 1,
        "entries": [["3/4"]]})
    code, out, _ = run_cli("realize", "--matrix", matrix)
    assert code == 0
    payload = json.loads(out)
    assert payload["hidden"] == [1, 1]
    assert payload["carrier"]["entries"] == [["3"]]


def test_cli_realize_at_negative_mix(tmp_path):
    matrix = write(tmp_path, "m.json", {
        "model": {"ring": {"Zloc": 2}, "mix": "-2"}, "dom": 1, "cod": 2,
        "entries": [["3/8"], ["-1/2"]]})
    code, out, err = run_cli("realize", "--matrix", matrix)
    assert code == 0, err
    payload = json.loads(out)
    # cleared by (-2)^3 = -8
    assert payload["hidden"] == [1, 1, 1]
    assert payload["carrier"]["entries"] == [["-3"], ["4"]]
    assert payload["model"] == {"ring": "Z", "mix": "-2"}


@pytest.mark.parametrize("model", ["zloc:2", "zloc:6", "qmod:2", "zloc:+2"])
def test_cli_compactify_verify_localize_models(model):
    # localizing zloc:2 at its mix keeps Z[1/2], so the round trip lands in
    # its own ring; over Q the model is its own compactification
    code, out, err = run_cli("compactify-verify", "--model", model,
                             "--max-rank", "2", "--samples", "100")
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert checks and all(c["passed"] is True for c in checks), checks


def test_cli_determinism_in_process(capsys):
    argv = ["axioms", "--model", "zmod:2", "--cases", "30", "--seed", "8"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MIXCAT_SEED", "12")
    assert cli.main(["zigzag-search", "--model", "zmod:2", "--n", "1",
                     "--budget", "30"]) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("MIXCAT_SEED")
    assert cli.main(["zigzag-search", "--model", "zmod:2", "--n", "1",
                     "--budget", "30", "--seed", "12"]) == 0
    explicit = capsys.readouterr().out
    assert with_env == explicit


ZIGZAG2 = {"model": {"ring": "Z", "mix": "0"},
           "upper": [1, 1], "apex": [1, 1], "lower": [1, 1],
           "alpha": [1, 0], "hub": 1,
           "down_maps": [[["0"]], [["0"]]], "up_maps": [[["1"]], [["1"]]],
           "left_fillers": [[["0"]]] * 3, "right_fillers": [[["0"]]] * 3}
DIAGRAM = {"model": {"ring": "Z", "mix": "2"}, "objects": [1, 1],
           "edges": [{"src": 0, "dst": 1, "label": "f", "entries": [["1"]]}]}
LOOP = {"model": {"ring": "Z", "mix": "2"}, "A": 1, "B": 1, "hidden": [1],
        "carrier": {"model": {"ring": "Z", "mix": "2"}, "dom": 1, "cod": 1,
                    "entries": [["2"]]}}
MATRIX = {"model": {"ring": {"Zloc": 2}, "mix": "2"}, "dom": 1, "cod": 1,
          "entries": [["3/4"]]}
Z3_JSON = {"ring": "Z", "mix": "3"}
# the option that names each verb's input file
FILE_OPTION = {"trace": "--loop", "realize": "--matrix",
               "zigzag-check": "--instance", "congruent": "--left"}


def changed(base, path, value):
    data = json.loads(json.dumps(base))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


# every row names its id, so a row added anywhere renames no other
@pytest.mark.parametrize("verb,base,path,value", [
    # non-list fields, and dicts of the right length
    pytest.param("zigzag-check", ZIGZAG2, ("alpha",), 5,
                 id="zigzag-check-base0-path0-5"),
    pytest.param("zigzag-check", ZIGZAG2, ("alpha",), {"a": 1, "b": 0},
                 id="zigzag-check-base1-path1-value1"),
    pytest.param("zigzag-check", ZIGZAG2, ("down_maps",), 3,
                 id="zigzag-check-base2-path2-3"),
    pytest.param("zigzag-check", ZIGZAG2, ("up_maps",),
                 {"a": [["1"]], "b": [["1"]]},
                 id="zigzag-check-base3-path3-value3"),
    pytest.param("zigzag-check", ZIGZAG2, ("left_fillers",), 4,
                 id="zigzag-check-base4-path4-4"),
    pytest.param("zigzag-check", ZIGZAG2, ("right_fillers",),
                 {"a": [["0"]], "b": [["0"]], "c": [["0"]]},
                 id="zigzag-check-base5-path5-value5"),
    pytest.param("zigzag-check", DIAGRAM, ("edges",), 7,
                 id="zigzag-check-base6-path6-7"),
    # bool in integer fields
    pytest.param("trace", LOOP, ("A",), True,
                 id="trace-base7-path7-True"),
    pytest.param("trace", LOOP, ("B",), True,
                 id="trace-base8-path8-True"),
    pytest.param("trace", LOOP, ("hidden",), [True],
                 id="trace-base9-path9-value9"),
    pytest.param("trace", LOOP, ("carrier", "dom"), True,
                 id="trace-base10-path10-True"),
    pytest.param("trace", LOOP, ("carrier", "cod"), True,
                 id="trace-base11-path11-True"),
    pytest.param("realize", MATRIX, ("model", "ring", "Zloc"), True,
                 id="realize-base12-path12-True"),
    pytest.param("zigzag-check", ZIGZAG2, ("hub",), True,
                 id="zigzag-check-base13-path13-True"),
    pytest.param("zigzag-check", ZIGZAG2, ("upper",), [True, 1],
                 id="zigzag-check-base14-path14-value14"),
    pytest.param("zigzag-check", ZIGZAG2, ("apex",), [1, True],
                 id="zigzag-check-base15-path15-value15"),
    pytest.param("zigzag-check", ZIGZAG2, ("lower",), [True, True],
                 id="zigzag-check-base16-path16-value16"),
    pytest.param("zigzag-check", ZIGZAG2, ("alpha",), [True, 0],
                 id="zigzag-check-base17-path17-value17"),
    pytest.param("zigzag-check", DIAGRAM, ("objects",), [True, 1],
                 id="zigzag-check-base18-path18-value18"),
    pytest.param("zigzag-check", DIAGRAM, ("edges", 0, "src"), False,
                 id="zigzag-check-base19-path19-False"),
    pytest.param("zigzag-check", DIAGRAM, ("edges", 0, "dst"), True,
                 id="zigzag-check-base20-path20-True"),
    # out-of-range sizes
    pytest.param("axioms", None, ("--max-rank",), "-1",
                 id="axioms-None-path21--1"),
    pytest.param("axioms", None, ("--max-hidden",), "-1",
                 id="axioms-None-path22--1"),
    pytest.param("zigzag-search", None, ("--n",), "-1",
                 id="zigzag-search-None-path23--1"),
    pytest.param("zigzag-search", None, ("--max-rank",), "0",
                 id="zigzag-search-None-path24-0"),
    pytest.param("zigzag-search", None, ("--entry-bound",), "-1",
                 id="zigzag-search-None-path25--1"),
    pytest.param("compactify-verify", None, ("--max-rank",), "-1",
                 id="compactify-verify-None-path26--1"),
    # negative counts
    pytest.param("axioms", None, ("--cases",), "-1",
                 id="axioms-None-path27--1"),
    pytest.param("zigzag-search", None, ("--budget",), "-3",
                 id="zigzag-search-None-path28--3"),
    pytest.param("compactify-verify", None, ("--samples",), "-5",
                 id="compactify-verify-None-path29--5"),
    # nothing may follow "semantic"
    pytest.param("congruent", LOOP, ("--mode",), "semantic:junk",
                 id="congruent-base30-path30-semantic:junk"),
    # scalars are ASCII digits with nothing around them
    pytest.param("validate", None, ("--model",), "zloc:1_0",
                 id="validate-None-path31-zloc:1_0"),
    pytest.param("validate", None, ("--model",), "zloc: 2",
                 id="validate-None-path32-zloc: 2"),
    pytest.param("validate", None, ("--model",), "zloc:\u0663",
                 id="validate-None-path33-zloc:\u0663"),
    pytest.param("validate", None, ("--model",), "zloc:1/2",
                 id="validate-None-path34-zloc:1/2"),
    pytest.param("validate", None, ("--model",), "zloc:0",
                 id="validate-None-path35-zloc:0"),
    pytest.param("validate", None, ("--model",), "zmod: 2",
                 id="validate-None-path36-zmod: 2"),
    pytest.param("validate", None, ("--model",), "zmod:2\n",
                 id="validate-None-path37-zmod:2\n"),
    pytest.param("trace", LOOP, ("model", "mix"), "\u0662",
                 id="trace-base38-path38-\u0662"),
    pytest.param("trace", LOOP, ("carrier", "entries"), [[" 3 "]],
                 id="trace-base39-path39-value39"),
    # model selectors without a colon or of an unknown kind
    pytest.param("validate", None, ("--model",), "zmod2",
                 id="validate-None-path40-zmod2"),
    pytest.param("validate", None, ("--model",), "zfoo:2",
                 id="validate-None-path41-zfoo:2"),
    pytest.param("validate", None, ("--max-rank",), "0",
                 id="validate-None-path42-0"),
    # a mix that is not a string, a list field that is not a list, an edge
    # to a node past the objects
    pytest.param("trace", LOOP, ("model", "mix"), 2,
                 id="trace-base43-path43-2"),
    pytest.param("trace", LOOP, ("hidden",), 1,
                 id="trace-base44-path44-1"),
    pytest.param("zigzag-check", DIAGRAM, ("edges", 0, "dst"), 2,
                 id="zigzag-check-base45-path45-2"),
    # whole files: absent, not JSON, generators outside --mode bounded, and
    # a right loop whose endpoints or model differ from the left one's
    pytest.param("trace", LOOP, ("--loop", "loop.json"), None,
                 id="trace-base46-path46-None"),
    pytest.param("trace", LOOP, ("--loop", "line 1, column 11"),
                 '{"model": }',
                 id='trace-base47-path47-{"model": }'),
    pytest.param("congruent", LOOP, ("--generators", "--mode bounded"),
                 {"loops": []},
                 id="congruent-base48-path48-value48"),
    pytest.param("congruent", LOOP, ("--right", "different endpoints"),
                 dict(LOOP, A=2, carrier=dict(LOOP["carrier"], dom=2,
                                              entries=[["2", "0"]])),
                 id="congruent-base49-path49-value49"),
    pytest.param("congruent", LOOP, ("--right", "different models"),
                 dict(LOOP, model=Z3_JSON, carrier=dict(LOOP["carrier"],
                                                        model=Z3_JSON)),
                 id="congruent-base50-path50-value50"),
    # an edge label that is not a string
    pytest.param("zigzag-check", DIAGRAM, ("edges", 0, "label"), 5,
                 id="zigzag-check-base51-path51-5"),
    pytest.param("zigzag-check", DIAGRAM, ("edges", 0, "label"), {"x": 1},
                 id="zigzag-check-base52-path52-value52"),
    pytest.param("zigzag-check", DIAGRAM, ("edges", 0, "label"), ["a"],
                 id="zigzag-check-base53-path53-value53"),
    pytest.param("zigzag-check", DIAGRAM, ("edges", 0, "label"), None,
                 id="zigzag-check-base54-path54-None"),
    # a bounded depth of more digits than int() converts
    pytest.param("congruent", LOOP, ("--mode",), "bounded:" + "9" * 5000,
                 id="congruent-long-bounded-depth"),
    # an alpha of the right length that is not a permutation
    pytest.param("zigzag-check", ZIGZAG2, ("alpha",), [0, 0],
                 id="zigzag-check-base56-path56-value56"),
    # a permutation of the wrong length for alpha
    pytest.param("zigzag-check", ZIGZAG2, ("alpha",), [0],
                 id="zigzag-check-base57-path57-value57"),
    # a mix outside the model's ring
    pytest.param("trace", LOOP, ("model", "mix"), "1/2",
                 id="trace-base58-path58-1/2"),
])
def test_cli_rejects_bad_input(tmp_path, capsys, verb, base, path, value):
    # a row changes an option, or a field of the verb's input file, and
    # the error names the option or the field; a row whose path is a file
    # option and then the text its error carries gives that file whole:
    # JSON, raw text when a str, and no file at all when None
    if base is None:
        argv = [verb, "--model", "zmod:2", path[0], value]
    else:
        files = {FILE_OPTION[verb]: base}
        if verb == "congruent":
            files["--right"] = base
        argv = [verb] + (["--mode", "free"] if verb == "trace" else [])
        if not path[0].startswith("--"):
            files[FILE_OPTION[verb]] = changed(base, path, value)
        elif len(path) == 1:
            argv += [path[0], value]
        else:
            files[path[0]] = value
        for option, content in files.items():
            name = f"{option.lstrip('-')}.json"
            argv += [option, str(tmp_path / name) if content is None
                     else write(tmp_path, name, content)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("input error:"), (code, err)
    assert path[-1].lstrip("-").replace("-", "_") in err, err


RANK_FIELDS = [
    ("realize", MATRIX, ("dom",), "dom"),
    ("realize", MATRIX, ("cod",), "cod"),
    ("trace", LOOP, ("A",), "A"),
    ("trace", LOOP, ("B",), "B"),
    ("trace", LOOP, ("hidden", 0), "hidden[0]"),
    ("trace", LOOP, ("carrier", "dom"), "carrier.dom"),
    ("trace", LOOP, ("carrier", "cod"), "carrier.cod"),
    ("zigzag-check", DIAGRAM, ("objects", 1), "objects[1]"),
    ("zigzag-check", ZIGZAG2, ("hub",), "hub"),
    ("zigzag-check", ZIGZAG2, ("upper", 0), "upper[0]"),
    ("zigzag-check", ZIGZAG2, ("apex", 1), "apex[1]"),
    ("zigzag-check", ZIGZAG2, ("lower", 0), "lower[0]"),
]


@pytest.mark.parametrize("value", [True, -1, "3"], ids=repr)
@pytest.mark.parametrize("verb,base,path,field", RANK_FIELDS,
                         ids=[f"{v}-{f}" for v, _, _, f in RANK_FIELDS])
def test_cli_refuses_a_rank_that_is_no_integer(tmp_path, capsys, verb, base,
                                               path, field, value):
    # every rank the CLI reads is checked where it enters, by the JSON
    # reader, which names the field: exit 2 and nothing on stdout
    name = write(tmp_path, "in.json", changed(base, path, value))
    argv = [verb] + (["--mode", "free"] if verb == "trace" else [])
    assert cli.main(argv + [FILE_OPTION[verb], name]) == 2
    assert capsys.readouterr() == (
        "", f"input error: {name}.{field}: expected an integer >= 0\n")


def test_a_mix_outside_its_ring_is_refused_at_the_mix_field(tmp_path,
                                                            capsys):
    # Model tests the mix once, and the reader names the field it came from
    path = write(tmp_path, "loop.json", changed(LOOP, ("model", "mix"), "1/2"))
    assert cli.main(["trace", "--mode", "free", "--loop", path]) == 2
    assert capsys.readouterr().err == \
        f"input error: {path}.model.mix: mix scalar 1/2 is not in Z\n"


def test_entries_are_checked_where_they_enter(tmp_path):
    from fractions import Fraction

    from mixtrace.errors import InputError

    z2 = Model(localized_integers(2), 2)
    assert mor(z2, r1, r1, [[Fraction(3, 4)]]).entries == ((Fraction(3, 4),),)
    assert mor(z2, r1, r1, [[Fraction(4, 2)]]).entries[0][0].__class__ is int
    with pytest.raises(InputError):
        mor(z2, r1, r1, [[Fraction(1, 3)]])
    with pytest.raises(InputError):
        mor(Z2, r1, r1, [[True]])
    half = changed(LOOP, ("carrier", "entries"), [["1/2"]])
    code, _, err = run_cli("trace", "--mode", "free", "--loop",
                           write(tmp_path, "half.json", half))
    assert code == 2 and err.startswith("input error:") and "1/2" in err


@pytest.mark.parametrize("mix,entry,named", [
    ("2", "1/3", "1/3"),  # no power of m clears the denominator
    ("1", "1/2", "1/2"),
    ("3/2", "1", "mix"),  # a fractional mix is not truncated to 1
])
def test_realize_rejects_what_no_power_of_mix_clears(tmp_path, mix, entry,
                                                      named):
    matrix = write(tmp_path, "m.json", {
        "model": {"ring": {"Zloc": 6}, "mix": mix}, "dom": 1, "cod": 1,
        "entries": [[entry]]})
    proc = subprocess.run([sys.executable, "-m", "mixtrace.cli", "realize",
                           "--matrix", matrix],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("input error:") and named in proc.stderr


def test_main_in_one_process_matches_each_call_alone(tmp_path, monkeypatch,
                                                     capsys):
    # the parser is built once per process; no option may leak from one
    # call into the next, and bad arguments still exit 2
    monkeypatch.delenv("MIXCAT_SEED", raising=False)
    loop = write(tmp_path, "k3.json", {
        "model": {"ring": "Z", "mix": "2"}, "A": 1, "B": 1,
        "hidden": [1, 2, 2],
        "carrier": {"model": {"ring": "Z", "mix": "2"}, "dom": 4, "cod": 4,
                    "entries": [["2", "0", "6", "8"], ["6", "2", "2", "2"],
                                ["6", "2", "4", "6"], ["4", "2", "8", "0"]]}})
    axioms = ["axioms", "--model", "zmod:2", "--cases", "4", "--max-rank",
              "2"]
    search = ["zigzag-search", "--model", "zmod:0", "--n", "1", "--budget",
              "6"]
    calls = [
        ["trace", "--mode", "free", "--loop", loop, "--witness"],
        ["trace", "--mode", "free", "--loop", loop],
        axioms + ["--seed", "7"],
        axioms,
        search + ["--seed", "3"],
        search,
        ["trace", "--mode", "sideways", "--loop", loop],
        ["zigzag-search", "--n", "1"],
        ["validate", "--model", "zmod:2", "--max-rank", "1", "--seed", "1"],
        ["trace", "--mode", "induced", "--loop", loop],
        ["axioms", "--model", "zmod:2", "--cases", "-1"],
    ]
    env = {k: v for k, v in os.environ.items() if k != "MIXCAT_SEED"}
    alone = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "mixtrace.cli", *argv],
                              capture_output=True, text=True, env=env)
        alone.append((proc.returncode, proc.stdout))
    together = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        together.append((code, capsys.readouterr().out))
    assert together == alone
    assert [code for code, _ in alone] == [0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 2]
    # with and without each option the outputs differ, so a leak would show
    for i in (0, 2, 4):
        assert alone[i][1] != alone[i + 1][1]

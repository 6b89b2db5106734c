import json
import subprocess
import sys

import pytest

from mixtrace.category import Model, Obj, canonical_map, mor
from mixtrace.compactify import localized_model
from mixtrace.loops import Loop, Permutation, yanking_loop
from mixtrace.rings import INTEGERS, localized_integers
from mixtrace.serialize import (FileFormatError, dumps, loop_from_json,
                                loop_to_json, model_from_json, model_to_json,
                                mor_from_json, mor_to_json, zigzag_from_json,
                                zigzag_to_json, diagram_from_json,
                                diagram_to_json)
from mixtrace.zigzag import ZigZagInstance, check_zigzag_instance, \
    staircase_diagram
from mixtrace import cli

Z0 = Model(INTEGERS, 0)
Z2 = Model(INTEGERS, 2)
r1, r2 = Obj(1), Obj(2)


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


def test_mor_roundtrip():
    f = mor(Z2, r2, r2, [[1, -2], [0, 7]])
    data = mor_to_json(f)
    assert data["entries"] == [["1", "-2"], ["0", "7"]]
    assert mor_from_json(data) == f
    loc = localized_model(Z2)
    from fractions import Fraction

    g = mor(loc, r1, r1, [[Fraction(3, 4)]])
    assert mor_from_json(mor_to_json(g)) == g
    bad = dict(data)
    bad["entries"] = [["1", "3/0"], ["0", "7"]]
    with pytest.raises(FileFormatError):
        mor_from_json(bad)


def test_loop_roundtrip():
    p = Loop(Z2, r1, r1, (r2,), mor(Z2, r2, r2, [[2, 0], [0, 4]]))
    assert loop_from_json(loop_to_json(p)) == p
    data = loop_to_json(p)
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
    back = zigzag_from_json(zigzag_to_json(inst))
    assert back == inst
    assert check_zigzag_instance(back).status == "violated"


def test_diagram_roundtrip():
    from mixtrace.traces import provisional_trace

    p = Loop(Z2, r1, r1, (r2,), mor(Z2, r2, r2, [[2, 0], [0, 4]]))
    res = provisional_trace(p, want_witness=True)
    d = staircase_diagram(p, res.witness)
    assert diagram_from_json(diagram_to_json(d)) == d


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


def changed(base, path, value):
    data = json.loads(json.dumps(base))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("verb,base,path,value", [
    # non-list fields, and dicts of the right length
    ("zigzag-check", ZIGZAG2, ("alpha",), 5),
    ("zigzag-check", ZIGZAG2, ("alpha",), {"a": 1, "b": 0}),
    ("zigzag-check", ZIGZAG2, ("down_maps",), 3),
    ("zigzag-check", ZIGZAG2, ("up_maps",), {"a": [["1"]], "b": [["1"]]}),
    ("zigzag-check", ZIGZAG2, ("left_fillers",), 4),
    ("zigzag-check", ZIGZAG2, ("right_fillers",),
     {"a": [["0"]], "b": [["0"]], "c": [["0"]]}),
    ("zigzag-check", DIAGRAM, ("edges",), 7),
    # bool in integer fields
    ("trace", LOOP, ("A",), True),
    ("trace", LOOP, ("B",), True),
    ("trace", LOOP, ("hidden",), [True]),
    ("trace", LOOP, ("carrier", "dom"), True),
    ("trace", LOOP, ("carrier", "cod"), True),
    ("realize", MATRIX, ("model", "ring", "Zloc"), True),
    ("zigzag-check", ZIGZAG2, ("hub",), True),
    ("zigzag-check", ZIGZAG2, ("upper",), [True, 1]),
    ("zigzag-check", ZIGZAG2, ("apex",), [1, True]),
    ("zigzag-check", ZIGZAG2, ("lower",), [True, True]),
    ("zigzag-check", ZIGZAG2, ("alpha",), [True, 0]),
    ("zigzag-check", DIAGRAM, ("objects",), [True, 1]),
    ("zigzag-check", DIAGRAM, ("edges", 0, "src"), False),
    ("zigzag-check", DIAGRAM, ("edges", 0, "dst"), True),
    # out-of-range sizes
    ("axioms", None, ("--max-rank",), "-1"),
    ("axioms", None, ("--max-hidden",), "-1"),
    ("zigzag-search", None, ("--n",), "-1"),
    ("zigzag-search", None, ("--max-rank",), "0"),
    ("zigzag-search", None, ("--entry-bound",), "-1"),
    ("compactify-verify", None, ("--max-rank",), "-1"),
    # negative counts
    ("axioms", None, ("--cases",), "-1"),
    ("zigzag-search", None, ("--budget",), "-3"),
    ("compactify-verify", None, ("--samples",), "-5"),
])
def test_cli_rejects_bad_input(tmp_path, verb, base, path, value):
    if base is None:
        argv = [verb, "--model", "zmod:2", path[0], value]
    else:
        target = write(tmp_path, "in.json", changed(base, path, value))
        flag = {"trace": "--loop", "realize": "--matrix",
                "zigzag-check": "--instance"}[verb]
        argv = [verb, flag, target] + (["--mode", "free"]
                                       if verb == "trace" else [])
    code, _, err = run_cli(*argv)
    assert code == 2 and err.startswith("input error:"), (code, err)
    assert "Traceback" not in err
    assert path[-1].lstrip("-").replace("-", "_") in err, err


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

"""Byte-identity of ``zigzag-check`` reports, counterexamples included.

One sha256 covers ``cli.main``'s stdout and exit code of ``zigzag-check``
on three sets of inputs, in this order:

- every witness instance ``zigzag-search --model M --n N --max-rank 2
  --budget 200 --seed S`` finds, for M in zmod:0 and qmod:0, N in 1 and 2
  and S in 0..9;
- the ``trace --mode free --witness`` diagrams of the first 20 loops of
  ``random_loop(random.Random(5), zmod:2, 3, 2)`` whose free trace is
  defined, each as emitted and then with each edge's entries negated in
  turn;
- three small diagrams with a cycle through node 0: a 2-cycle, the same
  with a parallel inverse edge, and a self-loop.

The digest fixes the ``src``, ``dst`` and ``paths`` of every reported
counterexample, not only the verdicts.
"""

import hashlib
import json
import random
from fractions import Fraction

from mixtrace import cli
from mixtrace.category import Model, dual_mor, mor
from mixtrace.rings import INTEGERS
from mixtrace.serialize import diagram_to_json, dumps, loop_to_json
from mixtrace.traces import random_loop

Z2 = Model(INTEGERS, 2)
DIGEST = "71d84a597dd265a7f60a342b800e0b504659cadd0a5b23339b86bb0af1ac2800"


def _search_witnesses(run):
    for model in ("zmod:0", "qmod:0"):
        for n in (1, 2):
            for seed in range(10):
                code, out = run(f"zigzag-search --model {model} --n {n} "
                                f"--max-rank 2 --budget 200 --seed {seed}")
                assert code == 0
                witness = json.loads(out).get("witness")
                if witness is not None:
                    yield witness


def _negated(entries):
    return [[str(-Fraction(v)) for v in row] for row in entries]


def _trace_diagrams(run, tmp_path):
    rng, found = random.Random(5), 0
    while found < 20:
        (tmp_path / "loop.json").write_text(
            dumps(loop_to_json(random_loop(rng, Z2, 3, 2))))
        code, out = run("trace --mode free --witness --loop loop.json")
        reply = json.loads(out)
        if reply["status"] != "defined":
            continue
        found += 1
        diagram = reply["witness"]["diagram"]
        yield diagram
        for edge in diagram["edges"]:
            original = edge["entries"]
            edge["entries"] = _negated(original)
            yield diagram
            edge["entries"] = original


def _cycle_diagrams():
    f = mor(Z2, 2, 2, [[0, 1], [1, 0]])
    g = mor(Z2, 2, 2, [[0, 1], [2, 0]])
    for edges in ([(0, 1, "f", f), (1, 0, "g", g)],
                  [(0, 1, "f", f), (1, 0, "f-inv", dual_mor(f)),
                   (1, 0, "g", g)],
                  [(0, 0, "loop", g), (0, 1, "f", f)]):
        yield diagram_to_json(Z2, (2, 2), edges)


def test_zigzag_check_replies_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIXCAT_SEED", raising=False)

    def run(argv):
        code = cli.main(argv.split())
        return code, capsys.readouterr().out

    digest, counts = hashlib.sha256(), {}
    for kind, inputs in (("search", _search_witnesses(run)),
                         ("trace", _trace_diagrams(run, tmp_path)),
                         ("cycle", _cycle_diagrams())):
        for data in inputs:
            (tmp_path / "check.json").write_text(dumps(data))
            code, out = run("zigzag-check --instance check.json")
            digest.update(f"{code}\n{out}".encode())
            counts[kind, code] = counts.get((kind, code), 0) + 1
    # the exit code per set: 0 commutes or holds, 1 a counterexample
    assert counts == {("search", 1): 32, ("trace", 0): 63, ("trace", 1): 60,
                      ("cycle", 1): 3}
    assert digest.hexdigest() == DIGEST

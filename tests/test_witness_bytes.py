"""Byte-identity of the matrix-heavy replies: ``trace --mode free
--witness`` on a fixed seeded corpus, one violated ``zigzag-search``
witness and the ``realize`` rows of ``test_ring_decisions``.  Each row
runs ``cli.main`` in process and pins the sha256 of its stdout and its
exit code.  Each pinned stdout is also what the reference writer,
``trace_reference.row_joining_dumps``, writes for the JSON it parses to.

The largest staircase the deep-trace benchmark sends, hidden ranks
(2, 2, 2, 2) solved only in orderings that end in index 0, must re-check
as ``commutes`` and read back as the diagram it was drawn from.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import prod

import pytest

from mixtrace import cli
from mixtrace.loops import hidden_symmetry
from mixtrace.serialize import diagram_from_json, loop_from_json
from mixtrace.traces import free_mixed_trace

from trace_reference import (all_permutations, provisional_trace,
                             row_joining_dumps, staircase_diagram)


def _model(ring, mix):
    return {"ring": ring, "mix": mix}


def _loop(model, a, b, hidden, rows):
    h = prod(hidden)
    return {"model": model, "A": a, "B": b, "hidden": list(hidden),
            "carrier": {"model": model, "dom": a * h, "cod": b * h,
                        "entries": [[str(v) for v in row] for row in rows]}}


def _random_rows(seed, a, b, hidden, factor, bound=4):
    """b·h rows of a·h entries in [-bound, bound] times factor; a factor
    of m^k solves the staircase in the first ordering."""
    rng = random.Random(seed)
    h = prod(hidden)
    return [[factor * rng.randint(-bound, bound) for _ in range(a * h)]
            for _ in range(b * h)]


def _fraction_rows(seed, rows, cols):
    rng = random.Random(seed)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
             for _ in range(cols)] for _ in range(rows)]


def _ending_in_zero(seed):
    """A (2, 2, 2, 2) carrier at mix 2 whose staircase solves only in
    orderings that end in hidden index 0: 8·R, with one entry of each
    hidden-index-0 block of R repaired so that R's contraction over
    indices 1-3 is even."""
    rng = random.Random(seed)
    r = [[rng.randint(-4, 4) for _ in range(16)] for _ in range(16)]
    for u in range(2):
        for w in range(2):
            r[8 * w][8 * u] -= sum(r[8 * w + t][8 * u + t]
                                   for t in range(8)) % 2
    return [[8 * v for v in row] for row in r]


def _realize_matrix(ring, mix, rows):
    return {"model": _model(ring, mix), "dom": len(rows[0]),
            "cod": len(rows), "entries": rows}


Z2, Z3 = _model("Z", "2"), _model("Z", "3")
DEEP = {(2, 1, 2): 3, (2, 2, 2, 2): 4, (1, 2, 2, 2, 2): 5}

FILES = {
    **{f"m{m}-{''.join(map(str, dims))}.json":
       _loop(model, 1, 1, dims, _random_rows(10 * m + k, 1, 1, dims, m ** k))
       for m, model in ((2, Z2), (3, Z3)) for dims, k in DEEP.items()},
    # endpoints of rank 2 and 3 around the smallest hidden part
    "m2-212-ends.json": _loop(Z2, 2, 3, (2, 1, 2),
                              _random_rows(7, 2, 3, (2, 1, 2), 8)),
    # Fraction entries; over Q every stage divides
    "q-half.json": _loop(_model("Q", "1/2"), 1, 2, (2, 1, 2),
                         _fraction_rows(11, 8, 4)),
    # a negative mix and entries that are all 0 or negative
    "neg.json": _loop(_model("Z", "-3"), 1, 1, (2, 1, 2),
                      [[-abs(v) for v in row] for row in
                       _random_rows(5, 1, 1, (2, 1, 2), 27)]),
    "ending-in-zero.json": _loop(Z2, 1, 1, (2, 2, 2, 2), _ending_in_zero(3)),
    # the rows of test_ring_decisions.test_realize_outputs
    "realize-zloc2.json": _realize_matrix({"Zloc": 2}, "2",
                                          [["3/4", "1"], ["-1/2", "0"]]),
    "realize-zloc2-neg.json": _realize_matrix({"Zloc": 2}, "-2", [["5/8"]]),
    "realize-zloc6.json": _realize_matrix({"Zloc": 6}, "6",
                                          [["1/4", "1/9"]]),
    "realize-q.json": _realize_matrix("Q", "1/2", [["1/3"], ["5"]]),
    "realize-integral.json": _realize_matrix({"Zloc": 2}, "2",
                                             [["4/2", "-6/3"]]),
}

CASES = [
    ("trace-m2-212", 0, "trace --mode free --witness --loop m2-212.json",
     "ff0f2a37e6a2de8c6e49b4742b412211d553b93c80c106b6f97a669b4187d653"),
    ("trace-m2-2222", 0, "trace --mode free --witness --loop m2-2222.json",
     "6e63d63da1cc18b657d1a617aae548e8b50d5da2cec255893559c9cde122a578"),
    ("trace-m2-12222", 0,
     "trace --mode free --witness --loop m2-12222.json",
     "815b7c9feefddeb9e6ee7893e08b5a1fe1c9a23aba7bf800714911580fbf6298"),
    ("trace-m3-212", 0, "trace --mode free --witness --loop m3-212.json",
     "70d09459f39bbb6eebedaa138eb50b7ef22a15819cc28394c746265458762598"),
    ("trace-m3-2222", 0, "trace --mode free --witness --loop m3-2222.json",
     "2309d41afbf04891e092a7feab537aead6a66f366446f849d4cf445bddefd1b4"),
    ("trace-m3-12222", 0,
     "trace --mode free --witness --loop m3-12222.json",
     "6e9358fb73ec713698a750e35919cedf693984ac508311bb1de4251ff3953142"),
    ("trace-m2-212-ends", 0,
     "trace --mode free --witness --loop m2-212-ends.json",
     "726e6973f2c3348ea5589d82da64236762551578bb4f83d14c6f4af17a5c0ed4"),
    ("trace-qmod-half", 0, "trace --mode free --witness --loop q-half.json",
     "c0310a4c7778af57b1f0508541ae686028a8a139ca33b9760a333c7166040584"),
    ("trace-negative", 0, "trace --mode free --witness --loop neg.json",
     "4bc36bd33933e450fbd0e77d6bac1639d88c75070041b5435b8c19f6b9979897"),
    ("trace-ending-in-zero", 0,
     "trace --mode free --witness --loop ending-in-zero.json",
     "f5a67b4c632a777bd74403279c5efe0368971f0b77445aeda64502e3b0014dcc"),
    ("zigzag-search-zmod0-n1", 0,
     "zigzag-search --model zmod:0 --n 1 --max-rank 2 --seed 5 --budget 60",
     "70948e2461f354c2fdeb76b99977099b5a094fc58475581bcd689eaa8d3c0f65"),
    ("realize-zloc2", 0, "realize --matrix realize-zloc2.json",
     "b412dda2577134ab232b46e50cf6e193628f7cea4b6c581db59bb0a64cb79a3d"),
    ("realize-zloc2-neg", 0, "realize --matrix realize-zloc2-neg.json",
     "ec51b363f9bd2cabcb07e57350726feb6e37ed5535c9a0d27c5667fd0efc9ab8"),
    ("realize-zloc6", 0, "realize --matrix realize-zloc6.json",
     "0c0ae3852c441b7359f2f576f496a6417856de6ff2ed9a647b51c4bed07572bb"),
    ("realize-q", 0, "realize --matrix realize-q.json",
     "92aed0bff87cc4c62a3f7fb40054553397390278d4fd39bf3c6e42e5a6e212cd"),
    ("realize-integral", 0, "realize --matrix realize-integral.json",
     "e9c987025203e923e16d2d7608341b83382fe508687723348e88d6d93f649150"),
]


@pytest.fixture
def files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIXCAT_SEED", raising=False)
    for name, payload in FILES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    return tmp_path


@pytest.mark.parametrize("code,argv,digest", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_stdout_is_pinned_and_is_the_reference_writers(files, capsys, code,
                                                       argv, digest):
    assert cli.main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert out == row_joining_dumps(json.loads(out))


def test_the_corpus_solves_in_the_orderings_it_is_built_for():
    # every trace row is defined, and the scaled random loops solve in
    # the first ordering, so the pins cover all three hidden shapes
    for name in FILES:
        if name.startswith(("m2-", "m3-", "q-", "neg")):
            r = free_mixed_trace(loop_from_json(FILES[name]))
            assert r.is_defined, name
            assert r.alpha.images == tuple(range(r.alpha.size)), name
    p = loop_from_json(FILES["ending-in-zero.json"])
    solvable = [alpha.images for alpha in all_permutations(4)
                if provisional_trace(hidden_symmetry(p, alpha)).is_defined]
    assert solvable and all(images[-1] == 0 for images in solvable)


def test_the_largest_witness_rechecks_and_reads_back(files, capsys):
    assert cli.main("trace --mode free --witness --loop "
                    "ending-in-zero.json".split()) == 0
    diagram = json.loads(capsys.readouterr().out)["witness"]["diagram"]
    mix0 = next(e for e in diagram["edges"] if e["label"] == "mix-0")
    assert (len(mix0["entries"]), len(mix0["entries"][0])) == (256, 256)

    p = loop_from_json(FILES["ending-in-zero.json"])
    r = free_mixed_trace(p, want_witness=True)
    assert r.alpha.images[-1] == 0
    drawn = staircase_diagram(hidden_symmetry(p, r.alpha), r.witness)
    assert diagram_from_json(diagram) == drawn

    (files / "diagram.json").write_text(json.dumps(diagram))
    assert cli.main("zigzag-check --instance diagram.json".split()) == 0
    assert json.loads(capsys.readouterr().out) == {"outcome": "commutes"}

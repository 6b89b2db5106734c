"""Byte-identity of the command line: each row runs ``cli.main`` in process
on fixed inputs and pins the sha256 of its stdout and its exit code.

A change that is meant to keep the output must leave every row passing
unchanged; a change that alters output on purpose re-pins the rows it
alters and says why.
"""

import hashlib
import json

import pytest

from mixtrace import cli


def _loop(model, a, b, hidden, rows):
    h = 1
    for d in hidden:
        h *= d
    return {"model": model, "A": a, "B": b, "hidden": hidden,
            "carrier": {"model": model, "dom": a * h, "cod": b * h,
                        "entries": [[str(v) for v in row] for row in rows]}}


Z2 = {"ring": "Z", "mix": "2"}
Z0 = {"ring": "Z", "mix": "0"}

FILES = {
    # solves only in the ordering (2, 1, 0)
    "k3.json": _loop(Z2, 1, 1, [1, 2, 2],
                     [[2, 0, 6, 8], [6, 2, 2, 2], [6, 2, 4, 6], [4, 2, 8, 0]]),
    "ends.json": _loop({"ring": "Z", "mix": "3"}, 2, 3, [2, 1],
                       [[9, 0, -18, 27], [0, 9, 27, 9], [18, -9, 0, 0],
                        [9, 0, 9, 18], [-9, 27, 0, 9], [0, 0, 9, -27]]),
    "six.json": _loop(Z2, 1, 1, [1], [[6]]),
    "three.json": _loop(Z2, 1, 1, [], [[3]]),
    # the witness `zigzag-search --model zmod:0 --n 2 --seed 5` prints
    "witness.json": {
        "model": Z0, "upper": [4, 1], "apex": [4, 1], "lower": [1, 1],
        "alpha": [0, 1], "hub": 1,
        "down_maps": [[["0"] * 4] * 4, [["0"]]],
        "up_maps": [[["1"], ["0"], ["0"], ["1"]], [["1"]]],
        "left_fillers": [[["0"] * 4], [["2", "-1", "0", "-2"]], [["-1"]]],
        "right_fillers": [[["0"] * 4], [["1", "-1", "2", "-1"]], [["1"]]]},
    "matrix.json": {"model": {"ring": {"Zloc": 6}, "mix": "6"},
                    "dom": 2, "cod": 1, "entries": [["5/36", "-1/2"]]},
}

CASES = [
    ("validate", 0,
     "validate --model zmod:2 --max-rank 3",
     "940dc762a44680c9c3401c4ab06d8a474c44fa0b914a2efa656fc4002c24f9ad"),
    ("axioms-zmod2", 0,
     "axioms --model zmod:2 --cases 80 --seed 3 --max-rank 2 --max-hidden 3",
     "cc9df8e74f2a6879b83f38ac50cd8254b9dc35223e0c2ddcff3d589be966eda3"),
    ("axioms-qmod", 0,
     "axioms --model qmod:3/2 --cases 40 --seed 5 --max-rank 2",
     "726755558d9eca6885deae8e6cb14d6c36660c29f23e107a9f9c1f01d6129ebb"),
    # at m = 0 the yanking loop has no free trace, so the suite fails
    ("axioms-zmod0", 1,
     "axioms --model zmod:0 --cases 25 --seed 4 --max-rank 2",
     "9e7240c35c8a6822d5947cff394e50e188a6c34a55909ea6a1a505d9afc3b269"),
    ("zigzag-search-violated", 0,
     "zigzag-search --model zmod:0 --n 2 --seed 5",
     "f101413e3c859f0789898e11ad040caef1d0d9441632d01464dbafc2aa9a6c19"),
    ("zigzag-search-none-found", 0,
     "zigzag-search --model zmod:2 --n 2 --budget 30 --seed 1",
     "94bba4302b1064058e392b31e0bda0a652d4370a5e5e0a94ff462563a65e109a"),
    ("zigzag-check-witness", 1,
     "zigzag-check --instance witness.json",
     "d70a32ded1212a240ab95f4d9e91adb7da2f3dc8e57c9f5caac60bb6891bc9ae"),
    ("trace-free", 0,
     "trace --mode free --loop k3.json",
     "75f85ad4c7ac152bb2841b60cc8ce2fcaebd05bc8f580fb63e97aab91c6a8106"),
    ("trace-free-witness", 0,
     "trace --mode free --loop k3.json --witness",
     "7bfedbd7d710de565de1196efb02aefb80c9bb5f932034a36d85ff515d2d4dd7"),
    ("trace-induced", 0,
     "trace --mode induced --loop k3.json",
     "eb39ec877b7a901c6aaaff745beeb819f0dd8967c108cbbf8dfaf8d4f7375296"),
    ("trace-free-endpoints", 0,
     "trace --mode free --loop ends.json --witness",
     "697a36da55024e4c3a8c68583fb60d655b92b365d05a8a146ed2f6181b0f9865"),
    ("congruent-semantic", 0,
     "congruent --mode semantic --left six.json --right three.json",
     "40b86ae1b4bc7e2f563896874a2c57b64be54164929f23818fb678e5b87101fd"),
    ("congruent-bounded", 0,
     "congruent --mode bounded:2 --left six.json --right three.json",
     "a268afbf1335e1a7fb67b49b48fb3e0fdf3d6b155f535d5411e77dc76c2edf07"),
    ("compactify-verify-zmod2", 0,
     "compactify-verify --model zmod:2 --max-rank 3 --samples 100 --seed 2",
     "c7ec4c7220e03f32869c4fc8052153e28e74b97f79e247a40fe58ed145f83235"),
    ("compactify-verify-qmod-half", 0,
     "compactify-verify --model qmod:1/2 --max-rank 2 --samples 30",
     "b8b4fc585323b80844a6fa7ee325aae0c29b0fe18d5d3b175676dc6acbc2a6ba"),
    ("realize", 0,
     "realize --matrix matrix.json",
     "e997a27ec3085d18b47ee03f873f9f0c922c69c6cad436f4f67f0655c0fe5be2"),
]


@pytest.mark.parametrize("code,argv,digest", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_cli_stdout_is_pinned(tmp_path, monkeypatch, capsys, code, argv,
                              digest):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIXCAT_SEED", raising=False)
    for name, payload in FILES.items():
        (tmp_path / name).write_text(json.dumps(payload))
    assert cli.main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

"""Byte-identity of the command line: each row runs ``cli.main`` in process
on fixed inputs and pins the sha256 of its stdout and its exit code.

A change that is meant to keep the output must leave every row passing
unchanged; a change that alters output on purpose re-pins the rows it
alters and says why.
"""

import hashlib
import json

import pytest

from mixtrace import cli, serialize


def _loop(model, a, b, hidden, rows):
    h = 1
    for d in hidden:
        h *= d
    return {"model": model, "A": a, "B": b, "hidden": hidden,
            "carrier": {"model": model, "dom": a * h, "cod": b * h,
                        "entries": [[str(v) for v in row] for row in rows]}}


Z2 = {"ring": "Z", "mix": "2"}
Z0 = {"ring": "Z", "mix": "0"}
Q3 = {"ring": "Q", "mix": "3"}

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
    "m128.json": {"model": {"ring": {"Zloc": 2}, "mix": "2"},
                  "dom": 1, "cod": 1, "entries": [["1/128"]]},
    # what `realize --matrix m128.json` prints
    "realized.json": _loop(Z2, 1, 1, [1] * 7, [[1]]),
    # one hidden symmetry apart: the rank-2 object first or last
    "first7.json": _loop(Z2, 1, 1, [2] + [1] * 6, [[1, 2], [3, 4]]),
    "last7.json": _loop(Z2, 1, 1, [1] * 6 + [2], [[1, 2], [3, 4]]),
    # solves first in the ordering (0, 2, 3, 1); its witness diagram has
    # 87,977 entries, about 1.7 MB of JSON
    "k4.json": _loop(Z2, 1, 1, [2] * 4,
                     [[8 * ((i + 2 * j + i * j) % 7 - 3) for j in range(16)]
                      for i in range(16)]),
    # a mix that is not an integer: localizing at 1/2 inverts 1 and keeps
    # Z[1/2]
    "half.json": _loop({"ring": {"Zloc": 2}, "mix": "1/2"}, 1, 1, [1],
                       [["3/4"]]),
    # m = 0: no induced trace
    "zero.json": _loop(Z0, 1, 1, [1], [[0]]),
    # 3/2 is not in Z: no free trace
    "odd.json": _loop(Z2, 1, 1, [1], [[3]]),
    # over Q every stage divides; the witness fillers hold n/9 entries
    "q-witness.json": _loop(Q3, 2, 3, [2, 1],
                            [[1, 2, -1, 4], [0, 5, 2, 1], [7, -2, 1, 0],
                             [1, 1, 4, -5], [2, 0, -1, 1], [-4, 1, 0, 2]]),
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
    # the shape of the perfbench axioms requests, over Z[1/2]
    ("axioms-zloc2", 0,
     "axioms --model zloc:2 --cases 60 --seed 7 --max-rank 3 --max-hidden 2",
     "97cac84ed0f5a09b959b0ff3931a695234536f85f3d9e092adf5c8ed717988da"),
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
    ("realize-128", 0,
     "realize --matrix m128.json",
     "afd6afe9161e68be09af832e1f9c00442168e33545f71872150ad39bd480e545"),
    ("trace-free-realized-128", 0,
     "trace --mode free --loop realized.json",
     "da06eecf5cfab8a5a01a75eae204afc00412ccec3b982ed0e0949ca4eb39daed"),
    ("congruent-bounded-k7", 0,
     "congruent --mode bounded:1 --left first7.json --right last7.json",
     "73c6c9eb5ac9ad46c87f4542aa2a0f97508be607d8e1ad17146e9b2942ca9395"),
    ("trace-free-witness-k4", 0,
     "trace --mode free --loop k4.json --witness",
     "d6410a97e5cb5401226c031c2d3597af699d84532decfe3f90acbceaaabc85f4"),
    ("trace-free-witness-q", 0,
     "trace --mode free --loop q-witness.json --witness",
     "25a2be6c7b7cfe4b52da63d27abacf3c89ce8a99eb3da68bb60287c829c19b3c"),
    # {"congruent": true, "mode": "semantic"}
    ("congruent-semantic-fractional-mix", 0,
     "congruent --mode semantic --left half.json --right half.json",
     "40b86ae1b4bc7e2f563896874a2c57b64be54164929f23818fb678e5b87101fd"),
    # {"error": "the induced trace needs a nonzero mix scalar",
    #  "status": "error"}
    ("trace-induced-zero-mix", 1,
     "trace --mode induced --loop zero.json",
     "da934b167527f3af15354496b0cd6a5237e0aa82868ad92e874431487d50ce37"),
    # {"status": "undefined"}
    ("trace-free-expect-defined-undefined", 1,
     "trace --mode free --loop odd.json --expect-defined",
     "da06eecf5cfab8a5a01a75eae204afc00412ccec3b982ed0e0949ca4eb39daed"),
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


def _nonzero_scalars(x):
    if isinstance(x, dict):
        return sum(map(_nonzero_scalars, x.values()))
    if isinstance(x, list):
        return sum(map(_nonzero_scalars, x))
    return int(isinstance(x, str) and x != "0"
               and x.lstrip("-").replace("/", "").isdigit())


def test_witness_formats_only_its_nonzero_scalars(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k4.json").write_text(json.dumps(FILES["k4.json"]))
    calls = []
    real = serialize.format_value
    monkeypatch.setattr(serialize, "format_value",
                        lambda v: calls.append(v) or real(v))
    assert cli.main("trace --mode free --loop k4.json --witness".split()) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0 < len(calls) <= _nonzero_scalars(payload)

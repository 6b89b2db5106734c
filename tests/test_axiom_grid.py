"""One pin over a grid of ``axioms`` runs through ``cli.main``: the exit
code and stdout of every run, in grid order, hashed together.  A change to
how the suite tallies or records its comparisons that is meant to keep the
output must leave this digest unchanged.
"""

import contextlib
import hashlib
import io
import json

import pytest

from mixtrace import cli

MODELS = ("zmod:0", "zmod:1", "zmod:2", "zmod:3", "zmod:-2", "qmod:1/2",
          "qmod:3/2", "zloc:2", "zloc:6")
GRID = [(model, seed, 2) for model in MODELS for seed in (0, 1)]
GRID.append(("zmod:2", 0, 3))
CASES = 40

GRID_DIGEST = \
    "385fe9ebdbeef6c34ca341cc0e0144df0979e408fc75b5beddcfa846c75acdac"


def _run_grid():
    runs = []
    for model, seed, max_hidden in GRID:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["axioms", "--model", model, "--seed", str(seed),
                             "--cases", str(CASES), "--max-rank", "2",
                             "--max-hidden", str(max_hidden)])
        runs.append((code, out.getvalue()))
    return runs


@pytest.fixture(scope="module")
def grid_runs():
    return _run_grid()


def test_axiom_grid_is_pinned(grid_runs):
    digest = hashlib.sha256()
    for code, out in grid_runs:
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == GRID_DIGEST


def test_every_case_is_tallied_once(grid_runs):
    # each case lands in exactly one of checked, skipped and one-sided, for
    # every kind and axiom
    for (model, _, _), (_, out) in zip(GRID, grid_runs):
        report = json.loads(out)
        assert report["cases"] == CASES
        for kind, axioms in report["axioms"].items():
            for name, st in axioms.items():
                tallied = (st["checked"] + st["skippedUndefined"]
                           + st["oneSidedDefinedness"])
                assert tallied == CASES, (model, kind, name)

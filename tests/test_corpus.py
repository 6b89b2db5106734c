"""Re-check the committed findings in ``tests/corpus``.

Each corpus file is a loop in the command line's own JSON format, with
three more keys, which the loop reader ignores: ``finding`` says in one
sentence what the file shows; ``checks`` lists runs of ``cli.main``, each
an ``argv`` in which ``@`` names the file itself, the expected ``exit``
code and the expected ``stdout`` as JSON; and ``inputs``, if present, holds
further files by name, which the runs read from their working directory.
"""

import json
import os

import pytest

from mixtrace import cli, serialize
from mixtrace.traces import hidden_trace

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")
FILES = sorted(name for name in os.listdir(CORPUS) if name.endswith(".json"))


def _load(name):
    with open(os.path.join(CORPUS, name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", FILES)
def test_corpus_file_rechecks(tmp_path, monkeypatch, capsys, name):
    path = os.path.join(CORPUS, name)
    data = _load(name)
    assert data["finding"] and data["checks"]
    monkeypatch.chdir(tmp_path)
    for extra, payload in data.get("inputs", {}).items():
        (tmp_path / extra).write_text(json.dumps(payload))
    for check in data["checks"]:
        argv = [path if arg == "@" else arg for arg in check["argv"]]
        assert cli.main(argv) == check["exit"], argv
        out, err = capsys.readouterr()
        assert (json.loads(out), err) == (check["stdout"], ""), argv


def test_vanishing_pair_is_one_tail_trace_apart():
    # p is g with its rank-1 hidden object traced out by the free trace
    g = serialize.loop_from_json(_load("vanishing_whole_g.json"))
    p = serialize.loop_from_json(_load("vanishing_tail_p.json"))
    assert hidden_trace(g, 1) == p

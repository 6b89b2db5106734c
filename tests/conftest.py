"""The ``pythonpath`` setting in pyproject.toml puts src/ on this process's
import path; the command-line tests also start ``python -m mixtrace.cli``
in child processes, which get it through PYTHONPATH."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p])

"""List the statements of ``src/mixtrace`` that no test executes.

Run by hand from the repository root (it is not a test module):

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

It runs the test suite (``tests/`` unless other pytest arguments are
given) in this process under a ``sys.settrace`` line tracer that follows
only frames of ``src/mixtrace``, then prints every statement none of those
frames reached as ``file:line: text``.  A statement is an ``ast`` statement
with bytecode; docstrings, ``def``, ``class`` and import lines are left
out, as they run at import whatever the tests do, and so is the body of an
``if __name__ == "__main__":`` block, which no import runs.  It exits with
pytest's code when the suite fails, else 1 when it printed a statement and
0 when every statement ran.  Code run in child
processes, such as the command-line tests' ``python -m mixtrace.cli``, is
not traced.  It needs pytest and the standard library, no coverage
package; tracing makes the suite about four times slower.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mixtrace"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
           ast.ImportFrom)


def _code_lines(code):
    """Every line of ``code`` and the code objects nested in it that has
    bytecode."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path):
    """(first line, head lines) of every statement of the file that has
    bytecode, but docstrings, definitions and imports.  The head of a
    compound statement runs up to its first nested statement."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    executable = _code_lines(compile(text, str(path), "exec"))
    main_only = {line for node in ast.walk(tree) if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'"
                 for line in range(node.body[0].lineno, node.end_lineno + 1)}
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or isinstance(node, SKIPPED)
                or node.lineno in main_only):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        nested = [child.lineno for child in ast.iter_child_nodes(node)
                  if isinstance(child, ast.stmt)]
        last = min(nested) - 1 if nested else node.end_lineno
        head = set(range(node.lineno, max(last, node.lineno) + 1))
        if head & executable:
            yield node.lineno, head


def main(argv) -> int:
    reached = {}  # the resolved path of each file of SRC: its lines run
    owner = {}  # co_filename: the line set of its file, or None

    def local(frame, event, arg):
        if event == "line":
            owner[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            path = Path(name).resolve()
            owner[name] = (reached.setdefault(str(path), set())
                           if path.parent == SRC else None)
        return None if owner[name] is None else local

    threading.settrace(enter)
    sys.settrace(enter)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"]
                           + (argv or [str(ROOT / "tests")]))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = 0
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        seen = reached.get(str(path), set())
        for first, head in sorted(_statements(path)):
            if not head & seen:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{first}: "
                      f"{lines[first - 1].strip()}")
    return int(code) or int(unrun > 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

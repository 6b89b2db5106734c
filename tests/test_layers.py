"""The modules of ``mixtrace`` form one chain, each importing only from
modules below it, and every import sits at module level."""

import ast
from pathlib import Path

import pytest

CHAIN = ("errors", "rings", "category", "loops", "zigzag", "traces",
         "compactify", "serialize", "cli")
SRC = Path(__file__).resolve().parent.parent / "src" / "mixtrace"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


def _relative_imports(tree):
    """(line, module) for every ``from .x import ...`` and every module
    named by ``from . import x, y``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:
                for alias in node.names:
                    yield node.lineno, alias.name


def test_every_module_is_on_the_chain():
    assert MODULES == sorted(CHAIN)


@pytest.mark.parametrize("name", MODULES)
def test_imports_point_down_the_chain(name):
    below = CHAIN[:CHAIN.index(name)]
    upward = [(line, target) for line, target in _relative_imports(_tree(name))
              if target not in below]
    assert not upward, f"{name} imports from its level or above: {upward}"


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    inner = [node.lineno
             for fn in ast.walk(_tree(name))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not inner, f"{name} imports inside a function at lines {inner}"


def test_every_export_is_used_by_the_engine():
    # a name the package exports that no other module loads is API only
    # tests call; such code belongs with the oracles in tests/
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name
                for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    loaded = set()
    for name in MODULES:
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    unused = sorted(exported - loaded)
    assert not unused, f"exported but never used in src: {unused}"

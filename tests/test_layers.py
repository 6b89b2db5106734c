"""The modules of ``mixtrace`` form one chain, each importing only from
modules below it, and every import sits at module level; no module imports
``dataclasses``, and importing the CLI loads neither it nor ``inspect``;
every export and every definition in ``src`` is used by some module of
``src``, and every public function outside its own body; no cache outlives
a call, except the CLI's parser; no module but ``rings`` reads a ring's
kind, save ``serialize.ring_to_json``; one place in ``src`` refuses a rank;
no module of ``src`` or of the tests
imports a name it never uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHAIN = ("errors", "rings", "category", "loops", "zigzag", "traces",
         "compactify", "serialize", "cli")
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mixtrace"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
TEST_MODULES = sorted(p.name for p in TESTS.glob("*.py"))


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


def _imported_modules(tree):
    """The top-level name of every module an ``import`` or an absolute
    ``from ... import`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_module_imports_dataclasses(name):
    # ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``
    # and builds its methods with ``exec``: tens of milliseconds at the
    # start of every CLI process.  The value types are slotted classes.
    assert "dataclasses" not in set(_imported_modules(_tree(name)))


HEAVY = ("dataclasses", "inspect")


def _loaded_by(code):
    """Which of HEAVY a fresh interpreter has loaded after ``code``, with
    ``src`` on its path."""
    probe = f"{code}\nimport json, sys\n" \
            f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return set(json.loads(out))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    assert _loaded_by("import mixtrace.cli") <= _loaded_by("pass")


def _loaded_in_src():
    """Every name a module of ``src`` loads, bare or as an attribute."""
    loaded = set()
    for name in MODULES:
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return loaded


def _definitions(tree):
    """The top-level functions and classes of a module, and the methods
    and properties of its classes other than dunders, as dotted names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}"


def test_every_export_is_used_by_the_engine():
    # a name the package exports that no other module loads is API only
    # tests call; such code belongs with the oracles in tests/
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name
                for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    unused = sorted(exported - _loaded_in_src())
    assert not unused, f"exported but never used in src: {unused}"


def test_every_definition_is_used_by_the_engine():
    # the same for what src defines: a function, class, method or
    # property that no module loads is dead code or API only tests call
    loaded = _loaded_in_src()
    unused = sorted(f"{name}.{qual}" for name in MODULES
                    for qual in _definitions(_tree(name))
                    if qual.rsplit(".", 1)[-1] not in loaded)
    assert not unused, f"defined but never used in src: {unused}"


def test_every_public_function_is_called_outside_its_own_body():
    # no public API that the engine itself never calls: a top-level
    # function whose name only its own body (a recursive call) or
    # __init__.py loads is API only tests call
    loads = []  # (module, enclosing top-level function or None, name)
    for name in MODULES:
        for stmt in _tree(name).body:
            owner = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    loads.append((name, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    loads.append((name, owner, node.attr))
    public = [(name, stmt.name) for name in MODULES
              for stmt in _tree(name).body
              if isinstance(stmt, ast.FunctionDef)
              and not stmt.name.startswith("_")]
    uncalled = sorted(f"{name}.{fn}" for name, fn in public
                      if not any(loaded == fn and (where, owner) != (name, fn)
                                 for where, owner, loaded in loads))
    assert not uncalled, f"public but never called in src: {uncalled}"


CACHES = ("cache", "lru_cache")


def _module_level_caches(tree):
    """Lines naming ``cache`` or ``lru_cache`` outside every function body:
    a decorator, or a call at module or class level.  A cache built inside
    a function lives for that call only."""
    def outside(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in child.decorator_list:
                    yield from ast.walk(decorator)
            elif not isinstance(child, ast.Lambda):
                yield child
                yield from outside(child)
    return sorted(node.lineno for node in outside(tree)
                  if getattr(node, "id", getattr(node, "attr", None))
                  in CACHES)


def test_the_cache_guard_sees_decorators_and_calls_only():
    tree = ast.parse("@functools.lru_cache(maxsize=None)\n"
                     "def f(): pass\n"
                     "@cache\n"
                     "def g(): pass\n"
                     "h = cache(lambda: cache(f))\n"
                     "class C:\n"
                     "    x = functools.cache(f)\n"
                     "    def m(self):\n"
                     "        return cache(f)()\n")
    assert _module_level_caches(tree) == [1, 3, 5, 7]


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_cache(name):
    # values built once per call are shared by that call only; the parser,
    # built once per process, is the one cache that outlives a call
    tree = _tree(name)
    allowed = [d.lineno for node in tree.body
               if isinstance(node, ast.FunctionDef) and name == "cli"
               and node.name == "_parser" for d in node.decorator_list]
    found = _module_level_caches(tree)
    assert found == allowed, f"{name} has a module-level cache at {found}"


def _ring_kind_loads(name):
    """Lines of a module of ``src`` that read an attribute ``kind``, outside
    ``serialize.ring_to_json``."""
    tree = _tree(name)
    schema = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and name == "serialize"
              and fn.name == "ring_to_json" for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "kind"
                  and isinstance(node.ctx, ast.Load)
                  and id(node) not in schema)


@pytest.mark.parametrize("name", [n for n in MODULES if n != "rings"])
def test_only_rings_reads_a_ring_kind(name):
    # every ring operation lives in rings, so a new ring is one new tag
    # there; the JSON schema of a tag is the one other place naming its kind
    found = _ring_kind_loads(name)
    assert not found, f"{name} reads .kind at lines {found}"


RANK_MESSAGE = "object rank must be a non-negative integer"


def test_one_place_refuses_a_rank():
    # a rank is a plain int, checked where it enters: every constructor
    # that takes ranks from a caller calls ``category.check_ranks``, the
    # one text of this refusal
    found = [(name, node.lineno) for name in MODULES
             for node in ast.walk(_tree(name))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and RANK_MESSAGE in node.value]
    assert [name for name, _ in found] == ["category"], found


@pytest.mark.parametrize("path", [TESTS / name for name in TEST_MODULES] + [
    pytest.param(SRC / f"{name}.py", id=f"mixtrace/{name}.py")
    for name in MODULES], ids=lambda path: path.name)
def test_test_modules_use_every_name_they_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.split(".")[0]: node.lineno
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = sorted((line, n) for n, line in imported.items()
                    if n not in loaded)
    assert not unused, f"{path.name} imports names it never uses: {unused}"

"""Audit: nothing in ``src/`` exists only for the tests.

A function, method, class, constant or class attribute that only
``tests/`` loads is API the program does not use: every reader has to
learn it, every refactor has to carry it, and its tests pin nothing the
simulator does.  An attribute that code stores on ``self`` but only tests
read is the same waste at run time: the program pays to keep it up for
nobody.  This AST audit fails on either.

A name counts as used when a file under :data:`USER_DIRS` loads it
anywhere outside the definition's own body -- as a bare name, an
attribute, an imported name, or a string constant that names an
attribute: the name argument of ``getattr``/``hasattr``/``setattr``/
``delattr``, or an entry of ``__all__``.  Any other string is data, not a
use: a result-dict key or a ``__slots__`` entry that happens to spell a
method's name keeps nothing alive.  Matching is by bare name, so a dead
definition that shares its name with a used one passes; a definition
reached only through a computed name (``getattr(obj, "_on_" + kind)``)
would need an allowlist entry.

Kept without a caller, each for the reason given:

- dunder methods: the interpreter calls them;
- names a package's ``__all__`` exports: the strings in ``__all__`` count
  as uses, since an export is public API;
- the names in :data:`ALLOWLIST`.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: every directory whose files count as callers (all but ``tests/``)
USER_DIRS = ("src", "benchmarks", "perfbench", "examples", "ci")

#: definitions that stay without a caller outside ``tests/``
ALLOWLIST = {
    "sweep": "DESIGN feature 31: the generic parameter-sweep API that user "
             "design-space studies call",
    "SweepResult": "DESIGN feature 31: what sweep() returns",
    "MigratoryCounter": "DESIGN feature 25: a workload-library "
                        "micro-benchmark for user-built workloads",
    "StreamingScan": "DESIGN feature 25: a workload-library "
                     "micro-benchmark for user-built workloads",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse_all() -> dict[pathlib.Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for directory in USER_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    }


#: builtins whose second argument names an attribute
_ATTRIBUTE_BUILTINS = {"getattr", "hasattr", "setattr", "delattr"}


def _name_strings(tree: ast.Module) -> set[int]:
    """ids of the string nodes that name an attribute: the name argument
    of an attribute builtin, and every string of an ``__all__`` binding."""
    ids = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _ATTRIBUTE_BUILTINS
                and len(node.args) >= 2):
            ids.add(id(node.args[1]))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                ids.update(id(const) for const in ast.walk(node.value))
    return ids


def _uses(trees: dict[pathlib.Path, ast.Module]):
    """``name -> [(path, line)]`` of every load, and the set of names
    loaded as an attribute or a string (what can read an attribute)."""
    loads: dict[str, list[tuple[pathlib.Path, int]]] = {}
    attribute_reads: set[str] = set()
    for path, tree in trees.items():
        named = _name_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
                attribute_reads.add(name)
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) in named):
                name = node.value
                attribute_reads.add(name)
            else:
                continue
            loads.setdefault(name, []).append((path, getattr(node, "lineno", 0)))
    return loads, attribute_reads


def _src_trees(trees):
    return {path: tree for path, tree in trees.items()
            if path.is_relative_to(SRC)}


def _definitions(tree: ast.Module):
    """``(name, node)`` of every function, method and class, nested ones
    included, and of every name bound at module or class level (constants,
    class attributes, dataclass fields)."""
    scopes = [tree]
    for node in ast.walk(tree):
        if isinstance(node, _DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            scopes.append(node)
    for scope in scopes:
        for stmt in scope.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt


def _dead_definitions(trees) -> list[str]:
    loads, _ = _uses(trees)
    dead = []
    for path, tree in _src_trees(trees).items():
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = [
                (where, line) for where, line in loads.get(name, ())
                if where != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside and name not in ALLOWLIST:
                dead.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    return dead


def _write_only_attributes(trees) -> list[str]:
    _, attribute_reads = _uses(trees)
    dead = []
    for path, tree in _src_trees(trees).items():
        seen = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in attribute_reads
                    and node.attr not in seen):
                seen.add(node.attr)
                dead.append(f"{path.relative_to(SRC)}:{node.lineno}: self.{node.attr}")
    return dead


@pytest.fixture(scope="module")
def trees() -> dict[pathlib.Path, ast.Module]:
    return _parse_all()


def test_every_definition_has_a_non_test_caller(trees):
    dead = _dead_definitions(trees)
    assert not dead, (
        "definitions only tests load (delete them, or move a test helper "
        "into tests/):\n  " + "\n  ".join(dead)
    )


def test_every_attribute_has_a_non_test_reader(trees):
    dead = _write_only_attributes(trees)
    assert not dead, (
        "attributes nothing outside tests reads:\n  " + "\n  ".join(dead)
    )


def test_allowlist_names_only_live_definitions(trees):
    defined = {
        name
        for tree in _src_trees(trees).values()
        for name, _node in _definitions(tree)
    }
    assert set(ALLOWLIST) <= defined, set(ALLOWLIST) - defined

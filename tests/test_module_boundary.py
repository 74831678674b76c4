"""Each module of the package reads only the public names of its siblings,
and states its own.

A ``_``-prefixed name is its module's own: a sibling that imports one, or
reads one off an imported sibling module, re-derives a fact that module
owns.  Tests may still reach private names.  A module's ``__all__`` is what
the package re-exports of it, and each public module-level def or class
says what it is in a docstring.
"""

import ast
from pathlib import Path

import pytest

import dressedcavity

SOURCES = sorted(Path(dressedcavity.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _all(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists (none without one)."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def surface_gaps(source: str, reexported: set[str]) -> list[str]:
    """Each public module-level def or class without a docstring, then each
    name that ``__all__`` and the package's re-exports of the module do not share."""
    tree = ast.parse(source)
    bare = [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and ast.get_docstring(node) is None]
    return bare + sorted(_all(tree) ^ reexported)


def reexports(path: Path) -> set[str]:
    """The names the package's ``__init__`` imports from the module at ``path``."""
    tree = ast.parse((path.parent / "__init__.py").read_text())
    return {alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == path.stem
            for alias in node.names}


def private_uses(source: str) -> list[str]:
    """``module.name`` for each private name the source takes from a sibling:
    ``from .spectrum import _omega``, or ``from . import spectrum`` and then
    ``spectrum._omega``."""
    tree = ast.parse(source)
    found, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "dressedcavity"):
            package = (node.module or "dressedcavity").split(".")
            for alias in node.names:
                if node.module is None or package == ["dressedcavity"]:
                    modules[alias.asname or alias.name] = alias.name  # a sibling module
                elif _private(alias.name):
                    found.append(f"{package[-1]}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_imports_no_private_name_of_a_sibling(path):
    assert private_uses(path.read_text()) == []


def test_the_check_sees_both_forms():
    source = ("from __future__ import annotations\n"
              "from . import spectrum as sp\n"
              "from .spectrum import ModeSpectrum, _omega\n"
              "from dressedcavity.coupling import _field_rows\n"
              "x = sp._secular(ModeSpectrum, sp.field_frequencies, __name__)\n")
    assert private_uses(source) == ["spectrum._omega", "coupling._field_rows", "spectrum._secular"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_documents_and_lists_its_public_names(path):
    assert surface_gaps(path.read_text(), reexports(path)) == []

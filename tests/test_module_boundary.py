"""Each module of the package reads only the public names of its siblings.

A ``_``-prefixed name is its module's own: a sibling that imports one, or
reads one off an imported sibling module, re-derives a fact that module
owns.  Tests may still reach private names.
"""

import ast
from pathlib import Path

import pytest

import dressedcavity

SOURCES = sorted(Path(dressedcavity.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


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
              "from dressedcavity.coupling import _rows\n"
              "x = sp._secular(ModeSpectrum, sp.field_frequencies, __name__)\n")
    assert private_uses(source) == ["spectrum._omega", "coupling._rows", "spectrum._secular"]

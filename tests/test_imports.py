"""The package imports only the standard library and itself.

The tests run with tests/ on sys.path, so a package module that imported a
test reference (say `from certificates import add`) would pass them and
still break the installed package, which ships no tests/.  Checked on the
source's syntax tree.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sumprodpower"


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each absolute import of a module that is neither in
    the standard library nor in sumprodpower; relative imports are the
    package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.partition(".")[0] not in {*sys.stdlib_module_names, "sumprodpower"})
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_its_package(path):
    assert foreign_imports(path.read_text()) == []


def test_checker_sees_every_foreign_import():
    source = "\n".join([
        "from __future__ import annotations",
        "import os, json",
        "from .elliptic import Point",
        "from . import exactmath",
        "from sumprodpower.exactmath import divisors",
        "from certificates import add",
        "import gen4_oracle, math",
        "import numpy.linalg",
        "def f():",
        "    import multiprocessing",
        "    from hypothesis import given",
    ])
    assert foreign_imports(source) == [
        (6, "certificates"),
        (7, "gen4_oracle"),
        (8, "numpy.linalg"),
        (11, "hypothesis"),
    ]

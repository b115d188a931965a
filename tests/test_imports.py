"""The package imports only the standard library and itself, never
fractions, and a cold command imports little of the standard library.

The tests run with tests/ on sys.path, so a package module that imported a
test reference (say `from certificates import add`) would pass them and
still break the installed package, which ships no tests/.  Checked on the
source's syntax tree.

A command-line run is mostly interpreter start-up, so a module that the
package loads but the command does not need (dataclasses with inspect,
fractions with decimal, signal, typing, and argparse for a well-formed argv,
which cli's flag scan reads without it) is most of what the package adds to
it.  Checked in fresh interpreters, against the modules that the standard
library needs for the same work, on the package that the tests import: the
installed one when it is installed.
"""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from certificates import family_params, fraction_general_solution
from sumprodpower import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sumprodpower"
# The directory the tests import sumprodpower from: src/, or site-packages.
IMPORTED_FROM = Path(cli.__file__).resolve().parent.parent


def imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each absolute import anywhere in source: at module
    level, in a function or under `if TYPE_CHECKING:`; relative imports are
    the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend((node.lineno, name) for name in names)
    return sorted(found)


def foreign_imports(source: str) -> list[tuple[int, str]]:
    """The imports of modules that are neither in the standard library nor
    in sumprodpower."""
    return [(line, name) for line, name in imports(source)
            if name.partition(".")[0] not in {*sys.stdlib_module_names, "sumprodpower"}]


def fractions_imports(source: str) -> list[tuple[int, str]]:
    """The imports of fractions: a rational is a pair (p, q) of ints in the
    package, and Fraction arithmetic belongs to the tests' oracles."""
    return [(line, name) for line, name in imports(source)
            if name.partition(".")[0] == "fractions"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_its_package(path):
    assert foreign_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_fractions(path):
    assert fractions_imports(path.read_text()) == []


def test_checker_sees_every_fractions_import():
    source = "\n".join([
        "import os, fractions",
        "from .fractions import x",
        "TYPE_CHECKING = False",
        "if TYPE_CHECKING:",
        "    from fractions import Fraction",
        "def f():",
        "    import fractions as f",
    ])
    assert fractions_imports(source) == [(1, "fractions"), (5, "fractions"), (7, "fractions")]


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


# Runs BODY in a fresh interpreter with no site (-I -S) and prints, on its
# last line, the modules that BODY loaded.  argv[1] is IMPORTED_FROM.
PROBE = """\
import sys
before = set(sys.modules)
{body}
print(" ".join(sorted(set(sys.modules) - before)))
"""
# The budget holds argparse with what it loads when a parser is built and
# reports an error (shutil for the help width and locale for gettext, which
# vary by version), because an argv that the flag scan does not take ends in
# argparse; a well-formed argv loads none of it (ARGPARSE_MODULES).
STDLIB_BUDGET = """\
import argparse, bisect, math, os, re
parser = argparse.ArgumentParser(prog="probe")
parser.add_subparsers().add_parser("run").add_argument("--n", type=int)
parser.parse_args(["run", "--n", "1"])
try:
    parser.parse_args(["run", "--bogus"])
except SystemExit:
    pass
"""
RUN_CLI = """\
sys.path.insert(0, sys.argv[1])
from sumprodpower.cli import main
print(main(sys.argv[2:]))
"""


def cold_run(body: str, *argv: str) -> tuple[list[str], str, set[str]]:
    """The stdout lines and the stderr of BODY, and the modules it loads, in
    a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE.format(body=body), str(IMPORTED_FROM), *argv],
        capture_output=True, text=True, timeout=60, check=True,
    )
    *lines, modules = proc.stdout.splitlines()
    return lines, proc.stderr, set(modules.split())


def beyond_budget(loaded: set[str], budget: set[str]) -> set[str]:
    return {name for name in loaded - budget if name.partition(".")[0] != "sumprodpower"}


@pytest.fixture(scope="module")
def stdlib_budget() -> set[str]:
    return cold_run(STDLIB_BUDGET)[2]


INTEGER_COMMANDS = [
    ("verify", "--s", "4", "--parts", "1,2,24"),
    ("verify", "--s", "4", "--parts", "1,2,25"),
    ("gen4", "--count", "2"),
    ("gen4", "--from-point=235,8"),
    ("gen4", "--from-point", "60266587/257049,3852230624/130323843"),  # README's 3P
    ("family", "--s", "5", "--t1", "2", "--t2", "1", "--primitive"),
    ("search", "--s", "5", "--max-n", "50"),
    ("s3", "--brute-max", "100"),
    ("verify", "--bogus"),
]


@pytest.mark.parametrize("argv", INTEGER_COMMANDS, ids=" ".join)
def test_cold_command_loads_only_its_budget(stdlib_budget, argv):
    _, _, loaded = cold_run(RUN_CLI, *argv)
    assert beyond_budget(loaded, stdlib_budget) == set()
    assert "sumprodpower.cli" in loaded


ARGPARSE_MODULES = {"argparse", "gettext", "locale", "shutil"}
# Named outright, since the budget, which argparse loads, may vary by version.
HEAVY_MODULES = {"dataclasses", "inspect", "fractions", "decimal", "signal"}


@pytest.mark.parametrize("argv", INTEGER_COMMANDS[:-1], ids=" ".join)  # all but verify --bogus
def test_well_formed_command_loads_no_argparse(argv):
    _, _, loaded = cold_run(RUN_CLI, *argv)
    assert loaded & (ARGPARSE_MODULES | HEAVY_MODULES) == set()


def test_argparse_loads_for_a_bad_argv():
    lines, err, loaded = cold_run(RUN_CLI, "verify", "--bogus")
    assert "argparse" in loaded
    assert lines == ["2"]
    assert err.startswith("usage: sumprodpower verify [-h] --s S --parts PARTS")
    assert err.endswith("\nsumprodpower verify: error: the following arguments are required: "
                        "--s, --parts\n")


def test_cold_verify_prints_the_record():
    lines, err, _ = cold_run(RUN_CLI, "verify", "--s", "4", "--parts", "1,2,24")
    record = '{"s": 4, "parts": [1, 2, 24], "n": 27, "b": 6, "source": "verify"}'
    assert (lines, err) == ([record, "0"], "")


@pytest.mark.parametrize("point, shown", [("1,1", "1, 1"), ("4/16,8/64", "1/4, 1/8")])
def test_rejected_point_loads_no_fractions(point, shown):
    # The rejection line prints the point in lowest terms from its int pairs.
    lines, err, loaded = cold_run(RUN_CLI, "gen4", f"--from-point={point}")
    assert (lines, err) == (["1"], f"point ({shown}) is not on the s=4 curve\n")
    assert loaded & {"fractions", "decimal"} == set()


@pytest.mark.parametrize("tail", ["1/2,3", "1/2,1/3"])
def test_cold_tail_loads_no_fractions(stdlib_budget, tail):
    # The tail and t0 are read as (p, q) pairs: a record at the tail 1/2,1/3,
    # and D <= 0 at 1/2,3, whose message prints D from its pair.  Either is
    # the Fraction oracle's.
    lines, err, loaded = cold_run(RUN_CLI, "family", "--s", "6", "--tail", tail, "--t0", "1")
    assert beyond_budget(loaded, stdlib_budget) == set()
    assert loaded & {"fractions", "decimal"} == set()
    params = family_params(6, map(Fraction, tail.split(",")), Fraction(1))
    try:
        expected = [cli.render(fraction_general_solution(params), "family", "jsonl"), "0"], ""
    except ValueError as exc:
        expected = ["1"], f"{exc}\n"
    assert (lines, err) == expected

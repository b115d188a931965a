"""No floating point in the package, nor in the test references that certify
the paper's claims (certificates.py and gen4_oracle.py): checked on the
source's syntax tree.

Fails on a float or complex literal, a call to float() or complex(), and any
use of math's floating-point functions (sqrt, log, exp, pow, fsum and their
variants).  The integer functions isqrt, gcd, lcm and prod stay allowed.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "sumprodpower"
REFERENCES = [TESTS / "certificates.py", TESTS / "gen4_oracle.py"]
FLOAT_MATH = {"sqrt", "log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "pow", "fsum"}


def float_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) for each floating-point construct in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append((node.lineno, f"call to {node.func.id}()"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr in FLOAT_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"math.{alias.name}")
                         for alias in node.names if alias.name in FLOAT_MATH)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + REFERENCES, ids=lambda p: p.name)
def test_module_has_no_floating_point(path):
    assert float_uses(path.read_text()) == []


def test_checker_sees_every_forbidden_form():
    source = "\n".join([
        "x = 0.5",
        "z = 2j",
        "y = float(3)",
        "w = complex(1, 2)",
        "r = math.sqrt(2)",
        "from math import log, fsum",
        "from math import isqrt, gcd, lcm, prod",
        "q = math.isqrt(9) + math.gcd(4, 6)",
    ])
    assert sorted(float_uses(source)) == [
        (1, "literal 0.5"),
        (2, "literal 2j"),
        (3, "call to float()"),
        (4, "call to complex()"),
        (5, "math.sqrt"),
        (6, "math.fsum"),
        (6, "math.log"),
    ]

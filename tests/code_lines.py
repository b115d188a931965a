"""Count the code lines of the Python files in a directory.

A code line is a line that holds a token of code: docstrings, comments and
blank lines do not count, and a statement or string that spans several
lines counts each of them.  A docstring is the string constant that opens a
module, class or function body, as ast finds it.

    python tests/code_lines.py src/sumprodpower

prints one line per file, ``<lines>  <path>``, sorted by path, and then the
total.  Standard library only; pytest does not collect this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source (module docstring)."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[0]).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""The rules of tests/code_lines.py, the counter that reports the package's
size: docstrings, comments and blank lines are not code, and a statement or
string that spans several lines counts each of its lines."""

import ast

from code_lines import code_lines, docstring_lines, main

SNIPPET = '''\
"""Module docstring,
over two lines."""

import os  # a comment after code counts as code

# A comment line.


class Box:
    """Class docstring."""

    def size(self):
        """Function docstring
        over three lines.
        """
        return len(
            os.sep,
        )


async def later():
    """Async function docstring."""
    return 1


def text():
    note = """not a docstring:
    each of its lines is code"""
    "a string statement after the first one is code too"
    return note
'''
# The line numbers of SNIPPET that hold code.
CODE = {4, 9, 12, 16, 17, 18, 21, 23, 26, 27, 28, 29, 30}
DOCSTRINGS = {1, 2, 10, 13, 14, 15, 22}


def test_docstrings_are_the_first_string_of_each_body():
    assert docstring_lines(ast.parse(SNIPPET)) == DOCSTRINGS


def test_snippet_count():
    # The 13 lines of CODE; dropping every blank and comment line changes nothing.
    assert code_lines(SNIPPET) == len(CODE) == 13
    assert code_lines("".join(
        line for number, line in enumerate(SNIPPET.splitlines(keepends=True), 1)
        if number in CODE or number in DOCSTRINGS)) == 13


def test_main_prints_each_file_sorted_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = (\n    2)\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.py").write_text('"""Doc."""\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("z = 3\n", encoding="utf-8")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr() == (
        f"     3  {tmp_path / 'b.py'}\n     0  {tmp_path / 'sub' / 'a.py'}\n     3  total\n", "")


def test_main_without_a_directory_is_a_usage_error(capsys):
    assert main([]) == 2
    out, err = capsys.readouterr()
    assert (out, err.startswith("usage: python tests/code_lines.py DIRECTORY")) == ("", True)

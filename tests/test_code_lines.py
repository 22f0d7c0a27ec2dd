"""The code-line counter's rule, on a file small enough to count by eye."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''\
"""Module docstring
over two lines."""

import os  # a trailing comment does not uncount the line

# a comment-only line

def f(x):
    """A function docstring."""
    return (
        x
    )


class C:
    "A class docstring."

    TEXT = """a string that is not a docstring
    counts every line it spans"""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_token_lines_outside_comments_and_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, return ( x ) = 3, class, TEXT = 2
    assert load_tool().code_lines(path) == 1 + 1 + 3 + 1 + 2


def test_table_groups_by_package(tmp_path, capsys):
    for relative in ("pkg/a.py", "pkg/sub/b.py", "pkg/sub/deep/c.py", "pkg/other/d.py"):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("x = 1\n")
    assert load_tool().main([str(tmp_path)]) == 0
    rows = dict(line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines())
    assert rows == {
        str(tmp_path / "pkg"): "1",
        str(tmp_path / "pkg/sub"): "2",
        str(tmp_path / "pkg/other"): "1",
        "total": "4",
    }

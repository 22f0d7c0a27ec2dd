#!/usr/bin/env python3
"""Count code lines: the yardstick of the simplicity PRs.

A *code line* is a physical line that holds at least one token which is
neither a comment nor part of a docstring (blank lines, comment-only
lines and module / class / function docstrings do not count; a
multi-line expression or string counts every line it spans).  Run it on
two checkouts to compare them::

    python tools/code_lines.py                 # per-package table of src/
    python tools/code_lines.py src/repro/lsm   # any directory
    python tools/code_lines.py a.py b.py       # per-file table of a file list
"""

from __future__ import annotations

import ast
import sys
import tokenize
from collections import Counter
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCSTRING_OWNERS = (
    ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef
)


def _docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, _DOCSTRING_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in one python file."""
    docstrings = _docstring_lines(path.read_text())
    counted: set[int] = set()
    with open(path, "rb") as file:
        for token in tokenize.tokenize(file.readline):
            if token.type not in _SKIPPED:
                counted.update(range(token.start[0], token.end[0] + 1))
    return len(counted - docstrings)


def main(argv: list[str]) -> int:
    targets = [Path(arg) for arg in argv] or [Path("src")]
    totals: Counter[str] = Counter()
    for target in targets:
        if target.is_file():
            totals[str(target)] += code_lines(target)
            continue
        for path in sorted(target.rglob("*.py")):
            # Group by package: the file's first two directories under
            # the target (src/ -> src/repro/<package>).
            directories = path.relative_to(target).parts[:-1]
            totals[str(target.joinpath(*directories[:2]))] += code_lines(path)
    width = max(map(len, totals), default=0)
    for group, count in sorted(totals.items()):
        print(f"{group:<{width}}  {count:>6}")
    print(f"{'total':<{width}}  {sum(totals.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans recorded from the harness, around the calls into each layer.

A span is ``[name, start, end, parent, cell, attrs, index]``: ``parent``
is the index of the enclosing span (``None`` at the root), ``cell``
groups the spans of one unit of work (one simulator run, one engine
pass) and ``attrs`` carries the counts taken at the same boundary.  Spans stay in
memory and are written out once, after the measurement.  A span's self
time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional

NAME, START, END, PARENT, CELL, ATTRS, INDEX = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, cell: Optional[str] = None) -> Iterator[list]:
        """Time the body as one span; yields the row so counts can be attached."""
        parent = self._open[-1] if self._open else None
        if cell is None and parent is not None:
            cell = self.spans[parent][CELL]
        row = [name, 0.0, 0.0, parent, cell, None, len(self.spans)]
        self._open.append(row[INDEX])
        self.spans.append(row)
        row[START] = perf_counter()
        try:
            yield row
        finally:
            row[END] = perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, parent: list, attrs=None) -> None:
        """Record a span the caller timed itself (hot loops) under ``parent``."""
        self.spans.append(
            [name, start, end, parent[INDEX], parent[CELL], attrs, len(self.spans)]
        )

    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time summed by span name."""
        covered: dict[int, float] = defaultdict(float)
        for row in self.spans:
            if row[PARENT] is not None:
                covered[row[PARENT]] += row[END] - row[START]
        totals: dict[str, float] = defaultdict(float)
        for index, row in enumerate(self.spans):
            totals[row[NAME]] += row[END] - row[START] - covered[index]
        return dict(totals)

    def total(self, name: str) -> float:
        """Busy time (children included) summed over the spans called ``name``."""
        return sum(row[END] - row[START] for row in self.spans if row[NAME] == name)

    def write(self, path: Path, header: dict) -> None:
        """``{..header, columns, names, spans}``; names are interned by index."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, cell, attrs, _ in self.spans:
            row = [names.setdefault(name, len(names)), start, end, parent, cell]
            if attrs:
                row.append(attrs)
            rows.append(row)
        document = dict(header)
        document["columns"] = ["name", "start", "end", "parent", "cell", "attrs"]
        document["names"] = list(names)
        document["spans"] = rows
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))

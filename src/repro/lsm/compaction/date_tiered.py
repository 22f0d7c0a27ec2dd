"""Date-Tiered compaction (Cassandra DTCS) — related-work baseline.

The paper's related work (§1) cites date-tiered compaction
(CASSANDRA-6602, LogBase): "for data which becomes immutable over time,
such as logs, recent data is prioritized for compaction".  The idea is
to bucket sstables by *age window* and only merge tables within the
same window, so cold data is rewritten rarely and time-range reads
touch few tables.

This implementation uses sequence numbers as the time axis (the
simulator has no wall clock): windows cover geometrically growing age
ranges ``[0, base)``, ``[base, base * (1 + ratio))``, ... measured
backwards from the newest seqno.  A window holding at least
``min_threshold`` tables is merged (newest windows first); tombstones
are garbage-collected only when merging the oldest populated window.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..disk import SimulatedDisk
from ..sstable import SSTable
from .base import CompactionResult, CompactionStrategy
from .executor import _merge_step


class DateTieredCompaction(CompactionStrategy):
    """Bucket by age window; merge within windows only."""

    def __init__(
        self,
        base_window: int = 1000,
        window_growth: int = 4,
        min_threshold: int = 2,
        max_rounds: int = 64,
        bloom_fp_rate: float = 0.01,
    ) -> None:
        if base_window < 1:
            raise ValueError("base_window must be positive")
        if window_growth < 2:
            raise ValueError("window_growth must be at least 2")
        if min_threshold < 2:
            raise ValueError("min_threshold must be at least 2")
        self.base_window = base_window
        self.window_growth = window_growth
        self.min_threshold = min_threshold
        self.max_rounds = max_rounds
        self.bloom_fp_rate = bloom_fp_rate
        self.name = f"date_tiered(base={base_window}, growth={window_growth})"

    def _window_of(self, age: int) -> int:
        """Index of the geometric age window containing ``age``."""
        upper = self.base_window
        index = 0
        while age >= upper:
            upper += self.base_window * self.window_growth ** (index + 1)
            index += 1
        return index

    def assign_windows(self, tables: Sequence[SSTable]) -> dict[int, list[SSTable]]:
        """Group tables by age window (age = newest seqno - table's newest)."""
        now = max(table.max_seqno for table in tables)
        windows: dict[int, list[SSTable]] = {}
        for table in tables:
            windows.setdefault(self._window_of(now - table.max_seqno), []).append(table)
        return windows

    def compact(
        self,
        tables: Sequence[SSTable],
        disk: SimulatedDisk,
        next_table_id: int,
    ) -> CompactionResult:
        if not tables:
            raise ValueError("nothing to compact")
        started = time.perf_counter()
        result = CompactionResult.start(self.name, tables)
        live = list(tables)
        rounds = 0

        for _ in range(self.max_rounds):
            windows = self.assign_windows(live)
            mergeable = sorted(
                (index for index, members in windows.items()
                 if len(members) >= self.min_threshold)
            )
            if not mergeable:
                break
            rounds += 1
            oldest_window = max(windows)
            for index in mergeable:
                group = windows[index]
                output, seconds = _merge_step(
                    group,
                    next_table_id + result.n_merges,
                    index == oldest_window,
                    self.bloom_fp_rate,
                )
                result.merge_wall_seconds += seconds
                result.bill(group, [output], disk)
                for table in group:
                    live.remove(table)
                live.append(output)

        result.output_tables = live
        result.simulated_seconds = result.io_seconds
        result.wall_seconds = time.perf_counter() - started
        result.extras = {
            "rounds": rounds,
            "windows": {
                index: [t.table_id for t in members]
                for index, members in sorted(self.assign_windows(live).items())
            },
        }
        return result

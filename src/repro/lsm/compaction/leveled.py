"""Leveled compaction (LevelDB / Cassandra LCS) — related-work baseline.

The paper (§1) contrasts major compaction with level-based compaction,
which "optimizes for read performance by sacrificing writes".  This is a
faithful small-scale model of the LevelDB algorithm:

* L0 holds freshly flushed (possibly overlapping) tables; once
  ``level0_threshold`` accumulate they are merged with the overlapping
  part of L1.
* Each level ``i >= 1`` is a run of non-overlapping tables capped at
  ``base_level_entries * fanout**(i-1)`` entries; overflow picks a
  victim table and merges it into the overlapping tables of level
  ``i+1``, splitting the output into tables of at most
  ``table_target_entries`` entries.
* Tombstones are dropped only when the merge output lands in the
  bottommost populated level.

Unlike major compaction the output is *many* tables, but point reads
probe at most one table per level — the read-amplification trade the
paper describes.  ``levels`` in the result's ``extras`` maps level
number to the output table ids.

Each merge output is cut into its level's tables by
:meth:`~repro.lsm.sstable.SSTable.split`, so the outputs keep their
input's representation: int64 column slices stay column-backed and
never build a ``Record``; record-backed runs (generic keys, payload
bytes, the heap merge kernel) are cut by record slices.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..disk import SimulatedDisk
from ..sstable import SSTable
from .base import CompactionResult, CompactionStrategy
from .executor import _merge_step


class LeveledCompaction(CompactionStrategy):
    """LevelDB-style leveled compaction over the given tables."""

    def __init__(
        self,
        table_target_entries: int = 500,
        base_level_entries: int = 2000,
        fanout: int = 10,
        level0_threshold: int = 4,
        bloom_fp_rate: float = 0.01,
        merge_kernel: str = "auto",
    ) -> None:
        if table_target_entries < 1 or base_level_entries < 1:
            raise ValueError("table and level targets must be positive")
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if level0_threshold < 1:
            raise ValueError("level0_threshold must be at least 1")
        self.table_target_entries = table_target_entries
        self.base_level_entries = base_level_entries
        self.fanout = fanout
        self.level0_threshold = level0_threshold
        self.bloom_fp_rate = bloom_fp_rate
        self.merge_kernel = merge_kernel
        self.name = f"leveled(target={table_target_entries}, fanout={fanout})"

    def _level_capacity(self, level: int) -> int:
        return self.base_level_entries * self.fanout ** (level - 1)

    # ------------------------------------------------------------------
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
        levels: dict[int, list[SSTable]] = {0: list(tables)}

        def merge_into(
            sources: list[SSTable], target_level: int
        ) -> None:
            """Merge sources + overlapping tables of target_level into it."""
            nonlocal next_table_id
            target_tables = levels.get(target_level, [])
            overlapping = [
                table
                for table in target_tables
                if any(table.key_range_overlaps(src) for src in sources)
            ]
            group = sources + overlapping
            bottommost = all(
                not levels.get(deeper) for deeper in range(target_level + 1, target_level + 20)
            )
            merged, seconds = _merge_step(
                group, next_table_id, bottommost, self.bloom_fp_rate, self.merge_kernel
            )
            outputs = merged.split(
                self.table_target_entries, next_table_id + 1, self.bloom_fp_rate
            )
            next_table_id += 1 + len(outputs)
            result.merge_wall_seconds += seconds
            result.bill(group, outputs, disk)

            remaining = [t for t in target_tables if t not in overlapping]
            levels[target_level] = sorted(
                remaining + outputs, key=lambda t: t.min_key
            )

        # --- drain L0 ---------------------------------------------------
        if len(levels[0]) >= self.level0_threshold or len(levels[0]) > 1:
            sources = levels.pop(0)
            levels[0] = []
            merge_into(sources, 1)
        elif levels[0]:
            levels[1] = levels.pop(0)
            levels[0] = []

        # --- cascade overflowing levels ---------------------------------
        changed = True
        while changed:
            changed = False
            for level in sorted(list(levels)):
                if level == 0 or not levels.get(level):
                    continue
                total = sum(t.entry_count for t in levels[level])
                if total <= self._level_capacity(level):
                    continue
                # Victim: table with the smallest min_key (deterministic).
                victim = min(levels[level], key=lambda t: (t.min_key, t.table_id))
                levels[level] = [t for t in levels[level] if t is not victim]
                merge_into([victim], level + 1)
                changed = True
                break

        output_tables = [
            table for level in sorted(levels) for table in levels.get(level, [])
        ]
        result.output_tables = output_tables
        result.simulated_seconds = result.io_seconds
        result.wall_seconds = time.perf_counter() - started
        result.extras = {
            "levels": {
                level: [t.table_id for t in members]
                for level, members in levels.items()
                if members
            }
        }
        return result

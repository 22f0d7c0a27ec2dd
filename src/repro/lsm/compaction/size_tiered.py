"""Size-Tiered compaction (Cassandra STCS) — the related-work baseline.

The paper (§1) cites Cassandra's Size-Tiered strategy, "inspired from
Google's Bigtable", which "merges sstables of equal size" and notes its
resemblance to SMALLESTINPUT.  This implementation follows the
documented STCS algorithm:

1. bucket tables whose sizes are within ``[bucket_low, bucket_high]``
   of the bucket's running average,
2. compact any bucket holding at least ``min_threshold`` tables (at most
   ``max_threshold`` per merge),
3. repeat until no bucket qualifies.

With ``until_single=True`` (the default, to compare against the paper's
major-compaction policies) a final merge collapses the remaining tables
into one and garbage-collects tombstones.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..disk import SimulatedDisk
from ..sstable import SSTable
from .base import CompactionResult, CompactionStrategy
from .executor import _merge_step


class SizeTieredCompaction(CompactionStrategy):
    """Cassandra's STCS, optionally driven to a single output table."""

    def __init__(
        self,
        min_threshold: int = 4,
        max_threshold: int = 32,
        bucket_low: float = 0.5,
        bucket_high: float = 1.5,
        until_single: bool = True,
        bloom_fp_rate: float = 0.01,
        merge_kernel: str = "auto",
    ) -> None:
        if min_threshold < 2:
            raise ValueError("min_threshold must be at least 2")
        if max_threshold < min_threshold:
            raise ValueError("max_threshold must be >= min_threshold")
        if not 0 < bucket_low <= 1 <= bucket_high:
            raise ValueError("bucket bounds must satisfy 0 < low <= 1 <= high")
        self.min_threshold = min_threshold
        self.max_threshold = max_threshold
        self.bucket_low = bucket_low
        self.bucket_high = bucket_high
        self.until_single = until_single
        self.bloom_fp_rate = bloom_fp_rate
        self.merge_kernel = merge_kernel
        self.name = f"size_tiered(min={min_threshold}, max={max_threshold})"

    # ------------------------------------------------------------------
    def _buckets(self, tables: list[SSTable]) -> list[list[SSTable]]:
        """Group tables of similar size (smallest-first, running average)."""
        buckets: list[tuple[float, list[SSTable]]] = []
        for table in sorted(tables, key=lambda t: (t.size_bytes, t.table_id)):
            size = table.size_bytes
            placed = False
            for index, (average, members) in enumerate(buckets):
                if self.bucket_low * average <= size <= self.bucket_high * average:
                    members.append(table)
                    new_average = (average * (len(members) - 1) + size) / len(members)
                    buckets[index] = (new_average, members)
                    placed = True
                    break
            if not placed:
                buckets.append((float(size), [table]))
        return [members for _, members in buckets]

    def _pick_bucket(self, buckets: list[list[SSTable]]) -> list[SSTable] | None:
        eligible = [b for b in buckets if len(b) >= self.min_threshold]
        if not eligible:
            return None
        # Prefer the bucket of smallest tables (cheapest round first).
        chosen = min(eligible, key=lambda b: sum(t.size_bytes for t in b))
        return chosen[: self.max_threshold]

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
        live = list(tables)
        rounds = 0

        def do_merge(group: list[SSTable], drop: bool) -> SSTable:
            output, seconds = _merge_step(
                group,
                next_table_id + result.n_merges,
                drop,
                self.bloom_fp_rate,
                self.merge_kernel,
            )
            result.merge_wall_seconds += seconds
            result.bill(group, [output], disk)
            return output

        while True:
            group = self._pick_bucket(self._buckets(live))
            if group is None:
                break
            rounds += 1
            for table in group:
                live.remove(table)
            live.append(do_merge(group, drop=False))

        if self.until_single:
            # The final merge collapses the survivors and GCs tombstones;
            # a single survivor is rewritten once for the same reason, as
            # a real major compaction would.
            live = [do_merge(live, drop=True)]

        result.output_tables = live
        result.simulated_seconds = result.io_seconds  # STCS merges serially
        result.wall_seconds = time.perf_counter() - started
        result.extras = {"rounds": rounds}
        return result

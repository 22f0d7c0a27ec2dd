"""The serving read path: replay READ/SCAN ops against a policy's tables.

Phase 1 produces sstables, phase 2 compacts them; this module answers
the question the paper poses but never measures — what those tables cost
to *read*.  :func:`serve_reads` replays the collected
:class:`~repro.ycsb.workload.ReadOpColumns` (point lookups and range
scans) against a final sstable set and returns a
:class:`ReadPhaseResult`: read amplification (tables probed per read),
bloom skip/false-positive counts, bytes charged, and the scan walk's
accounting.

Two kernels, differentially certified bit-identical:

* **scalar** — the reference: an :class:`~repro.lsm.engine.LSMEngine`
  with an empty memtable serves every op through its ordinary
  ``get``/``scan`` path, and the result is its ``ReadStats``.
* **batched** — the fast plane: point lookups run columnar over all
  queries at once (range masks + :meth:`BloomFilter.contains_batch` +
  :meth:`SSTable.get_batch`, tables newest to oldest, resolving queries
  as they hit), and all scans resolve at once against one merged
  live-key view of the table set (two ``searchsorted`` calls give every
  scan its stop key) before each table is charged its consumed slices.

``kernel="auto"`` uses the batched plane whenever every table exposes
an int64 column view and the scalar engine otherwise (generic keys,
payload bytes); ``"batched"`` requires the view and raises without it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as _np

from ..errors import ConfigError
from ..lsm.disk import SimulatedDisk
from ..lsm.engine import _INDEX_BLOCK_BYTES, EngineConfig, LSMEngine
from ..lsm.record import ENTRY_OVERHEAD_BYTES
from ..lsm.sstable import SSTable, newest_per_key
from ..ycsb.workload import ReadOpColumns

#: ``serve_reads`` kernel names.
READ_KERNELS = ("auto", "batched", "scalar")


@dataclass(frozen=True)
class ReadPhaseResult:
    """Accounting of one serving phase (mirrors the engine's ReadStats).

    ``tables_probed`` counts actual probes (range check and bloom both
    passed); ``bloom_skips`` the tables a read skipped via the range
    check or the bloom; ``bloom_false_positives`` the probes where the
    bloom passed but the key was absent.  ``read_bytes`` totals every
    byte charged on behalf of gets and scans.
    """

    reads: int = 0
    hits: int = 0
    misses: int = 0
    tables_probed: int = 0
    bloom_skips: int = 0
    bloom_false_positives: int = 0
    read_bytes: int = 0
    scans: int = 0
    scan_tables_probed: int = 0
    scan_tables_pruned: int = 0
    scan_records_scanned: int = 0
    scan_records_returned: int = 0
    kernel_used: str = "scalar"

    @property
    def read_amplification(self) -> float:
        """Tables probed per point read — the paper's motivating metric."""
        return self.tables_probed / self.reads if self.reads else 0.0

    @property
    def bloom_fp_rate(self) -> float:
        """Fraction of table probes the bloom filter let through in vain."""
        return (
            self.bloom_false_positives / self.tables_probed
            if self.tables_probed
            else 0.0
        )

    @property
    def scan_tables_per_scan(self) -> float:
        """The scan path's analogue of read amplification."""
        return self.scan_tables_probed / self.scans if self.scans else 0.0


def serve_reads(
    tables: Sequence[SSTable],
    read_ops: ReadOpColumns,
    kernel: str = "auto",
) -> ReadPhaseResult:
    """Replay ``read_ops`` against ``tables`` and account the cost.

    Both kernels produce identical counts; the differential harness in
    tests/simulator/test_read_path.py enforces it.
    """
    if kernel not in READ_KERNELS:
        raise ConfigError(
            f"unknown read kernel {kernel!r}; available: {READ_KERNELS}"
        )
    if kernel != "scalar":
        result = _serve_batched(tables, read_ops)
        if result is not None:
            return result
        if kernel == "batched":
            raise ConfigError(
                "batched read kernel requires int64-representable tables "
                "(plain int keys, no payload bytes)"
            )
    return _serve_scalar(tables, read_ops)


def _serve_scalar(
    tables: Sequence[SSTable], read_ops: ReadOpColumns
) -> ReadPhaseResult:
    """The reference kernel: the real engine's get/scan over the tables."""
    engine = LSMEngine(EngineConfig(use_wal=False), disk=SimulatedDisk())
    engine.sstables = list(tables)
    for key in read_ops.read_keynums:
        engine.get(key)
    for start, length in zip(read_ops.scan_keynums, read_ops.scan_lengths):
        engine.scan(start, length)
    counters = {
        field.name: getattr(engine.read_stats, field.name)
        for field in fields(ReadPhaseResult)
        if field.name != "kernel_used"
    }
    return ReadPhaseResult(**counters, kernel_used="scalar")


def _serve_batched(
    tables: Sequence[SSTable], read_ops: ReadOpColumns
) -> Optional[ReadPhaseResult]:
    """The columnar kernel, or ``None`` when it does not apply."""
    columns = [table.columns() for table in tables]
    if any(column is None for column in columns):
        return None

    # ------------------------------------------------------------------
    # Point lookups: all queries at once, tables newest to oldest.
    # A query stays "open" until some table holds its key; each table
    # sees only the still-open queries, exactly like the scalar probe
    # order (range check, then bloom, then the binary search).
    # ------------------------------------------------------------------
    queries = _np.asarray(read_ops.read_keynums, dtype=_np.int64)
    reads = int(queries.size)
    hits = misses = 0
    tables_probed = bloom_skips = bloom_false_positives = 0
    read_bytes = 0
    if reads:
        open_mask = _np.ones(reads, dtype=bool)
        for table, column in zip(reversed(tables), reversed(columns)):
            active = _np.flatnonzero(open_mask)
            if active.size == 0:
                break
            active_keys = queries[active]
            in_range = (active_keys >= table.min_key) & (
                active_keys <= table.max_key
            )
            candidates = active[in_range]
            if candidates.size == 0:
                bloom_skips += int(active.size)
                continue
            passed = table.bloom.contains_batch(queries[candidates])
            if passed is None:  # pragma: no cover - int64 queries always batch
                return None
            probe = candidates[passed]
            bloom_skips += int(active.size) - int(probe.size)
            if probe.size == 0:
                continue
            tables_probed += int(probe.size)
            rows = table.get_batch(queries[probe])
            if rows is None:  # pragma: no cover - columns checked above
                return None
            found_mask = rows >= 0
            n_found = int(found_mask.sum())
            n_false = int(probe.size) - n_found
            bloom_false_positives += n_false
            read_bytes += n_false * _INDEX_BLOCK_BYTES
            if n_found:
                found_rows = rows[found_mask]
                # Int keys contribute no key bytes (Record.size_bytes).
                read_bytes += n_found * ENTRY_OVERHEAD_BYTES + int(
                    column.value_sizes[found_rows].sum()
                )
                if column.tombstones is not None:
                    dead = int(column.tombstones[found_rows].sum())
                else:
                    dead = 0
                misses += dead
                hits += n_found - dead
                open_mask[probe[found_mask]] = False
        misses += int(open_mask.sum())

    # ------------------------------------------------------------------
    # Range scans: every scan asks the same table set the same question,
    # so merge the set once into its live keys (newest record per key,
    # tombstoned winners dropped) and resolve all scans against that.
    # Charging is the scalar walk's rule, one table at a time with the
    # scans as the vector: a probed table is billed from the scan's
    # start up to and including its stop key.
    # ------------------------------------------------------------------
    starts = _np.asarray(read_ops.scan_keynums, dtype=_np.int64)
    lengths = _np.asarray(read_ops.scan_lengths, dtype=_np.int64)
    served = lengths >= 1  # the engine answers shorter ones without a scan
    starts, lengths = starts[served], lengths[served]
    scans = int(starts.size)
    scan_tables_probed = scan_records_scanned = scan_records_returned = 0
    if scans and tables:
        keys, _, tombstones, survivors = newest_per_key(columns)
        live_keys = keys[survivors]
        if tombstones is not None:
            live_keys = live_keys[~tombstones[survivors]]
        first = _np.searchsorted(live_keys, starts)
        # A scan that runs out of live keys walks every probed table to
        # its end; a stop key above any key says so to each table.
        last = _np.minimum(first + lengths - 1, live_keys.size)
        stop_keys = _np.append(live_keys, _np.iinfo(_np.int64).max)[last]
        scan_records_returned = int(
            (_np.minimum(last + 1, live_keys.size) - first).sum()
        )
        for table, column in zip(tables, columns):
            probed = starts <= table.max_key
            scan_tables_probed += int(_np.count_nonzero(probed))
            lo = _np.searchsorted(column.keys, starts[probed])
            hi = _np.searchsorted(column.keys, stop_keys[probed], side="right")
            value_bytes = _np.concatenate(([0], _np.cumsum(column.value_sizes)))
            consumed = int((hi - lo).sum())
            scan_records_scanned += consumed
            read_bytes += consumed * ENTRY_OVERHEAD_BYTES + int(
                (value_bytes[hi] - value_bytes[lo]).sum()
            )
    scan_tables_pruned = scans * len(tables) - scan_tables_probed

    return ReadPhaseResult(
        reads=reads,
        hits=hits,
        misses=misses,
        tables_probed=tables_probed,
        bloom_skips=bloom_skips,
        bloom_false_positives=bloom_false_positives,
        read_bytes=read_bytes,
        scans=scans,
        scan_tables_probed=scan_tables_probed,
        scan_tables_pruned=scan_tables_pruned,
        scan_records_scanned=scan_records_scanned,
        scan_records_returned=scan_records_returned,
        kernel_used="batched",
    )

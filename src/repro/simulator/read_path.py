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
* **batched** — the fast plane.  Point lookups run once per distinct
  key (``np.unique`` with counts), tables newest to oldest over the
  still-open keys (two ``searchsorted`` calls for the range check,
  then :meth:`BloomFilter.contains_batch` and :meth:`SSTable.get_batch`),
  and every counter adds the key's multiplicity.  All scans resolve at
  once against one merged live-key view of the table set (two
  ``searchsorted`` calls give every scan its stop key); sorted by start,
  the scans a table probes are a prefix, charged their consumed slices
  from the table's cached size prefix sum.

Byte totals are exact ints: a table whose sums could pass int64 is
summed over Python ints (decided once per table, see
:attr:`SSTable._size_prefix`).

``kernel="auto"`` uses the batched plane whenever every table exposes
an int64 column view and the scalar engine otherwise (generic keys,
payload bytes); ``"batched"`` requires the view and raises without it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import mul
from typing import Optional, Sequence

import numpy as _np

from ..errors import ConfigError
from ..lsm.disk import SimulatedDisk
from ..lsm.engine import _INDEX_BLOCK_BYTES, EngineConfig, LSMEngine
from ..lsm.record import ENTRY_OVERHEAD_BYTES
from ..lsm.sstable import SSTable, live_view
from ..ycsb.workload import ReadOpColumns

#: ``serve_reads`` kernel names.
READ_KERNELS = ("auto", "batched", "scalar")

_INT64_LIMIT = 2**63


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
    # Point lookups: each distinct key once, tables newest to oldest.
    # Every counter is a sum over ops, so a key read w times adds w to
    # each of its counters.  A key stays "open" until some table holds
    # it; each table sees only the still-open keys, exactly like the
    # scalar probe order (range check, then bloom, then the binary
    # search).  The open keys stay sorted, so a table's range check is
    # two searchsorted calls.
    # ------------------------------------------------------------------
    queries = _np.asarray(read_ops.read_keynums, dtype=_np.int64)
    reads = int(queries.size)
    hits = misses = 0
    tables_probed = bloom_skips = bloom_false_positives = 0
    read_bytes = 0
    if reads:
        open_keys, open_weights = _np.unique(queries, return_counts=True)
        open_total = reads  # the open keys' summed weight
        for table, column in zip(reversed(tables), reversed(columns)):
            if not open_total:
                break
            lo = int(_np.searchsorted(open_keys, table.min_key))
            hi = int(_np.searchsorted(open_keys, table.max_key, side="right"))
            if lo == hi:
                bloom_skips += open_total
                continue
            passed = table.bloom.contains_batch(open_keys[lo:hi])
            if passed is None:  # pragma: no cover - int64 queries always batch
                return None
            probe = lo + _np.flatnonzero(passed)  # positions in the open keys
            probe_weights = open_weights[probe]
            probed = int(probe_weights.sum())
            bloom_skips += open_total - probed
            if not probed:
                continue
            tables_probed += probed
            rows = table.get_batch(open_keys[probe])
            if rows is None:  # pragma: no cover - columns checked above
                return None
            found_mask = rows >= 0
            found_weights = probe_weights[found_mask]
            found = int(found_weights.sum())
            false_positives = probed - found
            bloom_false_positives += false_positives
            read_bytes += false_positives * _INDEX_BLOCK_BYTES
            if found:
                found_rows = rows[found_mask]
                # Int keys contribute no key bytes (Record.size_bytes).
                read_bytes += found * ENTRY_OVERHEAD_BYTES + _exact_dot(
                    found_weights,
                    column.value_sizes[found_rows],
                    reads * table._entry_bytes_bound,
                )
                if column.tombstones is not None:
                    dead = int(found_weights[column.tombstones[found_rows]].sum())
                else:
                    dead = 0
                misses += dead
                hits += found - dead
                still_open = _np.ones(open_keys.size, dtype=bool)
                still_open[probe[found_mask]] = False
                open_keys = open_keys[still_open]
                open_weights = open_weights[still_open]
                open_total -= found
        misses += open_total

    # ------------------------------------------------------------------
    # Range scans: every scan asks the same table set the same question,
    # so merge the set once into its live keys (newest record per key,
    # tombstoned winners dropped) and resolve all scans against that.
    # Charging is the scalar walk's rule, one table at a time with the
    # scans as the vector: a probed table is billed from the scan's
    # start up to and including its stop key.  Every scan counter is an
    # order-free sum, so the scans are sorted by start once: the scans
    # a table probes (start <= its max key) are then a prefix.
    # ------------------------------------------------------------------
    starts = _np.asarray(read_ops.scan_keynums, dtype=_np.int64)
    lengths = _np.asarray(read_ops.scan_lengths, dtype=_np.int64)
    served = lengths >= 1  # the engine answers shorter ones without a scan
    starts, lengths = starts[served], lengths[served]
    scans = int(starts.size)
    scan_tables_probed = scan_records_scanned = scan_records_returned = 0
    if scans and tables:
        order = _np.argsort(starts, kind="stable")
        starts, lengths = starts[order], lengths[order]
        live_keys, _, _ = live_view(columns)
        first = _np.searchsorted(live_keys, starts)
        # A scan that runs out of live keys walks every probed table to
        # its end; a stop key above any key says so to each table.
        last = _np.minimum(first + lengths - 1, live_keys.size)
        stop_keys = _np.append(live_keys, _np.iinfo(_np.int64).max)[last]
        scan_records_returned = int(
            (_np.minimum(last + 1, live_keys.size) - first).sum()
        )
        for table, column in zip(tables, columns):
            probed = int(_np.searchsorted(starts, table.max_key, side="right"))
            if not probed:
                continue
            scan_tables_probed += probed
            lo = _np.searchsorted(column.keys, starts[:probed])
            hi = _np.searchsorted(column.keys, stop_keys[:probed], side="right")
            scan_records_scanned += int((hi - lo).sum())
            prefix = table._size_prefix
            spans = prefix[hi] - prefix[lo]
            # Each span is at most the table's bytes; their sum may not be.
            bound = probed * table.entry_count * table._entry_bytes_bound
            read_bytes += int(spans.sum()) if bound < _INT64_LIMIT else sum(
                spans.tolist()
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


def _exact_dot(weights, values, bound: int) -> int:
    """``weights . values`` as an exact int.

    ``bound`` caps every partial sum: below ``2**63`` the int64 dot
    product is exact, otherwise the products are summed as Python ints.
    """
    if bound < _INT64_LIMIT:
        return int(weights @ values)
    return sum(map(mul, weights.tolist(), values.tolist()))

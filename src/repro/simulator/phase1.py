"""Phase 1 of the simulator: create sstables from YCSB operations.

"YCSB's load and run phases generate operations which are first inserted
into a fixed size (number of keys) memtable.  When the memtable is full,
it is flushed as an sstable and a new empty memtable is created for
subsequent writes." (paper §5.1)

:func:`generate_sstables` is the batched columnar plane: the workload
emits its whole operation stream as columns
(:meth:`~repro.ycsb.workload.CoreWorkload.op_stream_columns`, which
vectorizes the Gray-sampling choosers and drops read/scan ops after
consuming their rng draws), the write stream is cut into flush slabs —
static ``capacity``-sized ranges in append mode (capacity counts
operations) or **data-dependent** ranges in map mode (capacity counts
distinct keys; a chunked running distinct-count kernel finds the exact
operation index of every flush) — and each slab is deduplicated to a
sorted newest-per-key run with one argsort: an array-native
:class:`~repro.lsm.sstable.SSTable` per flush, no
``Operation``/``Record`` objects, no per-op engine dispatch.  It serves
every expressible :class:`SimulationConfig`, map mode and
read/scan/delete mixes included.

Its oracle is :func:`generate_sstables_reference`, which drives the real
LSM engine's write path operation by operation (WAL disabled; the
paper's simulator has none) and collects the flushed sstables.  The
differential harness (tests/simulator/test_data_plane_equivalence.py)
holds the two byte-identical, and :func:`spill_tables_to_disk` is the
durable format's round-trip oracle over the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from time import perf_counter
from typing import Optional

import numpy as _np

from ..lsm.disk import SimulatedDisk
from ..lsm.engine import EngineConfig, LSMEngine
from ..lsm.sstable import SSTable
from ..ycsb.operations import OperationType
from ..ycsb.workload import CoreWorkload, ReadOpColumns
from .config import SimulationConfig

#: Upper bound on the map-mode distinct-count scan's chunk length; the
#: effective chunk also tracks the capacity so tiny memtables (many
#: boundaries per chunk) do not rescan long chunks per epoch.
_DISTINCT_CHUNK = 4096


@dataclass
class Phase1Result:
    """The sstables generated by one workload run."""

    tables: list[SSTable]
    total_operations: int
    total_entries: int  # sum of sstable entry counts = the LOPT of Fig. 8
    #: The READ/SCAN operations of the stream, collected (by the plane
    #: and its oracle, in identical columns) whenever the mix has a read
    #: or scan share — the serving phase replays them against each
    #: policy's compacted sstable set.  ``None`` for write-only mixes.
    read_ops: Optional[ReadOpColumns] = None
    #: The wall clock of table generation.
    ingest_wall_seconds: float = 0.0

    @property
    def n_tables(self) -> int:
        return len(self.tables)


def spill_tables_to_disk(tables: list[SSTable]) -> list[SSTable]:
    """Round-trip every table through the on-disk sstable format.

    Each table is written as a real CRC-checked sstable file and
    reloaded, so a caller operates on tables that survived
    serialization.  The round trip is byte-identical (see
    docs/durability.md): schedules, costs and figures computed on the
    reloaded tables match the in-memory ones exactly.
    """
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory(prefix="repro-sst-") as tmpdir:
        spilled = []
        for table in tables:
            path = Path(tmpdir) / f"{table.table_id:06d}.sst"
            table.to_file(path)
            spilled.append(SSTable.from_file(path))
    return spilled


def _wants_read_ops(config: SimulationConfig) -> bool:
    """True when the mix has a read or scan share to serve after phase 1."""
    return config.read_fraction > 0.0 or config.scan_fraction > 0.0


def generate_sstables_reference(config: SimulationConfig) -> Phase1Result:
    """The operation-at-a-time oracle of :func:`generate_sstables`: drive
    the real LSM engine, which flushes each full memtable inline."""
    workload = CoreWorkload(config.workload_config())
    engine_config = EngineConfig(
        memtable_capacity=config.memtable_capacity,
        memtable_mode=config.memtable_mode,
        bloom_fp_rate=config.bloom_fp_rate,
        default_value_size=config.value_size,
        use_wal=False,
    )
    engine = LSMEngine(engine_config, SimulatedDisk(config.timing_model()))
    collect = _wants_read_ops(config)
    read_keynums: list[int] = []
    scan_keynums: list[int] = []
    scan_lengths: list[int] = []
    count = 0
    ingest_start = perf_counter()
    # The per-op generator, not all_operations(): the oracle stays off
    # the word-stream kernel that the fast plane's columns come from.
    for operation in chain(workload.load_operations(), workload.run_operations()):
        if operation.is_write:
            engine.apply(operation)
        elif collect:
            if operation.type is OperationType.READ:
                read_keynums.append(operation.key)
            elif operation.type is OperationType.SCAN:
                scan_keynums.append(operation.key)
                scan_lengths.append(operation.scan_length or 1)
        count += 1
    engine.flush()
    ingest_wall = perf_counter() - ingest_start
    engine.close()
    tables = list(engine.sstables)
    return Phase1Result(
        tables=tables,
        total_operations=count,
        total_entries=sum(table.entry_count for table in tables),
        read_ops=ReadOpColumns(
            read_keynums=read_keynums,
            scan_keynums=scan_keynums,
            scan_lengths=scan_lengths,
        )
        if collect
        else None,
        ingest_wall_seconds=ingest_wall,
    )


def generate_sstables(config: SimulationConfig) -> Phase1Result:
    """Run load + run phases through a memtable; return the flushed tables.

    Reads never reach the memtable ("Thus, we ignore both of them in our
    simulation", §5.1): they are dropped after consuming their rng
    draws, exactly as in the reference loop.
    """
    workload = CoreWorkload(config.workload_config())
    stream = workload.op_stream_columns(include_read_ops=_wants_read_ops(config))
    return phase1_from_columns(
        stream.write_keynums,
        stream.tombstone_positions,
        config,
        total_operations=stream.total_operations,
        read_ops=stream.read_ops,
    )


def phase1_from_columns(
    keynums,
    tombstone_positions,
    config: SimulationConfig,
    total_operations: int,
    read_ops: Optional[ReadOpColumns] = None,
) -> Phase1Result:
    """Flush a write column into sstables, timed.

    The fast plane's back half.  Every cell feeds each shard's write
    column through it (:func:`~repro.cluster.engine.run_shard`) with
    shard-local indices, so per-shard seqnos restart at 1 — each shard
    is an independent engine with its own seqno space.  ``keynums`` may be a list or an int64 array;
    ``tombstone_positions`` indexes into it.
    """
    ingest_start = perf_counter()
    tables = build_tables_from_columns(keynums, tombstone_positions, config)
    ingest_wall = perf_counter() - ingest_start
    return Phase1Result(
        tables=tables,
        total_operations=total_operations,
        total_entries=sum(table.entry_count for table in tables),
        read_ops=read_ops,
        ingest_wall_seconds=ingest_wall,
    )


def build_tables_from_columns(
    keynums, tombstone_positions, config: SimulationConfig
) -> list[SSTable]:
    """Just the tables of :func:`phase1_from_columns`, untimed (the
    benchmark's traced mirror times the call itself)."""
    capacity = config.memtable_capacity
    key_array = _np.asarray(keynums, dtype=_np.int64)
    if config.memtable_mode == "map":
        slabs = _map_mode_slabs_columnar(key_array, capacity)
    else:
        slabs = _append_mode_slabs(int(key_array.size), capacity)
    build_one = _columnar_slab_builder(key_array, list(tombstone_positions), config)
    return [
        build_one(table_id, start, stop)
        for table_id, (start, stop) in enumerate(slabs)
    ]


def _append_mode_slabs(total_writes: int, capacity: int) -> list[tuple[int, int]]:
    """Append mode flushes after exactly ``capacity`` operations."""
    return [
        (start, min(start + capacity, total_writes))
        for start in range(0, total_writes, capacity)
    ]


def _map_mode_slabs_columnar(
    keynums: "_np.ndarray", capacity: int
) -> list[tuple[int, int]]:
    """Data-dependent flush boundaries via a running distinct-count scan.

    The engine flushes a map-mode memtable before the first write after
    its distinct-key count reaches ``capacity``, so each epoch ends on
    the write that first brings the count to capacity.  The stream is
    scanned in chunks: ``np.unique`` finds each chunk's first
    occurrences, an ``isin`` merge against the epoch's seen-key set
    keeps only keys new to the epoch, and a sort of their positions
    locates the capacity-th distinct key exactly.  Epochs that end
    mid-chunk restart the scan at the boundary, so the kernel lands
    flushes on exactly the same operation indices as a
    :class:`~repro.lsm.memtable.SortedMapMemtable` driven key by key
    (the reference it is differentially tested against).
    """
    n = int(keynums.size)
    chunk_len = min(_DISTINCT_CHUNK, max(64, 2 * capacity))
    boundaries: list[tuple[int, int]] = []
    empty = _np.empty(0, dtype=_np.int64)
    seen = empty
    count = 0
    start = 0
    pos = 0
    while pos < n:
        chunk = keynums[pos : min(pos + chunk_len, n)]
        uniq, first = _np.unique(chunk, return_index=True)
        if seen.size:
            fresh_first = first[~_np.isin(uniq, seen, assume_unique=True)]
        else:
            fresh_first = first
        if count + fresh_first.size < capacity:
            # Epoch keeps growing past this chunk.
            count += int(fresh_first.size)
            seen = _np.union1d(seen, uniq)
            pos += int(chunk.size)
            continue
        # Capacity is reached inside this chunk: the epoch ends at the
        # first occurrence of its capacity-th distinct key.
        fresh_positions = _np.sort(fresh_first)
        boundary = pos + int(fresh_positions[capacity - count - 1]) + 1
        boundaries.append((start, boundary))
        start = pos = boundary
        seen = empty
        count = 0
    if start < n:
        boundaries.append((start, n))
    return boundaries


def _columnar_slab_builder(
    keynums: "_np.ndarray",
    tombstone_positions: list[int],
    config: SimulationConfig,
):
    """A per-slab table builder: dedupe one flush slab with one stable argsort.

    The stable argsort keeps equal keys in write order, so the last
    entry of every equal-key run is the newest version — exactly the
    record both memtable flavours' dict dedup keeps at flush.  Works
    unchanged for static (append-mode) and data-dependent (map-mode)
    slab ranges.
    """
    tombstones = None
    if tombstone_positions:
        tombstones = _np.zeros(keynums.shape, dtype=bool)
        tombstones[_np.asarray(tombstone_positions, dtype=_np.intp)] = True
    value_size = config.value_size

    def build(table_id: int, start: int, stop: int) -> SSTable:
        slab_keys = keynums[start:stop]
        order = _np.argsort(slab_keys, kind="stable")
        sorted_keys = slab_keys[order]
        newest = _np.empty(sorted_keys.shape, dtype=bool)
        newest[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        newest[-1] = True
        survivors = order[newest]
        seqnos = survivors + (start + 1)  # seqno = 1-based write index
        if tombstones is not None:
            slab_tombstones = tombstones[start:stop][survivors]
            value_sizes = _np.where(slab_tombstones, 0, value_size)
        else:
            slab_tombstones = None
            value_sizes = value_size
        return SSTable.from_columns(
            table_id,
            sorted_keys[newest],
            seqnos,
            value_sizes,
            slab_tombstones,
            bloom_fp_rate=config.bloom_fp_rate,
        )

    return build

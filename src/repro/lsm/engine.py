"""The LSM storage engine: the full write and read path of Figure 1.

Writes go commit log -> memtable; a full memtable *freezes* onto a
queue of immutable memtables and is flushed from there as an sstable.
Reads consult the active memtable, then the frozen ones newest-first,
then sstables newest-first, pruned by bloom filters — the read path
whose fan-out compaction exists to shrink.  The engine records
read-amplification statistics so the effect of a compaction strategy on
reads is directly measurable (the paper's motivation: "a typical read
path may contact multiple sstables, making disk I/O a bottleneck").

There is one engine.  It *has* a storage (:mod:`~repro.lsm.storage`:
where the log and the tables live — process memory or a filesystem) and
a flush queue (:mod:`~repro.lsm.pipeline`: who builds a frozen
memtable's sstable and when the writer waits for it), chosen by two
constructor parameters each; the defaults are the in-memory,
stop-the-world engine of the paper's simulator.  docs/concurrency.md
and docs/durability.md describe the two axes.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Optional

from ..errors import ConfigError, StorageError
from ..ycsb.operations import Operation, OperationType
from .bloom import probe_hashes
from .compaction.base import CompactionResult, CompactionStrategy
from .compaction.major import MajorCompaction
from .disk import SimulatedDisk
from .faults import LocalFileSystem
from .memtable import Memtable, make_memtable
from .pipeline import FlushPipeline, PipelineMetrics
from .record import Record
from .sstable import SSTable
from .storage import FileStorage, MemoryStorage

_INDEX_BLOCK_BYTES = 64  # charged for a bloom false positive probe

#: Id space for background compaction outputs; keeps them disjoint from
#: flush-assigned ids (and matches phase 2's convention for compacted
#: tables).
COMPACTION_ID_BASE = 10_000_000


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the storage engine."""

    memtable_capacity: int = 1000
    memtable_mode: str = "map"  # "map" (engine) or "append" (paper simulator)
    bloom_fp_rate: float = 0.01
    default_value_size: int = 100
    use_wal: bool = True

    def __post_init__(self) -> None:
        if self.memtable_capacity < 1:
            raise ConfigError("memtable_capacity must be at least 1")
        if not 0.0 < self.bloom_fp_rate < 1.0:
            raise ConfigError("bloom_fp_rate must be in (0, 1)")
        if self.default_value_size < 0:
            raise ConfigError("default_value_size must be non-negative")
        if self.memtable_mode not in ("map", "append"):
            raise ConfigError("memtable_mode must be 'map' or 'append'")


@dataclass
class ReadStats:
    """Read-path accounting (read amplification observability).

    Point reads count ``reads``/``tables_probed``/``bloom_skips``;
    ``bloom_false_positives`` is the subset of probes where the bloom
    passed but the table did not hold the key (the probe bought only an
    index-block read).  Scans keep their own counters:
    ``scan_records_scanned`` is every sstable record the scan walk
    consumed (charged to the disk, one ``read_many`` per probed table's
    consumed run), ``scan_records_returned`` the live records handed
    back.  ``read_bytes`` totals all bytes charged on behalf of reads
    and scans.  Neither reads nor scans materialize a column-backed
    table's ``Record`` tuple: they count from its key list and columns.
    """

    reads: int = 0
    memtable_hits: int = 0
    tables_probed: int = 0
    bloom_skips: int = 0
    bloom_false_positives: int = 0
    hits: int = 0
    misses: int = 0
    read_bytes: int = 0
    scans: int = 0
    scan_tables_probed: int = 0
    scan_tables_pruned: int = 0
    scan_records_scanned: int = 0
    scan_records_returned: int = 0

    @property
    def tables_probed_per_read(self) -> float:
        """The engine's observed read amplification."""
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


class _FrozenMemtable:
    """An immutable memtable awaiting its flush."""

    __slots__ = ("table_id", "memtable", "table")

    def __init__(self, table_id: int, memtable: Memtable) -> None:
        self.table_id = table_id
        self.memtable = memtable
        self.table: Optional[SSTable] = None


class LSMEngine:
    """A single-node LSM key-value store.

    ``fs`` (a :mod:`~repro.lsm.faults` filesystem; :meth:`open` makes
    one from a directory) selects file storage, recovered on
    construction; without it everything lives in memory and is billed
    to ``disk``.  ``max_immutable_memtables`` bounds the frozen queue
    and ``flush_workers`` threads drain it in the background; with the
    default 0 workers the writer flushes inline whenever the bound is
    exceeded, so the default bound of 0 is the stop-the-world engine.

    Single writer thread (puts/deletes/flush/compact); reads may come
    from any thread — the engine mutex covers every shared structure.
    ``with`` the engine (or call :meth:`close`) to join the workers.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        disk: Optional[SimulatedDisk] = None,
        fs=None,
        wal_sync_every: int = 1,
        max_immutable_memtables: int = 0,
        flush_workers: int = 0,
    ) -> None:
        config = config or EngineConfig()
        for name, value, floor in (
            ("wal_sync_every", wal_sync_every, 1),
            ("max_immutable_memtables", max_immutable_memtables, 0),
            ("flush_workers", flush_workers, 0),
        ):
            if value < floor:
                raise ConfigError(f"{name} must be >= {floor}, got {value}")
        disk = disk or SimulatedDisk()
        if fs is None:
            storage = MemoryStorage(disk, config.use_wal)
        else:
            storage = FileStorage(fs, disk, config.use_wal, wal_sync_every)
        self._start(config, storage, max_immutable_memtables, flush_workers)

    @classmethod
    def open(
        cls,
        directory=None,
        config: Optional[EngineConfig] = None,
        fs=None,
        disk: Optional[SimulatedDisk] = None,
        wal_sync_every: int = 1,
        max_immutable_memtables: int = 0,
        flush_workers: int = 0,
    ) -> "LSMEngine":
        """Open (or create) a store directory, rebuilding its state from files.

        ``fs`` accepts a :mod:`~repro.lsm.faults` filesystem in place of
        a directory (in-memory or fault-injected stores for tests).
        """
        if fs is None:
            if directory is None:
                raise StorageError("open() needs a directory or a filesystem")
            fs = LocalFileSystem(directory)
        return cls(
            config, disk, fs, wal_sync_every, max_immutable_memtables, flush_workers
        )

    def _start(self, config, storage, max_immutable_memtables, flush_workers):
        """Bring the engine up on ``storage``: recover, then replay its logs."""
        self.config = config
        self.storage = storage
        self.disk = storage.disk
        self.max_immutable_memtables = max_immutable_memtables
        self.flush_workers = flush_workers
        self.memtable = self._new_memtable()
        self.read_stats = ReadStats()
        self.flush_count = 0
        self.user_bytes_written = 0  # payload accepted from callers
        self._mutex = threading.RLock()
        self._immutable: deque[_FrozenMemtable] = deque()  # oldest first
        self._compaction_thread: Optional[threading.Thread] = None
        self._compaction_error: Optional[BaseException] = None
        self._compaction_results: list[CompactionResult] = []
        self._pipeline = FlushPipeline(
            build=self._build,
            publish=self._publish,
            max_pending=max_immutable_memtables,
            workers=flush_workers,
        )
        #: ``sstables`` is oldest first; ``_durable_seqno`` is the highest
        #: seqno in a committed sstable — the log replay cutoff.
        self.sstables, self._next_table_id, self._durable_seqno, survivors = (
            storage.recover()
        )
        self._compaction_next_id = max(
            [COMPACTION_ID_BASE] + [table.table_id + 1 for table in self.sstables]
        )
        self._seqno = self._durable_seqno
        for record in survivors:
            # Already logged: replay fills the memtable only.  A replay
            # that outgrows the memtable freezes and flushes like any
            # write, and the logs it came from are collected once a
            # commit covers them.
            self._write(record, replayed=True)
            self._seqno = record.seqno

    @property
    def wal(self):
        """The active write-ahead log."""
        return self.storage.wal

    def _new_memtable(self) -> Memtable:
        return make_memtable(
            self.config.memtable_mode, self.config.memtable_capacity
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _next_seqno(self) -> int:
        self._seqno += 1
        return self._seqno

    def _write(self, record: Record, replayed: bool = False) -> None:
        with self._mutex:
            if not self.memtable.is_full:
                self._admit(record, replayed)
                return
            frozen = self._freeze()
        # Outside the mutex: submit may stall on backpressure, and
        # freeing a slot requires a publish, which needs the mutex.
        self._pipeline.submit(frozen)
        with self._mutex:
            self._admit(record, replayed)

    def _admit(self, record: Record, replayed: bool) -> None:
        if not replayed:
            if self.config.use_wal:
                self.storage.wal.append(record)
            self.user_bytes_written += record.size_bytes
        self.memtable.add(record)

    def put(
        self,
        key: Hashable,
        value_size: Optional[int] = None,
        value: Optional[bytes] = None,
    ) -> None:
        """Insert or update a key."""
        if value_size is None:
            value_size = len(value) if value is not None else self.config.default_value_size
        self._write(Record.put(key, self._next_seqno(), value_size, value))

    def delete(self, key: Hashable) -> None:
        """Delete a key (writes a tombstone; §5.1)."""
        self._write(Record.delete(key, self._next_seqno()))

    def _freeze(self) -> _FrozenMemtable:
        """Move the active memtable to the immutable queue (mutex held).

        The table id is claimed *here*, on the writer thread, so ids
        follow put order regardless of worker scheduling; the log
        rotates with the memtable so the sealed log covers exactly the
        frozen records.
        """
        frozen = _FrozenMemtable(self._next_table_id, self.memtable)
        self._next_table_id += 1
        self._immutable.append(frozen)
        self.memtable = self._new_memtable()
        self.storage.rotate()
        return frozen

    def _build(self, frozen: _FrozenMemtable) -> SSTable:
        """Sort + construct, touching no shared state (any thread).

        ``pending_records`` (not ``flush_records``) so the frozen
        memtable stays readable until the publish step retires it.
        """
        return SSTable(
            frozen.table_id,
            frozen.memtable.pending_records(),
            bloom_fp_rate=self.config.bloom_fp_rate,
        )

    def _publish(self, frozen: _FrozenMemtable, table: SSTable) -> None:
        """In freeze order: persist -> append -> commit (Figure 1's dashed arrow)."""
        with self._mutex:
            self.storage.persist(table)
            self.sstables.append(table)
            popped = self._immutable.popleft()
            assert popped is frozen, "publish order diverged from freeze order"
            self._durable_seqno = max(self._durable_seqno, table.max_seqno)
            self._commit()  # also retires the log the table absorbed
            frozen.table = table
            self.flush_count += 1

    def _commit(self) -> None:
        self.storage.commit(
            self.sstables, self._next_table_id, self._durable_seqno
        )

    def flush(self) -> Optional[SSTable]:
        """Freeze the active memtable (if non-empty) and drain the queue."""
        frozen: Optional[_FrozenMemtable] = None
        with self._mutex:
            if not self.memtable.is_empty:
                frozen = self._freeze()
        if frozen is not None:
            self._pipeline.submit(frozen)
        self._pipeline.drain()
        return frozen.table if frozen is not None else None

    def drain(self) -> None:
        """Block until every frozen memtable has published its sstable."""
        self._pipeline.drain()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[Record]:
        """Newest live record for ``key``, or ``None`` (absent/deleted)."""
        with self._mutex:
            stats = self.read_stats
            stats.reads += 1
            record = self.memtable.get(key)
            if record is None and self._immutable:
                for frozen in reversed(self._immutable):  # newest freeze first
                    record = frozen.memtable.get(key)
                    if record is not None:
                        break
            if record is not None:
                stats.memtable_hits += 1
                return self._resolve(record)
            hashes = None  # the bloom probe pair, hashed at the first table in range
            for table in reversed(self.sstables):
                if not table.min_key <= key <= table.max_key:
                    stats.bloom_skips += 1
                    continue
                if hashes is None:
                    hashes = probe_hashes(key)
                if not table.bloom.contains_hashes(*hashes):
                    stats.bloom_skips += 1
                    continue
                stats.tables_probed += 1
                record = table.get(key)
                if record is not None:
                    self.disk.read(record.size_bytes)
                    stats.read_bytes += record.size_bytes
                    return self._resolve(record)
                stats.bloom_false_positives += 1
                self.disk.read(_INDEX_BLOCK_BYTES)  # bloom false positive
                stats.read_bytes += _INDEX_BLOCK_BYTES
            stats.misses += 1
            return None

    def _resolve(self, record: Record) -> Optional[Record]:
        if record.tombstone:
            self.read_stats.misses += 1
            return None
        self.read_stats.hits += 1
        return record

    def scan(self, start_key: Hashable, length: int) -> list[Record]:
        """Up to ``length`` live records with key >= ``start_key``.

        A bounded k-way merge over sorted runs: every probed sstable and
        every memtable contributes a cursor (one binary search, nothing
        copied), a heap orders the cursors' head keys, and keys are
        pulled in ascending order, resolving newest-per-key as it goes
        (a tombstone shadows every older version without producing
        output) and stopping only once ``length`` live records are
        resolved or every source is exhausted — heavily overwritten or
        tombstoned key ranges extend the walk instead of truncating the
        result.  The heap holds ``(key, source, row)`` only: a key's
        versions are compared by seqno through the runs' row accessors,
        and a ``Record`` is fetched (on a column-backed table, built)
        for the winner alone.

        Tables whose range ends before ``start_key`` are pruned without
        a probe.  Every sstable record the walk consumes is charged to
        the simulated disk: each probed table's consumed run
        ``[start, cursor)`` in one :meth:`SimulatedDisk.read_many` once
        the walk ends, which leaves the counters exactly as one read per
        record would.  Memtable records (active or frozen) are free.
        """
        if length < 1:
            return []
        with self._mutex:
            stats = self.read_stats
            stats.scans += 1
            runs = []  # oldest source first: probed sstables, then memtables
            starts = []
            for table in self.sstables:
                if start_key > table.max_key:
                    stats.scan_tables_pruned += 1
                    continue
                runs.append(table)
                starts.append(table.lower_bound(start_key))
            n_tables = len(runs)
            stats.scan_tables_probed += n_tables
            for memtable in (*(f.memtable for f in self._immutable), self.memtable):
                view, position = memtable.records_from(start_key)
                runs.append(view)
                starts.append(position)
            keys_of = [run.keys for run in runs]
            heap = [
                (keys[position], index, position)
                for index, (keys, position) in enumerate(zip(keys_of, starts))
                if position < len(keys)
            ]
            heapq.heapify(heap)
            live: list[Record] = []
            while heap and len(live) < length:
                key, index, position = heap[0]
                winner, row = index, position
                seqno = None  # the winner's, read once a second version shows
                while True:  # pop every version of ``key``, oldest source first
                    keys = keys_of[index]
                    if position + 1 < len(keys):
                        heapq.heapreplace(heap, (keys[position + 1], index, position + 1))
                    else:
                        heapq.heappop(heap)
                    if not heap or heap[0][0] != key:
                        break
                    _, index, position = heap[0]
                    if seqno is None:
                        seqno = runs[winner].seqno_at(row)
                    candidate = runs[index].seqno_at(position)
                    if candidate > seqno:  # strict: the older source keeps a tie
                        winner, row, seqno = index, position, candidate
                record = runs[winner].record_at(row)
                if not record.tombstone:
                    live.append(record)
            cursors = [len(keys) for keys in keys_of[:n_tables]]
            for _, index, position in heap:
                if index < n_tables:
                    cursors[index] = position
            for table, start, cursor in zip(runs, starts, cursors):
                if cursor > start:
                    nbytes = table.run_bytes(start, cursor)
                    self.disk.read_many(cursor - start, nbytes)
                    stats.read_bytes += nbytes
                    stats.scan_records_scanned += cursor - start
            stats.scan_records_returned += len(live)
            return live

    # ------------------------------------------------------------------
    # Workload driving
    # ------------------------------------------------------------------
    def apply(self, operation: Operation) -> Optional[object]:
        """Apply one YCSB operation."""
        if operation.type in (OperationType.INSERT, OperationType.UPDATE):
            self.put(operation.key, value_size=operation.value_size)
            return None
        if operation.type is OperationType.DELETE:
            self.delete(operation.key)
            return None
        if operation.type is OperationType.READ:
            return self.get(operation.key)
        if operation.type is OperationType.SCAN:
            return self.scan(operation.key, operation.scan_length or 1)
        raise StorageError(f"unsupported operation {operation.type}")

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(
        self, strategy: Optional[CompactionStrategy] = None
    ) -> CompactionResult:
        """Run a compaction over all on-disk sstables.

        Flushes the memtable first so the result covers every write, then
        replaces the engine's tables with the strategy's output.
        """
        self.wait_for_compaction()
        self.flush()  # freezes + drains outside the mutex
        with self._mutex:
            if not self.sstables:
                raise StorageError("nothing to compact: no sstables on disk")
            strategy = strategy or MajorCompaction("balance_tree_input")
            result = strategy.compact(self.sstables, self.disk, self._next_table_id)
            if result.output_tables:
                self._next_table_id = (
                    max(table.table_id for table in result.output_tables) + 1
                )
            self._install(result, len(self.sstables))
            return result

    def compact_async(
        self, strategy: Optional[CompactionStrategy] = None
    ) -> threading.Thread:
        """Compact a snapshot of the current sstables in the background.

        Ingest keeps running; flush publishes append to the table list
        past the snapshotted prefix, which the completion step replaces
        with the compaction outputs.  I/O is accounted on a scratch disk
        and folded into the engine's ledger at completion, so totals
        match a foreground compaction of the same snapshot exactly;
        output ids come from :data:`COMPACTION_ID_BASE` — overlapping
        ingest is inherently timing-dependent, so background compaction
        is held to value-level equivalence (same records, same total
        I/O), not byte-stable table ids.
        """
        self.wait_for_compaction()
        with self._mutex:
            snapshot = list(self.sstables)
        if not snapshot:
            raise StorageError("nothing to compact: no sstables on disk")
        strategy = strategy or MajorCompaction("balance_tree_input")
        base_id = self._compaction_next_id

        def run() -> None:
            try:
                scratch = SimulatedDisk(self.disk.timing)
                result = strategy.compact(snapshot, scratch, base_id)
                with self._mutex:
                    self.disk.stats.add(scratch.stats)
                    self._compaction_next_id = max(
                        [base_id + 1]
                        + [table.table_id + 1 for table in result.output_tables]
                    )
                    self._install(result, len(snapshot))
                    self._compaction_results.append(result)
            except BaseException as exc:
                self._compaction_error = exc

        self._compaction_thread = threading.Thread(
            target=run, name="compact-async", daemon=True
        )
        self._compaction_thread.start()
        return self._compaction_thread

    def _install(self, result: CompactionResult, n_inputs: int) -> None:
        """Swap the ``n_inputs`` oldest tables for the outputs (mutex held).

        The commit persists the outputs, publishes the new table set and
        only then deletes the inputs.
        """
        self.sstables = list(result.output_tables) + self.sstables[n_inputs:]
        self._commit()

    @property
    def compaction_in_flight(self) -> bool:
        thread = self._compaction_thread
        return thread is not None and thread.is_alive()

    def wait_for_compaction(self) -> None:
        """Join any background compaction; re-raise its failure."""
        thread = self._compaction_thread
        if thread is not None:
            thread.join()
            self._compaction_thread = None
        if self._compaction_error is not None:
            error = self._compaction_error
            self._compaction_error = None
            raise error

    def take_compaction_results(self) -> list[CompactionResult]:
        """Pop results of completed background compactions (oldest first)."""
        with self._mutex:
            results = self._compaction_results
            self._compaction_results = []
            return results

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def simulate_crash_and_recover(
        self, config: Optional[EngineConfig] = None
    ) -> "LSMEngine":
        """Model a process crash and a restart on the same storage.

        Everything volatile — the active memtable, the frozen queue, any
        flush in flight — is lost: the workers stop where they are and
        nothing more publishes.  The restarted engine keeps this one's
        storage, queue bound and worker count, reloads the committed
        tables and replays the surviving logs; with ``use_wal=False``
        unflushed writes are gone — the trade-off the log exists to
        prevent.  ``config`` restarts under different tunables (e.g. a
        smaller memtable, which forces flushes mid-replay that the
        crashed process never hit).
        """
        self._pipeline.close(raise_error=False)
        if self._compaction_thread is not None:
            self._compaction_thread.join()
        with self._mutex:
            storage = self.storage.after_crash()
        recovered = object.__new__(type(self))
        recovered._start(
            config or self.config,
            storage,
            self.max_immutable_memtables,
            self.flush_workers,
        )
        return recovered

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def pipeline_metrics(self) -> PipelineMetrics:
        return self._pipeline.metrics()

    def pause_flushes(self) -> None:
        """Test hook: hold frozen memtables in the queue unflushed."""
        self._pipeline.pause()

    def resume_flushes(self) -> None:
        self._pipeline.resume()

    @property
    def immutable_count(self) -> int:
        with self._mutex:
            return len(self._immutable)

    def close(self, raise_error: bool = True) -> None:
        """Join the flush workers (frozen memtables stay readable, unflushed)."""
        if raise_error:
            self.wait_for_compaction()
        self._pipeline.close(raise_error=raise_error)

    def __enter__(self) -> "LSMEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(raise_error=exc_type is None)

    @property
    def table_count(self) -> int:
        return len(self.sstables)

    @property
    def total_entries_on_disk(self) -> int:
        return sum(table.entry_count for table in self.sstables)

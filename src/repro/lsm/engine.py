"""The LSM storage engine: the full write and read path of Figure 1.

Writes go commit log -> memtable; a full memtable is flushed as an
sstable before the write that found it full lands.  Reads consult the
memtable, then sstables newest-first, pruned by bloom filters — the
read path whose fan-out compaction exists to shrink; scans read a
cached newest-per-key view of the sstables against the memtable.  The
engine records read-amplification statistics so the effect of a
compaction strategy on reads is directly measurable (the paper's
motivation: "a typical read path may contact multiple sstables, making
disk I/O a bottleneck").

There is one engine.  It *has* a storage (:mod:`~repro.lsm.storage`:
where the log and the tables live — process memory or a filesystem),
chosen by ``fs``; the default is the in-memory engine of the paper's
simulator, and docs/durability.md describes the file-backed one.  It
runs on the caller's thread: a flush or a compaction happens inside
the call that triggers it (docs/concurrency.md).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
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
from .record import Record
from .sstable import SSTable, live_view
from .storage import FileStorage, MemoryStorage

_INDEX_BLOCK_BYTES = 64  # charged for a bloom false positive probe
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


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
    ``scan_records_scanned`` is every sstable record a scan consumed —
    in each probed table, the rows from the start key up to and
    including the last key returned, whether the live view or the cursor
    merge served it (charged to the disk, one ``read_many`` per probed
    table) — and ``scan_records_returned`` the live records handed back.
    ``read_bytes`` totals all bytes charged on behalf of reads and
    scans.  Neither reads nor scans materialize a column-backed table's
    ``Record`` tuple: they count from its key list and columns.
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


class LSMEngine:
    """A single-node LSM key-value store.

    ``fs`` (a :mod:`~repro.lsm.faults` filesystem; :meth:`open` makes
    one from a directory) selects file storage, recovered on
    construction; without it everything lives in memory and is billed
    to ``disk``.  ``wal_sync_every`` is the file log's group commit:
    it syncs after that many appends.

    Single-threaded: every put, delete, read, flush and compaction runs
    to completion on the caller's thread.  ``with`` the engine (or call
    :meth:`close`) to sync and release the active log on a clean stop.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        disk: Optional[SimulatedDisk] = None,
        fs=None,
        wal_sync_every: int = 1,
    ) -> None:
        config = config or EngineConfig()
        if wal_sync_every < 1:
            raise ConfigError(f"wal_sync_every must be >= 1, got {wal_sync_every}")
        disk = disk or SimulatedDisk()
        if fs is None:
            storage = MemoryStorage(disk, config.use_wal)
        else:
            storage = FileStorage(fs, disk, config.use_wal, wal_sync_every)
        self._start(config, storage)

    @classmethod
    def open(
        cls,
        directory=None,
        config: Optional[EngineConfig] = None,
        fs=None,
        disk: Optional[SimulatedDisk] = None,
        wal_sync_every: int = 1,
    ) -> "LSMEngine":
        """Open (or create) a store directory, rebuilding its state from files.

        ``fs`` accepts a :mod:`~repro.lsm.faults` filesystem in place of
        a directory (in-memory or fault-injected stores for tests).
        """
        if fs is None:
            if directory is None:
                raise StorageError("open() needs a directory or a filesystem")
            fs = LocalFileSystem(directory)
        return cls(config, disk, fs, wal_sync_every)

    def _start(self, config: EngineConfig, storage) -> None:
        """Bring the engine up on ``storage``: recover, then replay its logs."""
        self.config = config
        self.storage = storage
        self.disk = storage.disk
        self.memtable = self._new_memtable()
        self.read_stats = ReadStats()
        #: ``(tables, live view)`` of the last scan's table set (see scan).
        self._live: Optional[tuple[tuple[SSTable, ...], Optional[_LiveView]]] = None
        self.flush_count = 0
        self.user_bytes_written = 0  # payload accepted from callers
        #: ``sstables`` is oldest first; ``_durable_seqno`` is the highest
        #: seqno in a committed sstable — the log replay cutoff.
        self.sstables, self._next_table_id, self._durable_seqno, survivors = (
            storage.recover()
        )
        self._seqno = self._durable_seqno
        for record in survivors:
            # Already logged: replay fills the memtable only.  A replay
            # that outgrows the memtable flushes like any write, and the
            # logs it came from are collected once a commit covers them.
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
        if self.memtable.is_full:
            self._flush_memtable()
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

    def _flush_memtable(self) -> SSTable:
        """Write the memtable out as the next sstable (Figure 1's dashed arrow).

        Claim the table id, swap in an empty memtable and rotate the log
        with it, so the sealed log covers exactly the flushed records;
        then build, persist, append and commit — the commit also retires
        the log the table absorbed.
        """
        table_id = self._next_table_id
        self._next_table_id += 1
        memtable, self.memtable = self.memtable, self._new_memtable()
        self._live = None
        self.storage.rotate()
        table = SSTable(
            table_id,
            memtable.flush_records(),
            bloom_fp_rate=self.config.bloom_fp_rate,
        )
        self.storage.persist(table)
        self.sstables.append(table)
        self._durable_seqno = max(self._durable_seqno, table.max_seqno)
        self._commit()
        self.flush_count += 1
        return table

    def _commit(self) -> None:
        self.storage.commit(
            self.sstables, self._next_table_id, self._durable_seqno
        )

    def flush(self) -> Optional[SSTable]:
        """Flush the memtable if it holds anything; the new sstable or ``None``."""
        if self.memtable.is_empty:
            return None
        return self._flush_memtable()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[Record]:
        """Newest live record for ``key``, or ``None`` (absent/deleted)."""
        stats = self.read_stats
        stats.reads += 1
        record = self.memtable.get(key)
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

        Resolves newest-per-key (a tombstone shadows every older version
        without producing output) and stops only once ``length`` live
        records are resolved or every source is exhausted — heavily
        overwritten or tombstoned key ranges extend the walk instead of
        truncating the result.

        The scan reads a cached live view of the table set
        (:func:`~repro.lsm.sstable.live_view`: each key's newest version,
        tombstoned winners dropped, and the table and row holding it).
        The view is built on the first scan after the table set changes,
        one O(rows) build; scans until the next flush or compaction
        reuse it.  A scan finds its start in the view with one
        ``searchsorted`` and walks a window of it against the memtable's
        sorted keys.  The memtable's version of a key wins: every
        memtable seqno exceeds ``_durable_seqno``, and every sstable
        seqno is at most that (checked against the view's newest seqno,
        so a caller who installs newer tables gets the cursor merge).
        A ``Record`` is fetched (on a column-backed table, built) for
        the winners alone.

        Accounting is :func:`cursor_merge_scan`'s, bit for bit.  Tables
        whose range ends before ``start_key`` are pruned without a
        probe; each probed table is charged its consumed run in one
        :meth:`SimulatedDisk.read_many`: the rows from ``start_key`` up
        to and including the last key returned (to the table's end when
        the scan runs out of live records).  Memtable records are free.

        The cursor merge serves what the view cannot represent: a table
        set with a table that has no int64 column view (generic keys,
        payload bytes, keys past int64), or a start key that is not an
        int inside int64.
        """
        if length < 1:
            return []
        view = self._scan_view(start_key)
        if view is None:
            return cursor_merge_scan(
                self.sstables, self.memtable, start_key, length,
                self.read_stats, self.disk,
            )
        stats = self.read_stats
        stats.scans += 1
        memtable_view, row = self.memtable.records_from(start_key)
        live, stop_key = view.walk(start_key, length, memtable_view, row)
        for table in view.tables:
            if start_key > table.max_key:
                stats.scan_tables_pruned += 1
                continue
            stats.scan_tables_probed += 1
            keys = table.keys
            start = bisect_left(keys, start_key)
            if stop_key is None:
                stop = len(keys)
            else:
                stop = bisect_right(keys, stop_key, start)
            if stop > start:
                nbytes = table.run_bytes(start, stop)
                self.disk.read_many(stop - start, nbytes)
                stats.read_bytes += nbytes
                stats.scan_records_scanned += stop - start
        stats.scan_records_returned += len(live)
        return live

    def _scan_view(self, start_key: Hashable) -> Optional["_LiveView"]:
        """The live view a scan from ``start_key`` may read, else ``None``.

        Cached with the tables it was built over, compared by identity,
        so assigning to or appending to :attr:`sstables` is seen by the
        next scan; a flush or a compaction drops it.
        """
        if type(start_key) is not int or not _INT64_MIN <= start_key <= _INT64_MAX:
            return None
        tables = tuple(self.sstables)
        cached = self._live
        if cached is None or cached[0] != tables:
            cached = self._live = (tables, _LiveView.of(tables))
        view = cached[1]
        if view is None or (
            view.max_seqno > self._durable_seqno and not self.memtable.is_empty
        ):
            return None
        return view

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
        replaces the engine's tables with the strategy's output.  The
        commit persists the outputs, publishes the new table set and only
        then deletes the inputs.
        """
        self.flush()
        if not self.sstables:
            raise StorageError("nothing to compact: no sstables on disk")
        self._live = None  # before the merge, so the two never coexist
        strategy = strategy or MajorCompaction("balance_tree_input")
        result = strategy.compact(self.sstables, self.disk, self._next_table_id)
        if result.output_tables:
            self._next_table_id = (
                max(table.table_id for table in result.output_tables) + 1
            )
        self.sstables = list(result.output_tables)
        self._commit()
        return result

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def simulate_crash_and_recover(
        self, config: Optional[EngineConfig] = None
    ) -> "LSMEngine":
        """Model a process crash and a restart on the same storage.

        Everything volatile is lost and nothing is synced on the way
        down.  The restarted engine keeps this one's storage, reloads
        the committed tables and replays the surviving logs; with
        ``use_wal=False`` unflushed writes are gone — the trade-off the
        log exists to prevent.  ``config`` restarts under different
        tunables (e.g. a smaller memtable, which forces flushes
        mid-replay that the crashed process never hit).
        """
        recovered = object.__new__(type(self))
        recovered._start(config or self.config, self.storage.after_crash())
        return recovered

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop cleanly: sync and release the active log (idempotent).

        No acknowledged write is lost, whatever the group commit left
        unsynced; the memtable stays unflushed, since the log holds it
        and the next open replays it.
        """
        self.storage.close()

    def __enter__(self) -> "LSMEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def table_count(self) -> int:
        return len(self.sstables)

    @property
    def total_entries_on_disk(self) -> int:
        return sum(table.entry_count for table in self.sstables)


class _LiveView:
    """A table set's live keys and where their newest versions live.

    The engine's scan index: :func:`~repro.lsm.sstable.live_view` over
    the tables, kept with the tables themselves (to build the winners'
    records) and their newest seqno (to check that the memtable wins).
    """

    __slots__ = ("tables", "keys", "numbers", "rows", "max_seqno")

    def __init__(self, tables: tuple[SSTable, ...], keys, numbers, rows) -> None:
        self.tables = tables
        self.keys = keys
        self.numbers = numbers
        self.rows = rows
        self.max_seqno = max((table.max_seqno for table in tables), default=0)

    @classmethod
    def of(cls, tables: tuple[SSTable, ...]) -> Optional["_LiveView"]:
        """The view of ``tables``, or ``None`` if one has no column view."""
        columns = [table.columns() for table in tables]
        if any(column is None for column in columns):
            return None
        return cls(tables, *live_view(columns))

    def walk(
        self, start_key: int, length: int, memtable, row: int
    ) -> tuple[list[Record], Optional[Hashable]]:
        """The first ``length`` live records with key >= ``start_key``.

        Merges the view with ``memtable`` (a sorted row view) from
        ``row`` on; on equal keys the memtable's version wins.  Returns
        the records and the last one's key, or ``None`` in its place
        when the live records ran out first.  The view is read in
        ``.tolist()`` windows of at most the records still wanted: each
        view key yields at most one record, so a window overshoots only
        when the memtable returns records or shadows keys inside it.
        """
        live: list[Record] = []
        tables = self.tables
        memtable_keys = memtable.keys
        memtable_end = len(memtable_keys)
        position = int(self.keys.searchsorted(start_key))
        end = self.keys.size
        while position < end:
            stop = min(position + length - len(live), end)
            window = zip(
                self.keys[position:stop].tolist(),
                self.numbers[position:stop].tolist(),
                self.rows[position:stop].tolist(),
            )
            for key, number, index in window:
                while row < memtable_end and memtable_keys[row] < key:
                    record = memtable.record_at(row)
                    row += 1
                    if not record.tombstone:
                        live.append(record)
                        if len(live) == length:
                            return live, record.key
                if row < memtable_end and memtable_keys[row] == key:
                    record = memtable.record_at(row)  # the newer version
                    row += 1
                    if record.tombstone:
                        continue
                else:
                    record = tables[number].record_at(index)
                live.append(record)
                if len(live) == length:
                    return live, key
            position = stop
        while row < memtable_end:
            record = memtable.record_at(row)
            row += 1
            if not record.tombstone:
                live.append(record)
                if len(live) == length:
                    return live, record.key
        return live, None


def cursor_merge_scan(
    tables, memtable: Memtable, start_key: Hashable, length: int,
    stats: ReadStats, disk: SimulatedDisk,
) -> list[Record]:
    """:meth:`LSMEngine.scan` as a bounded k-way merge over sorted runs.

    The scan for inputs the live view cannot represent, and its oracle:
    ``tables`` (oldest first) and ``memtable`` are read, and ``stats``
    and ``disk`` are charged exactly as the view scan charges them.

    Every probed sstable and the memtable contribute a cursor (one
    binary search, nothing copied), a heap orders the cursors' head
    keys, and keys are pulled in ascending order, resolving
    newest-per-key by seqno as it goes, until ``length`` live records
    are resolved or every source is exhausted.  The heap holds ``(key,
    source, row)`` only: a key's versions are compared by seqno through
    the runs' row accessors, and a ``Record`` is fetched for the winner
    alone.  Each probed table's consumed run ``[start, cursor)`` is
    charged in one :meth:`SimulatedDisk.read_many` once the walk ends,
    which leaves the counters exactly as one read per record would.
    """
    if length < 1:
        return []
    stats.scans += 1
    runs = []  # oldest source first: probed sstables, then the memtable
    starts = []
    for table in tables:
        if start_key > table.max_key:
            stats.scan_tables_pruned += 1
            continue
        runs.append(table)
        starts.append(table.lower_bound(start_key))
    n_tables = len(runs)
    stats.scan_tables_probed += n_tables
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
            disk.read_many(cursor - start, nbytes)
            stats.read_bytes += nbytes
            stats.scan_records_scanned += cursor - start
    stats.scan_records_returned += len(live)
    return live

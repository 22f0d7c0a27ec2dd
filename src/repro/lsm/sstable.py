"""Sorted string tables (sstables) and their k-way merge.

An :class:`SSTable` is an immutable run of records sorted by key with at
most one record per key (Figure 1's on-disk unit).  It carries the
read-path accelerator a real store attaches — a bloom filter — and
answers a point lookup with one binary search over its key list
(``index_interval``, the sparse-index spacing, is kept as a field of the
file format; see :mod:`~repro.lsm.format.sstable_io`).

Tables have two internal representations with one interface:

* **record-backed** — built from :class:`~repro.lsm.record.Record`
  objects (the engine write path, generic keys/payloads); one whose
  keys are plain ints and whose records carry no payload bytes also
  keeps an int64 column view, built with it;
* **column-backed** — built from int64 key/seqno/value-size/tombstone
  arrays (:meth:`SSTable.from_columns`, the simulator's batched data
  plane and every columnar compaction output).  ``Record`` objects are
  materialized lazily, only if a caller actually iterates them;
  compaction chains of column-backed tables never allocate a single
  ``Record``, and neither do reads: a get or a scan goes through the
  key list and the row accessors (:meth:`SSTable.record_at`,
  :meth:`SSTable.seqno_at`, :meth:`SSTable.run_bytes`), which build a
  ``Record`` only for a row a read returns.

:func:`live_view` turns a table set into the keys a scan can return:
each key's newest version, tombstoned winners dropped, and where it
lives.  The engine's scan and the simulator's batched read plane both
read it.

:func:`merge_sstables` is the compaction kernel (Figure 2), with two
bit-identical implementations: a columnar run merge (a stable argsort
of the concatenated key column, which timsort runs as a merge of the k
sorted inputs, then the newest seqno per equal-key group and a
tombstone mask) used whenever every input can expose int64 columns, and
the heap-based k-way merge-sort: the columnar kernel's oracle and the
only merge for tables numpy cannot represent (generic keys, payload
bytes).  Tombstone garbage collection is optional because it is only
safe when the merge output is the *bottommost* table for its key range
— i.e. the final merge of a major compaction.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Hashable, Iterable, Iterator, Optional, Sequence

import numpy as _np

from ..errors import StorageError
from ..hll import HyperLogLog
from .bloom import BloomFilter
from .record import ENTRY_OVERHEAD_BYTES, Record

DEFAULT_INDEX_INTERVAL = 16

#: ``merge_sstables`` kernel names.
MERGE_KERNELS = ("auto", "columnar", "heap")


@dataclass(frozen=True)
class TableColumns:
    """An int64 column view of one sstable (keys strictly ascending).

    ``tombstones`` is ``None`` when the table has no deletion markers —
    the overwhelmingly common case — so kernels can skip the mask work.
    """

    keys: "_np.ndarray"
    seqnos: "_np.ndarray"
    value_sizes: "_np.ndarray"
    tombstones: Optional["_np.ndarray"]


class SSTable:
    """An immutable sorted run of per-key-unique records."""

    def __init__(
        self,
        table_id: int,
        records: Sequence[Record],
        bloom_fp_rate: float = 0.01,
        index_interval: int = DEFAULT_INDEX_INTERVAL,
    ) -> None:
        if not records:
            raise StorageError(f"sstable {table_id} must contain at least one record")
        keys = [record.key for record in records]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise StorageError(
                f"sstable {table_id} records must be strictly sorted by key"
            )
        self.records: tuple[Record, ...] = tuple(records)
        self._keys: list = keys
        self._columns: Optional[TableColumns] = self._record_columns()
        self._init_common(
            table_id, len(keys), keys[0], keys[-1], bloom_fp_rate, index_interval
        )

    def _init_common(
        self,
        table_id: int,
        entry_count: int,
        min_key,
        max_key,
        bloom_fp_rate: float,
        index_interval: int,
    ) -> None:
        self.table_id = table_id
        self._entry_count = entry_count
        self.min_key = min_key
        self.max_key = max_key
        self._bloom_fp_rate = bloom_fp_rate
        self._index_interval = max(1, index_interval)
        # (precision, seed) -> HyperLogLog over this table's keys; built
        # lazily on first estimator use, or adopted losslessly from the
        # input sketches of the compaction that produced this table.
        self._sketches: dict[tuple[int, int], HyperLogLog] = {}

    # ------------------------------------------------------------------
    # Columnar construction and views
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        table_id: int,
        keys,
        seqnos,
        value_sizes=0,
        tombstones=None,
        bloom_fp_rate: float = 0.01,
        index_interval: int = DEFAULT_INDEX_INTERVAL,
    ) -> "SSTable":
        """Build a table from int64 columns without creating records.

        ``keys`` must be strictly ascending; ``value_sizes`` may be a
        scalar applied to every entry; ``tombstones`` is an optional
        boolean mask.
        """
        keys = _np.asarray(keys, dtype=_np.int64)
        if keys.size == 0:
            raise StorageError(f"sstable {table_id} must contain at least one record")
        if keys.size > 1 and not bool((keys[1:] > keys[:-1]).all()):
            raise StorageError(
                f"sstable {table_id} records must be strictly sorted by key"
            )
        seqnos = _np.asarray(seqnos, dtype=_np.int64)
        if seqnos.shape != keys.shape:
            raise StorageError("seqno column must match the key column")
        if _np.isscalar(value_sizes) or getattr(value_sizes, "ndim", 1) == 0:
            value_column = _np.full(keys.shape, int(value_sizes), dtype=_np.int64)
        else:
            value_column = _np.asarray(value_sizes, dtype=_np.int64)
            if value_column.shape != keys.shape:
                raise StorageError("value_size column must match the key column")
        if tombstones is not None:
            tombstones = _np.asarray(tombstones, dtype=bool)
            if tombstones.shape != keys.shape:
                raise StorageError("tombstone column must match the key column")
            if not tombstones.any():
                tombstones = None
        table = cls.__new__(cls)
        table._columns = TableColumns(keys, seqnos, value_column, tombstones)
        table._init_common(
            table_id,
            int(keys.size),
            int(keys[0]),
            int(keys[-1]),
            bloom_fp_rate,
            index_interval,
        )
        return table

    def columns(self) -> Optional[TableColumns]:
        """The table's int64 column view, or ``None`` if unrepresentable.

        Column-backed tables return their native columns; a record-backed
        table has a view when every key is a plain int and no record
        carries payload bytes (built with the table).  The columnar merge
        kernel and the engine's scan view apply exactly when all inputs
        return a view.
        """
        return self._columns

    def _record_columns(self) -> Optional[TableColumns]:
        """A record-backed table's column view, or ``None``."""
        records = self.records
        keys = self._keys
        # bool is an int subclass with different hashing; keep it off
        # the columnar path like hash_keys_u64 does.
        if not set(map(type, keys)) <= {int}:
            return None
        if any(record.value is not None for record in records):
            return None
        count = len(records)
        try:
            key_column = _np.array(keys, dtype=_np.int64)
            seqnos = _np.fromiter(
                (record.seqno for record in records), dtype=_np.int64, count=count
            )
            value_sizes = _np.fromiter(
                (record.value_size for record in records), dtype=_np.int64, count=count
            )
        except (OverflowError, ValueError):  # values beyond int64
            return None
        tombstones = None
        if any(record.tombstone for record in records):
            tombstones = _np.fromiter(
                (record.tombstone for record in records), dtype=bool, count=count
            )
        return TableColumns(key_column, seqnos, value_sizes, tombstones)

    def split(
        self, rows: int, first_id: int, bloom_fp_rate: float
    ) -> list["SSTable"]:
        """The table cut into consecutive runs of at most ``rows`` rows.

        Run ``i`` becomes table ``first_id + i``.  A table with a column
        view cuts its columns (no ``Record`` is built), any other its
        records; every slice is a copy, so the pieces never keep this
        table's full arrays alive.
        """
        columns = self._columns
        cuts = range(0, self._entry_count, rows)
        if columns is None:
            return [
                SSTable(
                    first_id + number,
                    self.records[start : start + rows],
                    bloom_fp_rate=bloom_fp_rate,
                    index_interval=self._index_interval,
                )
                for number, start in enumerate(cuts)
            ]
        tombstones = columns.tombstones
        return [
            SSTable.from_columns(
                first_id + number,
                columns.keys[start : start + rows].copy(),
                columns.seqnos[start : start + rows].copy(),
                columns.value_sizes[start : start + rows].copy(),
                None if tombstones is None else tombstones[start : start + rows].copy(),
                bloom_fp_rate=bloom_fp_rate,
                index_interval=self._index_interval,
            )
            for number, start in enumerate(cuts)
        ]

    @cached_property
    def records(self) -> tuple[Record, ...]:  # type: ignore[no-redef]
        """The table's records, materialized lazily for columnar tables.

        Reads do not touch this: only iteration, the heap merge kernel
        and the file encoder build a column-backed table's records.
        """
        columns = self._columns
        tombstones = (
            columns.tombstones.tolist()
            if columns.tombstones is not None
            else [False] * self._entry_count
        )
        return tuple(
            Record(key=key, seqno=seqno, value_size=value_size, tombstone=tombstone)
            for key, seqno, value_size, tombstone in zip(
                columns.keys.tolist(),
                columns.seqnos.tolist(),
                columns.value_sizes.tolist(),
                tombstones,
            )
        )

    @cached_property
    def _keys(self) -> list:  # type: ignore[no-redef]
        return self._columns.keys.tolist()

    # ------------------------------------------------------------------
    # Read-path accelerators (built lazily: compaction intermediates are
    # never point-read, and building blooms eagerly would dominate the
    # simulator's merge time)
    # ------------------------------------------------------------------
    @cached_property
    def bloom(self) -> BloomFilter:
        """The table's bloom filter (constructed on first read-path use)."""
        return BloomFilter.of(self._keys, self._bloom_fp_rate)

    @cached_property
    def _column_rows(self) -> tuple[memoryview, memoryview, Optional[memoryview]]:
        """A column-backed table's seqnos, value sizes and tombstones, row by row.

        Zero-copy views of the columns: indexing one returns a Python
        ``int`` (a ``bool`` for tombstones), and a table a read touched
        keeps no per-row objects beyond its key list.
        """
        columns = self._columns
        tombstones = columns.tombstones
        return (
            memoryview(columns.seqnos),
            memoryview(columns.value_sizes),
            None if tombstones is None else memoryview(tombstones),
        )

    @cached_property
    def _entry_bytes_bound(self) -> int:
        """A table with a column view: its largest ``|size_bytes|`` of one entry.

        ``k`` entries' worth of it bounds any sum of ``k`` entry sizes,
        so one comparison with ``2**63`` tells whether an int64 sum over
        the table is exact.
        """
        sizes = self._columns.value_sizes
        # int keys contribute no key bytes (Record.size_bytes).
        return ENTRY_OVERHEAD_BYTES + max(int(sizes.max()), -int(sizes.min()))

    @cached_property
    def _size_prefix(self) -> "_np.ndarray":
        """The table's running total of entry sizes.

        Rows ``[a, b)`` weigh ``prefix[b] - prefix[a]`` bytes, so
        :meth:`run_bytes` stays exact at no cost per call.  A table with
        a column view sums its columns: int64, or Python ints (an object
        array) when the totals could pass int64, decided once here.  Any
        other table sums its records' ``size_bytes`` as Python ints,
        which counts the key bytes of str keys.
        """
        if self._columns is None:
            sizes = accumulate(record.size_bytes for record in self.records)
            return _np.array([0, *sizes], dtype=object)
        wide = self._entry_bytes_bound * self._entry_count >= 2**63
        dtype = object if wide else _np.int64
        prefix = _np.zeros(self._entry_count + 1, dtype=dtype)
        sizes = self._columns.value_sizes.astype(dtype, copy=False)
        _np.cumsum(sizes + ENTRY_OVERHEAD_BYTES, out=prefix[1:])
        return prefix

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def entry_count(self) -> int:
        return self._entry_count

    def __len__(self) -> int:
        return self._entry_count

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    @cached_property
    def size_bytes(self) -> int:
        """Total on-disk footprint of the data block."""
        columns = self._columns
        if columns is not None:
            # int keys contribute no key bytes (Record.size_bytes).  An
            # int64 sum that could wrap runs over Python ints instead.
            sizes = columns.value_sizes
            if self._entry_bytes_bound * self._entry_count < 2**63:
                total = int(sizes.sum())
            else:
                total = sum(sizes.tolist())
            return ENTRY_OVERHEAD_BYTES * self._entry_count + total
        return sum(record.size_bytes for record in self.records)

    @cached_property
    def key_set(self) -> frozenset:
        """The table's keys — the set the merge-scheduling model works on."""
        return frozenset(self._keys)

    @cached_property
    def live_key_count(self) -> int:
        """Keys whose newest record here is not a tombstone."""
        columns = self._columns
        if columns is not None:
            dead = 0 if columns.tombstones is None else int(columns.tombstones.sum())
            return self._entry_count - dead
        return sum(1 for record in self.records if not record.tombstone)

    @cached_property
    def max_seqno(self) -> int:
        """Newest sequence number in the table."""
        columns = self._columns
        if columns is not None:
            return int(columns.seqnos.max())
        return max(record.seqno for record in self.records)

    @cached_property
    def min_seqno(self) -> int:
        """Oldest sequence number in the table."""
        columns = self._columns
        if columns is not None:
            return int(columns.seqnos.min())
        return min(record.seqno for record in self.records)

    def key_range_overlaps(self, other: "SSTable") -> bool:
        return self.min_key <= other.max_key and other.min_key <= self.max_key

    # ------------------------------------------------------------------
    # Cardinality sketches (persistent across compactions)
    # ------------------------------------------------------------------
    def sketch(self, precision: int = 12, seed: int = 0) -> HyperLogLog:
        """The table's HyperLogLog sketch, built lazily and cached.

        SMALLESTOUTPUT-style strategies estimate union cardinalities
        from these; because sstables are immutable the sketch is built
        at most once per (precision, seed) over the table's lifetime —
        compaction outputs usually inherit theirs from the merged inputs
        (register-wise max is lossless) and never hash a key at all.
        """
        key = (precision, seed)
        sketch = self._sketches.get(key)
        if sketch is None:
            sketch = HyperLogLog.of(self._keys, precision=precision, seed=seed)
            self._sketches[key] = sketch
        return sketch

    def cached_sketch(self, precision: int = 12, seed: int = 0) -> Optional[HyperLogLog]:
        """The cached sketch for (precision, seed), or None if not built."""
        return self._sketches.get((precision, seed))

    @property
    def cached_sketch_keys(self) -> tuple[tuple[int, int], ...]:
        """The (precision, seed) parameterizations with a cached sketch."""
        return tuple(self._sketches)

    def adopt_sketch(self, sketch: HyperLogLog) -> None:
        """Cache a sketch known to cover exactly this table's keys.

        Used by the compaction executor: the register-wise max of the
        input tables' sketches equals the sketch of the merged output,
        so the output adopts it instead of re-hashing its keys.
        """
        self._sketches[(sketch.precision, sketch.seed)] = sketch

    @cached_property
    def has_tombstones(self) -> bool:
        """True when any record is a deletion marker."""
        return self.live_key_count != self._entry_count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def may_contain(self, key: Hashable) -> bool:
        """Bloom + range check; False means definitely absent."""
        if not self.min_key <= key <= self.max_key:
            return False
        return key in self.bloom

    def get(self, key: Hashable) -> Optional[Record]:
        """Point lookup: a range check, then one binary search of the keys."""
        if not self.min_key <= key <= self.max_key:
            return None
        keys = self._keys
        index = bisect_left(keys, key)  # < len(keys): key <= max_key
        if keys[index] == key:
            return self.record_at(index)
        return None

    @property
    def keys(self) -> list:
        """The table's keys in ascending order (a shared list: do not mutate)."""
        return self._keys

    def record_at(self, index: int) -> Record:
        """The record at row ``index`` of :attr:`keys`.

        A column-backed table whose :attr:`records` were never
        materialized builds this one ``Record`` from its column views.
        """
        records = vars(self).get("records")  # always set if record-backed
        if records is not None:
            return records[index]
        seqnos, value_sizes, tombstones = self._column_rows
        return Record(
            self._keys[index],
            seqnos[index],
            value_sizes[index],
            tombstones is not None and tombstones[index],
        )

    def seqno_at(self, index: int) -> int:
        """The seqno at row ``index``; builds no ``Record``."""
        records = vars(self).get("records")
        if records is not None:
            return records[index].seqno
        return self._column_rows[0][index]

    def run_bytes(self, start: int, stop: int) -> int:
        """Total ``size_bytes`` of the rows ``[start, stop)``, read from
        the cached prefix sum (exact past int64)."""
        prefix = self._size_prefix
        return int(prefix[stop] - prefix[start])

    def get_batch(self, keys) -> Optional["_np.ndarray"]:
        """Vectorized point lookups: the row index per key, ``-1`` if absent.

        The batched mirror of :meth:`get` (one ``searchsorted`` over the
        key column instead of per-key binary searches).  Requires the
        int64 column view; returns ``None`` when :meth:`columns` does,
        so callers fall back to the scalar path.  Returned indices
        address :attr:`records` and the column arrays alike.
        """
        columns = self.columns()
        if columns is None:
            return None
        queries = _np.asarray(keys, dtype=_np.int64)
        table_keys = columns.keys
        indices = _np.searchsorted(table_keys, queries)
        indices[indices == table_keys.size] = 0  # out of range; masked below
        found = table_keys[indices] == queries
        return _np.where(found, indices, -1)

    def lower_bound(self, key: Hashable) -> int:
        """Row index of the first key >= ``key`` (``len(self)`` if none)."""
        return bisect_left(self._keys, key)

    # ------------------------------------------------------------------
    # Durability (see repro.lsm.format.sstable_io for the byte layout)
    # ------------------------------------------------------------------
    def to_file(self, path) -> int:
        """Write the table's canonical file bytes; returns the byte count."""
        from .format.sstable_io import encode_sstable

        data = encode_sstable(self)
        with open(path, "wb") as handle:
            handle.write(data)
        return len(data)

    @classmethod
    def from_file(cls, path) -> "SSTable":
        """Load a table written by :meth:`to_file` (CRC-verified)."""
        from .format.sstable_io import decode_sstable

        with open(path, "rb") as handle:
            return decode_sstable(handle.read())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SSTable(id={self.table_id}, entries={self.entry_count}, "
            f"range=[{self.min_key!r}, {self.max_key!r}])"
        )


def newest_per_key(columns: Sequence[TableColumns]):
    """Merge sorted runs and find each key's newest record.

    Returns ``(keys, seqnos, tombstones, survivors)``: the concatenated
    columns (``tombstones`` is ``None`` when no input has any) and, in
    ascending key order, the index into them of each key's survivor.
    The survivor is the record with the highest seqno, and should two
    inputs ever carry the *same* (key, seqno) the earliest input wins.

    Every run is strictly ascending, so a stable argsort of the key
    column is timsort merging the k runs it detects, and it leaves each
    group of equal keys in input order (one record per input, since a
    run never repeats a key).  The survivor is then the group's first
    position holding its maximum seqno: the newest record, and among
    equal newest ones the earliest input.  ``heapq.merge`` is stable
    over its streams and pops ``(key, -seqno)`` ascending, so the heap
    kernel keeps that same record, as does the engine's cursor merge
    (:func:`~repro.lsm.engine.cursor_merge_scan`) with its strict ``>``
    over sources oldest first.
    """
    keys = _np.concatenate([column.keys for column in columns])
    seqnos = _np.concatenate([column.seqnos for column in columns])
    tombstones = None
    if any(column.tombstones is not None for column in columns):
        tombstones = _np.concatenate(
            [
                column.tombstones
                if column.tombstones is not None
                else _np.zeros(column.keys.shape, dtype=bool)
                for column in columns
            ]
        )
    order = _np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeated = _np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    if not repeated.size:
        return keys, seqnos, tombstones, order
    # Only the records of repeated keys compete: gather them, find where
    # each equal-key group starts, and un-mark each group's survivor.
    shared = _np.zeros(keys.size, dtype=bool)
    shared[repeated] = shared[repeated + 1] = True
    members = _np.flatnonzero(shared)
    member_keys = sorted_keys[members]
    starts = _np.flatnonzero(
        _np.concatenate(([True], member_keys[1:] != member_keys[:-1]))
    )
    member_seqnos = seqnos[order[members]]
    newest = _np.maximum.reduceat(member_seqnos, starts)
    lengths = _np.diff(starts, append=members.size)
    candidates = _np.arange(members.size)
    candidates[member_seqnos != _np.repeat(newest, lengths)] = members.size
    shared[members[_np.minimum.reduceat(candidates, starts)]] = False
    return keys, seqnos, tombstones, order[~shared]


def live_view(columns: Sequence[TableColumns]):
    """A table set's live keys, and where each one's newest record lives.

    Returns ``(keys, tables, rows)`` in ascending key order: every key
    whose newest record (:func:`newest_per_key`) is not a tombstone, the
    index into ``columns`` of the table holding that record, and its row
    there.  ``keys`` is int64; ``tables`` and ``rows`` are the narrowest
    unsigned ints that fit, and nothing else is kept, so the view costs
    a few bytes per live key.  The batched read plane answers scans from
    ``keys`` alone; the engine's scan also builds its winners' records
    from ``(tables, rows)``.
    """
    if not columns:
        empty = _np.zeros(0, dtype=_np.uint8)
        return _np.zeros(0, dtype=_np.int64), empty, empty
    keys, _, tombstones, survivors = newest_per_key(columns)
    if tombstones is not None:
        survivors = survivors[~tombstones[survivors]]
    sizes = [column.keys.size for column in columns]
    first_rows = _np.cumsum([0, *sizes[:-1]])
    numbers = _np.arange(len(sizes), dtype=_np.min_scalar_type(len(sizes) - 1))
    tables = _np.repeat(numbers, sizes)[survivors]
    rows = (survivors - first_rows[tables]).astype(
        _np.min_scalar_type(max(sizes) - 1)
    )
    return keys[survivors], tables, rows


def _merge_columnar(
    columns: Sequence[TableColumns],
    new_table_id: int,
    drop_tombstones: bool,
    bloom_fp_rate: float,
) -> SSTable:
    """Sorted-array merge: :func:`newest_per_key`, then gather the survivors.

    Bit-identical to the heap kernel, tie-break included.
    """
    keys, seqnos, tombstones, survivors = newest_per_key(columns)
    value_sizes = _np.concatenate([column.value_sizes for column in columns])
    out_keys = keys[survivors]
    out_seqnos = seqnos[survivors]
    out_values = value_sizes[survivors]
    out_tombstones = tombstones[survivors] if tombstones is not None else None

    if drop_tombstones and out_tombstones is not None:
        live = ~out_tombstones
        if not live.any():
            # Everything was tombstoned away; keep the single newest
            # record so the table remains representable (argmax returns
            # the first maximum — the same record the heap kernel keeps).
            index = int(_np.argmax(seqnos))
            return SSTable.from_columns(
                new_table_id,
                keys[index : index + 1],
                seqnos[index : index + 1],
                value_sizes[index : index + 1],
                _np.ones(1, dtype=bool),
                bloom_fp_rate=bloom_fp_rate,
            )
        out_keys = out_keys[live]
        out_seqnos = out_seqnos[live]
        out_values = out_values[live]
        out_tombstones = None

    return SSTable.from_columns(
        new_table_id,
        out_keys,
        out_seqnos,
        out_values,
        out_tombstones,
        bloom_fp_rate=bloom_fp_rate,
    )


def merge_sstables(
    tables: Sequence[SSTable],
    new_table_id: int,
    drop_tombstones: bool = False,
    bloom_fp_rate: float = 0.01,
    kernel: str = "auto",
) -> SSTable:
    """K-way merge-sort of sstables, keeping the newest record per key.

    ``drop_tombstones=True`` additionally garbage-collects deletions —
    only valid when the output is the bottommost table for its keys
    (e.g. the final output of a major compaction).

    ``kernel`` selects the merge implementation: ``"auto"`` (columnar
    whenever every input exposes int64 columns, heap otherwise),
    ``"columnar"`` (force; raises when some input has no column view) or
    ``"heap"`` (the reference).  Both kernels produce bit-identical
    tables.
    """
    if kernel not in MERGE_KERNELS:
        raise StorageError(
            f"unknown merge kernel {kernel!r}; available: {MERGE_KERNELS}"
        )
    if not tables:
        raise StorageError("cannot merge zero sstables")
    if len(tables) == 1 and not drop_tombstones:
        return tables[0]

    if kernel != "heap":
        columns = [table.columns() for table in tables]
        if all(column is not None for column in columns):
            return _merge_columnar(
                columns, new_table_id, drop_tombstones, bloom_fp_rate
            )
        if kernel == "columnar":
            raise StorageError(
                "columnar merge kernel requires int64-representable tables "
                "(plain int keys, no payload bytes)"
            )

    # K-way merge of the sorted runs.  heapq.merge keeps the heap logic
    # in C; the (key, -seqno) sort key pops equal keys newest-first so
    # the first record seen per key is the survivor.
    streams = [table.records for table in tables]
    merged: list[Record] = []
    append = merged.append
    last_key: object = object()  # sentinel unequal to any key
    for record in heapq.merge(
        *streams, key=lambda record: (record.key, -record.seqno)
    ):
        key = record.key
        if key != last_key:
            if not (drop_tombstones and record.tombstone):
                append(record)
            last_key = key

    if not merged:
        # Everything was tombstoned away; keep a single tombstone so the
        # table remains representable (callers may special-case this).
        newest = max(
            (record for table in tables for record in table.records),
            key=lambda record: record.seqno,
        )
        merged = [newest]
    return SSTable(new_table_id, merged, bloom_fp_rate=bloom_fp_rate)


def table_from_records(
    table_id: int,
    records: Iterable[Record],
    bloom_fp_rate: float = 0.01,
) -> SSTable:
    """Build an sstable from pre-sorted, deduplicated records."""
    return SSTable(table_id, list(records), bloom_fp_rate=bloom_fp_rate)

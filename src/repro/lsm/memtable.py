"""Memtables: the in-memory write buffer of the LSM write path (Figure 1).

Two implementations with one interface:

* :class:`AppendLogMemtable` — the paper's simulator semantics (§5.1):
  writes are *appended*; capacity counts operations, so the buffer "may
  contain duplicate keys" and the flushed sstable "may be smaller and
  vary in size" after deduplication.
* :class:`SortedMapMemtable` — the realistic engine semantics (Cassandra,
  RocksDB): an update overwrites the key in place; capacity counts
  distinct keys.

``flush_records`` always returns records sorted by key with exactly one
(newest) version per key — the content of the sstable to be written.
Scans read the same order through :meth:`Memtable.records_from`; the
sorted key list behind both is cached and refreshed lazily by the next
reader after a write, never by the write.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from itertools import islice
from typing import Hashable

from ..errors import ConfigError, StorageError
from .record import Record


class _KeyOrderView:
    """The newest record per key in ascending key order, looked up on access.

    A sorted run like :class:`~repro.lsm.sstable.SSTable`: ``keys`` plus
    the row accessors ``record_at`` and ``seqno_at``.
    """

    __slots__ = ("keys", "_newest")

    def __init__(self, keys: list, newest: dict) -> None:
        self.keys = keys
        self._newest = newest

    def record_at(self, index: int) -> Record:
        return self._newest[self.keys[index]]

    def seqno_at(self, index: int) -> int:
        return self._newest[self.keys[index]].seqno


class Memtable(ABC):
    """Common interface for both memtable flavours."""

    def __init__(self, capacity_entries: int) -> None:
        if capacity_entries < 1:
            raise ConfigError("memtable capacity must be at least 1")
        self.capacity_entries = capacity_entries

    @abstractmethod
    def add(self, record: Record) -> None:
        """Buffer one write."""

    @abstractmethod
    def get(self, key: Hashable) -> Record | None:
        """Newest buffered record for ``key`` (tombstones included)."""

    @abstractmethod
    def __len__(self) -> int:
        """Entries currently counted against capacity."""

    @abstractmethod
    def flush_records(self) -> list[Record]:
        """Sorted, per-key-deduplicated contents; the memtable is cleared."""

    @abstractmethod
    def _ordered(self) -> tuple[list, dict]:
        """``(sorted keys, newest record per key)``, cached between writes."""

    def records_from(self, start_key: Hashable) -> tuple[_KeyOrderView, int]:
        """The sorted, deduplicated contents as a row view, and the row of
        the first key >= ``start_key`` in it (nothing is copied)."""
        keys, newest = self._ordered()
        return _KeyOrderView(keys, newest), bisect_left(keys, start_key)

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity_entries

    @property
    def is_empty(self) -> bool:
        return len(self) == 0


class AppendLogMemtable(Memtable):
    """Append-only buffer; capacity counts *operations* (paper mode)."""

    def __init__(self, capacity_entries: int) -> None:
        super().__init__(capacity_entries)
        self._log: list[Record] = []
        #: (log length it was built at, sorted keys, newest record per key)
        self._view: tuple[int, list, dict] = (0, [], {})

    def add(self, record: Record) -> None:
        if self.is_full:
            raise StorageError("memtable is full; flush before writing")
        self._log.append(record)

    def get(self, key: Hashable) -> Record | None:
        for record in reversed(self._log):
            if record.key == key:
                return record
        return None

    def __len__(self) -> int:
        return len(self._log)

    def _ordered(self) -> tuple[list, dict]:
        built_at, keys, newest = self._view
        if built_at != len(self._log):
            log = self._log
            # Later appends have higher seqnos, so the last one per key wins.
            newest = {record.key: record for record in log}
            keys = sorted(newest)
            self._view = (len(log), keys, newest)
        return keys, newest

    def flush_records(self) -> list[Record]:
        keys, newest = self._ordered()
        self._log = []
        self._view = (0, [], {})
        return [newest[key] for key in keys]


class SortedMapMemtable(Memtable):
    """Map-backed buffer; capacity counts *distinct keys* (engine mode)."""

    def __init__(self, capacity_entries: int) -> None:
        super().__init__(capacity_entries)
        self._map: dict[Hashable, Record] = {}
        self._order: list = []  # sorted keys as of the last ordered read

    def add(self, record: Record) -> None:
        if record.key not in self._map and self.is_full:
            raise StorageError("memtable is full; flush before writing")
        self._map[record.key] = record

    def get(self, key: Hashable) -> Record | None:
        return self._map.get(key)

    def __len__(self) -> int:
        return len(self._map)

    def _ordered(self) -> tuple[list, dict]:
        order = self._order
        if len(order) != len(self._map):
            # Keys only ever join the map, and a dict iterates in
            # insertion order: whatever lies past the cached length is
            # new, and timsort merges the sorted prefix with that tail.
            order = [*order, *islice(self._map, len(order), None)]
            order.sort()
            self._order = order
        return order, self._map

    def flush_records(self) -> list[Record]:
        keys, newest = self._ordered()
        self._map = {}
        self._order = []
        return [newest[key] for key in keys]


def make_memtable(mode: str, capacity_entries: int) -> Memtable:
    """Factory: ``"append"`` (paper simulator) or ``"map"`` (engine)."""
    if mode == "append":
        return AppendLogMemtable(capacity_entries)
    if mode == "map":
        return SortedMapMemtable(capacity_entries)
    raise ConfigError(f"unknown memtable mode {mode!r}; use 'append' or 'map'")

"""Tests for the two memtable modes."""

import pytest

from repro.errors import ConfigError, StorageError
from repro.lsm import AppendLogMemtable, Record, SortedMapMemtable, make_memtable


class TestFactory:
    def test_modes(self):
        assert isinstance(make_memtable("append", 10), AppendLogMemtable)
        assert isinstance(make_memtable("map", 10), SortedMapMemtable)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            make_memtable("btree", 10)

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            AppendLogMemtable(0)


class TestAppendLog:
    """The paper-mode memtable: capacity counts operations."""

    def test_duplicates_count_against_capacity(self):
        memtable = AppendLogMemtable(3)
        for seqno in range(3):
            memtable.add(Record.put("same", seqno=seqno + 1))
        assert memtable.is_full
        assert len(memtable) == 3

    def test_flush_dedups_keeping_newest(self):
        memtable = AppendLogMemtable(4)
        memtable.add(Record.put("b", seqno=1, value_size=10))
        memtable.add(Record.put("a", seqno=2, value_size=20))
        memtable.add(Record.put("b", seqno=3, value_size=30))
        records = memtable.flush_records()
        assert [record.key for record in records] == ["a", "b"]
        assert records[1].seqno == 3
        assert memtable.is_empty

    def test_flushed_sstable_can_be_smaller_than_capacity(self):
        """§5.1: 'sstables may be smaller and vary in size'."""
        memtable = AppendLogMemtable(100)
        for seqno in range(100):
            memtable.add(Record.put(seqno % 7, seqno=seqno + 1))
        assert len(memtable.flush_records()) == 7

    def test_add_when_full_raises(self):
        memtable = AppendLogMemtable(1)
        memtable.add(Record.put("a", seqno=1))
        with pytest.raises(StorageError):
            memtable.add(Record.put("b", seqno=2))

    def test_get_returns_newest(self):
        memtable = AppendLogMemtable(5)
        memtable.add(Record.put("k", seqno=1, value_size=1))
        memtable.add(Record.put("k", seqno=2, value_size=2))
        assert memtable.get("k").seqno == 2
        assert memtable.get("missing") is None


class TestSortedMap:
    """The engine-mode memtable: capacity counts distinct keys."""

    def test_update_overwrites_in_place(self):
        memtable = SortedMapMemtable(2)
        memtable.add(Record.put("k", seqno=1))
        memtable.add(Record.put("k", seqno=2))
        assert len(memtable) == 1
        assert memtable.get("k").seqno == 2

    def test_full_only_on_distinct_keys(self):
        memtable = SortedMapMemtable(2)
        memtable.add(Record.put("a", seqno=1))
        memtable.add(Record.put("a", seqno=2))
        memtable.add(Record.put("b", seqno=3))
        assert memtable.is_full
        with pytest.raises(StorageError):
            memtable.add(Record.put("c", seqno=4))
        # updating an existing key is still allowed when full
        memtable.add(Record.put("a", seqno=5))
        assert memtable.get("a").seqno == 5

    def test_flush_sorted(self):
        memtable = SortedMapMemtable(3)
        for key in ("c", "a", "b"):
            memtable.add(Record.put(key, seqno=1))
        assert [r.key for r in memtable.flush_records()] == ["a", "b", "c"]

    def test_tombstones_stored(self):
        memtable = SortedMapMemtable(2)
        memtable.add(Record.put("k", seqno=1))
        memtable.add(Record.delete("k", seqno=2))
        assert memtable.get("k").tombstone


def _rows(memtable):
    """Every row of the memtable's ordered view (all keys here are >= 0)."""
    view, _ = memtable.records_from(0)
    return [view.record_at(row) for row in range(len(view.keys))]


@pytest.mark.parametrize("mode", ("append", "map"))
class TestOrderedView:
    """``records_from`` and ``flush_records`` share one cached key order."""

    def test_view_starts_at_the_lower_bound_and_copies_nothing(self, mode):
        memtable = make_memtable(mode, 10)
        for seqno, key in enumerate((30, 10, 20), start=1):
            memtable.add(Record.put(key, seqno))
        view, position = memtable.records_from(15)
        assert (len(view.keys), position) == (3, 1)
        assert [view.record_at(i).key for i in range(position, 3)] == [20, 30]
        assert [view.seqno_at(i) for i in range(position, 3)] == [3, 1]
        assert memtable.records_from(31)[1] == 3
        assert len(memtable) == 3

    def test_order_is_refreshed_after_writes_and_flushes(self, mode):
        memtable = make_memtable(mode, 10)
        memtable.add(Record.put(5, 1))
        memtable.add(Record.put(9, 2))
        assert [r.key for r in _rows(memtable)] == [5, 9]
        memtable.add(Record.put(1, 3))  # below everything cached
        memtable.add(Record.put(9, 4))  # an overwrite keeps the order
        assert [(r.key, r.seqno) for r in _rows(memtable)] == [
            (1, 3), (5, 1), (9, 4),
        ]
        count = len(memtable)
        rows = _rows(memtable)
        assert memtable.flush_records() == rows
        # Refilled to the same length: the cache must not answer for it.
        for seqno in range(count):
            memtable.add(Record.put(100 - seqno, 10 + seqno))
        view, position = memtable.records_from(0)
        assert [view.record_at(i).key for i in range(count)] == sorted(
            100 - seqno for seqno in range(count)
        )

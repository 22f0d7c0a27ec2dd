"""The engine scan's cached live view: built once per table set, never stale.

The view is keyed on the table objects themselves, so whatever changes
``engine.sstables`` — a flush, a compaction, or a caller appending to or
reassigning the list — is seen by the next scan, and a flush or a
compaction drops it, so it keeps no replaced table alive.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.lsm import EngineConfig, LSMEngine, SSTable, SizeTieredCompaction
from repro.lsm import sstable as sstable_module


@pytest.fixture
def builds(monkeypatch) -> list:
    """Every ``newest_per_key`` call, i.e. every view build."""
    calls = []
    original = sstable_module.newest_per_key

    def counted(columns):
        calls.append(len(columns))
        return original(columns)

    monkeypatch.setattr(sstable_module, "newest_per_key", counted)
    return calls


def keys_of(records) -> list:
    return [record.key for record in records]


@pytest.mark.parametrize("mode", ("map", "append"))
def test_one_build_per_table_set(builds, mode):
    engine = LSMEngine(EngineConfig(memtable_capacity=20, memtable_mode=mode))
    key = 0
    for flushes in range(1, 6):
        while engine.flush_count < flushes:
            engine.put(key % 70, value_size=key)
            key += 1
        for start in (0, 13, 40, 69):
            engine.scan(start, 10)
            engine.put(100 + key, value_size=1)  # writes between scans: no rebuild
            key += 1
        # One build per flush: the scans and writes between reused it.
        assert builds == list(range(1, flushes + 1))
    engine.compact(SizeTieredCompaction(min_threshold=2))
    merged = len(builds)  # the columnar merge kernel calls it too
    engine.scan(0, 10)
    engine.scan(5, 10)
    assert builds[merged:] == [len(engine.sstables)]


def test_a_caller_appending_a_table_is_seen(builds):
    engine = LSMEngine(EngineConfig(memtable_capacity=10))
    for key in range(0, 40, 2):
        engine.put(key)
    engine.flush()
    assert keys_of(engine.scan(30, 10)) == [30, 32, 34, 36, 38]
    engine.sstables.append(SSTable.from_columns(99, [31, 33, 50], [1, 2, 3], 5))
    assert keys_of(engine.scan(30, 10)) == [30, 31, 32, 33, 34, 36, 38, 50]
    assert builds == [2, 3]  # the two flushed tables, then with the appended one


def test_a_caller_reassigning_the_list_is_seen(builds):
    engine = LSMEngine(EngineConfig(memtable_capacity=10))
    for key in range(10):
        engine.put(key)
    engine.flush()
    assert keys_of(engine.scan(0, 3)) == [0, 1, 2]
    (table,) = engine.sstables
    engine.sstables = [SSTable.from_columns(7, [1, 2, 3], [1, 2, 3], 5)]  # same length
    assert keys_of(engine.scan(0, 3)) == [1, 2, 3]
    engine.sstables = [table]  # back to the first table, in a new list
    assert keys_of(engine.scan(0, 3)) == [0, 1, 2]
    assert len(builds) == 3


def test_a_compaction_leaves_no_reference_to_its_inputs():
    engine = LSMEngine(EngineConfig(memtable_capacity=10, use_wal=False))
    for key in range(50):
        engine.put(key % 30, value_size=key)
    engine.flush()  # so the compaction's own flush does not drop the view
    engine.scan(0, 5)  # builds the view over the flushed tables
    inputs = [weakref.ref(table) for table in engine.sstables]
    assert len(inputs) == 5
    engine.compact(SizeTieredCompaction(min_threshold=2))
    gc.collect()
    assert [ref() for ref in inputs] == [None] * 5
    assert keys_of(engine.scan(0, 5)) == [0, 1, 2, 3, 4]


def test_tables_newer_than_the_memtable_take_the_cursor_merge():
    """The view lets the memtable win, so it must not serve a table set a
    caller made newer than the memtable: the seqnos decide there."""
    engine = LSMEngine(EngineConfig(memtable_capacity=10))
    engine.put(5, value_size=1)  # seqno 1, in the memtable
    engine.put(6, value_size=1)  # seqno 2
    engine.sstables = [SSTable.from_columns(0, [5, 7], [10, 11], 3, [True, False])]
    assert engine._scan_view(0) is None
    assert [(r.key, r.seqno) for r in engine.scan(0, 5)] == [(6, 2), (7, 11)]
    engine.flush()  # now every table is older than the (empty) memtable
    assert engine._scan_view(0) is not None
    assert [(r.key, r.seqno) for r in engine.scan(0, 5)] == [(6, 2), (7, 11)]

"""The engine scan's work bound, counted not timed, and its cached order.

A scan is a bounded cursor merge: it may look at the keys it consumes
plus one head per source, at the rows behind consumed keys only, and it
may never copy a tail.  The memtables' sorted key order is cached
between scans and refreshed by the next scan after a write, so the
second half interleaves writes and scans against a dict: any stale
order shows as a wrong answer.
"""

from __future__ import annotations

import bisect
import random

import pytest

from repro.lsm import EngineConfig, LSMEngine, Record, SSTable


class CountingSequence:
    """A sequence proxy that counts item reads and refuses to be sliced."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.reads = 0
        self.rows: set[int] = set()

    def __len__(self) -> int:
        return len(self.inner)

    def __getitem__(self, index):
        assert not isinstance(index, slice), "the scan sliced a source"
        self.reads += 1
        self.rows.add(index)
        return self.inner[index]


def search_rows(keys, key) -> set[int]:
    """The key rows a ``lower_bound`` binary search reads before any walk."""
    probe = CountingSequence(keys)
    bisect.bisect_left(probe, key)
    return probe.rows


def test_scan_touches_only_what_it_consumes():
    entries = 100_000
    engine = LSMEngine(EngineConfig(memtable_capacity=1000, use_wal=False))
    # Tables 0/2 hold the even keys and 1/3 the odd ones, so every key
    # is shadowed once and the newest even version is a tombstone.
    # Tables 0/1 are record-backed, 2/3 column-backed (compaction outputs).
    engine.sstables = []
    for table_id in range(4):
        keys = range(table_id % 2, 2 * entries, 2)
        if table_id < 2:
            table = SSTable(table_id, [Record(key, table_id + 1, 10) for key in keys])
        else:
            table = SSTable.from_columns(
                table_id, keys, [table_id + 1] * entries, 10, [table_id == 2] * entries
            )
        engine.sstables.append(table)
    for key in reversed(range(0, 4000, 4)):  # seqnos above the tables' near the scan
        engine.put(key + 100_000, value_size=7)
    assert engine.memtable.is_full
    start = 100_001
    key_proxies, row_proxies, searched = [], [], []
    for table in engine.sstables:
        searched.append(search_rows(table.keys, start))
        table._keys = CountingSequence(table._keys)
        key_proxies.append(table._keys)
        if "records" in vars(table):
            table.records = CountingSequence(table.records)
            row_proxies.append([table.records])
        else:  # what a column-backed table reads its rows from
            table._column_rows = tuple(
                None if column is None else CountingSequence(column)
                for column in table._column_rows
            )
            row_proxies.append([column for column in table._column_rows if column])
    views = []
    records_from = engine.memtable.records_from

    def counted_view(start_key):
        view, position = records_from(start_key)
        view.keys = CountingSequence(view.keys)
        views.append(view)
        return view, position

    engine.memtable.records_from = counted_view

    result = engine.scan(start, 5)

    # Evens are dead on disk but the memtable revives every other one.
    assert [r.key for r in result] == [100_001, 100_003, 100_004, 100_005, 100_007]
    stats = engine.read_stats
    assert stats.scan_tables_probed == 4
    assert stats.scan_records_scanned == 2 * 7  # keys 100_001..100_007, twice each
    # Past its binary search, the walk reads each table's consumed keys
    # and one head; the rows behind the keys (records or columns) it
    # reads for consumed keys only.
    walked = touched = 0
    for keys, search, proxies in zip(key_proxies, searched, row_proxies):
        first = bisect.bisect_left(keys.inner, start)
        walk = keys.rows - search
        rows = set().union(*(proxy.rows for proxy in proxies))
        assert min(walk) >= first and min(rows) >= first
        walked += len(walk)
        touched += len(rows)
    assert walked <= stats.scan_records_scanned + 4
    assert touched <= stats.scan_records_scanned
    (view,) = views
    consumed = sum(1 for key in range(100_000, 104_000, 4) if start <= key <= 100_007)
    assert len(view.keys.rows) <= consumed + 1
    # The column-backed tables answered without building their records.
    assert ["records" in vars(table) for table in engine.sstables] == [
        True, True, False, False,
    ]


def replay(engine: LSMEngine, model: dict, ops) -> None:
    """Apply ``ops`` to both; every scan must equal the dict's answer."""
    for op, key, arg in ops:
        if op == "put":
            engine.put(key, value_size=arg)
            model[key] = arg
        elif op == "delete":
            engine.delete(key)
            model.pop(key, None)
        else:
            expected = sorted(k for k in model if k >= key)[:arg]
            got = engine.scan(key, arg)
            assert [r.key for r in got] == expected, (op, key, arg)
            assert [r.value_size for r in got] == [model[k] for k in expected]


def random_ops(seed: int, count: int, keyspace: int):
    rng = random.Random(seed)
    for step in range(1, count + 1):
        roll = rng.random()
        key = rng.randrange(keyspace)
        if roll < 0.5:
            yield ("put", key, step)
        elif roll < 0.65:
            yield ("delete", key, None)
        else:
            yield ("scan", key, rng.randint(1, 12))


@pytest.mark.parametrize("mode", ("map", "append"))
def test_cached_memtable_order_follows_writes(mode):
    engine = LSMEngine(EngineConfig(memtable_capacity=10_000, memtable_mode=mode))
    model: dict[int, int] = {}
    replay(
        engine,
        model,
        [
            ("put", 50, 1),
            ("put", 70, 2),
            ("scan", 60, 5),  # caches the order [50, 70]
            ("put", 65, 3),  # a new key inside the last scan's range
            ("scan", 60, 5),
            ("put", 70, 4),  # an overwrite: same order, new record
            ("scan", 60, 5),
            ("put", 10, 5),  # a new key below the last scan's start
            ("scan", 0, 5),
            ("delete", 65, None),  # a tombstone is a record, not a removal
            ("scan", 60, 5),
            ("delete", 99, None),  # a tombstone for a key never written
            ("scan", 0, 9),
        ],
    )
    replay(engine, model, random_ops(seed=5, count=600, keyspace=80))
    assert engine.flush_count == 0  # one memtable served every scan


@pytest.mark.parametrize("mode", ("map", "append"))
def test_each_new_memtable_starts_a_fresh_order(mode):
    config = EngineConfig(memtable_capacity=25, memtable_mode=mode)
    engine = LSMEngine(config)
    model: dict[int, int] = {}
    replay(engine, model, random_ops(seed=9, count=400, keyspace=60))
    # Scans interleaved with flushes: every memtable swapped in after a
    # flush built its own cached order, merged with the new tables.
    assert engine.flush_count >= 2
    replay(engine, model, [("scan", 0, 100), ("scan", 31, 3)])
    engine.flush()
    replay(engine, model, [("scan", 0, 100), ("scan", 31, 3)])

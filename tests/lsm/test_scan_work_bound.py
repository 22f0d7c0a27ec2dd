"""The engine scan's work bound, counted not timed, and its cached order.

The engine's scan reads a cached live view of its tables; the cursor
merge (:func:`cursor_merge_scan`) serves what the view cannot represent
and is its oracle.  Each has a bound.  The cursor merge may look at the
keys it consumes plus one head per source, at the rows behind consumed
keys only, and it may never copy a tail.  Once the view is built, a view
scan reads at most ``length`` view rows plus one per memtable row it
consumes, two binary searches per probed table, and table rows only for
the records it returns.  The memtables' sorted key order is cached
between scans and refreshed by the next scan after a write, so the last
part interleaves writes and scans against a dict: any stale order shows
as a wrong answer.
"""

from __future__ import annotations

import bisect
import random

import pytest

from repro.lsm import EngineConfig, LSMEngine, Record, SSTable
from repro.lsm.engine import cursor_merge_scan


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


ENTRIES = 100_000
START = 100_001


def shadowed_tables() -> list[SSTable]:
    """Four 100 k-row tables: 0/2 hold the even keys and 1/3 the odd ones,
    so every key is shadowed once and the newest even version is a
    tombstone.  Tables 0/1 are record-backed, 2/3 column-backed
    (compaction outputs); table ``i`` holds seqno ``i + 1``."""
    tables = []
    for table_id in range(4):
        keys = range(table_id % 2, 2 * ENTRIES, 2)
        if table_id < 2:
            table = SSTable(table_id, [Record(key, table_id + 1, 10) for key in keys])
        else:
            table = SSTable.from_columns(
                table_id, keys, [table_id + 1] * ENTRIES, 10, [table_id == 2] * ENTRIES
            )
        tables.append(table)
    return tables


def test_scan_touches_only_what_it_consumes():
    """The cursor merge's bound."""
    engine = LSMEngine(EngineConfig(memtable_capacity=1000, use_wal=False))
    engine.sstables = shadowed_tables()
    for key in reversed(range(0, 4000, 4)):  # seqnos above the tables' near the scan
        engine.put(key + 100_000, value_size=7)
    assert engine.memtable.is_full
    start = START
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

    result = cursor_merge_scan(
        engine.sstables, engine.memtable, start, 5, engine.read_stats, engine.disk
    )

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


class CountingColumn:
    """A live-view column proxy that records the rows its slices cover."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.rows: set[int] = set()

    @property
    def size(self) -> int:
        return self.inner.size

    def searchsorted(self, key):
        return self.inner.searchsorted(key)

    def __getitem__(self, index):
        assert isinstance(index, slice), "the scan read the view row by row"
        self.rows.update(range(*index.indices(self.inner.size)))
        return self.inner[index]


def search_right_rows(keys, key, lo: int) -> set[int]:
    """The key rows a ``bisect_right`` from ``lo`` reads."""
    probe = CountingSequence(keys)
    bisect.bisect_right(probe, key, lo)
    return probe.rows


def test_view_scan_reads_its_window_and_bills_by_search():
    """The view scan's bound, once the view is built."""
    engine = LSMEngine(EngineConfig(memtable_capacity=1000, use_wal=False))
    engine.sstables = shadowed_tables()
    engine._seqno = engine._durable_seqno = 4  # as if the engine had flushed them
    for key in reversed(range(0, 4000, 4)):
        engine.put(key + 100_000, value_size=7)
    assert engine.memtable.is_full
    engine.scan(0, 1)  # builds the view
    view = engine._live[1]
    for name in ("keys", "numbers", "rows"):
        setattr(view, name, CountingColumn(getattr(view, name)))
    first = int(view.keys.inner.searchsorted(START))
    key_proxies, searched, row_proxies = [], [], []
    for table in engine.sstables:
        left = search_rows(table.keys, START)
        lo = bisect.bisect_left(table.keys, START)
        searched.append(left | search_right_rows(table.keys, 100_007, lo))
        table._keys = CountingSequence(table._keys)
        key_proxies.append(table._keys)
        if "records" in vars(table):
            table.records = CountingSequence(table.records)
            row_proxies.append([table.records])
        else:
            table._column_rows = tuple(
                None if column is None else CountingSequence(column)
                for column in table._column_rows
            )
            row_proxies.append([column for column in table._column_rows if column])
    views = []
    records_from = engine.memtable.records_from

    def counted_view(start_key):
        memtable_view, position = records_from(start_key)
        memtable_view.keys = CountingSequence(memtable_view.keys)
        views.append((memtable_view, position))
        return memtable_view, position

    engine.memtable.records_from = counted_view
    scanned = engine.read_stats.scan_records_scanned

    result = engine.scan(START, 5)

    assert engine._live[1] is view  # no rebuild between flushes
    assert [r.key for r in result] == [100_001, 100_003, 100_004, 100_005, 100_007]
    assert engine.read_stats.scan_records_scanned - scanned == 2 * 7
    # The memtable: its binary search, then the rows the walk consumed
    # and one head.
    ((memtable_view, position),) = views
    consumed = sum(1 for key in range(100_000, 104_000, 4) if START <= key <= 100_007)
    walked = memtable_view.keys.rows - search_rows(memtable_view.keys.inner, START)
    assert len(walked) <= consumed + 1
    # The view: one window from the start, at most ``length`` rows plus
    # one per memtable row consumed, and every column read the same rows.
    assert min(view.keys.rows) == first
    assert len(view.keys.rows) <= 5 + consumed
    assert view.numbers.rows == view.rows.rows == view.keys.rows
    # Each table: a bisect_left and a bisect_right over its keys, and
    # rows (and, column-backed, keys) only behind the records returned
    # from it.
    touched = [
        set().union(*(proxy.rows for proxy in proxies)) for proxies in row_proxies
    ]
    from_tables = [r for r in result if r.seqno <= 4]
    assert sum(len(rows) for rows in touched) == len(from_tables) == 4
    assert touched[:3] == [set(), set(), set()]
    assert [proxy.rows for proxy in key_proxies] == [
        search | rows for search, rows in zip(searched, touched)
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

"""The engine's view scan against the cursor merge, on drawn op streams.

``LSMEngine.scan`` reads a cached live view of the table set and lets
the memtable's version of a key win; :func:`cursor_merge_scan` resolves
every version by seqno.  Here a drawn stream of puts, overwrites and
deletes over a small memtable (both modes), compactions through a
``CompactionController`` (STCS or LEVELED) and major compactions,
flushes and crash recoveries is scanned from drawn starts — below,
between, inside and above every table, negative, and at +-2**63.  Every
scan must return the oracle's records and charge the oracle's
``ReadStats`` and ``IoStats``, computed on the same state; the answer
must equal a dict replay of the writes; and the memtable's rule must
rest on what it claims: every memtable seqno exceeds every sstable
seqno.  Stores the view cannot represent (``str`` keys, payload bytes,
keys past int64) must take the cursor merge.
"""

from __future__ import annotations

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import (
    CompactionController,
    EngineConfig,
    LeveledCompaction,
    LSMEngine,
    MajorCompaction,
    SizeTieredCompaction,
)
from repro.lsm.disk import SimulatedDisk
from repro.lsm.engine import ReadStats, cursor_merge_scan

INT64_EDGES = (-(2**63), 2**63 - 1)
STRATEGIES = {
    "STCS": lambda: SizeTieredCompaction(min_threshold=2, until_single=False),
    "LEVELED": lambda: LeveledCompaction(
        table_target_entries=4, base_level_entries=8, fanout=2, level0_threshold=2
    ),
}
OPS = (
    ("put",) * 6 + ("delete",) * 2 + ("scan",) * 3
    + ("sweep", "major", "flush", "crash")
)

keys_strategy = st.one_of(st.integers(-20, 20), st.sampled_from(INT64_EDGES))
starts_strategy = st.one_of(
    st.integers(-25, 25),
    st.sampled_from((*INT64_EDGES, -(2**63) - 1, 2**63, 2**64)),
)
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        keys_strategy,
        st.integers(0, 300),  # value size
        starts_strategy,
        st.integers(1, 60),  # scan length
    ),
    min_size=20,
    max_size=150,
)


def memtable_records(engine: LSMEngine) -> list:
    view, _ = engine.memtable.records_from(-(2**64))
    return [view.record_at(row) for row in range(len(view.keys))]


def checked_scan(engine: LSMEngine, model: dict, start: int, length: int) -> None:
    """One scan: the engine's answer and charges equal the oracle's."""
    memtable = memtable_records(engine)
    if memtable and engine.sstables:
        newest_on_disk = max(table.max_seqno for table in engine.sstables)
        assert min(record.seqno for record in memtable) > newest_on_disk
    # The view serves every start inside int64 of these all-int stores.
    takes_view = engine._scan_view(start) is not None
    assert takes_view == (INT64_EDGES[0] <= start <= INT64_EDGES[1])
    expected_stats, expected_disk = ReadStats(), SimulatedDisk()
    expected = cursor_merge_scan(
        engine.sstables, engine.memtable, start, length, expected_stats, expected_disk
    )
    stats_before = asdict(engine.read_stats)
    io_before = engine.disk.stats.snapshot()
    got = engine.scan(start, length)
    charged = {
        name: value - stats_before[name]
        for name, value in asdict(engine.read_stats).items()
    }
    assert charged == asdict(expected_stats)
    assert engine.disk.stats.delta(io_before) == expected_disk.stats
    shape = [(r.key, r.seqno, r.value_size, r.tombstone) for r in got]
    assert shape == [(r.key, r.seqno, r.value_size, r.tombstone) for r in expected]
    live = sorted(key for key in model if key >= start)[:length]
    assert [(r.key, r.value_size) for r in got] == [(k, model[k]) for k in live]


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(("map", "append")),
    capacity=st.integers(2, 6),
    strategy=st.sampled_from(sorted(STRATEGIES)),
    threshold=st.integers(2, 5),
    ops=ops_strategy,
)
def test_view_scan_equals_the_cursor_merge(mode, capacity, strategy, threshold, ops):
    config = EngineConfig(memtable_capacity=capacity, memtable_mode=mode)
    engine = LSMEngine(config)
    controller = CompactionController(engine, STRATEGIES[strategy], threshold)
    model: dict[int, int] = {}
    for op, key, value_size, start, length in ops:
        if op == "put":
            engine.put(key, value_size=value_size)
            model[key] = value_size
            controller.maybe_compact()
        elif op == "delete":
            engine.delete(key)
            model.pop(key, None)
            controller.maybe_compact()
        elif op == "scan":
            checked_scan(engine, model, start, length)
        elif op == "sweep":
            edges = {start}
            for table in engine.sstables:
                low, high = table.min_key, table.max_key
                edges |= {low - 1, low, (low + high) // 2, high, high + 1}
            for edge in sorted(edges):
                checked_scan(engine, model, edge, length)
        elif op == "major":
            if engine.sstables or not engine.memtable.is_empty:
                engine.compact(MajorCompaction("balance_tree_input"))
        elif op == "flush":
            engine.flush()
        else:
            engine = engine.simulate_crash_and_recover()
            controller = CompactionController(engine, STRATEGIES[strategy], threshold)
    checked_scan(engine, model, -(2**63), 60)


#: Per store kind: the key of a write number, and a last record that
#: keeps its table off int64 columns.
UNREPRESENTABLE = {
    "str": (lambda number: f"k{number:02d}", ("zz", b"x")),
    "payload": (int, (31, b"x")),
    "wide": (lambda number: number if number % 7 else 2**64 + number, (2**64, None)),
}


@settings(max_examples=30, deadline=None)
@given(
    mode=st.sampled_from(("map", "append")),
    kind=st.sampled_from(sorted(UNREPRESENTABLE)),
    writes=st.lists(
        st.tuples(st.integers(0, 30), st.one_of(st.none(), st.binary(max_size=8))),
        min_size=10,
        max_size=80,
    ),
    scans=st.lists(st.tuples(st.integers(-2, 32), st.integers(1, 40)), max_size=10),
)
def test_stores_the_view_cannot_hold_take_the_cursor_merge(mode, kind, writes, scans):
    """``str`` keys, payload bytes, or an int key past int64 in a table."""
    key_of, (last_key, last_value) = UNREPRESENTABLE[kind]
    engine = LSMEngine(EngineConfig(memtable_capacity=4, memtable_mode=mode))
    model = {}
    writes = [(key_of(number), value) for number, value in writes]
    for key, value in [*writes, (last_key, last_value or b"")]:
        if value is None:
            engine.delete(key)
            model.pop(key, None)
        elif kind == "wide":  # sizes only: the keys alone must block the view
            engine.put(key, value_size=len(value))
            model[key] = len(value)
        else:
            engine.put(key, value=value)
            model[key] = value
    engine.flush()
    for number, length in scans:
        start = key_of(number)
        assert engine._scan_view(start) is None
        got = engine.scan(start, length)
        live = sorted(key for key in model if key >= start)[:length]
        assert [record.key for record in got] == live
        values = [r.value_size if kind == "wide" else r.value for r in got]
        assert values == [model[key] for key in live]

"""Engine reads against a dict and a per-record charge, on drawn stores.

``LSMEngine.get`` hashes its key once for every bloom it checks, and
``LSMEngine.scan`` walks the table set's live view (or, on ``str`` keys,
merges ``(key, source, row)`` cursors) and bills each probed table's
consumed run in one ``read_many``; neither builds a column-backed
table's ``Record`` tuple.  Here a drawn store — flush
outputs, column-backed twins of some of them (some already iterated, as
the file encoder leaves them), the memtable, overwrites and tombstones, ``int`` or ``str`` keys (a
``str`` key's bytes count in ``size_bytes``) — answers drawn gets and
scans.  Every answer must equal a dict replay of the writes,
and after every read all 13 ``ReadStats`` and all 4 ``IoStats``
counters must equal what this file computes by walking the store one
record at a time and charging one disk read per record.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import EngineConfig, LSMEngine, SSTable
from repro.lsm.disk import IoStats
from repro.lsm.engine import _INDEX_BLOCK_BYTES, ReadStats

KEYSPACE = 40

#: ``(key number, value size)``; a ``None`` size is a delete.
writes_strategy = st.lists(
    st.tuples(
        st.integers(0, KEYSPACE - 1),
        st.one_of(st.none(), st.integers(0, 300)),
    ),
    min_size=30,  # enough to flush several tables
    max_size=120,
)
reads_strategy = st.lists(
    st.tuples(
        st.sampled_from(("get", "scan")),
        st.integers(-2, KEYSPACE + 1),
        st.integers(0, 12),  # a scan's length; 0 is answered without a scan
    ),
    min_size=5,
    max_size=30,
)


@dataclass
class Store:
    """What the engine holds, as this file's per-record walk sees it."""

    tables: list[tuple[SSTable, dict]]  # oldest first: (table, key -> record)
    memtable: dict  # key -> record
    twins: list[SSTable]  # the column-backed tables no one iterated


def build(mode, key_of, writes, columnar, iterated):
    """Replay ``writes``; swap flush outputs for column twins where bit
    ``index`` of ``columnar`` is set (int keys only), and iterate the
    twins whose bit is set in ``iterated`` too, as the file encoder
    does, so their records exist before any read."""
    engine = LSMEngine(
        EngineConfig(memtable_capacity=6, memtable_mode=mode, use_wal=False)
    )
    model = {}
    for number, value_size in writes:
        key = key_of(number)
        if value_size is None:
            engine.delete(key)
            model.pop(key, None)
        else:
            engine.put(key, value_size=value_size)
            model[key] = value_size
    tables, twins = [], []
    for index, table in enumerate(engine.sstables):
        records = {record.key: record for record in table.records}
        columns = table.columns()
        if columnar >> index & 1 and columns is not None:
            table = SSTable.from_columns(
                table.table_id,
                columns.keys,
                columns.seqnos,
                columns.value_sizes,
                columns.tombstones,
            )
            engine.sstables[index] = table
            if iterated >> index & 1:
                list(table)
            else:
                twins.append(table)
        tables.append((table, records))
    view, _ = engine.memtable.records_from(key_of(0))  # the view holds every key
    memtable = {key: view.record_at(row) for row, key in enumerate(view.keys)}
    return engine, model, Store(tables, memtable, twins)


def charge(stats: ReadStats, io: IoStats, nbytes: int) -> None:
    stats.read_bytes += nbytes
    io.bytes_read += nbytes
    io.read_ops += 1


def walk_get(store: Store, key, stats: ReadStats, io: IoStats):
    stats.reads += 1
    record = store.memtable.get(key)
    if record is not None:
        stats.memtable_hits += 1
    else:
        for table, records in reversed(store.tables):
            if not (table.min_key <= key <= table.max_key and key in table.bloom):
                stats.bloom_skips += 1
                continue
            stats.tables_probed += 1
            if key in records:
                record = records[key]
                charge(stats, io, record.size_bytes)
                break
            stats.bloom_false_positives += 1
            charge(stats, io, _INDEX_BLOCK_BYTES)
    if record is None or record.tombstone:
        stats.misses += 1
        return None
    stats.hits += 1
    return record


def walk_scan(store: Store, start, length, stats: ReadStats, io: IoStats):
    if length < 1:
        return []
    stats.scans += 1
    sources = []  # (key -> record, on disk), oldest first
    for table, records in store.tables:
        if start > table.max_key:
            stats.scan_tables_pruned += 1
            continue
        stats.scan_tables_probed += 1
        sources.append((records, True))
    sources.append((store.memtable, False))
    live = []
    for key in sorted({key for records, _ in sources for key in records if key >= start}):
        if len(live) == length:
            break
        versions = []
        for records, on_disk in sources:
            if key in records:
                versions.append(records[key])
                if on_disk:
                    charge(stats, io, records[key].size_bytes)
                    stats.scan_records_scanned += 1
        newest = max(versions, key=lambda record: record.seqno)  # first: oldest
        if not newest.tombstone:
            live.append(newest)
    stats.scan_records_returned += len(live)
    return live


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(("map", "append")),
    key_of=st.sampled_from((int, str)),
    writes=writes_strategy,
    columnar=st.integers(0, 2**20 - 1),
    iterated=st.integers(0, 2**20 - 1),
    reads=reads_strategy,
)
def test_reads_match_a_dict_and_a_per_record_charge(
    mode, key_of, writes, columnar, iterated, reads
):
    engine, model, store = build(mode, key_of, writes, columnar, iterated)
    expected, io = ReadStats(), IoStats()
    before = engine.disk.stats.snapshot()
    for op, number, length in reads:
        key = key_of(number)
        if op == "get":
            got = engine.get(key)
            assert got == walk_get(store, key, expected, io)
            if key in model:
                assert got is not None and got.value_size == model[key]
            else:
                assert got is None
        else:
            got = engine.scan(key, length)
            assert got == walk_scan(store, key, length, expected, io)
            live = sorted(k for k in model if k >= key)[: max(length, 0)]
            assert [record.key for record in got] == live
            assert [record.value_size for record in got] == [model[k] for k in live]
        assert asdict(engine.read_stats) == asdict(expected)
        assert engine.disk.stats.delta(before) == io
    # The column-backed tables no one iterated answered every read
    # without building their records.
    assert not any("records" in vars(table) for table in store.twins)

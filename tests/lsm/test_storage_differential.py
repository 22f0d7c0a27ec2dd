"""The engine on files vs the engine in memory, differentially.

Storage decides where bytes live, not what the engine does with them.
The same op stream run on :class:`~repro.lsm.storage.MemoryStorage` and
on :class:`~repro.lsm.storage.FileStorage` (any ``wal_sync_every``) must
give the same sstables (ids, records, sizes), flush count, read answers,
``ReadStats``, compaction cost and restart state.  Disk write totals are
the one thing that differs on purpose: memory storage bills
``Record.size_bytes``, file storage bills the encoded bytes.
"""

import pytest

from repro.lsm import (
    EngineConfig,
    FaultInjectedFileSystem,
    LeveledCompaction,
    LSMEngine,
    MajorCompaction,
    MemoryFileSystem,
    SizeTieredCompaction,
)

KEYSPACE = 97


def _workload(n=600, keyspace=KEYSPACE):
    """A deterministic put/delete mix with repeated keys."""
    ops = []
    for i in range(n):
        key = (i * 37) % keyspace
        if i % 11 == 3:
            ops.append(("delete", key, 0))
        else:
            ops.append(("put", key, 40 + (i % 5)))
    return ops


def _apply(engine, ops):
    for op, key, size in ops:
        if op == "put":
            engine.put(key, value_size=size)
        else:
            engine.delete(key)


def _pair(config, sync_every=1):
    """The same config in memory and on a fresh in-memory filesystem."""
    fs = MemoryFileSystem()
    return LSMEngine(config), LSMEngine(config, fs=fs, wal_sync_every=sync_every), fs


def _assert_tables_identical(memory, files):
    assert [t.table_id for t in memory.sstables] == [
        t.table_id for t in files.sstables
    ]
    for a, b in zip(memory.sstables, files.sstables):
        assert a.records == b.records
        assert a.size_bytes == b.size_bytes


def _answers(engine):
    return [engine.get(key) for key in range(KEYSPACE)], [
        engine.scan(key, 7) for key in range(0, KEYSPACE, 5)
    ]


class TestDifferential:
    @pytest.mark.parametrize("mode", ["append", "map"])
    @pytest.mark.parametrize("capacity", [4, 32, 97])
    @pytest.mark.parametrize("sync_every", [1, 4, 32])
    def test_tables_identical_on_files(self, mode, capacity, sync_every):
        config = EngineConfig(memtable_capacity=capacity, memtable_mode=mode)
        memory, files, _ = _pair(config, sync_every)
        with files:
            for engine in (memory, files):
                _apply(engine, _workload())
                engine.flush()
            assert memory.flush_count == files.flush_count > 0
            assert memory.user_bytes_written == files.user_bytes_written
            _assert_tables_identical(memory, files)

    @pytest.mark.parametrize("mode", ["append", "map"])
    @pytest.mark.parametrize("sync_every", [1, 4, 32])
    def test_reads_identical_on_files(self, mode, sync_every):
        """Answers and read counters, with an unflushed memtable tail."""
        config = EngineConfig(memtable_capacity=32, memtable_mode=mode)
        memory, files, _ = _pair(config, sync_every)
        with files:
            reads = []
            for engine in (memory, files):
                _apply(engine, _workload(n=610))
                assert not engine.memtable.is_empty
                before = engine.disk.stats.snapshot()
                reads.append((_answers(engine), engine.disk.stats.delta(before)))
            assert reads[0] == reads[1]
            assert memory.read_stats == files.read_stats

    @pytest.mark.parametrize(
        "strategy",
        [
            lambda: MajorCompaction("SI"),
            lambda: MajorCompaction("balance_tree_input"),
            lambda: SizeTieredCompaction(min_threshold=2),
            lambda: LeveledCompaction(),
        ],
        ids=["SI", "BT(I)", "STCS", "LEVELED"],
    )
    def test_compaction_identical_on_files(self, strategy):
        config = EngineConfig(memtable_capacity=16)
        memory, files, fs = _pair(config)
        with files:
            results = []
            for engine in (memory, files):
                _apply(engine, _workload())
                engine.flush()
                results.append(engine.compact(strategy()))
            assert results[0].cost_actual_entries == results[1].cost_actual_entries
            _assert_tables_identical(memory, files)
        reopened = LSMEngine(config, fs=fs)
        _assert_tables_identical(memory, reopened)
        assert _answers(reopened) == _answers(memory)
        # The reopened store numbers its next flushes as the live one does.
        for engine in (memory, reopened):
            _apply(engine, _workload(n=40))
            engine.flush()
        _assert_tables_identical(memory, reopened)

    @pytest.mark.parametrize("mode", ["append", "map"])
    @pytest.mark.parametrize("use_wal", [True, False])
    def test_restart_identical_on_files(self, mode, use_wal):
        """A crash restart recovers the same state from either storage:
        committed tables, plus the logged tail when there is a log."""
        config = EngineConfig(
            memtable_capacity=32, memtable_mode=mode, use_wal=use_wal
        )
        memory, files, fs = _pair(config)
        for engine in (memory, files):
            _apply(engine, _workload(n=610))
        recovered = memory.simulate_crash_and_recover()
        reopened = LSMEngine(config, fs=fs)  # no close: the process died
        _assert_tables_identical(recovered, reopened)
        assert _answers(recovered) == _answers(reopened)
        for engine in (recovered, reopened):
            assert engine.memtable.is_empty is not use_wal


@pytest.mark.parametrize("mode", ["append", "map"])
@pytest.mark.parametrize("sync_every", [4, 32])
def test_group_commit_changes_syncs_not_bytes(mode, sync_every):
    """After a clean close, every file holds the same bytes whatever
    the group commit; only the number of syncs falls."""
    config = EngineConfig(memtable_capacity=32, memtable_mode=mode)
    stores = []
    for every in (1, sync_every):
        fs = FaultInjectedFileSystem(MemoryFileSystem())
        with LSMEngine(config, fs=fs, wal_sync_every=every) as engine:
            _apply(engine, _workload(n=610))
        stores.append((fs, {name: fs.read_bytes(name) for name in fs.listdir()}))
    (per_write, files), (grouped, grouped_files) = stores
    assert files == grouped_files
    assert grouped.writes_done == per_write.writes_done
    assert grouped.syncs_done < per_write.syncs_done

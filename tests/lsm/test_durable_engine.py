"""Tests for the engine on file storage: open/recover, crash ordering, corruption."""

import base64
import json
from pathlib import Path

import pytest

from repro.errors import CorruptionError, StorageError
from repro.lsm import (
    CrashPoint,
    DurableLSMEngine,
    EngineConfig,
    FaultInjectedFileSystem,
    FaultPlan,
    LSMEngine,
    LocalFileSystem,
    MajorCompaction,
    MemoryFileSystem,
)
from repro.lsm.format.manifest import MANIFEST_NAME, MANIFEST_TMP_NAME


def open_engine(fs, capacity=5, **kwargs):
    config = EngineConfig(memtable_capacity=capacity, **kwargs)
    return LSMEngine.open(fs=fs, config=config)


class TestOpenAndRecover:
    def test_fresh_directory_starts_empty(self):
        engine = open_engine(MemoryFileSystem())
        assert engine.table_count == 0
        assert engine.get(1) is None

    def test_lsmengine_open_returns_durable_engine(self, tmp_path):
        engine = LSMEngine.open(tmp_path)
        assert engine.storage.fs.root == tmp_path
        # bench/ still spells the constructor the old way.
        assert DurableLSMEngine is LSMEngine

    def test_state_rebuilt_from_files_alone(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs)
        for i in range(23):
            engine.put(i % 11, value_size=10 + i)
        engine.delete(3)
        expected = {i: engine.get(i) is not None for i in range(11)}
        # A brand-new engine over the same filesystem: no shared state.
        recovered = open_engine(fs)
        assert {i: recovered.get(i) is not None for i in range(11)} == expected
        assert recovered.table_count == engine.table_count
        assert recovered._seqno == engine._seqno

    def test_real_directory_round_trip(self, tmp_path):
        engine = LSMEngine.open(
            tmp_path, config=EngineConfig(memtable_capacity=4)
        )
        for i in range(9):
            engine.put(i, value=b"v%d" % i)
        engine.delete(2)
        recovered = LSMEngine.open(
            tmp_path, config=EngineConfig(memtable_capacity=4)
        )
        assert recovered.get(7).value == b"v7"
        assert recovered.get(2) is None

    def test_seqno_continuity_after_reopen(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs)
        engine.put("k", value=b"before")
        recovered = open_engine(fs)
        recovered.put("k", value=b"after")
        recovered.flush()
        assert recovered.get("k").value == b"after"

    def test_compaction_survives_reopen(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs, capacity=4)
        for i in range(12):
            engine.put(i)
        engine.compact(MajorCompaction("SI"))
        engine.put("fresh")
        recovered = open_engine(fs, capacity=4)
        assert recovered.table_count == 1
        assert recovered.get("fresh") is not None
        assert recovered.get(3) is not None

    def test_compaction_removes_dead_files(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs, capacity=4)
        for i in range(12):
            engine.put(i)
        engine.compact(MajorCompaction("SI"))
        sst_files = [name for name in fs.listdir() if name.endswith(".sst")]
        assert len(sst_files) == 1

    def test_without_wal_unflushed_writes_are_lost(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs, use_wal=False)
        engine.put("durable")
        engine.flush()
        engine.put("volatile")
        recovered = open_engine(fs, use_wal=False)
        assert recovered.get("durable") is not None
        assert recovered.get("volatile") is None

    def test_simulate_crash_and_recover_reopens(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs)
        engine.put("k", value=b"v")
        recovered = engine.simulate_crash_and_recover()
        assert recovered.storage.fs is fs
        assert recovered.get("k").value == b"v"

    def test_requires_directory_or_fs(self):
        with pytest.raises(StorageError):
            LSMEngine.open()

    def test_read_and_scan_paths_work_on_loaded_tables(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs, capacity=4)
        for i in range(10):
            engine.put(i, value_size=i + 1)
        recovered = open_engine(fs, capacity=4)
        assert [r.key for r in recovered.scan(3, 4)] == [3, 4, 5, 6]
        assert recovered.get(8).value_size == 9


class TestCleanClose:
    """A clean ``close()`` makes every acknowledged write durable."""

    @staticmethod
    def crash_on_next_write(fs):
        """Die at the next destructive operation: unsynced bytes roll back."""
        fs.plan = FaultPlan(crash_at_write=fs.writes_done + 1)
        with pytest.raises(CrashPoint):
            fs.open_write("after-close")

    @pytest.mark.parametrize("mode", ["map", "append"])
    @pytest.mark.parametrize("sync_every", [1, 32])
    def test_close_keeps_group_committed_writes(self, sync_every, mode):
        fs = FaultInjectedFileSystem(MemoryFileSystem())
        config = EngineConfig(memtable_capacity=8, memtable_mode=mode)
        with LSMEngine.open(fs=fs, config=config, wal_sync_every=sync_every) as engine:
            for key in range(5):
                engine.put(key, value_size=key + 1)
        self.crash_on_next_write(fs)
        recovered = LSMEngine.open(fs=fs.base, config=config)
        for key in range(5):
            record = recovered.get(key)
            assert record is not None, f"clean close lost key {key}"
            assert record.value_size == key + 1

    @pytest.mark.parametrize("sync_every", [1, 32])
    def test_close_syncs_only_the_unsynced_tail_once(self, sync_every):
        fs = FaultInjectedFileSystem(MemoryFileSystem())
        engine = LSMEngine.open(
            fs=fs, config=EngineConfig(), wal_sync_every=sync_every
        )
        engine.put(1, value_size=10)
        engine.close()
        engine.close()
        assert fs.syncs_done == 1

    def test_close_releases_a_real_file(self, tmp_path):
        engine = LSMEngine.open(tmp_path, EngineConfig(), wal_sync_every=32)
        engine.put(1, value_size=10)
        engine.close()
        engine.close()
        assert engine.wal._file._f.closed
        with LSMEngine.open(tmp_path) as reopened:
            assert reopened.get(1).value_size == 10

    def test_crash_restart_syncs_nothing(self):
        fs = FaultInjectedFileSystem(MemoryFileSystem())
        engine = LSMEngine.open(fs=fs, config=EngineConfig(), wal_sync_every=32)
        for key in range(5):
            engine.put(key, value_size=10)
        syncs = fs.syncs_done
        engine.simulate_crash_and_recover()
        assert fs.syncs_done == syncs == 0

    def test_memory_storage_close_is_a_no_op(self):
        with LSMEngine(EngineConfig()) as engine:
            engine.put(1, value_size=10)
        engine.close()
        assert engine.get(1).value_size == 10


class TestDurableMidReplayFlush:
    """Reopening under a smaller memtable forces flushes mid-replay;
    the WAL must not be truncated until replay is fully absorbed."""

    def filled_fs(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs, capacity=10)
        for i in range(7):
            engine.put(i, value_size=i + 1)
        return fs

    def test_mid_replay_flush_commits_without_truncating_wal(self):
        fs = self.filled_fs()
        recovered = open_engine(fs, capacity=2)
        assert recovered.flush_count >= 1
        for i in range(7):
            assert recovered.get(i).value_size == i + 1
        # A mid-replay freeze seals the log it is replaying from; the
        # segment outlives the commits that do not yet cover its last
        # record, so the unflushed survivor is still logged somewhere.
        assert sum(fs.size(n) for n in fs.listdir() if n.endswith(".log")) > 0
        assert len(open_engine(fs, capacity=2).wal) == 0  # not in wal.log

    def test_crash_at_every_point_of_mid_replay_recovery(self):
        from repro.lsm import CrashPoint, FaultInjectedFileSystem, FaultPlan

        base = self.filled_fs()
        snapshot = {name: base.read_bytes(name) for name in base.listdir()}

        def restored():
            fs = MemoryFileSystem()
            for name, data in snapshot.items():
                handle = fs.open_write(name)
                handle.append(data)
                handle.close()
            return fs

        probe = FaultInjectedFileSystem(restored())
        open_engine(probe, capacity=2)
        points = [
            FaultPlan(crash_at_write=n) for n in range(1, probe.writes_done + 1)
        ] + [FaultPlan(crash_at_sync=n) for n in range(1, probe.syncs_done + 1)]
        assert points, "mid-replay recovery must hit fault points"
        for plan in points:
            crashed = FaultInjectedFileSystem(restored(), plan)
            try:
                open_engine(crashed, capacity=2)
            except CrashPoint:
                pass
            final = open_engine(crashed.base, capacity=2)
            for i in range(7):
                record = final.get(i)
                assert record is not None, f"{plan}: lost key {i}"
                assert record.value_size == i + 1, f"{plan}: stale key {i}"


class TestRecoveryHousekeeping:
    def test_orphan_sstables_swept(self):
        """A .sst never named by a manifest (crash before the commit
        rename) is invisible garbage and gets removed on open."""
        fs = MemoryFileSystem()
        engine = open_engine(fs)
        engine.put(1)
        engine.flush()
        handle = fs.open_write("000099.sst")
        handle.append(b"half-written table")
        handle.close()
        open_engine(fs)
        assert not fs.exists("000099.sst")
        assert fs.exists("000000.sst")  # the committed table stays

    def test_stale_manifest_tmp_removed(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs)
        engine.put(1)
        engine.flush()
        handle = fs.open_write(MANIFEST_TMP_NAME)
        handle.append(b"torn manifest rewrite")
        handle.close()
        recovered = open_engine(fs)
        assert not fs.exists(MANIFEST_TMP_NAME)
        assert recovered.get(1) is not None

    def test_non_table_files_left_alone(self):
        fs = MemoryFileSystem()
        handle = fs.open_write("notes.txt")
        handle.append(b"keep me")
        handle.close()
        open_engine(fs)
        assert fs.exists("notes.txt")


class TestDurableCorruption:
    def test_corrupt_sstable_block_raises_typed_error(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs)
        engine.put(1, value=b"payload")
        engine.flush()
        fs.flip_bit("000000.sst", 4)
        with pytest.raises(CorruptionError):
            open_engine(fs)

    def test_missing_live_table_raises(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs)
        engine.put(1)
        engine.flush()
        fs.remove("000000.sst")
        with pytest.raises(CorruptionError):
            open_engine(fs)

    def test_corrupt_manifest_raises(self):
        fs = MemoryFileSystem()
        engine = open_engine(fs)
        engine.put(1)
        engine.flush()
        fs.flip_bit(MANIFEST_NAME, 9)
        with pytest.raises(CorruptionError):
            open_engine(fs)

    def test_corrupt_wal_tail_degrades_gracefully(self):
        """A flipped bit in the WAL's final frame loses that record only
        — recovery proceeds with everything durable before it."""
        fs = MemoryFileSystem()
        engine = open_engine(fs)
        engine.put(1, value=b"first")
        engine.put(2, value=b"second")
        fs.flip_bit("wal.log", fs.size("wal.log") - 1)
        recovered = open_engine(fs)
        assert recovered.get(1).value == b"first"
        assert recovered.get(2) is None  # the torn record is gone

    def test_local_filesystem_corruption_detection(self, tmp_path):
        fs = LocalFileSystem(tmp_path)
        engine = open_engine(fs)
        engine.put(1, value=b"payload")
        engine.flush()
        fs.flip_bit("000000.sst", 4)
        with pytest.raises(CorruptionError):
            open_engine(LocalFileSystem(tmp_path))


class TestPersistLeavesColumnTablesUnmaterialized:
    def test_compaction_output_persists_without_records(self):
        """The file encoder reads a column-backed output's columns: the
        persisted table never builds (and caches) a Record tuple."""
        fs = MemoryFileSystem()
        engine = open_engine(fs, capacity=4)
        for i in range(12):
            engine.put(i, value_size=3 * i)
        engine.delete(5)
        engine.compact(MajorCompaction("SI"))
        (output,) = engine.sstables
        assert fs.exists(f"{output.table_id:06d}.sst")
        assert "records" not in vars(output)
        recovered = open_engine(fs, capacity=4)
        assert recovered.get(7).value_size == 21
        assert recovered.get(5) is None


class TestStoresWrittenBeforeTheEnginesMerged:
    """Directories written by the four-class hierarchy still open.

    ``fixtures/parent_stores.json`` holds the files the last commit
    before the merge left behind after applying ``ops`` (capacity 4):
    ``plain`` was written by its durable serial class (single
    ``wal.log``, one compaction), ``pipelined`` by its durable pipelined
    class with two frozen memtables outstanding (numbered segments only,
    the newest of them the then-active log).
    """

    FIXTURE = Path(__file__).parent / "fixtures" / "parent_stores.json"

    @pytest.mark.parametrize("written_by", ["plain", "pipelined"])
    def test_reopens_to_acknowledged_state(self, written_by):
        fixture = json.loads(self.FIXTURE.read_text())
        fs = MemoryFileSystem()
        for name, data in fixture["stores"][written_by].items():
            handle = fs.open_write(name)
            handle.append(base64.b64decode(data))
            handle.close()
        config = EngineConfig(memtable_capacity=fixture["memtable_capacity"])
        engine = LSMEngine.open(fs=fs, config=config)
        expected = {int(key): size for key, size in fixture["expected"].items()}
        for _ in range(2):  # as found, then after new writes and a restart
            for key in range(9):
                record = engine.get(key)
                assert (record.value_size if record else None) == expected.get(key)
            engine.put(100, value_size=7)
            expected[100] = 7
            engine.flush()
            engine = engine.simulate_crash_and_recover()
        assert not [n for n in fs.listdir() if n.startswith("wal-")]

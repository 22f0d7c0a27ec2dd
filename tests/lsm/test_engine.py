"""Integration tests for the LSM engine's read/write path."""

import pytest

from repro.errors import ConfigError, StorageError
from repro.lsm import EngineConfig, LSMEngine, MajorCompaction, MemoryFileSystem
from repro.ycsb import CoreWorkload, Operation, OperationType, WorkloadConfig


def engine_with(capacity=5, mode="map", use_wal=True):
    return LSMEngine(
        EngineConfig(memtable_capacity=capacity, memtable_mode=mode, use_wal=use_wal)
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(memtable_capacity=0)
        with pytest.raises(ConfigError):
            EngineConfig(bloom_fp_rate=2.0)
        with pytest.raises(ConfigError):
            EngineConfig(memtable_mode="lsm")
        with pytest.raises(ConfigError):
            EngineConfig(default_value_size=-1)

    @pytest.mark.parametrize("use_wal", [True, False])
    def test_bad_wal_sync_every_names_the_field(self, use_wal):
        with pytest.raises(ConfigError, match="wal_sync_every"):
            LSMEngine.open(
                fs=MemoryFileSystem(),
                config=EngineConfig(use_wal=use_wal),
                wal_sync_every=0,
            )


class TestWritePath:
    def test_read_your_writes_from_memtable(self):
        engine = engine_with()
        engine.put("k", value=b"v1")
        assert engine.get("k").value == b"v1"
        assert engine.read_stats.memtable_hits == 1

    def test_flush_on_full_memtable(self):
        engine = engine_with(capacity=3)
        for i in range(7):
            engine.put(i)
        assert engine.flush_count == 2
        assert engine.table_count == 2

    def test_full_memtable_flushes_before_the_write_lands(self):
        """The writer flushes inline: the write that finds the memtable
        full waits for its sstable, then lands in an empty memtable."""
        engine = engine_with(capacity=4)
        for i in range(20):
            engine.put(i, value_size=10)
            assert engine.flush_count == engine.table_count == i // 4
            assert len(engine.memtable) == i % 4 + 1

    def test_unorderable_keys_error_propagates(self):
        engine = engine_with(capacity=2)
        engine.put(1, value_size=10)
        engine.put("a", value_size=10)
        with pytest.raises(TypeError):
            engine.put(2, value_size=10)  # the flush's sort fails

    def test_manual_flush(self):
        engine = engine_with()
        engine.put("k")
        table = engine.flush()
        assert table is not None
        assert engine.table_count == 1
        assert engine.flush() is None  # empty memtable

    def test_wal_truncated_on_flush(self):
        engine = engine_with()
        engine.put("k")
        assert len(engine.wal) == 1
        engine.flush()
        assert engine.wal.is_empty

    def test_flush_writes_to_disk(self):
        engine = engine_with(use_wal=False)
        engine.put("k", value_size=100)
        engine.flush()
        assert engine.disk.stats.bytes_written > 100


class TestReadPath:
    def test_read_from_sstable(self):
        engine = engine_with(capacity=2)
        engine.put("a", value=b"1")
        engine.put("b", value=b"2")
        engine.flush()
        assert engine.get("a").value == b"1"
        assert engine.read_stats.tables_probed == 1

    def test_newest_version_wins_across_tables(self):
        engine = engine_with(capacity=1)
        engine.put("k", value=b"old")
        engine.flush()
        engine.put("k", value=b"new")
        engine.flush()
        assert engine.get("k").value == b"new"

    def test_missing_key(self):
        engine = engine_with()
        engine.put("a")
        engine.flush()
        assert engine.get("zzz") is None
        assert engine.read_stats.misses == 1

    def test_delete_masks_older_put(self):
        engine = engine_with(capacity=1)
        engine.put("k", value=b"v")
        engine.flush()
        engine.delete("k")
        engine.flush()
        assert engine.get("k") is None

    def test_bloom_skips_counted(self):
        engine = engine_with(capacity=2)
        for i in range(8):
            engine.put(i)
        engine.flush()
        engine.get(0)
        assert engine.read_stats.bloom_skips + engine.read_stats.tables_probed >= 1

    def test_scan_merges_memtable_and_tables(self):
        engine = engine_with(capacity=3)
        engine.put("a", value=b"1")
        engine.put("b", value=b"2")
        engine.put("c", value=b"3")  # triggers nothing yet (cap 3)
        engine.flush()
        engine.put("b", value=b"2new")
        engine.delete("c")
        result = engine.scan("a", 10)
        assert [r.key for r in result] == ["a", "b"]
        assert result[1].value == b"2new"

    def test_scan_zero_length(self):
        assert engine_with().scan("a", 0) == []

    def test_scan_survives_heavily_tombstoned_prefix(self):
        # Regression: the old walk capped probing at length * 4 records
        # per table, silently under-returning when the scan start was
        # shadowed by more than ~4x tombstones.
        engine = engine_with(capacity=20, use_wal=False)
        for key in range(20):
            engine.put(key)
        engine.flush()
        for key in range(16):  # 16 tombstones > 4 * length
            engine.delete(key)
        engine.flush()
        assert [r.key for r in engine.scan(0, 4)] == [16, 17, 18, 19]

    def test_scan_exhausts_all_versions_before_truncating(self):
        # Every key overwritten across many tables: the walk must keep
        # resolving until `length` live keys exist, however deep the
        # version stacks are.
        engine = engine_with(capacity=4, use_wal=False)
        for _ in range(6):
            for key in range(4):
                engine.put(key)
        engine.flush()
        assert [r.key for r in engine.scan(0, 4)] == [0, 1, 2, 3]

    def test_scan_prunes_tables_below_start_key(self):
        engine = engine_with(capacity=10, use_wal=False)
        for key in range(10):
            engine.put(key)
        engine.flush()
        for key in range(100, 110):
            engine.put(key)
        engine.flush()
        result = engine.scan(50, 5)
        assert [r.key for r in result] == [100, 101, 102, 103, 104]
        assert engine.read_stats.scan_tables_pruned == 1
        assert engine.read_stats.scan_tables_probed == 1

    def test_scan_charges_disk_reads_and_stats(self):
        # Regression: scans used to perform disk reads without charging
        # the simulated disk or updating ReadStats at all.
        engine = engine_with(capacity=5, use_wal=False)
        for key in range(5):
            engine.put(key, value_size=100)
        engine.flush()
        before = engine.disk.stats.bytes_read
        result = engine.scan(0, 3)
        assert len(result) == 3
        charged = engine.disk.stats.bytes_read - before
        assert charged == sum(r.size_bytes for r in result)
        stats = engine.read_stats
        assert stats.scans == 1
        assert stats.scan_records_scanned == 3
        assert stats.scan_records_returned == 3
        assert stats.read_bytes == charged

    def test_scan_memtable_records_are_free(self):
        engine = engine_with(capacity=10, use_wal=False)
        for key in range(5):
            engine.put(key)
        before = engine.disk.stats.bytes_read
        assert len(engine.scan(0, 5)) == 5
        assert engine.disk.stats.bytes_read == before


class TestCompactionIntegration:
    def test_compact_to_single_table(self):
        engine = engine_with(capacity=2)
        for i in range(10):
            engine.put(i)
        result = engine.compact(MajorCompaction("SI"))
        assert engine.table_count == 1
        assert result.n_merges >= 1
        for i in range(10):
            assert engine.get(i) is not None

    def test_compact_drops_tombstones(self):
        engine = engine_with(capacity=2)
        for i in range(6):
            engine.put(i)
        engine.delete(3)
        engine.compact(MajorCompaction("BT(I)"))
        assert engine.get(3) is None
        assert 3 not in engine.sstables[0].key_set

    def test_compact_reduces_read_amplification(self):
        engine = engine_with(capacity=5)
        for round_ in range(6):
            for key in range(20):
                engine.put(key)
        engine.flush()
        assert engine.table_count > 5
        # probe before
        before = engine_probes(engine)
        engine.compact(MajorCompaction("BT(I)"))
        after = engine_probes(engine)
        assert after <= before
        assert engine.table_count == 1

    def test_compact_empty_engine_raises(self):
        with pytest.raises(StorageError):
            engine_with().compact()

    def test_compact_flushes_memtable_first(self):
        engine = engine_with(capacity=100)
        engine.put("only-in-memtable")
        engine.compact(MajorCompaction("SI"))
        assert engine.get("only-in-memtable") is not None

    def test_default_strategy(self):
        engine = engine_with(capacity=2)
        for i in range(6):
            engine.put(i)
        result = engine.compact()
        assert "balance_tree_input" in result.strategy_name


def engine_probes(engine) -> float:
    """Average tables probed for a fixed probe set."""
    start_reads = engine.read_stats.reads
    start_probes = engine.read_stats.tables_probed
    for key in range(20):
        engine.get(key)
    reads = engine.read_stats.reads - start_reads
    probes = engine.read_stats.tables_probed - start_probes
    return probes / reads


class TestWorkloadDriving:
    def test_apply_full_crud(self):
        engine = engine_with(capacity=50)
        engine.apply(Operation(OperationType.INSERT, "k", value_size=10))
        engine.apply(Operation(OperationType.UPDATE, "k", value_size=20))
        record = engine.apply(Operation(OperationType.READ, "k"))
        assert record.value_size == 20
        engine.apply(Operation(OperationType.DELETE, "k"))
        assert engine.apply(Operation(OperationType.READ, "k")) is None
        engine.apply(Operation(OperationType.INSERT, "a", value_size=1))
        scan = engine.apply(Operation(OperationType.SCAN, "a", scan_length=5))
        assert [r.key for r in scan] == ["a"]

    def test_ycsb_end_to_end(self):
        config = WorkloadConfig(
            recordcount=200,
            operationcount=1000,
            update_proportion=0.5,
            insert_proportion=0.3,
            read_proportion=0.2,
            distribution="zipfian",
            seed=11,
        )
        workload = CoreWorkload(config)
        engine = engine_with(capacity=100)
        for operation in workload.all_operations():
            engine.apply(operation)
        engine.flush()
        assert engine.table_count >= 2
        engine.compact(MajorCompaction("SO", hll_precision=10))
        assert engine.table_count == 1
        # every loaded key that was never deleted must be readable
        assert engine.get(0) is not None

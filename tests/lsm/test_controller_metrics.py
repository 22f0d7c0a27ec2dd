"""Tests for the compaction controller and amplification metrics."""

import pytest

from repro.errors import ConfigError
from repro.lsm import (
    CompactionController,
    EngineConfig,
    LSMEngine,
    MajorCompaction,
    SizeTieredCompaction,
    SSTable,
    measure_amplification,
)
from repro.ycsb import CoreWorkload, WorkloadConfig


def fresh_engine(capacity=50):
    return LSMEngine(EngineConfig(memtable_capacity=capacity, use_wal=False))


class TestController:
    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            CompactionController(fresh_engine(), table_threshold=1)

    def test_no_compaction_below_threshold(self):
        engine = fresh_engine(capacity=10)
        controller = CompactionController(engine, table_threshold=4)
        for i in range(25):  # 2 flushes only
            engine.put(i)
        assert controller.maybe_compact() is None
        assert controller.stats.compactions == 0

    def test_compacts_at_threshold(self):
        engine = fresh_engine(capacity=10)
        controller = CompactionController(engine, table_threshold=4)
        for i in range(45):
            engine.put(i)
            controller.maybe_compact()
        assert controller.stats.compactions >= 1
        assert engine.table_count < 4

    def test_run_drives_workload_with_background_compaction(self):
        config = WorkloadConfig(
            recordcount=300,
            operationcount=900,
            update_proportion=0.7,
            insert_proportion=0.3,
            distribution="zipfian",
            seed=2,
        )
        workload = CoreWorkload(config)
        engine = fresh_engine(capacity=50)
        controller = CompactionController(
            engine,
            strategy_factory=lambda: MajorCompaction("SI"),
            table_threshold=5,
        )
        stats = controller.run(workload.all_operations())
        assert stats.compactions >= 2
        assert stats.total_cost_actual > 0
        assert engine.table_count <= 5
        # data is intact after all those compactions
        assert engine.get(0) is not None

    def test_custom_strategy_factory(self):
        engine = fresh_engine(capacity=10)
        controller = CompactionController(
            engine,
            strategy_factory=lambda: SizeTieredCompaction(min_threshold=2),
            table_threshold=3,
        )
        for i in range(60):
            engine.put(i)
            controller.maybe_compact()
        assert controller.history
        assert all("size_tiered" in r.strategy_name for r in controller.history)

    def test_history_matches_stats(self):
        engine = fresh_engine(capacity=10)
        controller = CompactionController(engine, table_threshold=3)
        for i in range(80):
            engine.put(i)
            controller.maybe_compact()
        assert controller.stats.compactions == len(controller.history)
        assert controller.stats.total_cost_actual == sum(
            r.cost_actual_entries for r in controller.history
        )


class TestAmplification:
    def test_write_amplification_grows_with_compaction(self):
        engine = fresh_engine(capacity=20)
        for i in range(100):
            engine.put(i % 40, value_size=100)
        engine.flush()
        before = measure_amplification(engine)
        engine.compact(MajorCompaction("SI"))
        after = measure_amplification(engine)
        assert after.write_amplification > before.write_amplification
        assert after.user_bytes_written == before.user_bytes_written

    def test_space_amplification_drops_after_compaction(self):
        engine = fresh_engine(capacity=20)
        for _ in range(5):
            for key in range(40):
                engine.put(key, value_size=10)
        engine.flush()
        before = measure_amplification(engine)
        engine.compact(MajorCompaction("BT(I)"))
        after = measure_amplification(engine)
        assert before.space_amplification > 1.0
        assert after.space_amplification == pytest.approx(1.0)
        assert after.live_keys == 40

    def test_tombstones_not_counted_live(self):
        engine = fresh_engine(capacity=10)
        for key in range(8):
            engine.put(key)
        engine.delete(3)
        engine.flush()
        report = measure_amplification(engine)
        assert report.live_keys == 7

    def test_space_amp_leaves_column_tables_unmaterialized(self):
        # A record-backed table holds 0-4 and a tombstone for 5; a newer
        # column-backed one holds 4-9 with a tombstone for 8, so its 5
        # outlives the deletion and 8 is the only dead key.
        engine = fresh_engine(capacity=10)
        for key in range(6):
            engine.put(key)
        engine.delete(5)
        engine.flush()
        column_table = SSTable.from_columns(
            99, range(4, 10), range(100, 106), 10, [k == 8 for k in range(4, 10)]
        )
        engine.sstables.append(column_table)
        report = measure_amplification(engine)
        assert report.live_keys == 9
        assert report.entries_on_disk == 6 + 6
        assert "records" not in vars(column_table)

    def test_read_amplification_tracks_engine_stats(self):
        engine = fresh_engine(capacity=5)
        for i in range(20):
            engine.put(i)
        engine.flush()
        for i in range(20):
            engine.get(i)
        report = measure_amplification(engine)
        assert report.reads == 20
        assert report.read_amplification == engine.read_stats.tables_probed_per_read

    def test_empty_engine(self):
        report = measure_amplification(fresh_engine())
        assert report.write_amplification == 0.0
        assert report.space_amplification == 0.0

    def test_summary_text(self):
        engine = fresh_engine(capacity=5)
        engine.put(1)
        engine.flush()
        text = measure_amplification(engine).summary()
        assert "WA=" in text and "SA=" in text

"""The flush queue's settings vs the stop-the-world engine, differentially.

The contract (docs/concurrency.md, part 2): after a drain, an engine
with a queue bound and flush workers has sstables, disk accounting,
files and read counters byte-identical to the inline bound-0 engine on
the same storage, for any worker count and queue bound.  Mid-flight
reads are value-identical (a frozen record is served from memory
instead of disk), which these tests check separately.
"""

import threading

import pytest

from repro.errors import ConfigError, StorageError
from repro.lsm import (
    CompactionController,
    EngineConfig,
    FlushPipeline,
    LSMEngine,
    MajorCompaction,
    MemoryFileSystem,
    SizeTieredCompaction,
    resolve_flush_workers,
)


def _workload(n=600, keyspace=97):
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


def _serial_engine(mode="append", capacity=32):
    return LSMEngine(
        EngineConfig(memtable_capacity=capacity, memtable_mode=mode)
    )


def _pipelined_engine(mode="append", capacity=32, workers=2, max_imm=2):
    return LSMEngine(
        EngineConfig(memtable_capacity=capacity, memtable_mode=mode),
        max_immutable_memtables=max_imm,
        flush_workers=workers,
    )


def _assert_tables_identical(serial, pipelined):
    assert [t.table_id for t in serial.sstables] == [
        t.table_id for t in pipelined.sstables
    ]
    for a, b in zip(serial.sstables, pipelined.sstables):
        assert a.records == b.records
        assert a.size_bytes == b.size_bytes


def _files(fs):
    return {name: fs.read_bytes(name) for name in fs.listdir()}


class TestDifferential:
    @pytest.mark.parametrize("mode", ["append", "map"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("max_imm", [1, 2, 5])
    def test_byte_identical_after_drain(self, mode, workers, max_imm):
        ops = _workload()
        serial = _serial_engine(mode)
        _apply(serial, ops)
        serial.flush()
        with _pipelined_engine(mode, workers=workers, max_imm=max_imm) as piped:
            _apply(piped, ops)
            piped.flush()
            _assert_tables_identical(serial, piped)
            assert serial.disk.stats == piped.disk.stats
            assert serial.flush_count == piped.flush_count

    @pytest.mark.parametrize("on_files", [False, True])
    @pytest.mark.parametrize("workers", [0, 1, 3])
    def test_every_storage_and_worker_count_matches_inline(self, on_files, workers):
        """The 2x2 (and the filesystem x threads cell nothing else covers)."""
        ops = _workload()
        config = EngineConfig(memtable_capacity=32, memtable_mode="append")
        engines = []
        for bound, count in ((0, 0), (2, workers)):
            fs = MemoryFileSystem() if on_files else None
            engine = LSMEngine(
                config, fs=fs, max_immutable_memtables=bound, flush_workers=count
            )
            with engine:
                _apply(engine, ops)
                engine.drain()
                engines.append((engine, fs))
        (serial, serial_fs), (piped, piped_fs) = engines
        _assert_tables_identical(serial, piped)
        assert serial.disk.stats == piped.disk.stats
        assert serial.flush_count == piped.flush_count
        if on_files:  # .sst and MANIFEST bytes, logs, directory listing
            assert _files(serial_fs) == _files(piped_fs)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_read_counters_identical_after_drain(self, workers):
        ops = _workload()
        serial = _serial_engine()
        _apply(serial, ops)
        serial.flush()
        with _pipelined_engine(workers=workers) as piped:
            _apply(piped, ops)
            piped.flush()
            for key in range(0, 97, 5):
                assert serial.get(key) == piped.get(key)
                assert serial.scan(key, 7) == piped.scan(key, 7)
            assert serial.read_stats == piped.read_stats
            assert serial.disk.stats == piped.disk.stats

    def test_compact_serial_identical(self):
        ops = _workload()
        serial = _serial_engine()
        _apply(serial, ops)
        serial.flush()
        serial_result = serial.compact(MajorCompaction("balance_tree_input"))
        with _pipelined_engine(workers=3) as piped:
            _apply(piped, ops)
            piped.flush()
            piped_result = piped.compact(MajorCompaction("balance_tree_input"))
            _assert_tables_identical(serial, piped)
            assert serial.disk.stats == piped.disk.stats
            assert (
                serial_result.cost_actual_entries
                == piped_result.cost_actual_entries
            )


class TestMidFlightReads:
    def test_frozen_records_visible_before_flush(self):
        with _pipelined_engine(capacity=8, max_imm=8) as engine:
            engine.pause_flushes()
            for i in range(40):
                engine.put(i, value_size=50)
            assert engine.immutable_count > 0
            # Nothing flushed yet, but every acknowledged write reads back.
            for i in range(40):
                record = engine.get(i)
                assert record is not None and record.value_size == 50
            assert engine.scan(0, 40) == [engine.get(i) for i in range(40)]
            engine.resume_flushes()
            engine.drain()
            for i in range(40):
                assert engine.get(i).value_size == 50

    def test_newest_version_wins_across_active_and_immutable(self):
        with _pipelined_engine(capacity=4, max_imm=8) as engine:
            engine.pause_flushes()
            for version in (1, 2, 3):
                for key in range(4):
                    engine.put(key, value_size=version)
            for key in range(4):
                assert engine.get(key).value_size == 3
            engine.resume_flushes()

    def test_wal_survivors_cover_frozen_queue(self):
        config = EngineConfig(memtable_capacity=4, use_wal=True)
        with LSMEngine(
            config, max_immutable_memtables=8, flush_workers=2
        ) as engine:
            engine.pause_flushes()
            for i in range(14):
                engine.put(i, value_size=60)
            recovered = engine.simulate_crash_and_recover()
            for i in range(14):
                assert recovered.get(i) is not None, f"lost acked key {i}"
            engine.resume_flushes()


class TestCrashKeepsComposition:
    def test_recovered_engine_keeps_queue_settings_and_stops_old_workers(self):
        threads_before = threading.active_count()
        config = EngineConfig(memtable_capacity=4, use_wal=True)
        engine = LSMEngine(config, max_immutable_memtables=8, flush_workers=2)
        engine.pause_flushes()
        for i in range(14):
            engine.put(i, value_size=60)
        recovered = engine.simulate_crash_and_recover()
        # A crash flushes nothing, and the dead engine's workers are gone.
        assert engine.flush_count == 0 and engine.immutable_count == 3
        assert threading.active_count() == threads_before + 2
        assert recovered.max_immutable_memtables == 8
        assert recovered.flush_workers == 2
        for i in range(14):
            assert recovered.get(i) is not None, f"lost acked key {i}"
        recovered.close()
        assert threading.active_count() == threads_before


class TestBackpressure:
    def test_stalls_counted_when_queue_full(self):
        with _pipelined_engine(capacity=4, workers=1, max_imm=1) as engine:
            for i in range(200):
                engine.put(i, value_size=50)
            engine.flush()
            metrics = engine.pipeline_metrics()
            assert metrics.write_stall_count > 0
            assert metrics.write_stall_seconds >= 0.0
            assert metrics.freezes == metrics.flushes
            # Backpressure never dropped a write.
            for i in range(200):
                assert engine.get(i) is not None

    def test_metrics_overlap_bounded(self):
        with _pipelined_engine(capacity=8, workers=2) as engine:
            for i in range(300):
                engine.put(i % 50, value_size=40)
            engine.flush()
            metrics = engine.pipeline_metrics()
            assert 0.0 <= metrics.flush_overlap_fraction <= 1.0
            assert metrics.ingest_wall_seconds > 0.0


class TestBackgroundCompaction:
    def test_compact_async_value_equivalent(self):
        ops = _workload(400)
        serial = _serial_engine()
        _apply(serial, ops)
        serial.flush()
        serial.compact(SizeTieredCompaction())
        with _pipelined_engine(workers=2) as piped:
            _apply(piped, ops)
            piped.flush()
            piped.compact_async(SizeTieredCompaction())
            piped.wait_for_compaction()
            results = piped.take_compaction_results()
            assert len(results) == 1
            serial_records = sorted(
                (r.key, r.seqno) for t in serial.sstables for r in t.records
            )
            piped_records = sorted(
                (r.key, r.seqno) for t in piped.sstables for r in t.records
            )
            assert serial_records == piped_records
            assert serial.disk.stats == piped.disk.stats

    def test_compact_async_empty_raises(self):
        with _pipelined_engine() as engine:
            with pytest.raises(StorageError):
                engine.compact_async()

    def test_controller_background_mode(self):
        with _pipelined_engine(capacity=8, workers=2) as engine:
            controller = CompactionController(
                engine, table_threshold=4, background=True
            )
            for i in range(400):
                engine.put(i % 60, value_size=45)
                controller.maybe_compact()
            engine.flush()
            controller.finish()
            assert controller.stats.compactions >= 1
            assert len(controller.history) == controller.stats.compactions
            for i in range(60):
                assert engine.get(i) is not None

    def test_controller_background_equals_foreground_on_default_engine(self):
        """Any engine compacts in the background; the default one included."""
        engines = []
        for background in (False, True):
            engine = _serial_engine(capacity=8)
            controller = CompactionController(
                engine, table_threshold=4, background=background
            )
            for i in range(400):
                engine.put(i % 60, value_size=45)
                if i % 8 == 7:
                    # Trigger on an empty memtable and join at once, so
                    # both modes compact the very same table snapshots.
                    engine.flush()
                    controller.maybe_compact()
                    controller.finish()
            engines.append((engine, controller))
        (fore, fore_ctl), (back, back_ctl) = engines
        assert fore_ctl.stats.compactions == back_ctl.stats.compactions >= 1
        assert fore_ctl.stats.total_cost_actual == back_ctl.stats.total_cost_actual
        assert fore.disk.stats == back.disk.stats
        assert sorted(
            (r.key, r.seqno) for t in fore.sstables for r in t.records
        ) == sorted((r.key, r.seqno) for t in back.sstables for r in t.records)

    def test_reopen_after_compact_async_on_files(self):
        fs = MemoryFileSystem()
        config = EngineConfig(memtable_capacity=8)
        with LSMEngine(
            config, fs=fs, max_immutable_memtables=2, flush_workers=2
        ) as engine:
            for i in range(100):
                engine.put(i % 30, value_size=i + 1)
            engine.flush()
            engine.compact_async(SizeTieredCompaction())
            engine.wait_for_compaction()
            for i in range(100, 105):  # unflushed tail: lives in wal.log only
                engine.put(i % 30, value_size=i + 1)
            expected = {key: engine.get(key).value_size for key in range(30)}
            live = [table.table_id for table in engine.sstables]
        reopened = LSMEngine(config, fs=fs)
        assert [table.table_id for table in reopened.sstables] == live
        assert {k: reopened.get(k).value_size for k in range(30)} == expected
        # Fresh background outputs never reuse a live table's file name.
        reopened.flush()
        reopened.compact_async(SizeTieredCompaction())
        reopened.wait_for_compaction()
        assert {k: LSMEngine(config, fs=fs).get(k).value_size for k in range(30)} == expected


class TestFlushPipelineCore:
    def test_publish_strictly_in_submit_order(self):
        published = []
        built = [threading.Event() for _ in range(6)]
        built[5].set()

        def build(item):
            # Item i finishes only after item i + 1 has: completion order
            # is forced to be the reverse of submit order.
            assert built[item + 1].wait(timeout=30)
            built[item].set()
            return item * 10

        with FlushPipeline(
            build=build,
            publish=lambda item, result: published.append((item, result)),
            max_pending=8,
            workers=5,
        ) as pipe:
            for i in range(5):
                pipe.submit(i)
            pipe.drain()
        assert published == [(i, i * 10) for i in range(5)]

    def test_build_error_surfaces_to_producer(self):
        def build(item):
            if item == 3:
                raise ValueError("boom at 3")
            return item

        pipe = FlushPipeline(
            build=build, publish=lambda i, r: None, max_pending=2, workers=2
        )
        with pytest.raises(ValueError, match="boom at 3"):
            for i in range(50):
                pipe.submit(i)
            pipe.drain()
        pipe.close(raise_error=False)

    def test_submit_after_close_raises(self):
        pipe = FlushPipeline(
            build=lambda i: i, publish=lambda i, r: None, workers=1
        )
        pipe.close()
        with pytest.raises(StorageError):
            pipe.submit(1)

    def test_engine_close_joins_workers(self):
        engine = _pipelined_engine(capacity=4)
        engine.put(1, value_size=10)
        engine.flush()
        engine.close()
        # The next freeze has no pipeline to submit to.
        with pytest.raises(StorageError):
            for i in range(10):
                engine.put(i, value_size=10)

    def test_unorderable_keys_error_propagates(self):
        with pytest.raises(TypeError):
            with _pipelined_engine(capacity=2, mode="map") as engine:
                engine.put(1, value_size=10)
                engine.put("a", value_size=10)  # sort fails in the worker
                engine.put(2, value_size=10)
                engine.flush()


class TestValidation:
    def test_resolve_flush_workers(self):
        assert resolve_flush_workers(3) == 3
        assert resolve_flush_workers(None) >= 1
        assert resolve_flush_workers(0) >= 1
        with pytest.raises(ConfigError):
            resolve_flush_workers(-1)

    def test_negative_queue_bound_or_workers_rejected(self):
        with pytest.raises(ConfigError, match="max_immutable_memtables"):
            LSMEngine(EngineConfig(), max_immutable_memtables=-1)
        with pytest.raises(ConfigError, match="flush_workers"):
            LSMEngine(EngineConfig(), flush_workers=-1)
        with pytest.raises(ConfigError):
            FlushPipeline(
                build=lambda i: i, publish=lambda i, r: None, max_pending=-1
            )
        with pytest.raises(ConfigError):
            FlushPipeline(
                build=lambda i: i, publish=lambda i, r: None, workers=-1
            )

    @pytest.mark.parametrize("use_wal", [True, False])
    def test_bad_wal_sync_every_names_the_field(self, use_wal):
        with pytest.raises(ConfigError, match="wal_sync_every"):
            LSMEngine.open(
                fs=MemoryFileSystem(),
                config=EngineConfig(use_wal=use_wal),
                wal_sync_every=0,
            )

    def test_bound_zero_flushes_inline(self):
        """Bound 0 / no workers is the stop-the-world engine: every
        freeze is flushed by the writer before the write proceeds."""
        engine = _serial_engine(capacity=4)
        for i in range(20):
            engine.put(i, value_size=10)
            assert engine.immutable_count == 0
        metrics = engine.pipeline_metrics()
        assert metrics.write_stall_count == metrics.flushes == 4
        assert metrics.flush_overlap_fraction == 0.0

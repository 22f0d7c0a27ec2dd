"""File storage under a queue bound: segmented WAL rotation, recovery, GC.

The active log is always ``wal.log``; every freeze seals it into one
``wal-NNNNNN.log`` segment (synced before the rename) that is
garbage-collected only after the manifest commit covers its records.
These tests pin the segment lifecycle and the recovery path with inline
flushes (no workers, so every step is deterministic); the crash sweep at
every fault point lives in test_crash_harness.py.
"""

import pytest

from repro.errors import ConfigError
from repro.lsm import EngineConfig, LSMEngine, MemoryFileSystem
from repro.lsm.storage import _segment_index, _segment_name

CONFIG = EngineConfig(memtable_capacity=4)


def _segments(fs):
    return sorted(
        (name for name in fs.listdir() if _segment_index(name) is not None),
        key=_segment_index,
    )


class TestSegmentLifecycle:
    def test_freeze_rotates_into_numbered_segments(self):
        fs = MemoryFileSystem()
        engine = LSMEngine.open(
            fs=fs, config=CONFIG, max_immutable_memtables=8
        )
        for i in range(10):  # two freezes at capacity 4, queue holds both
            engine.put(i, value_size=30)
        assert engine.immutable_count == 2
        # Two sealed segments; the active log is always wal.log.
        assert len(_segments(fs)) == 2
        assert fs.size("wal.log") > 0

    def test_flush_collects_covered_segments(self):
        fs = MemoryFileSystem()
        engine = LSMEngine.open(
            fs=fs, config=CONFIG, max_immutable_memtables=8
        )
        for i in range(10):
            engine.put(i, value_size=30)
        engine.flush()
        assert engine.immutable_count == 0
        # Everything durable in sstables; only the (empty) active log stays.
        assert _segments(fs) == []
        assert fs.size("wal.log") == 0
        assert any(name.endswith(".sst") for name in fs.listdir())

    def test_backpressure_flushes_inline_and_counts_stalls(self):
        fs = MemoryFileSystem()
        engine = LSMEngine.open(
            fs=fs, config=EngineConfig(memtable_capacity=3),
            max_immutable_memtables=1,
        )
        for i in range(40):
            engine.put(i, value_size=30)
        metrics = engine.pipeline_metrics()
        assert metrics.write_stall_count > 0
        assert metrics.write_stall_seconds >= 0.0
        assert metrics.flush_overlap_fraction == 0.0  # inline: nothing overlaps
        assert engine.immutable_count <= 1
        for i in range(40):
            assert engine.get(i) is not None

    def test_segment_names_monotonic_across_reopen(self):
        fs = MemoryFileSystem()
        engine = LSMEngine.open(
            fs=fs, config=CONFIG, max_immutable_memtables=8
        )
        for i in range(6):
            engine.put(i, value_size=30)
        first_gen = set(_segments(fs))
        assert first_gen
        engine = engine.simulate_crash_and_recover()
        for i in range(90, 99):  # enough to freeze (and rotate) again
            engine.put(i, value_size=30)
        # A rotation after the reopen never reuses an existing index.
        new_segments = set(_segments(fs)) - first_gen
        assert new_segments, "the reopened engine must have rotated"
        assert min(
            _segment_index(name) for name in new_segments
        ) > max(_segment_index(name) for name in first_gen)


class TestRecovery:
    def test_recovery_replays_active_and_frozen_segments(self):
        fs = MemoryFileSystem()
        engine = LSMEngine.open(
            fs=fs, config=CONFIG, max_immutable_memtables=8
        )
        model = {}
        for i in range(23):  # freezes in the queue + a partial active
            key = i % 9
            engine.put(key, value_size=i + 1)
            model[key] = i + 1
        assert engine.immutable_count > 0
        recovered = engine.simulate_crash_and_recover()
        for key, size in model.items():
            record = recovered.get(key)
            assert record is not None, f"lost key {key}"
            assert record.value_size == size
        assert recovered.get(1000) is None

    def test_double_reopen_stable(self):
        fs = MemoryFileSystem()
        engine = LSMEngine.open(
            fs=fs, config=CONFIG, max_immutable_memtables=8
        )
        for i in range(15):
            engine.put(i, value_size=40)
        once = engine.simulate_crash_and_recover()
        twice = once.simulate_crash_and_recover()
        for i in range(15):
            assert twice.get(i) is not None

    def test_plain_durable_store_opens_in_pipelined_engine(self):
        """The queue bound is a setting of a run, not of the store."""
        fs = MemoryFileSystem()
        plain = LSMEngine.open(fs=fs, config=CONFIG)
        for i in range(7):
            plain.put(i, value_size=25)
        upgraded = LSMEngine.open(
            fs=fs, config=CONFIG, max_immutable_memtables=4
        )
        for i in range(7):
            assert upgraded.get(i) is not None
        upgraded.put(100, value_size=25)
        upgraded.flush()
        reopened = upgraded.simulate_crash_and_recover()
        for i in list(range(7)) + [100]:
            assert reopened.get(i) is not None

    def test_deletes_survive_freeze_and_recovery(self):
        fs = MemoryFileSystem()
        engine = LSMEngine.open(
            fs=fs, config=CONFIG, max_immutable_memtables=8
        )
        for i in range(8):
            engine.put(i, value_size=30)
        engine.delete(3)
        engine.delete(7)
        recovered = engine.simulate_crash_and_recover()
        assert recovered.get(3) is None
        assert recovered.get(7) is None
        assert recovered.get(0) is not None


class TestValidation:
    def test_bad_queue_bound_rejected(self):
        with pytest.raises(ConfigError, match="max_immutable_memtables"):
            LSMEngine(CONFIG, fs=MemoryFileSystem(), max_immutable_memtables=-1)

    def test_segment_name_round_trip(self):
        assert _segment_index(_segment_name(42)) == 42
        assert _segment_index("wal.log") is None
        assert _segment_index("wal-xyz.log") is None
        assert _segment_index("000001.sst") is None

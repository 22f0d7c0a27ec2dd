"""File storage's segmented WAL: rotation, recovery, GC.

The active log is always ``wal.log``; every flush seals it into one
``wal-NNNNNN.log`` segment (synced before the rename) that is
garbage-collected only after the manifest commit covers its records.
The engine flushes inline, so a sealed segment outlives its flush only
when the process dies between the rename and the commit; these tests
kill it there and pin the segment lifecycle and the recovery path.  The
crash sweep at every fault point lives in test_crash_harness.py.
"""

from repro.lsm import CrashPoint, EngineConfig, LSMEngine, MemoryFileSystem
from repro.lsm.storage import _segment_index, _segment_name

CONFIG = EngineConfig(memtable_capacity=4)


class SegmentRecordingFileSystem(MemoryFileSystem):
    """Records every segment a rename seals; can die at one table write."""

    def __init__(self) -> None:
        super().__init__()
        self.sealed: list[str] = []
        self.die_at_next_table = False

    def rename(self, src: str, dst: str) -> None:
        super().rename(src, dst)
        if _segment_index(dst) is not None:
            self.sealed.append(dst)

    def open_write(self, name: str):
        if self.die_at_next_table and name.endswith(".sst"):
            self.die_at_next_table = False
            raise CrashPoint(f"died before writing {name}")
        return super().open_write(name)


def _segments(fs):
    return sorted(
        (name for name in fs.listdir() if _segment_index(name) is not None),
        key=_segment_index,
    )


def _die_mid_flush(fs, engine, key):
    """Arm the crash and put ``key`` into a full memtable: the flush
    seals the log, then dies before its sstable exists."""
    fs.die_at_next_table = True
    try:
        engine.put(key, value_size=30)
    except CrashPoint:
        return
    raise AssertionError("the flush did not reach a table write")


class TestSegmentLifecycle:
    def test_flush_rotates_into_numbered_segments(self):
        fs = SegmentRecordingFileSystem()
        engine = LSMEngine.open(fs=fs, config=CONFIG)
        for i in range(10):  # two flushes at capacity 4
            engine.put(i, value_size=30)
        assert fs.sealed == [_segment_name(0), _segment_name(1)]
        # Each commit collected the segment its table covers; the two
        # unflushed records are in the active log.
        assert _segments(fs) == []
        assert fs.size("wal.log") > 0

    def test_flush_collects_covered_segments(self):
        fs = MemoryFileSystem()
        engine = LSMEngine.open(fs=fs, config=CONFIG)
        for i in range(10):
            engine.put(i, value_size=30)
        engine.flush()
        # Everything durable in sstables; only the (empty) active log stays.
        assert _segments(fs) == []
        assert fs.size("wal.log") == 0
        assert any(name.endswith(".sst") for name in fs.listdir())

    def test_crash_between_rotate_and_commit_leaves_a_sealed_segment(self):
        fs = SegmentRecordingFileSystem()
        engine = LSMEngine.open(fs=fs, config=CONFIG)
        for i in range(4):
            engine.put(i, value_size=30)
        _die_mid_flush(fs, engine, 4)
        assert _segments(fs) == [_segment_name(0)]
        assert not any(name.endswith(".sst") for name in fs.listdir())
        recovered = LSMEngine.open(fs=fs, config=CONFIG)
        assert [recovered.get(i) is not None for i in range(5)] == [True] * 4 + [False]
        # The next flush's commit covers the replayed segment and collects it.
        recovered.put(5, value_size=30)
        assert _segments(fs) == []

    def test_segment_names_monotonic_across_reopen(self):
        fs = SegmentRecordingFileSystem()
        engine = LSMEngine.open(fs=fs, config=CONFIG)
        for i in range(4):
            engine.put(i, value_size=30)
        _die_mid_flush(fs, engine, 4)
        first_gen = set(_segments(fs))
        assert first_gen
        engine = LSMEngine.open(fs=fs, config=CONFIG)
        sealed_before = len(fs.sealed)
        for i in range(90, 99):  # enough to flush (and rotate) again
            engine.put(i, value_size=30)
        # A rotation after the reopen never reuses an existing index.
        new_segments = fs.sealed[sealed_before:]
        assert new_segments, "the reopened engine must have rotated"
        assert min(
            _segment_index(name) for name in new_segments
        ) > max(_segment_index(name) for name in first_gen)


class TestRecovery:
    def test_recovery_replays_active_and_sealed_segments(self):
        fs = SegmentRecordingFileSystem()
        engine = LSMEngine.open(fs=fs, config=CONFIG)
        model = {}
        for i in range(16):  # three flushes, then a full memtable
            engine.put(i % 9, value_size=i + 1)
            model[i % 9] = i + 1
        _die_mid_flush(fs, engine, 99)
        # A larger memtable holds the replayed segment without flushing,
        # so new writes land in the active log beside the sealed segment.
        roomy = EngineConfig(memtable_capacity=16)
        engine = LSMEngine.open(fs=fs, config=roomy)
        for i in range(16, 19):
            engine.put(i % 9, value_size=i + 1)
            model[i % 9] = i + 1
        assert _segments(fs) and fs.size("wal.log") > 0
        recovered = engine.simulate_crash_and_recover()
        for key, size in model.items():
            record = recovered.get(key)
            assert record is not None, f"lost key {key}"
            assert record.value_size == size
        assert recovered.get(99) is None
        assert recovered.get(1000) is None

    def test_double_reopen_stable(self):
        fs = MemoryFileSystem()
        engine = LSMEngine.open(fs=fs, config=CONFIG)
        for i in range(15):
            engine.put(i, value_size=40)
        once = engine.simulate_crash_and_recover()
        twice = once.simulate_crash_and_recover()
        for i in range(15):
            assert twice.get(i) is not None

    def test_deletes_survive_flush_and_recovery(self):
        fs = MemoryFileSystem()
        engine = LSMEngine.open(fs=fs, config=CONFIG)
        for i in range(8):
            engine.put(i, value_size=30)
        engine.delete(3)
        engine.delete(7)
        recovered = engine.simulate_crash_and_recover()
        assert recovered.get(3) is None
        assert recovered.get(7) is None
        assert recovered.get(0) is not None


def test_segment_name_round_trip():
    assert _segment_index(_segment_name(42)) == 42
    assert _segment_index("wal.log") is None
    assert _segment_index("wal-xyz.log") is None
    assert _segment_index("000001.sst") is None

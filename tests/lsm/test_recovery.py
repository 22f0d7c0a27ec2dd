"""Crash-recovery tests: WAL replay restores exactly the pre-crash state."""

import dataclasses

import pytest

from repro.errors import CorruptionError
from repro.lsm import EngineConfig, LSMEngine, MajorCompaction, Record


def engine_with(capacity=10, use_wal=True, mode="map"):
    return LSMEngine(
        EngineConfig(memtable_capacity=capacity, use_wal=use_wal, memtable_mode=mode)
    )


class TestWalRecovery:
    def test_unflushed_writes_survive(self):
        engine = engine_with()
        engine.put("durable", value=b"on-disk")
        engine.flush()
        engine.put("volatile", value=b"in-memtable")
        recovered = engine.simulate_crash_and_recover()
        assert recovered.get("durable").value == b"on-disk"
        assert recovered.get("volatile").value == b"in-memtable"

    def test_without_wal_unflushed_writes_are_lost(self):
        engine = engine_with(use_wal=False)
        engine.put("durable")
        engine.flush()
        engine.put("volatile")
        recovered = engine.simulate_crash_and_recover()
        assert recovered.get("durable") is not None
        assert recovered.get("volatile") is None

    def test_tombstones_survive_recovery(self):
        engine = engine_with()
        engine.put("k", value=b"v")
        engine.flush()
        engine.delete("k")
        recovered = engine.simulate_crash_and_recover()
        assert recovered.get("k") is None

    def test_seqno_continuity(self):
        """Post-recovery writes must supersede every pre-crash write."""
        engine = engine_with()
        engine.put("k", value=b"before")
        recovered = engine.simulate_crash_and_recover()
        recovered.put("k", value=b"after")
        assert recovered.get("k").value == b"after"
        recovered.flush()
        assert recovered.get("k").value == b"after"

    def test_double_crash_is_safe(self):
        """Replayed records re-enter the WAL, protecting a second crash."""
        engine = engine_with()
        engine.put("k", value=b"v")
        once = engine.simulate_crash_and_recover()
        twice = once.simulate_crash_and_recover()
        assert twice.get("k").value == b"v"

    def test_state_identical_after_recovery(self):
        engine = engine_with(capacity=5)
        for i in range(23):
            engine.put(i, value_size=10)
        engine.delete(7)
        expected = {i: engine.get(i) is not None for i in range(23)}
        recovered = engine.simulate_crash_and_recover()
        actual = {i: recovered.get(i) is not None for i in range(23)}
        assert actual == expected
        assert not expected[7]

    def test_recovery_after_compaction(self):
        engine = engine_with(capacity=4)
        for i in range(12):
            engine.put(i)
        engine.compact(MajorCompaction("SI"))
        engine.put("fresh")
        recovered = engine.simulate_crash_and_recover()
        assert recovered.table_count == 1
        assert recovered.get("fresh") is not None
        assert recovered.get(3) is not None

    def test_append_mode_recovery(self):
        engine = engine_with(capacity=6, mode="append")
        for i in range(4):
            engine.put("hot", value_size=i + 1)
        recovered = engine.simulate_crash_and_recover()
        assert recovered.get("hot").value_size == 4


class TestRecoveryAccounting:
    """Recovery re-reads durable state; it must never re-bill it."""

    def test_io_stats_pinned_across_crash_and_recover(self):
        """Regression: replaying survivors through ``wal.append`` used to
        re-charge the shared SimulatedDisk for bytes that were already
        durable, inflating write totals on every crash/recover cycle."""
        engine = engine_with(capacity=10)
        for i in range(7):
            engine.put(i, value_size=50)
        before = dataclasses.asdict(engine.disk.stats)
        recovered = engine.simulate_crash_and_recover()
        assert dataclasses.asdict(recovered.disk.stats) == before

    def test_bytes_appended_total_not_inflated(self):
        engine = engine_with(capacity=10)
        for i in range(5):
            engine.put(i, value_size=50)
        appended = engine.wal.bytes_appended_total
        recovered = engine.simulate_crash_and_recover()
        # The recovered log holds the same records but bills nothing new.
        assert len(recovered.wal) == len(engine.wal)
        assert recovered.wal.bytes_appended_total == 0
        assert engine.wal.bytes_appended_total == appended

    def test_repeated_recovery_is_io_free(self):
        engine = engine_with(capacity=10)
        engine.put("k", value_size=10)
        for _ in range(5):
            engine = engine.simulate_crash_and_recover()
        assert engine.wal.bytes_appended_total == 0
        assert engine.get("k") is not None


class TestMidReplayFlush:
    """Recovery under a smaller memtable flushes mid-replay; the records
    not yet replayed must remain recoverable through a second crash."""

    def shrunk(self):
        return EngineConfig(memtable_capacity=2, memtable_mode="map")

    def test_recovery_with_smaller_capacity_flushes_mid_replay(self):
        engine = engine_with(capacity=10)
        for i in range(7):
            engine.put(i, value_size=i + 1)
        recovered = engine.simulate_crash_and_recover(config=self.shrunk())
        assert recovered.flush_count >= 1  # replay had to spill
        for i in range(7):
            assert recovered.get(i).value_size == i + 1

    def test_second_crash_mid_replay_loses_nothing(self):
        """Regression: the mid-replay flush truncates the WAL; survivors
        not yet replayed used to exist nowhere, so a second crash
        silently dropped them."""
        engine = engine_with(capacity=10)
        for i in range(7):
            engine.put(i, value_size=i + 1)
        once = engine.simulate_crash_and_recover(config=self.shrunk())
        twice = once.simulate_crash_and_recover(config=self.shrunk())
        for i in range(7):
            record = twice.get(i)
            assert record is not None, f"second crash dropped key {i}"
            assert record.value_size == i + 1

    def test_wal_matches_memtable_after_mid_replay_flush(self):
        engine = engine_with(capacity=10)
        for i in range(7):
            engine.put(i)
        recovered = engine.simulate_crash_and_recover(config=self.shrunk())
        # The log the replay came from was sealed by the mid-replay
        # flush; what the logs would replay *now* (records newer than
        # the last commit) is exactly what sits unflushed in memory.
        *_, replayed = recovered.storage.recover()
        view, _ = recovered.memtable.records_from(0)
        assert replayed == [view.record_at(row) for row in range(len(view.keys))]


class TestWalReplayValidation:
    def test_out_of_order_seqnos_rejected(self):
        engine = engine_with()
        engine.wal.append(Record.put(0, 5))
        engine.wal.append(Record.put(1, 3))
        with pytest.raises(CorruptionError):
            engine.wal.replay()

    def test_duplicate_seqnos_rejected(self):
        engine = engine_with()
        engine.wal.append(Record.put(0, 5))
        engine.wal.append(Record.put(1, 5))
        with pytest.raises(CorruptionError):
            engine.wal.replay()

"""Tests for the simulated disk, timing model and WAL."""

import pytest

from repro.errors import ConfigError
from repro.lsm import DiskTimingModel, IoStats, Record, SimulatedDisk, WriteAheadLog


class TestTimingModel:
    def test_transfer_seconds(self):
        model = DiskTimingModel(bandwidth_bytes_per_sec=100.0, seek_seconds=1.0)
        assert model.transfer_seconds(50) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ConfigError):
            DiskTimingModel(bandwidth_bytes_per_sec=0)
        with pytest.raises(ConfigError):
            DiskTimingModel(seek_seconds=-1)


class TestSimulatedDisk:
    def test_accounting(self):
        disk = SimulatedDisk()
        disk.read(100)
        disk.read(50)
        disk.write(200)
        assert disk.stats.bytes_read == 150
        assert disk.stats.bytes_written == 200
        assert disk.stats.bytes_total == 350
        assert disk.stats.read_ops == 2
        assert disk.stats.write_ops == 1

    def test_durations_follow_model(self):
        disk = SimulatedDisk(DiskTimingModel(bandwidth_bytes_per_sec=1000.0, seek_seconds=0.5))
        assert disk.read(500) == pytest.approx(1.0)
        assert disk.write(1000) == pytest.approx(1.5)

    def test_negative_io_rejected(self):
        disk = SimulatedDisk()
        with pytest.raises(ConfigError):
            disk.read(-1)
        with pytest.raises(ConfigError):
            disk.write(-1)
        with pytest.raises(ConfigError):
            disk.read_many(-1, 0)
        with pytest.raises(ConfigError):
            disk.read_many(1, -1)
        assert disk.stats == IoStats()

    @pytest.mark.parametrize("sizes", ([], [0], [117], [117, 17, 300, 64]))
    def test_read_many_equals_single_reads(self, sizes):
        single, bulk = SimulatedDisk(), SimulatedDisk()
        single.write(9)
        bulk.write(9)
        for size in sizes:
            single.read(size)
        bulk.read_many(len(sizes), sum(sizes))
        assert bulk.stats == single.stats  # all four counters

    def test_snapshot_delta(self):
        disk = SimulatedDisk()
        disk.write(10)
        before = disk.stats.snapshot()
        disk.write(25)
        delta = disk.stats.delta(before)
        assert delta.bytes_written == 25
        assert delta.write_ops == 1

    def test_stats_add(self):
        total = IoStats()
        total.add(IoStats(bytes_read=5, bytes_written=7, read_ops=1, write_ops=2))
        assert total.bytes_total == 12


class TestWal:
    def test_append_and_replay(self):
        wal = WriteAheadLog()
        wal.append(Record.put("a", 1, value_size=10))
        wal.append(Record.delete("a", 2))
        assert len(wal) == 2
        assert [r.seqno for r in wal.replay()] == [1, 2]

    def test_disk_accounting(self):
        disk = SimulatedDisk()
        wal = WriteAheadLog(disk)
        record = Record.put("a", 1, value_size=100)
        wal.append(record)
        assert disk.stats.bytes_written == record.size_bytes

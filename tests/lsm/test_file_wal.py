"""Tests for the file-backed write-ahead log: framing, torn tails, replay."""

import random

import pytest

from repro.errors import CorruptionError
from repro.lsm import LocalFileSystem, MemoryFileSystem, Record, SimulatedDisk
from repro.lsm.format.checksum import frame_block, read_block
from repro.lsm.format.encoding import encode_record
from repro.lsm.format.wal import WAL_NAME, FileWriteAheadLog
from tests.helpers import crc_valid_mutation


def records(n, start_seqno=1):
    return [Record.put(i, start_seqno + i, value_size=10) for i in range(n)]


class TestFileWal:
    def test_append_replay_round_trip(self):
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs)
        for record in records(5):
            wal.append(record)
        assert len(wal) == 5
        assert not wal.is_empty
        assert wal.replay() == records(5)

    def test_replay_survives_reopen(self):
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs)
        for record in records(3):
            wal.append(record)
        wal.close()
        assert FileWriteAheadLog(fs).replay() == records(3)

    def test_bills_frame_bytes_to_the_disk(self):
        disk = SimulatedDisk()
        wal = FileWriteAheadLog(MemoryFileSystem(), disk=disk)
        for record in records(4):
            wal.append(record)
        assert disk.stats.bytes_written == wal.bytes_appended_total > 0

    def test_sync_every_batches_syncs(self):
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs, sync_every=3)
        synced = []
        original = wal._file.sync
        wal._file.sync = lambda: synced.append(True) or original()
        for record in records(7):
            wal.append(record)
        assert len(synced) == 2  # after records 3 and 6

    def test_sync_every_must_be_positive(self):
        with pytest.raises(ValueError):
            FileWriteAheadLog(MemoryFileSystem(), sync_every=0)

    def test_local_filesystem_round_trip(self, tmp_path):
        fs = LocalFileSystem(tmp_path)
        wal = FileWriteAheadLog(fs)
        for record in records(3):
            wal.append(record)
        wal.close()
        assert FileWriteAheadLog(LocalFileSystem(tmp_path)).replay() == records(3)


class TestTornTail:
    def tear(self, drop_bytes):
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs)
        for record in records(5):
            wal.append(record)
        wal.close()
        fs.truncate(WAL_NAME, fs.size(WAL_NAME) - drop_bytes)
        return fs

    @pytest.mark.parametrize("drop_bytes", [1, 3, 8, 12])
    def test_partial_final_frame_is_dropped(self, drop_bytes):
        fs = self.tear(drop_bytes)
        wal = FileWriteAheadLog(fs)
        assert wal.replay() == records(4)

    def test_open_physically_repairs_the_tail(self):
        fs = self.tear(2)
        before = fs.size(WAL_NAME)
        wal = FileWriteAheadLog(fs)
        assert fs.size(WAL_NAME) < before  # torn bytes truncated away
        wal.append(Record.put(99, 100))
        assert [r.seqno for r in wal.replay()] == [1, 2, 3, 4, 100]

    def test_corrupt_final_frame_payload_degrades_gracefully(self):
        """A bad CRC on the *final* frame is treated as a torn append:
        the record is dropped, the log survives."""
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs)
        for record in records(3):
            wal.append(record)
        wal.close()
        fs.flip_bit(WAL_NAME, fs.size(WAL_NAME) - 1)
        assert FileWriteAheadLog(fs).replay() == records(2)

    def test_whole_log_torn_to_one_partial_frame(self):
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs)
        wal.append(Record.put(0, 1))
        wal.close()
        fs.truncate(WAL_NAME, 3)
        assert FileWriteAheadLog(fs).replay() == []


class TestWalCorruption:
    def test_mid_log_bit_flip_is_corruption(self):
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs)
        for record in records(4):
            wal.append(record)
        wal.close()
        fs.flip_bit(WAL_NAME, 12)  # inside the first frame, not the tail
        with pytest.raises(CorruptionError):
            FileWriteAheadLog(fs)

    @pytest.mark.parametrize("frame", [0, 2, 3])
    @pytest.mark.parametrize("byte", [1, 2, 3])
    def test_length_flip_running_past_the_end_is_corruption(self, frame, byte):
        """A flip in a length field's high bytes makes a whole frame
        claim to run past EOF, like a torn one; its CRC still matches a
        prefix of what follows, so it is corruption, even as the final
        frame: nothing synced is dropped."""
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs)
        for record in records(4):
            wal.append(record)
        wal.close()
        frame_bytes = fs.size(WAL_NAME) // 4
        fs.flip_bit(WAL_NAME, frame * frame_bytes + byte, 7)
        with pytest.raises(CorruptionError):
            FileWriteAheadLog(fs)

    def test_out_of_order_seqnos_rejected_loudly(self):
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs)
        wal.append(Record.put(0, 5))
        wal.append(Record.put(1, 3))  # seqno goes backwards
        with pytest.raises(CorruptionError):
            wal.replay()

    def test_duplicate_seqnos_rejected_loudly(self):
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs)
        wal.append(Record.put(0, 5))
        wal.append(Record.put(1, 5))
        with pytest.raises(CorruptionError):
            wal.replay()


def written_log(data: bytes) -> MemoryFileSystem:
    fs = MemoryFileSystem()
    file = fs.open_write(WAL_NAME)
    file.append(data)
    file.close()
    return fs


class TestCrcValidHostileFrames:
    """A frame that passes its CRC but does not decode is corruption,
    never a decoder's own exception."""

    def test_seeded_mutations_raise_only_corruption(self):
        fs = MemoryFileSystem()
        wal = FileWriteAheadLog(fs)
        for seqno in range(1, 41):
            if seqno % 2:
                wal.append(Record.put(f"é{seqno}", seqno, value=b"x" * (seqno % 4)))
            else:
                wal.append(Record.put(seqno, seqno, value_size=seqno))
        wal.close()
        log = fs.read_bytes(WAL_NAME)
        frames, offset = [], 0
        while offset < len(log):
            _payload, end = read_block(log, offset)
            frames.append((offset, offset + 8, end))
            offset = end
        rng = random.Random(5)
        rejected = 0
        for _ in range(600):
            mutated = crc_valid_mutation(rng, log, rng.choice(frames))
            try:
                FileWriteAheadLog(written_log(mutated))
            except CorruptionError:
                rejected += 1
        assert rejected > 100  # the mutations reach the decoder's checks

    def test_str_key_not_utf8_is_corruption(self):
        good = frame_block(encode_record(Record.put("ab", 1)))
        payload = bytearray(encode_record(Record.put("ab", 2)))
        payload[3] = 0xFF  # flags, tag, length, then the key's first byte
        fs = written_log(good + frame_block(bytes(payload)))
        with pytest.raises(
            CorruptionError,
            match=f"^WAL frame at offset {len(good)}: str key is not valid UTF-8",
        ):
            FileWriteAheadLog(fs)

"""Tests for the on-disk formats: checksums, encoding, sstables, manifest."""

import struct

import numpy as np
import pytest

from repro.errors import CorruptionError, StorageError
from repro.lsm import MemoryFileSystem, Record, SSTable
from repro.lsm.format import decode_sstable, encode_sstable
from repro.lsm.format.checksum import crc32c, frame_block, read_block
from repro.lsm.format.encoding import (
    decode_key,
    decode_record,
    decode_varint,
    decode_zigzag,
    encode_key,
    encode_record,
    encode_varint,
    encode_zigzag,
)
from repro.lsm.format.manifest import (
    MANIFEST_NAME,
    ManifestState,
    read_manifest,
    write_manifest,
)


class TestCrc32c:
    def test_known_vectors(self):
        # The canonical CRC32C check value plus edge cases.
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"") == 0
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_incremental_equals_whole(self):
        data = bytes(range(200))
        assert crc32c(data[100:], crc32c(data[:100])) == crc32c(data)

    def test_frame_round_trip(self):
        payload = b"hello blocks"
        framed = frame_block(payload)
        assert read_block(framed, 0) == (payload, len(framed))

    def test_frame_rejects_flipped_bit(self):
        framed = bytearray(frame_block(b"payload"))
        framed[10] ^= 0x04
        assert read_block(bytes(framed), 0) is None

    def test_frame_rejects_truncation(self):
        framed = frame_block(b"payload")
        assert read_block(framed[:-1], 0) is None
        assert read_block(framed[:5], 0) is None


class TestEncoding:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**35, 2**64])
    def test_varint_round_trip(self, value):
        assert decode_varint(encode_varint(value), 0) == (
            value,
            len(encode_varint(value)),
        )

    def test_varint_rejects_negative(self):
        with pytest.raises(StorageError):
            encode_varint(-1)

    def test_varint_truncation_is_corruption(self):
        with pytest.raises(CorruptionError):
            decode_varint(encode_varint(300)[:1], 0)

    @pytest.mark.parametrize("value", [0, 1, -1, 63, -64, 2**40, -(2**40)])
    def test_zigzag_round_trip(self, value):
        assert decode_zigzag(encode_zigzag(value), 0)[0] == value

    @pytest.mark.parametrize("key", [0, -17, 2**62, "a-key", "", b"\x00raw", b""])
    def test_key_round_trip(self, key):
        encoded = encode_key(key)
        decoded, end = decode_key(encoded, 0)
        assert decoded == key and type(decoded) is type(key)
        assert end == len(encoded)

    def test_unsupported_key_type_rejected(self):
        with pytest.raises(StorageError):
            encode_key(3.14)
        with pytest.raises(StorageError):
            encode_key(True)  # bool must not sneak through as int

    def test_unknown_key_tag_is_corruption(self):
        with pytest.raises(CorruptionError):
            decode_key(b"\x09abc", 0)

    @pytest.mark.parametrize(
        "record",
        [
            Record.put(5, 1, value_size=100),
            Record.put("key", 2, value=b"payload"),
            Record.delete(-3, 7),
            Record.put(b"bk", 9, value=b""),
        ],
    )
    def test_record_round_trip(self, record):
        encoded = encode_record(record)
        decoded, end = decode_record(encoded, 0)
        assert decoded == record
        assert end == len(encoded)

    def test_unknown_record_flags_are_corruption(self):
        with pytest.raises(CorruptionError):
            decode_record(b"\x80" + encode_key(1), 0)


def table_with_accelerators():
    records = [
        Record.put(1, 5, value=b"hello"),
        Record.delete(7, 9),
        Record.put(100, 2, value_size=64),
    ]
    table = SSTable(3, records, bloom_fp_rate=0.02)
    table.sketch()  # default precision/seed
    table.sketch(precision=10, seed=4)
    return table, records


class TestSSTableRoundTrip:
    def test_byte_identical_round_trip(self):
        table, _records = table_with_accelerators()
        data = encode_sstable(table)
        assert encode_sstable(decode_sstable(data)) == data

    def test_records_survive(self):
        table, records = table_with_accelerators()
        loaded = decode_sstable(encode_sstable(table))
        assert list(loaded.records) == records
        assert loaded.table_id == 3
        assert loaded.get(1).value == b"hello"
        assert loaded.get(7).tombstone

    def test_bloom_adopted_not_rebuilt(self):
        table, _records = table_with_accelerators()
        loaded = decode_sstable(encode_sstable(table))
        # The bloom arrives pre-built from the footer (identical bits,
        # no lazy construction on first use).
        assert "bloom" in loaded.__dict__
        assert loaded.bloom._bits == table.bloom._bits
        assert loaded.bloom.k_hashes == table.bloom.k_hashes
        assert len(loaded.bloom) == len(table.bloom)

    def test_sketches_survive_losslessly(self):
        table, _records = table_with_accelerators()
        loaded = decode_sstable(encode_sstable(table))
        assert set(loaded.cached_sketch_keys) == set(table.cached_sketch_keys)
        for precision, seed in table.cached_sketch_keys:
            original = table.cached_sketch(precision, seed)
            restored = loaded.cached_sketch(precision, seed)
            assert restored.cardinality() == original.cardinality()
            assert restored.to_bytes() == original.to_bytes()

    def test_string_keys_round_trip(self):
        table = SSTable(0, [Record.put("alpha", 1, value=b"x"), Record.put("beta", 2)])
        data = encode_sstable(table)
        loaded = decode_sstable(data)
        assert encode_sstable(loaded) == data
        assert loaded.get("alpha").value == b"x"

    def test_multi_block_table(self):
        # Enough records to span several 4 KiB data blocks.
        records = [Record.put(i, i + 1, value_size=20) for i in range(3000)]
        table = SSTable(1, records)
        data = encode_sstable(table)
        loaded = decode_sstable(data)
        assert encode_sstable(loaded) == data
        assert loaded.entry_count == 3000
        assert loaded.get(1234).seqno == 1235

    def test_columnar_table_reloads_onto_columns(self):
        table = SSTable.from_columns(
            9, np.arange(0, 3000, 3), np.arange(1000), 100
        )
        data = encode_sstable(table)
        loaded = decode_sstable(data)
        assert encode_sstable(loaded) == data
        assert loaded.columns() is not None  # columnar kernels still apply
        assert loaded.get_batch([30, 31]).tolist() == [10, -1]

    def test_file_round_trip(self, tmp_path):
        table, records = table_with_accelerators()
        path = tmp_path / "000003.sst"
        written = table.to_file(path)
        assert path.stat().st_size == written
        loaded = SSTable.from_file(path)
        assert list(loaded.records) == records


class TestSSTableCorruption:
    def test_every_flipped_bit_detected_or_harmless(self):
        """Flipping any byte either raises CorruptionError or leaves the
        decoded table identical (a flip inside slack bytes cannot happen:
        the format has none — so every flip must raise)."""
        table, _records = table_with_accelerators()
        data = bytearray(encode_sstable(table))
        for offset in range(0, len(data), 13):  # sampled for speed
            data[offset] ^= 0x10
            with pytest.raises(CorruptionError):
                decode_sstable(bytes(data))
            data[offset] ^= 0x10

    def test_truncated_file_rejected(self):
        table, _records = table_with_accelerators()
        data = encode_sstable(table)
        with pytest.raises(CorruptionError):
            decode_sstable(data[:-3])
        with pytest.raises(CorruptionError):
            decode_sstable(data[: len(data) // 2])
        with pytest.raises(CorruptionError):
            decode_sstable(b"")

    def test_bad_magic_rejected(self):
        with pytest.raises(CorruptionError):
            decode_sstable(b"\x00" * 64)

    def test_footer_length_beyond_file_rejected(self):
        table, _records = table_with_accelerators()
        data = bytearray(encode_sstable(table))
        struct.pack_into("<I", data, len(data) - 12, 2**31)
        with pytest.raises(CorruptionError):
            decode_sstable(bytes(data))


class TestManifest:
    def test_round_trip(self):
        fs = MemoryFileSystem()
        assert read_manifest(fs) is None
        state = ManifestState(live_tables=(2, 0, 5), next_table_id=6, last_seqno=77)
        write_manifest(fs, state)
        assert read_manifest(fs) == state

    def test_rename_leaves_no_temp_file(self):
        fs = MemoryFileSystem()
        write_manifest(fs, ManifestState())
        assert fs.listdir() == [MANIFEST_NAME]

    def test_rewrite_replaces_atomically(self):
        fs = MemoryFileSystem()
        write_manifest(fs, ManifestState(live_tables=(1,)))
        write_manifest(fs, ManifestState(live_tables=(2, 3), last_seqno=9))
        assert read_manifest(fs).live_tables == (2, 3)

    def test_corrupt_manifest_rejected(self):
        fs = MemoryFileSystem()
        write_manifest(fs, ManifestState(live_tables=(1,)))
        fs.flip_bit(MANIFEST_NAME, fs.size(MANIFEST_NAME) - 1)
        with pytest.raises(CorruptionError):
            read_manifest(fs)

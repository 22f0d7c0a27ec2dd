"""Tests for the on-disk formats: checksums, encoding, sstables, manifest."""

import itertools
import json
import random
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, StorageError
from repro.lsm import EngineConfig, LSMEngine, MemoryFileSystem, Record, SSTable
from repro.lsm.format import decode_sstable, encode_sstable
from repro.lsm.format.checksum import (
    _KERNEL_MIN_BYTES,
    _crc32c_scalar,
    crc32c,
    crc32c_many,
    frame_block,
    read_block,
)
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
from repro.lsm.format import sstable_io
from repro.lsm.format.sstable_io import (
    DATA_BLOCK_BYTES,
    _encode_column_blocks,
    _encode_data_blocks,
)
from tests.helpers import crc_valid_mutation


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


def random_bytes(seed: int, size: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


class TestCrc32cKernel:
    """``crc32c_many`` against the byte loop it replaces on long frames."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(4, 10_000), min_size=1, max_size=5),
        crc=st.sampled_from([0, 0xFFFFFFFF]) | st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_many_equals_byte_loop(self, seed, lengths, crc, data):
        buffer = random_bytes(seed, 12_000)
        starts = [
            data.draw(st.integers(0, len(buffer) - length)) for length in lengths
        ]
        expected = [
            _crc32c_scalar(buffer[start : start + length], crc)
            for start, length in zip(starts, lengths)
        ]
        assert crc32c_many(buffer, starts, lengths, crc).tolist() == expected

    @pytest.mark.parametrize("length", [4, 5, 255, 256, 257, 512, 4096, 4097, 10_000])
    def test_chunk_boundaries(self, length):
        buffer = random_bytes(length, length + 3)
        for crc in (0, 0xE3069283):
            got = crc32c_many(buffer, [3], [length], crc)
            assert got.tolist() == [_crc32c_scalar(buffer[3:], crc)]

    def test_segments_under_four_bytes_take_the_byte_loop(self):
        # Too short to carry the folded initial register: handled by the
        # byte loop, also when mixed with kernel-sized segments.
        buffer = random_bytes(7, 600)
        starts, lengths = [0, 10, 20, 30, 40, 50], [0, 1, 2, 3, 4, 500]
        for crc in (0, 12345):
            expected = [
                _crc32c_scalar(buffer[a : a + n], crc) for a, n in zip(starts, lengths)
            ]
            assert crc32c_many(buffer, starts, lengths, crc).tolist() == expected
        assert crc32c_many(buffer, [], []).size == 0

    def test_segment_outside_the_buffer_rejected(self):
        for starts, lengths in (([8], [4]), ([-1], [4]), ([0], [-1])):
            with pytest.raises(ValueError):
                crc32c_many(b"0123456789", starts, lengths)

    def test_crc32c_dispatch_agrees_across_the_threshold(self):
        data = random_bytes(3, 3 * _KERNEL_MIN_BYTES)
        for length in (_KERNEL_MIN_BYTES - 1, _KERNEL_MIN_BYTES, 3 * _KERNEL_MIN_BYTES):
            assert crc32c(data[:length]) == _crc32c_scalar(data[:length])
        head = crc32c(data[:_KERNEL_MIN_BYTES])
        assert crc32c(data[_KERNEL_MIN_BYTES:], head) == crc32c(data)


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


_FIELD_MODES = ("zero", "small", "wide", "mixed")


def field_column(mode: str, rows: int, rng) -> np.ndarray:
    """A seqno / value_size column: 0, 1-2 byte, or >= 2**35 varints."""
    small = rng.integers(0, 300, rows)
    wide = rng.integers(2**35, 2**62, rows)
    return {
        "zero": np.zeros(rows, dtype=np.int64),
        "small": small,
        "wide": wide,
        "mixed": np.where(rng.random(rows) < 0.5, small, wide),
    }[mode]


@st.composite
def column_tables(draw):
    """Column-backed tables over int64 keys, extremes included."""
    rows = draw(st.integers(1, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Every record is 8 bytes (2-byte key, seqno and size varints),
        # so block cuts land exactly on DATA_BLOCK_BYTES.
        keys = np.arange(64, 64 + rows)
        seqnos = np.full(rows, 200)
        sizes = np.full(rows, 300)
    else:
        keys = rng.integers(-(2**63), 2**63 - 1, rows, dtype=np.int64, endpoint=True)
        extremes = draw(st.sets(st.sampled_from([-(2**63), -1, 0, 2**63 - 1])))
        keys = np.unique(np.append(keys, np.array(sorted(extremes), dtype=np.int64)))
        seqnos = field_column(draw(st.sampled_from(_FIELD_MODES)), keys.size, rng)
        sizes = field_column(draw(st.sampled_from(_FIELD_MODES)), keys.size, rng)
    share = draw(st.sampled_from([0.0, 0.3, 1.0]))  # no, some or all tombstones
    tombstones = rng.random(keys.size) < share
    return SSTable.from_columns(5, keys, seqnos, sizes, tombstones)


class TestColumnEncoder:
    """The one-pass column encoder against the record-by-record walk."""

    @settings(max_examples=60, deadline=None)
    @given(column_tables())
    def test_equals_record_encoder(self, table):
        blocks, spans = _encode_column_blocks(table.columns())
        assert (blocks, spans) == _encode_data_blocks(table.records)

    @settings(max_examples=30, deadline=None)
    @given(column_tables())
    def test_round_trip_is_byte_identical(self, table):
        data = encode_sstable(table)
        assert "records" not in vars(table)  # never materialized
        loaded = decode_sstable(data)
        assert loaded.columns() is not None
        assert encode_sstable(loaded) == data

    @pytest.mark.parametrize(
        "rows, counts",
        [(1, [1]), (511, [511]), (512, [512]), (513, [512, 1]), (1025, [512, 512, 1])],
    )
    def test_cut_when_a_block_reaches_its_target(self, rows, counts):
        # 8-byte records: 512 fill a block to exactly DATA_BLOCK_BYTES.
        assert 512 * 8 == DATA_BLOCK_BYTES
        keys = np.arange(64, 64 + rows)
        table = SSTable.from_columns(1, keys, np.full(rows, 200), 300)
        blocks, spans = _encode_column_blocks(table.columns())
        assert [count for count, _first in spans] == counts
        assert (blocks, spans) == _encode_data_blocks(table.records)

    def test_record_backed_int_table_takes_the_column_path(self):
        records = [Record.put(i, i + 100, value_size=i + 50) for i in range(-50, 50)]
        assert SSTable(2, records).columns() is not None
        assert encode_sstable(SSTable(2, records)) == encode_sstable(
            SSTable.from_columns(2, range(-50, 50), range(50, 150), range(100))
        )

    def test_negative_seqno_rejected(self):
        table = SSTable.from_columns(1, [1, 2], [3, -1], 0)
        with pytest.raises(StorageError):
            encode_sstable(table)


def decode_by_record_walk(data: bytes) -> SSTable:
    """``decode_sstable`` with the column path switched off: its oracle."""
    with mock.patch.object(sstable_io, "_decode_columns", return_value=None):
        return decode_sstable(data)


def tombstone_list(columns) -> list:
    if columns.tombstones is None:
        return [False] * columns.keys.size
    return columns.tombstones.tolist()


def assert_same_table(loaded: SSTable, oracle: SSTable) -> None:
    """Equal ids, rows, sizes and adopted accelerators."""
    assert (loaded.table_id, len(loaded), loaded.size_bytes) == (
        oracle.table_id,
        len(oracle),
        oracle.size_bytes,
    )
    assert loaded._index_interval == oracle._index_interval
    assert loaded._bloom_fp_rate == oracle._bloom_fp_rate
    columns, expected = loaded.columns(), oracle.columns()
    for field in ("keys", "seqnos", "value_sizes"):
        assert getattr(columns, field).tolist() == getattr(expected, field).tolist()
    assert tombstone_list(columns) == tombstone_list(expected)
    assert "bloom" in vars(loaded)  # adopted, not rebuilt
    assert (loaded.bloom._bits, loaded.bloom.k_hashes, len(loaded.bloom)) == (
        oracle.bloom._bits,
        oracle.bloom.k_hashes,
        len(oracle.bloom),
    )
    assert loaded.cached_sketch_keys == oracle.cached_sketch_keys
    for precision, seed in oracle.cached_sketch_keys:
        assert (
            loaded.cached_sketch(precision, seed).to_bytes()
            == oracle.cached_sketch(precision, seed).to_bytes()
        )


@st.composite
def decoder_tables(draw):
    """:func:`column_tables`, sometimes cut to one record, with sketches."""
    table = draw(column_tables())
    if draw(st.booleans()):
        row = draw(st.integers(0, len(table) - 1))
        columns = table.columns()
        table = SSTable.from_columns(
            table.table_id,
            columns.keys[row : row + 1],
            columns.seqnos[row : row + 1],
            columns.value_sizes[row : row + 1],
            tombstone_list(columns)[row : row + 1],
            bloom_fp_rate=draw(st.sampled_from([0.01, 0.2])),
        )
    for precision, seed in draw(st.sets(st.sampled_from([(4, 0), (12, 0), (10, -3)]))):
        table.sketch(precision, seed)
    return table


def split_file(data: bytes):
    """A file's parts, for rebuilding it with an edit.

    ``(data block payloads, index rows [count, first key], bloom payload,
    sketch payload, footer fields)``.
    """
    frames = sstable_io._verified_frames(data)
    *blocks, index, bloom, sketch, footer = [data[s:e] for _o, s, e in frames]
    rows, offset = [], 0
    while offset < len(index):
        _block_offset, offset = decode_varint(index, offset)
        count, offset = decode_varint(index, offset)
        key, offset = decode_key(index, offset)
        rows.append([count, key])
    footer = list(sstable_io._decode_footer(footer))
    return [bytearray(block) for block in blocks], rows, bloom, sketch, footer


def join_file(blocks, rows, bloom, sketch, footer) -> bytes:
    """The file of :func:`split_file`'s parts: offsets recomputed, every
    block framed with a fresh CRC."""
    framed = [frame_block(bytes(block)) for block in blocks]
    offsets = list(itertools.accumulate([len(f) for f in framed], initial=0))
    index = frame_block(
        b"".join(
            encode_varint(offset) + encode_varint(count) + encode_key(key)
            for offset, (count, key) in zip(offsets, rows)
        )
    )
    bloom, sketch = frame_block(bloom), frame_block(sketch)
    table_id, entry_count, interval, _blocks, _index, _bloom, _sketch, fp = footer
    index_offset = offsets[-1]
    footer_block = frame_block(
        b"".join(
            encode_varint(value)
            for value in (
                1,
                table_id,
                entry_count,
                interval,
                len(blocks),
                index_offset,
                index_offset + len(index),
                index_offset + len(index) + len(bloom),
            )
        )
        + struct.pack("<d", fp)
    )
    return b"".join(
        [*framed, index, bloom, sketch, footer_block]
        + [struct.pack("<I", len(footer_block)), sstable_io.MAGIC]
    )


def eight_byte_table() -> bytes:
    """600 records of 8 bytes (flags, tag, then 2-byte key, seqno and size
    varints): block 0 holds 512 behind a 2-byte count, block 1 holds 88
    behind a 1-byte count, so record ``i`` of block 1 starts at ``1 + 8i``."""
    table = SSTable.from_columns(6, np.arange(64, 664), np.full(600, 200), 300)
    table.sketch(precision=6)
    return encode_sstable(table)


def _set(block, position, value):
    block[position] = value


#: Edits of block 1 of :func:`eight_byte_table` that the record walk
#: rejects, each with the start of its CorruptionError message.
MALFORMED_BLOCKS = {
    "count disagrees with the index": (
        lambda blocks, rows, footer: _set(blocks[1], 0, 89),
        "sstable data block at 4106: holds 89 records, index says 88",
    ),
    "flags carry the value bit": (
        lambda blocks, rows, footer: _set(blocks[1], 1 + 8 * 87, 0x02),
        "sstable data block at 4106: truncated record value",
    ),
    "flags carry an unknown bit": (
        lambda blocks, rows, footer: _set(blocks[1], 1, 0x04),
        "sstable data block at 4106: unknown record flags 0x04",
    ),
    "key tag is unknown": (
        lambda blocks, rows, footer: _set(blocks[1], 2, 9),
        "sstable data block at 4106: unknown key tag 9",
    ),
    "last varint is truncated": (
        lambda blocks, rows, footer: _set(blocks[1], -1, blocks[1][-1] | 0x80),
        "sstable data block at 4106: truncated varint",
    ),
    "first key disagrees with the index": (
        lambda blocks, rows, footer: rows[1].__setitem__(1, 577),
        "sstable data block at 4106: starts at key 576, index says 577",
    ),
    # Its low 64 bits are the index's first key: a parse that kept only
    # 64 bits of an 11-byte varint would accept the block.
    "11-byte key varint": (
        lambda blocks, rows, footer: blocks[1].__setitem__(
            slice(3, 5), encode_varint(2 * 576 + 2**70)
        ),
        f"sstable data block at 4106: starts at key {576 + 2**69}, index says 576",
    ),
    # The walk stops block 0 one record early; the token counts, entry
    # count and first keys all still agree.
    "a record straddles two blocks": (
        lambda blocks, rows, footer: (
            blocks[0].__setitem__(slice(0, 2), encode_varint(511)),
            _set(blocks[1], 0, 89),
            rows.__setitem__(slice(None), [[511, 64], [89, 575]]),
        ),
        "sstable data block at 0: has trailing bytes",
    ),
    "trailing bytes": (
        lambda blocks, rows, footer: blocks[1].append(0),
        "sstable data block at 4106: has trailing bytes",
    ),
    "footer counts one record more": (
        lambda blocks, rows, footer: footer.__setitem__(1, 601),
        "sstable holds 600 records, footer says 601",
    ),
}


class TestColumnDecoder:
    """The one-pass column decoder against the record-by-record walk."""

    @settings(max_examples=60, deadline=None)
    @given(decoder_tables())
    def test_equals_record_walk(self, table):
        data = encode_sstable(table)
        loaded = decode_sstable(data)
        oracle = decode_by_record_walk(data)
        assert "records" not in vars(loaded)  # no Record built
        assert "records" in vars(oracle)
        assert_same_table(loaded, oracle)
        assert tombstone_list(loaded.columns()) == tombstone_list(table.columns())
        assert encode_sstable(loaded) == data

    def test_split_and_join_are_inverse(self):
        data = eight_byte_table()
        blocks, rows, _bloom, _sketch, _footer = split_file(data)
        assert [len(block) for block in blocks] == [2 + 8 * 512, 1 + 8 * 88]
        assert rows == [[512, 64], [88, 576]]
        assert join_file(*split_file(data)) == data

    @pytest.mark.parametrize("case", sorted(MALFORMED_BLOCKS))
    def test_malformed_block_is_corruption(self, case):
        edit, message = MALFORMED_BLOCKS[case]
        blocks, rows, bloom, sketch, footer = split_file(eight_byte_table())
        edit(blocks, rows, footer)
        data = join_file(blocks, rows, bloom, sketch, footer)
        with pytest.raises(CorruptionError, match=f"^{message}$"):
            decode_sstable(data)

    @pytest.mark.parametrize(
        "records",
        [
            [Record.put("alpha", 1), Record.delete("beta", 2)],
            [Record.put(b"\x00k", 1, value_size=9), Record.put(b"z", 4)],
            [Record.put(1, 5, value=b"hello"), Record.put(2, 6)],
            [Record.put(1, 5, value=b""), Record.put(2, 6)],
            [Record.put(2**63 - 1, 1), Record.put(2**63, 2)],
            [Record.delete(-(2**63) - 1, 3), Record.put(0, 4)],
            [Record.put(2**70, 1, value_size=2)],
        ],
        ids=["str", "bytes", "payload", "empty-payload", "2**63", "-2**63-1", "2**70"],
    )
    def test_unrepresentable_tables_load_record_backed(self, records):
        data = encode_sstable(SSTable(1, records))
        loaded = decode_sstable(data)
        assert "records" in vars(loaded)
        assert list(loaded.records) == records
        assert encode_sstable(loaded) == data

    @pytest.mark.parametrize(
        "field, value",
        [(3, 2**63), (3, 2**64), (3, 2**70), (4, 2**63)],
        ids=["seqno-2**63", "seqno-2**64", "seqno-11-bytes", "size-2**63"],
    )
    def test_values_beyond_int64_load_record_backed(self, field, value):
        # Record 0 of block 1: flags, tag, key [3:5], seqno [5:7], size [7:9].
        blocks, rows, bloom, sketch, footer = split_file(eight_byte_table())
        start = 3 + 2 * (field - 2)
        blocks[1][start : start + 2] = encode_varint(value)
        data = join_file(blocks, rows, bloom, sketch, footer)
        loaded = decode_sstable(data)
        assert "records" in vars(loaded)
        assert list(loaded.records) == list(decode_by_record_walk(data).records)
        record = loaded.get(576)
        assert (record.seqno, record.value_size)[field - 3] == value
        assert loaded.columns() is None
        assert encode_sstable(loaded) == data


class TestKeysBeyondInt64:
    """A table holding an int key outside int64 loads record-backed."""

    @pytest.mark.parametrize(
        "keys",
        [
            [2**63],
            [2**70],
            [2**63 - 1, 2**63],
            [-(2**63) - 1],
            [-(2**70), -(2**63), 0, 2**63 - 1, 2**64],
        ],
    )
    def test_canonical_round_trip(self, keys):
        records = [
            Record.put(key, seqno, value_size=3) for seqno, key in enumerate(keys)
        ]
        data = encode_sstable(SSTable(2, records))
        loaded = decode_sstable(data)
        assert list(loaded.records) == records
        assert encode_sstable(loaded) == data

    def test_int64_boundaries_stay_columnar(self):
        table = SSTable(2, [Record.put(-(2**63), 1), Record.put(2**63 - 1, 2)])
        loaded = decode_sstable(encode_sstable(table))
        assert "records" not in vars(loaded)
        assert loaded.columns().keys.tolist() == [-(2**63), 2**63 - 1]

    def test_engine_store_reopens(self):
        fs = MemoryFileSystem()
        config = EngineConfig(memtable_capacity=4)
        keys = [1, 2**64, 5, -(2**70)]
        engine = LSMEngine.open(fs=fs, config=config)
        for key in keys:
            engine.put(key, value_size=7)
        engine.flush()
        engine.close()
        reopened = LSMEngine.open(fs=fs, config=config)
        for key in keys:
            record = reopened.get(key)
            assert record is not None and record.value_size == 7, key
        reopened.close()


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

    @pytest.mark.parametrize("kind", ["data", "index", "bloom", "sketch", "footer"])
    def test_first_bad_block_named_by_kind_and_offset(self, kind):
        table = SSTable.from_columns(4, np.arange(0, 6000, 2), np.arange(3000), 7)
        table.sketch()
        data = bytearray(encode_sstable(table))
        offsets, offset = [], 0
        while offset < len(data) - 12:
            offsets.append(offset)
            offset += 8 + struct.unpack_from("<I", data, offset)[0]
        kinds = ["data"] * (len(offsets) - 4) + ["index", "bloom", "sketch", "footer"]
        assert kinds.count("data") > 1
        target = offsets[kinds.index(kind)]
        data[target + 9] ^= 0x01
        if target != offsets[-1]:
            data[offsets[-1] + 9] ^= 0x01  # a later bad block is not the one named
        with pytest.raises(
            CorruptionError,
            match=f"sstable {kind} block at offset {target} failed its checksum",
        ):
            decode_sstable(bytes(data))

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


def hostile_sources() -> list[bytes]:
    """Tables for the CRC-valid mutations: str keys (some not ASCII)
    with payloads and tombstones, an int-keyed two-block table that
    loads onto columns, and bytes keys; each with cached sketches."""
    words = ["ключ", "clé", "naïve", "zürich", "日本"]
    words += [f"key{i:03d}" for i in range(60)]
    text = SSTable(
        1,
        [
            Record.put(key, seqno, value=b"v")
            if seqno % 3
            else Record.delete(key, seqno)
            for seqno, key in enumerate(sorted(words), start=1)
        ],
    )
    text.sketch(precision=4)
    text.sketch(precision=8, seed=-3)
    ints = SSTable.from_columns(2, np.arange(0, 1200, 2), np.arange(1, 601), 70)
    ints.sketch(precision=6)
    raw = SSTable(
        3, [Record.put(b"\x00b%02d" % i, i + 1, value_size=i) for i in range(40)]
    )
    raw.sketch(precision=5, seed=9)
    return [encode_sstable(table) for table in (text, ints, raw)]


def reframed(data: bytes, block: int, edit) -> bytes:
    """``data`` with one block's payload edited in place by ``edit`` and
    framed again with a valid CRC.  ``block`` indexes the file's blocks
    (-4 index, -3 bloom, -2 sketch, -1 footer); the edit keeps the
    payload's length."""
    offset, start, end = sstable_io._verified_frames(data)[block]
    payload = bytearray(data[start:end])
    edit(payload)
    assert len(payload) == end - start
    return data[:offset] + frame_block(bytes(payload)) + data[end:]


def two_str_keys() -> bytes:
    """``"alpha"`` then ``"beta"`` in one data block: a count, then per
    record flags, tag, length, the key's bytes, seqno and size, so the
    first key byte is at 4 and the second record's tag at 12.  The index
    block (at offset 28) is offset, count, tag, length, then the key: its
    first key byte is at 4 too."""
    return encode_sstable(SSTable(1, [Record.put("alpha", 1), Record.put("beta", 2)]))


#: CRC-valid blocks that decoded into the wrong error type before the
#: loader checked them (the type is in the comment), each with the start
#: of the CorruptionError that names the block now.
HOSTILE_BLOCKS = {
    # StorageError from SSTable.__init__: records must be strictly sorted.
    "duplicate key": (
        lambda: reframed(
            eight_byte_table(),
            1,
            lambda b: b.__setitem__(slice(11, 13), encode_varint(2 * 576)),
        ),
        "sstable data block at 4106: holds key 576 after key 576",
    ),
    # StorageError from SSTable.__init__: a table of no records.
    "empty data block": (
        lambda: join_file(
            [bytearray(b"\x00")],
            [[0, 64]],
            *split_file(eight_byte_table())[2:4],
            [6, 0, 16, 1, 0, 0, 0, 0.01],
        ),
        "sstable data block at 0: holds 0 records, index says 0",
    ),
    # TypeError from SSTable.__init__: a str key compared with a bytes key.
    "key of another type": (
        lambda: reframed(two_str_keys(), 0, lambda b: _set(b, 12, 2)),
        "sstable data block at 0: holds key b'beta' after key 'alpha'",
    ),
    # UnicodeDecodeError from decode_key, in a data block and in the index.
    "str key not UTF-8 (data)": (
        lambda: reframed(two_str_keys(), 0, lambda b: _set(b, 4, 0xFF)),
        "sstable data block at 0: str key is not valid UTF-8",
    ),
    "str key not UTF-8 (index)": (
        lambda: reframed(two_str_keys(), -4, lambda b: _set(b, 4, 0xFF)),
        "sstable index block at offset 28: str key is not valid UTF-8",
    ),
    # ConfigError from BloomFilter.from_state: m_bits off by 8.
    "bloom size disagrees": (
        lambda: reframed(two_str_keys(), -3, lambda b: _set(b, 0, b[0] ^ 0x08)),
        "sstable bloom block at offset ",
    ),
    # ValueError from HyperLogLog: precision 1.
    "sketch precision 1": (
        lambda: reframed(eight_byte_table(), -2, lambda b: _set(b, 1, 1)),
        "sstable sketch block at offset ",
    ),
}


class TestCrcValidHostileBlocks:
    """A block that passes its CRC but not the decoder's checks raises
    CorruptionError, whatever part of the decoder it reaches."""

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_mutations_raise_only_corruption(self, seed):
        rng = random.Random(seed)
        sources = [
            (data, sstable_io._verified_frames(data)) for data in hostile_sources()
        ]
        rejected = 0
        for _ in range(500):
            data, frames = rng.choice(sources)
            try:
                decode_sstable(crc_valid_mutation(rng, data, rng.choice(frames)))
            except CorruptionError:
                rejected += 1
        assert rejected > 100  # the mutations reach the decoder's checks

    @pytest.mark.parametrize("case", sorted(HOSTILE_BLOCKS))
    def test_hostile_block_is_corruption(self, case):
        build, message = HOSTILE_BLOCKS[case]
        with pytest.raises(CorruptionError, match=f"^{message}"):
            decode_sstable(build())

    def test_huge_sketch_precision_checked_before_the_shift(self):
        """A 6-byte precision varint of 2**40: the shift would build a
        2**40-bit int before any length check."""
        data = reframed(
            eight_byte_table(),
            -2,
            lambda b: b.__setitem__(slice(1, 7), encode_varint(2**40)),
        )
        with pytest.raises(CorruptionError, match=f"holds precision {2**40}, outside"):
            decode_sstable(data)


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

    VALID = {"version": 1, "live_tables": [2, 0], "next_table_id": 3, "last_seqno": 9}

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("live_tables", "[Infinity]", "'live_tables'"),
            ("live_tables", "[1e400]", "'live_tables'"),
            ("live_tables", "[NaN]", "'live_tables'"),
            ("live_tables", "[1.5]", "'live_tables'"),
            ("live_tables", "[1.0]", "'live_tables'"),
            ("live_tables", "[true]", "'live_tables'"),
            ("live_tables", "[-1]", "'live_tables'"),
            ("live_tables", '["1"]', "'live_tables'"),
            ("live_tables", "[null]", "'live_tables'"),
            ("live_tables", "7", "'live_tables'"),
            ("live_tables", None, "'live_tables'"),
            ("next_table_id", "-1", "'next_table_id'"),
            ("next_table_id", "Infinity", "'next_table_id'"),
            ("next_table_id", "false", "'next_table_id'"),
            ("next_table_id", None, "'next_table_id'"),
            ("last_seqno", "-3", "'last_seqno'"),
            ("last_seqno", "2.5", "'last_seqno'"),
            ("version", "99", "'version' is 99"),
            ("version", "0", "'version' is 0"),
            ("version", "true", "'version'"),
            ("version", None, "'version'"),
        ],
    )
    def test_crc_valid_garbage_names_its_field(self, field, value, match):
        """A document that passes the checksum but holds what the writer
        never writes is a CorruptionError naming the field (never an
        OverflowError, and never read as some other table or version).
        A ``None`` value leaves the field out."""
        members = [
            f'"{name}": {value if name == field else json.dumps(good)}'
            for name, good in self.VALID.items()
            if name != field or value is not None
        ]
        fs = MemoryFileSystem()
        handle = fs.open_write(MANIFEST_NAME)
        handle.append(frame_block(("{" + ", ".join(members) + "}").encode("utf-8")))
        handle.close()
        with pytest.raises(CorruptionError, match=match):
            read_manifest(fs)

    @pytest.mark.parametrize("payload", [b"[1, 2]", b"{", b"\xff\xfe", b"null"])
    def test_crc_valid_non_object_rejected(self, payload):
        fs = MemoryFileSystem()
        handle = fs.open_write(MANIFEST_NAME)
        handle.append(frame_block(payload))
        handle.close()
        with pytest.raises(CorruptionError, match="MANIFEST"):
            read_manifest(fs)

"""The block-based on-disk sstable format.

File layout (every block CRC32C-framed, see
:mod:`~repro.lsm.format.checksum`)::

    DataBlock*          varint record_count + encoded records,
                        cut at ~DATA_BLOCK_BYTES of payload
    IndexBlock          per data block: varint file offset,
                        varint record count, encoded first key
    BloomBlock          varint m_bits, k_hashes, count + raw filter bits
    SketchBlock         varint sketch_count, then per cached HLL sketch
                        (sorted by precision, seed): varint precision,
                        zigzag seed, 2**precision register bytes
    FooterBlock         varint version, table_id, entry_count,
                        index_interval, data_block_count, index_offset,
                        bloom_offset, sketch_offset + f64 bloom_fp_rate
    u32 footer_frame_length
    magic  b"LSMSST01"

Readers locate the footer from the end (magic, then the footer frame
length), so the file streams out front-to-back in one pass.  Encoding
is canonical — block cuts, index contents and sketch order are all
functions of the logical table — which gives the round-trip its
defining property: ``encode_sstable(decode_sstable(data)) == data``,
bloom filter and sketches included.

``decode_sstable`` verifies every block CRC eagerly and raises
:class:`~repro.errors.CorruptionError` on any mismatch: sstables are
only read *after* their durable sync + manifest commit, so unlike the
WAL there is no torn tail to forgive.  Decoded tables rebuild onto the
engine's native representations — int64 columns via
:meth:`SSTable.from_columns` when the data allows (plain int keys, no
payload bytes), record-backed otherwise — so every downstream kernel
(columnar merge, batched bloom probes, sketch unions) works on a loaded
table unchanged.
"""

from __future__ import annotations

import struct

import numpy as _np

from ...errors import CorruptionError
from ...hll import HyperLogLog
from ..bloom import BloomFilter
from ..record import Record
from ..sstable import SSTable
from .checksum import FRAME_HEADER_BYTES, frame_block, read_block
from .encoding import (
    decode_key,
    decode_record,
    decode_varint,
    decode_zigzag,
    encode_key,
    encode_record,
    encode_varint,
    encode_zigzag,
)

MAGIC = b"LSMSST01"

#: Target payload bytes per data block (leveldb's default block size).
DATA_BLOCK_BYTES = 4096

_FORMAT_VERSION = 1


def _read_block_or_raise(data: bytes, offset: int, what: str) -> tuple[bytes, int]:
    block = read_block(data, offset)
    if block is None:
        raise CorruptionError(
            f"sstable {what} block at offset {offset} failed its checksum"
        )
    return block


def _encode_data_blocks(records) -> tuple[list[bytes], list[tuple[int, int]]]:
    """Framed data blocks + per-block ``(record_count, first_index)``."""
    blocks: list[bytes] = []
    spans: list[tuple[int, int]] = []
    payload = bytearray()
    count = 0
    first = 0
    for index, record in enumerate(records):
        if count and len(payload) >= DATA_BLOCK_BYTES:
            blocks.append(frame_block(encode_varint(count) + payload))
            spans.append((count, first))
            payload = bytearray()
            count = 0
            first = index
        payload += encode_record(record)
        count += 1
    blocks.append(frame_block(encode_varint(count) + payload))
    spans.append((count, first))
    return blocks, spans


def encode_sstable(table: SSTable) -> bytes:
    """The table's canonical file bytes (records, index, bloom, sketches)."""
    records = table.records
    blocks, spans = _encode_data_blocks(records)

    offsets = []
    position = 0
    for block in blocks:
        offsets.append(position)
        position += len(block)

    index_payload = bytearray()
    for offset, (count, first) in zip(offsets, spans):
        index_payload += encode_varint(offset)
        index_payload += encode_varint(count)
        index_payload += encode_key(records[first].key)
    index_block = frame_block(bytes(index_payload))

    bloom = table.bloom
    bloom_payload = (
        encode_varint(bloom.m_bits)
        + encode_varint(bloom.k_hashes)
        + encode_varint(len(bloom))
        + bloom._bits
    )
    bloom_block = frame_block(bytes(bloom_payload))

    sketch_payload = bytearray()
    sketch_keys = sorted(table.cached_sketch_keys)
    sketch_payload += encode_varint(len(sketch_keys))
    for precision, seed in sketch_keys:
        sketch = table.cached_sketch(precision, seed)
        sketch_payload += encode_varint(precision)
        sketch_payload += encode_zigzag(seed)
        sketch_payload += sketch.to_bytes()
    sketch_block = frame_block(bytes(sketch_payload))

    index_offset = position
    bloom_offset = index_offset + len(index_block)
    sketch_offset = bloom_offset + len(bloom_block)
    footer_payload = (
        encode_varint(_FORMAT_VERSION)
        + encode_varint(table.table_id)
        + encode_varint(table.entry_count)
        + encode_varint(table._index_interval)
        + encode_varint(len(blocks))
        + encode_varint(index_offset)
        + encode_varint(bloom_offset)
        + encode_varint(sketch_offset)
        + struct.pack("<d", table._bloom_fp_rate)
    )
    footer_block = frame_block(footer_payload)

    return b"".join(
        [
            *blocks,
            index_block,
            bloom_block,
            sketch_block,
            footer_block,
            struct.pack("<I", len(footer_block)),
            MAGIC,
        ]
    )


def _decode_footer(data: bytes):
    if len(data) < len(MAGIC) + 4 + FRAME_HEADER_BYTES:
        raise CorruptionError(f"sstable file is too short ({len(data)} bytes)")
    if data[-len(MAGIC) :] != MAGIC:
        raise CorruptionError(
            f"bad sstable magic {data[-len(MAGIC):]!r}; not an sstable file"
        )
    (footer_len,) = struct.unpack_from("<I", data, len(data) - len(MAGIC) - 4)
    footer_start = len(data) - len(MAGIC) - 4 - footer_len
    if footer_start < 0:
        raise CorruptionError("sstable footer length exceeds the file")
    payload, _end = _read_block_or_raise(data, footer_start, "footer")
    offset = 0
    version, offset = decode_varint(payload, offset)
    if version != _FORMAT_VERSION:
        raise CorruptionError(f"unsupported sstable format version {version}")
    table_id, offset = decode_varint(payload, offset)
    entry_count, offset = decode_varint(payload, offset)
    index_interval, offset = decode_varint(payload, offset)
    block_count, offset = decode_varint(payload, offset)
    index_offset, offset = decode_varint(payload, offset)
    bloom_offset, offset = decode_varint(payload, offset)
    sketch_offset, offset = decode_varint(payload, offset)
    if offset + 8 != len(payload):
        raise CorruptionError("sstable footer has the wrong length")
    (fp_rate,) = struct.unpack_from("<d", payload, offset)
    return (
        table_id,
        entry_count,
        index_interval,
        block_count,
        index_offset,
        bloom_offset,
        sketch_offset,
        fp_rate,
    )


def _build_table(
    table_id: int,
    records: list[Record],
    fp_rate: float,
    index_interval: int,
) -> SSTable:
    """Rebuild onto the columnar representation when the data allows."""
    if (
        records
        and set(map(type, (r.key for r in records))) <= {int}
        and all(r.value is None for r in records)
    ):
        count = len(records)
        keys = _np.fromiter((r.key for r in records), dtype=_np.int64, count=count)
        seqnos = _np.fromiter((r.seqno for r in records), dtype=_np.int64, count=count)
        sizes = _np.fromiter(
            (r.value_size for r in records), dtype=_np.int64, count=count
        )
        tombstones = None
        if any(r.tombstone for r in records):
            tombstones = _np.fromiter(
                (r.tombstone for r in records), dtype=bool, count=count
            )
        return SSTable.from_columns(
            table_id,
            keys,
            seqnos,
            sizes,
            tombstones,
            bloom_fp_rate=fp_rate,
            index_interval=index_interval,
        )
    return SSTable(
        table_id, records, bloom_fp_rate=fp_rate, index_interval=index_interval
    )


def decode_sstable(data: bytes) -> SSTable:
    """Parse file bytes back into an :class:`SSTable`, verifying all CRCs."""
    (
        table_id,
        entry_count,
        index_interval,
        block_count,
        index_offset,
        bloom_offset,
        sketch_offset,
        fp_rate,
    ) = _decode_footer(data)

    index_payload, index_end = _read_block_or_raise(data, index_offset, "index")
    if index_end != bloom_offset:
        raise CorruptionError("sstable index block does not reach the bloom block")
    index_entries = []
    offset = 0
    for _ in range(block_count):
        block_offset, offset = decode_varint(index_payload, offset)
        record_count, offset = decode_varint(index_payload, offset)
        first_key, offset = decode_key(index_payload, offset)
        index_entries.append((block_offset, record_count, first_key))
    if offset != len(index_payload):
        raise CorruptionError("sstable index block has trailing bytes")

    records: list[Record] = []
    for block_offset, record_count, first_key in index_entries:
        payload, _end = _read_block_or_raise(data, block_offset, "data")
        count, position = decode_varint(payload, 0)
        if count != record_count:
            raise CorruptionError(
                f"sstable data block at {block_offset} holds {count} records, "
                f"index says {record_count}"
            )
        for index_in_block in range(count):
            record, position = decode_record(payload, position)
            if index_in_block == 0 and record.key != first_key:
                raise CorruptionError(
                    f"sstable data block at {block_offset} starts at key "
                    f"{record.key!r}, index says {first_key!r}"
                )
            records.append(record)
        if position != len(payload):
            raise CorruptionError(
                f"sstable data block at {block_offset} has trailing bytes"
            )
    if len(records) != entry_count:
        raise CorruptionError(
            f"sstable holds {len(records)} records, footer says {entry_count}"
        )

    bloom_payload, bloom_end = _read_block_or_raise(data, bloom_offset, "bloom")
    if bloom_end != sketch_offset:
        raise CorruptionError("sstable bloom block does not reach the sketch block")
    offset = 0
    m_bits, offset = decode_varint(bloom_payload, offset)
    k_hashes, offset = decode_varint(bloom_payload, offset)
    key_count, offset = decode_varint(bloom_payload, offset)
    bloom_bits = bloom_payload[offset:]
    bloom = BloomFilter.from_state(m_bits, k_hashes, key_count, bloom_bits)

    sketch_payload, _end = _read_block_or_raise(data, sketch_offset, "sketch")
    offset = 0
    sketch_count, offset = decode_varint(sketch_payload, offset)
    sketches: list[HyperLogLog] = []
    for _ in range(sketch_count):
        precision, offset = decode_varint(sketch_payload, offset)
        seed, offset = decode_zigzag(sketch_payload, offset)
        end = offset + (1 << precision)
        if end > len(sketch_payload):
            raise CorruptionError("sstable sketch block is truncated")
        sketches.append(
            HyperLogLog.from_registers(
                precision, seed, bytes(sketch_payload[offset:end])
            )
        )
        offset = end
    if offset != len(sketch_payload):
        raise CorruptionError("sstable sketch block has trailing bytes")

    table = _build_table(table_id, records, fp_rate, index_interval)
    # Adopt the persisted accelerators instead of rebuilding them: the
    # bloom slots straight into the cached_property, the sketches into
    # the (precision, seed) cache — both were exact for these keys when
    # written, and the table is immutable.
    table.__dict__["bloom"] = bloom
    for sketch in sketches:
        table.adopt_sketch(sketch)
    return table

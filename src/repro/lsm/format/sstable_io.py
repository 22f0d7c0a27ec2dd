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

A table with an int64 column view (int keys, no payload bytes: every
compaction output and flush of an int-keyed engine) encodes its data
blocks in one numpy pass, checksummed by one
:func:`~repro.lsm.format.checksum.crc32c_many` call, and never builds
its ``records``.  The record-by-record walk, ``_encode_data_blocks``,
encodes every other table and is the column path's oracle.

``decode_sstable`` verifies every block CRC eagerly, in one kernel call
before it parses any block, and raises
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

from ...errors import CorruptionError, StorageError
from ...hll import HyperLogLog
from ..bloom import BloomFilter
from ..record import Record
from ..sstable import SSTable, TableColumns
from .checksum import FRAME_HEADER_BYTES, crc32c_many, frame_block
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


def _encode_data_blocks(records) -> tuple[list[bytes], list[tuple[int, int]]]:
    """Framed data blocks + per-block ``(record_count, first_index)``.

    The one encoder for str / bytes keys and payloads, and the oracle of
    :func:`_encode_column_blocks`.
    """
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


def _varint_lengths(values: "_np.ndarray") -> "_np.ndarray":
    """Bytes of each ``uint64`` value's LEB128 varint (1..10)."""
    lengths = _np.ones(values.shape, dtype=_np.int64)
    for shift in range(7, 64, 7):
        lengths += values >= _np.uint64(1 << shift)
    return lengths


def _scatter_varints(out, positions, values, lengths) -> None:
    """Write each ``values[i]`` as a varint at ``out[positions[i]:]``."""
    for byte in range(int(lengths.max())):
        live = lengths > byte
        chunk = (values[live] >> _np.uint64(7 * byte)) & _np.uint64(0x7F)
        chunk[lengths[live] > byte + 1] |= 0x80  # more bytes follow
        out[positions[live] + byte] = chunk


def _encode_column_blocks(
    columns: TableColumns,
) -> tuple[list[bytes], list[tuple[int, int]]]:
    """:func:`_encode_data_blocks` of a column-backed table, in one pass.

    Each record is ``flags | int key tag | zigzag key | seqno |
    value_size``: the field lengths give every record's offset, the
    greedy block cuts fall where the running total first reaches
    ``DATA_BLOCK_BYTES`` past the block's start, and one scatter per
    varint byte writes all blocks; their CRCs take one kernel call.
    """
    keys, seqnos, sizes = columns.keys, columns.seqnos, columns.value_sizes
    if (seqnos < 0).any() or (sizes < 0).any():
        raise StorageError("cannot varint-encode a negative seqno or value size")
    zigzag = (keys << 1).view(_np.uint64) ^ (keys >> 63).view(_np.uint64)
    seqnos = seqnos.view(_np.uint64)
    sizes = sizes.view(_np.uint64)
    key_len = _varint_lengths(zigzag)
    seqno_len = _varint_lengths(seqnos)
    size_len = _varint_lengths(sizes)
    total = _np.zeros(keys.size + 1, dtype=_np.int64)
    _np.cumsum(2 + key_len + seqno_len + size_len, out=total[1:])

    firsts = [0]
    while True:
        cut = int(_np.searchsorted(total, total[firsts[-1]] + DATA_BLOCK_BYTES))
        if cut >= keys.size:
            break
        firsts.append(cut)
    first = _np.array(firsts, dtype=_np.int64)
    counts = _np.diff(first, append=keys.size)
    count_len = _varint_lengths(counts.view(_np.uint64))
    payload_len = count_len + total[first + counts] - total[first]
    frame_len = FRAME_HEADER_BYTES + payload_len
    frame_start = _np.cumsum(frame_len) - frame_len
    payload_start = frame_start + FRAME_HEADER_BYTES

    out = _np.empty(int(frame_len.sum()), dtype=_np.uint8)
    for byte in range(4):
        out[frame_start + byte] = (payload_len >> (8 * byte)) & 0xFF
    _scatter_varints(out, payload_start, counts.view(_np.uint64), count_len)
    record = total[:-1] + _np.repeat(payload_start + count_len - total[first], counts)
    tombstones = columns.tombstones
    out[record] = 0 if tombstones is None else tombstones  # the flags byte
    out[record + 1] = 0  # the int key tag
    _scatter_varints(out, record + 2, zigzag, key_len)
    _scatter_varints(out, record + 2 + key_len, seqnos, seqno_len)
    _scatter_varints(out, record + 2 + key_len + seqno_len, sizes, size_len)
    crcs = crc32c_many(out, payload_start, payload_len)
    for byte in range(4):
        out[frame_start + 4 + byte] = (crcs >> (8 * byte)) & 0xFF

    ends = (frame_start + frame_len).tolist()
    blocks = [out[a:b].tobytes() for a, b in zip(frame_start.tolist(), ends)]
    return blocks, list(zip(counts.tolist(), firsts))


def encode_sstable(table: SSTable) -> bytes:
    """The table's canonical file bytes (records, index, bloom, sketches).

    A table with an int64 column view encodes from its columns and never
    builds its ``records``; any other goes record by record.
    """
    columns = table.columns()
    if columns is not None:
        blocks, spans = _encode_column_blocks(columns)
        first_keys = columns.keys[[first for _count, first in spans]].tolist()
    else:
        records = table.records
        blocks, spans = _encode_data_blocks(records)
        first_keys = [records[first].key for _count, first in spans]

    offsets = []
    position = 0
    for block in blocks:
        offsets.append(position)
        position += len(block)

    index_payload = bytearray()
    for offset, (count, _first), key in zip(offsets, spans, first_keys):
        index_payload += encode_varint(offset)
        index_payload += encode_varint(count)
        index_payload += encode_key(key)
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


#: The blocks after the data blocks, in file order.
_TRAILING_KINDS = ("index", "bloom", "sketch", "footer")


def _verified_frames(data: bytes) -> list[tuple[int, int, int]]:
    """Every block's ``(frame_offset, payload_start, payload_end)``.

    The blocks are found from their frame headers alone: the footer
    from the end of the file (magic, then its frame length), the rest by
    walking the length fields from offset 0 up to it.  All of their
    CRCs are then checked in one :func:`crc32c_many` call, and the first
    bad block raises, named by its kind and offset.
    """
    if len(data) < len(MAGIC) + 4 + FRAME_HEADER_BYTES:
        raise CorruptionError(f"sstable file is too short ({len(data)} bytes)")
    if data[-len(MAGIC) :] != MAGIC:
        raise CorruptionError(
            f"bad sstable magic {data[-len(MAGIC):]!r}; not an sstable file"
        )
    footer_end = len(data) - len(MAGIC) - 4
    (footer_len,) = struct.unpack_from("<I", data, footer_end)
    footer_start = footer_end - footer_len
    if footer_start < 0:
        raise CorruptionError("sstable footer length exceeds the file")
    frames: list[tuple[int, int, int]] = []
    stored: list[int] = []
    offset = 0
    while offset < footer_end:
        start = offset + FRAME_HEADER_BYTES
        if start > footer_end:
            raise CorruptionError(f"sstable block at offset {offset} is truncated")
        length, crc = struct.unpack_from("<II", data, offset)
        end = start + length
        if end > footer_end or offset < footer_start < end:
            raise CorruptionError(
                f"sstable block at offset {offset} overruns the blocks after it"
            )
        frames.append((offset, start, end))
        stored.append(crc)
        offset = end
    if len(frames) <= len(_TRAILING_KINDS) or frames[-1][0] != footer_start:
        raise CorruptionError(
            "sstable blocks do not end in index, bloom, sketch and footer"
        )
    starts = [start for _offset, start, _end in frames]
    lengths = [end - start for _offset, start, end in frames]
    bad = _np.flatnonzero(crc32c_many(data, starts, lengths) != _np.array(stored))
    if bad.size:
        index = int(bad[0])
        trailing = index - (len(frames) - len(_TRAILING_KINDS))
        kind = _TRAILING_KINDS[trailing] if trailing >= 0 else "data"
        raise CorruptionError(
            f"sstable {kind} block at offset {frames[index][0]} failed its checksum"
        )
    return frames


def _decode_footer(payload: bytes):
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
    frames = _verified_frames(data)
    payloads = {offset: data[start:end] for offset, start, end in frames}
    (
        table_id,
        entry_count,
        index_interval,
        block_count,
        index_offset,
        bloom_offset,
        sketch_offset,
        fp_rate,
    ) = _decode_footer(payloads[frames[-1][0]])
    trailing = [offset for offset, _start, _end in frames[-len(_TRAILING_KINDS) : -1]]
    if [index_offset, bloom_offset, sketch_offset] != trailing:
        raise CorruptionError(
            "sstable footer's index, bloom and sketch offsets "
            f"{[index_offset, bloom_offset, sketch_offset]} are not the blocks "
            f"at {trailing}"
        )
    if block_count != len(frames) - len(_TRAILING_KINDS):
        raise CorruptionError(
            f"sstable footer counts {block_count} data blocks, the file holds "
            f"{len(frames) - len(_TRAILING_KINDS)}"
        )

    index_payload = payloads[index_offset]
    index_entries = []
    offset = 0
    for _ in range(block_count):
        block_offset, offset = decode_varint(index_payload, offset)
        record_count, offset = decode_varint(index_payload, offset)
        first_key, offset = decode_key(index_payload, offset)
        index_entries.append((block_offset, record_count, first_key))
    if offset != len(index_payload):
        raise CorruptionError("sstable index block has trailing bytes")
    data_offsets = [offset for offset, _start, _end in frames[:block_count]]
    if [entry[0] for entry in index_entries] != data_offsets:
        raise CorruptionError("sstable index does not name the file's data blocks")

    records: list[Record] = []
    for block_offset, record_count, first_key in index_entries:
        payload = payloads[block_offset]
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

    bloom_payload = payloads[bloom_offset]
    offset = 0
    m_bits, offset = decode_varint(bloom_payload, offset)
    k_hashes, offset = decode_varint(bloom_payload, offset)
    key_count, offset = decode_varint(bloom_payload, offset)
    bloom_bits = bloom_payload[offset:]
    bloom = BloomFilter.from_state(m_bits, k_hashes, key_count, bloom_bits)

    sketch_payload = payloads[sketch_offset]
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

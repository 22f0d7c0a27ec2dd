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
WAL there is no torn tail to forgive.  It then parses all data blocks
of an int-keyed table in one numpy pass, ``_decode_columns``, straight
into the int64 columns of :meth:`SSTable.from_columns`, building no
``Record``.  That pass only ever *accepts* a table: str / bytes keys,
payload bytes, any value outside int64 and any broken structural rule
send the blocks to the record-by-record walk, ``_decode_records``,
which loads them record-backed or raises the ``CorruptionError``, and
is the column pass's oracle.  Either way every downstream kernel
(columnar merge, batched bloom probes, sketch unions) works on a loaded
table unchanged.
"""

from __future__ import annotations

import struct

import numpy as _np

from ...errors import ConfigError, CorruptionError, StorageError
from ...hll import HyperLogLog
from ...hll.hyperloglog import MAX_PRECISION, MIN_PRECISION
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


def _gather_varints(body, starts, lengths) -> "_np.ndarray":
    """The ``uint64`` value of each varint ``body[starts[i]:][:lengths[i]]``.

    The caller has checked every length is at most 10 and that a 10-byte
    varint's last byte is 0 or 1, so each value fits 64 bits.
    """
    values = _np.zeros(starts.shape, dtype=_np.uint64)
    for byte in range(int(lengths.max())):
        live = lengths > byte
        chunk = (body[starts[live] + byte] & 0x7F).astype(_np.uint64)
        values[live] |= chunk << _np.uint64(7 * byte)
    return values


def _decode_columns(data: bytes, frames, index_entries, entry_count: int):
    """The data blocks of an int-keyed table as :class:`TableColumns`.

    One numpy pass over all blocks, after their CRCs were verified: the
    block bodies (what follows each count varint) are concatenated, a
    byte below 0x80 ends a varint, and a record without a payload is
    exactly five tokens — flags, key tag, zigzag key, seqno, value size.
    Returns ``None`` unless every rule the record walk checks holds and
    every value fits the int64 columns: block counts against the index,
    each block's first key against the index, flags in {0, 1}, key tag
    0, no trailing bytes, the footer's entry count, ascending keys.
    The caller then walks the records, which either builds a
    record-backed table or raises the :class:`CorruptionError`.
    """
    first_keys = [first_key for _offset, _count, first_key in index_entries]
    if any(type(key) is not int for key in first_keys):
        return None
    try:
        index_keys = _np.array(first_keys, dtype=_np.int64)
    except OverflowError:  # a first key beyond int64
        return None
    view = memoryview(data)
    spans = []
    counts = []
    for (_offset, start, end), (_block, record_count, _key) in zip(
        frames, index_entries
    ):
        try:
            count, skip = decode_varint(view[start:end], 0)
        except CorruptionError:
            return None
        if count != record_count or not count:
            return None
        spans.append((start + skip, end))
        counts.append(count)
    rows = sum(counts)
    if rows != entry_count:
        return None
    buffer = _np.frombuffer(data, dtype=_np.uint8)
    body = _np.concatenate([buffer[start:end] for start, end in spans])
    ends = _np.flatnonzero(body < 0x80)
    if ends.size != 5 * rows:
        return None
    # Each block's last token must end on the block's last byte: no
    # record straddles two blocks, and no block has trailing bytes.
    block_ends = _np.cumsum([end - start for start, end in spans]) - 1
    if not (ends[5 * _np.cumsum(counts) - 1] == block_ends).all():
        return None
    starts = _np.concatenate(([0], ends[:-1] + 1)).reshape(rows, 5)
    ends = ends.reshape(rows, 5)
    lengths = ends - starts + 1
    flags = body[starts[:, 0]]
    if (lengths[:, :2] != 1).any() or (flags > 1).any() or body[starts[:, 1]].any():
        return None
    fields = lengths[:, 2:]
    if (fields > 10).any() or (body[ends[:, 2:][fields == 10]] > 1).any():
        return None  # beyond 64 bits
    zigzag, seqnos, sizes = (
        _gather_varints(body, starts[:, field], lengths[:, field])
        for field in (2, 3, 4)
    )
    if (seqnos >> _np.uint64(63)).any() or (sizes >> _np.uint64(63)).any():
        return None  # beyond int64
    keys = (zigzag >> _np.uint64(1)).view(_np.int64) ^ -(
        zigzag & _np.uint64(1)
    ).view(_np.int64)
    if not (keys[1:] > keys[:-1]).all():
        return None
    if not (keys[_np.cumsum(counts) - counts] == index_keys).all():
        return None
    return TableColumns(
        keys, seqnos.view(_np.int64), sizes.view(_np.int64), flags.astype(bool)
    )


def _ascending(before, key) -> bool:
    """Whether ``key`` may follow ``before`` in a table: strictly greater
    and of the same type (int, str and bytes keys do not compare)."""
    return type(key) is type(before) and key > before


def _decode_records(
    data: bytes, frames, index_entries, entry_count: int
) -> list[Record]:
    """The data blocks walked record by record, every rule checked.

    The oracle of :func:`_decode_columns`, the one decoder of str /
    bytes keys, payloads and values beyond int64, and the source of
    every data-block :class:`CorruptionError`.
    """
    records: list[Record] = []
    for (_offset, start, end), (block_offset, record_count, first_key) in zip(
        frames, index_entries
    ):
        payload = data[start:end]
        try:
            count, position = decode_varint(payload, 0)
            if count != record_count or not count:
                raise CorruptionError(
                    f"holds {count} records, index says {record_count}"
                )
            for index_in_block in range(count):
                record, position = decode_record(payload, position)
                key = record.key
                if index_in_block == 0 and key != first_key:
                    raise CorruptionError(
                        f"starts at key {key!r}, index says {first_key!r}"
                    )
                if records and not _ascending(records[-1].key, key):
                    raise CorruptionError(
                        f"holds key {key!r} after key {records[-1].key!r}"
                    )
                records.append(record)
            if position != len(payload):
                raise CorruptionError("has trailing bytes")
        except CorruptionError as error:
            raise CorruptionError(
                f"sstable data block at {block_offset}: {error}"
            ) from None
    if len(records) != entry_count:
        raise CorruptionError(
            f"sstable holds {len(records)} records, footer says {entry_count}"
        )
    return records


def decode_sstable(data: bytes) -> SSTable:
    """Parse file bytes back into an :class:`SSTable`, verifying all CRCs."""
    frames = _verified_frames(data)
    payloads = {
        offset: data[start:end]
        for offset, start, end in frames[-len(_TRAILING_KINDS) :]
    }
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
    try:
        for _ in range(block_count):
            block_offset, offset = decode_varint(index_payload, offset)
            record_count, offset = decode_varint(index_payload, offset)
            first_key, offset = decode_key(index_payload, offset)
            index_entries.append((block_offset, record_count, first_key))
    except CorruptionError as error:
        raise CorruptionError(
            f"sstable index block at offset {index_offset}: {error}"
        ) from None
    if offset != len(index_payload):
        raise CorruptionError("sstable index block has trailing bytes")
    data_frames = frames[:block_count]
    data_offsets = [offset for offset, _start, _end in data_frames]
    if [entry[0] for entry in index_entries] != data_offsets:
        raise CorruptionError("sstable index does not name the file's data blocks")

    columns = _decode_columns(data, data_frames, index_entries, entry_count)
    if columns is None:
        records = _decode_records(data, data_frames, index_entries, entry_count)

    bloom_payload = payloads[bloom_offset]
    offset = 0
    m_bits, offset = decode_varint(bloom_payload, offset)
    k_hashes, offset = decode_varint(bloom_payload, offset)
    key_count, offset = decode_varint(bloom_payload, offset)
    bloom_bits = bloom_payload[offset:]
    try:
        bloom = BloomFilter.from_state(m_bits, k_hashes, key_count, bloom_bits)
    except ConfigError as error:
        raise CorruptionError(
            f"sstable bloom block at offset {bloom_offset}: {error}"
        ) from None

    sketch_payload = payloads[sketch_offset]
    offset = 0
    sketch_count, offset = decode_varint(sketch_payload, offset)
    sketches: list[HyperLogLog] = []
    for _ in range(sketch_count):
        precision, offset = decode_varint(sketch_payload, offset)
        seed, offset = decode_zigzag(sketch_payload, offset)
        if not MIN_PRECISION <= precision <= MAX_PRECISION:
            raise CorruptionError(
                f"sstable sketch block at offset {sketch_offset} holds precision "
                f"{precision}, outside [{MIN_PRECISION}, {MAX_PRECISION}]"
            )
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

    if columns is not None:
        table = SSTable.from_columns(
            table_id,
            columns.keys,
            columns.seqnos,
            columns.value_sizes,
            columns.tombstones,
            bloom_fp_rate=fp_rate,
            index_interval=index_interval,
        )
    else:
        table = SSTable(
            table_id, records, bloom_fp_rate=fp_rate, index_interval=index_interval
        )
    # Adopt the persisted accelerators instead of rebuilding them: the
    # bloom slots straight into the cached_property, the sketches into
    # the (precision, seed) cache — both were exact for these keys when
    # written, and the table is immutable.
    table.__dict__["bloom"] = bloom
    for sketch in sketches:
        table.adopt_sketch(sketch)
    return table

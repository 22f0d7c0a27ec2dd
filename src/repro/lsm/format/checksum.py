"""CRC32C (Castagnoli) — the checksum guarding every durable block.

The same polynomial leveldb/RocksDB frame their blocks and log records
with (reflected 0x1EDC6F41 = 0x82F63B78).

Two implementations compute the same function:

* :func:`_crc32c_scalar`, the table-driven byte loop.  It is the oracle,
  and it checksums short frames (WAL records carry ~9-byte payloads,
  where any numpy call costs more than the loop).
* :func:`crc32c_many`, a numpy kernel that checksums many segments of
  one buffer at once.  On a 2-core x86-64 VM the byte loop costs
  130-215 ns a byte (0.5-0.9 ms per 4 KiB sstable data block) and the
  kernel ~4 ns a byte over a table's data blocks.  The sstable encoder
  and decoder call it once per table; :func:`crc32c` and
  :func:`frame_block` use it at or above ``_KERNEL_MIN_BYTES``, where
  its fixed cost (~50 us) is paid back.

The kernel rests on CRC linearity.  From a zero register, a message's
register is the XOR over its bytes of "this byte, then the zeros after
it", and leading zeros leave a zero register at zero.  So each segment
is left-padded with zeros to whole ``_CHUNK``-byte chunks; a chunk's
value is an XOR of lookups in per-position tables (``_CHUNK`` x 256);
and neighbouring chunk values fold pairwise, the left one pushed through
the right one's zeros by a 4 x 256 shift table (one per doubling).  A
non-zero initial register is XORed into a segment's first four bytes,
which is why segments shorter than four bytes take the byte loop.  The
tables are built on first use, so importing this module costs nothing.
"""

from __future__ import annotations

import struct
from functools import cache

import numpy as _np

_POLY = 0x82F63B78

_TABLE = []
for _index in range(256):
    _crc = _index
    for _ in range(8):
        _crc = (_crc >> 1) ^ _POLY if _crc & 1 else _crc >> 1
    _TABLE.append(_crc)
del _index, _crc

#: Bytes per chunk of the batched kernel (its tables: 256 x 256 u32).
_CHUNK = 256
#: Chunk rows gathered per numpy pass, bounding the kernel's temporaries.
_ROWS_PER_PASS = 1024
#: Payloads this long or longer go through the kernel in ``crc32c``.
_KERNEL_MIN_BYTES = 1024


def _crc32c_scalar(data, crc: int = 0) -> int:
    """The byte-loop CRC32C of ``data``, optionally continuing from ``crc``."""
    crc ^= 0xFFFFFFFF
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


@cache
def _position_tables() -> "_np.ndarray":
    """``P[k, b]``: the register, from zero, after byte ``b`` at chunk
    position ``k`` and the ``_CHUNK - 1 - k`` zero bytes after it."""
    table = _np.array(_TABLE, dtype=_np.uint32)
    rows = _np.empty((_CHUNK, 256), dtype=_np.uint32)
    row = table
    rows[_CHUNK - 1] = row
    for position in range(_CHUNK - 2, -1, -1):
        row = table[row & 0xFF] ^ (row >> 8)
        rows[position] = row
    return rows


@cache
def _shift_tables(level: int) -> "_np.ndarray":
    """``S[j, b]``: the register ``b << 8j`` pushed through
    ``_CHUNK << level`` zero bytes."""
    if level == 0:
        # A register's bytes fold into the next chunk's first four.
        return _position_tables()[:4]
    # Twice the previous level's zeros: shift its entries once more.
    half = _shift_tables(level - 1)
    return _shift(half, half)


def _shift(tables: "_np.ndarray", registers: "_np.ndarray") -> "_np.ndarray":
    """Every register pushed through the zeros ``tables`` stand for
    (CRC linearity: one lookup per register byte)."""
    t0, t1, t2, t3 = tables
    return (
        t0[registers & 0xFF]
        ^ t1[(registers >> 8) & 0xFF]
        ^ t2[(registers >> 16) & 0xFF]
        ^ t3[registers >> 24]
    )


def crc32c_many(flat, starts, lengths, crc: int = 0) -> "_np.ndarray":
    """The CRC32C of every segment ``flat[start : start + length]``.

    ``flat`` is any buffer of bytes (or a ``uint8`` array); returns a
    ``uint32`` array, one checksum per segment, each continuing from
    ``crc`` as :func:`crc32c` would.  Segments shorter than four bytes
    cannot carry the folded initial register and take the byte loop.
    """
    data = flat if isinstance(flat, _np.ndarray) else _np.frombuffer(flat, _np.uint8)
    starts = _np.asarray(starts, dtype=_np.int64)
    lengths = _np.asarray(lengths, dtype=_np.int64)
    out = _np.empty(starts.size, dtype=_np.uint32)
    if starts.size == 0:
        return out
    if (
        int(starts.min()) < 0
        or int(lengths.min()) < 0
        or int((starts + lengths).max()) > data.size
    ):
        raise ValueError("crc32c_many: a segment runs outside the buffer")
    short = lengths < 4
    for index in _np.flatnonzero(short).tolist():
        start = int(starts[index])
        out[index] = _crc32c_scalar(data[start : start + lengths[index]].tolist(), crc)
    if short.all():
        return out
    long_ = ~short
    starts, lengths = starts[long_], lengths[long_]

    # Left-pad every segment with zeros to whole chunks, one row per chunk.
    chunks = (lengths + (_CHUNK - 1)) // _CHUNK
    first_row = _np.cumsum(chunks) - chunks
    padded = _np.zeros((int(chunks.sum()), _CHUNK), dtype=_np.uint8)
    flat_padded = padded.reshape(-1)
    destinations = first_row * _CHUNK + chunks * _CHUNK - lengths
    for start, length, dest in zip(
        starts.tolist(), lengths.tolist(), destinations.tolist()
    ):
        flat_padded[dest : dest + length] = data[start : start + length]
    # The initial register, folded into each segment's first four bytes.
    register = (crc ^ 0xFFFFFFFF) & 0xFFFFFFFF
    for byte in range(4):
        flat_padded[destinations + byte] ^= (register >> (8 * byte)) & 0xFF

    tables = _position_tables()
    lookup = tables.reshape(-1)
    position = _np.arange(_CHUNK, dtype=_np.intp) << 8
    values = _np.empty(padded.shape[0], dtype=_np.uint32)
    for row in range(0, padded.shape[0], _ROWS_PER_PASS):
        rows = padded[row : row + _ROWS_PER_PASS]
        values[row : row + _ROWS_PER_PASS] = _np.bitwise_xor.reduce(
            lookup[rows + position], axis=1
        )

    # Right-align each segment's chunk values in a power-of-two wide
    # grid (the leading zero chunks add nothing), then fold neighbours
    # pairwise: the left one is pushed through the right one's zeros.
    width = 1 << (int(chunks.max()) - 1).bit_length()
    grid = _np.zeros((chunks.size, width), dtype=_np.uint32)
    segment = _np.repeat(_np.arange(chunks.size), chunks)
    column = _np.arange(values.size) - first_row[segment] + (width - chunks)[segment]
    grid[segment, column] = values
    level = 0
    while grid.shape[1] > 1:
        grid = _shift(_shift_tables(level), grid[:, 0::2]) ^ grid[:, 1::2]
        level += 1
    out[long_] = grid[:, 0] ^ _np.uint32(0xFFFFFFFF)
    return out


def crc32c(data: bytes, crc: int = 0) -> int:
    """The CRC32C of ``data``, optionally continuing from ``crc``."""
    if len(data) < _KERNEL_MIN_BYTES:
        return _crc32c_scalar(data, crc)
    return int(crc32c_many(data, [0], [len(data)], crc)[0])


#: Bytes of framing prepended to every block: u32 length + u32 crc32c.
FRAME_HEADER_BYTES = 8


def frame_block(payload: bytes) -> bytes:
    """``u32 len | u32 crc32c(payload) | payload`` (little-endian)."""
    return struct.pack("<II", len(payload), crc32c(payload)) + payload


def read_block(data: bytes, offset: int) -> "tuple[bytes, int] | None":
    """Unframe the block at ``offset``: ``(payload, next_offset)``.

    Returns ``None`` when the frame is *incomplete or invalid* — a short
    header, a length running past the buffer, or a CRC mismatch.  The
    caller decides whether that means a droppable torn tail (WAL) or
    corruption (sstable, manifest); this function cannot tell the two
    apart.
    """
    if offset + FRAME_HEADER_BYTES > len(data):
        return None
    length, crc = struct.unpack_from("<II", data, offset)
    start = offset + FRAME_HEADER_BYTES
    end = start + length
    if end > len(data):
        return None
    payload = data[start:end]
    if crc32c(payload) != crc:
        return None
    return payload, end

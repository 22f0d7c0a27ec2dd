"""Canonical byte encoding of records and primitive values.

Every durable format (sstable data blocks, WAL frames) encodes records
through this module, so a record has exactly one byte representation —
the property the byte-identical ``encode``/``decode`` round-trip of
:mod:`~repro.lsm.format.sstable_io` rests on.

Integers use unsigned LEB128 varints (zigzag for signed values); keys
carry a type tag so int, str and bytes keys all round-trip.  Decoders
raise :class:`~repro.errors.CorruptionError` on any malformed input —
a decode failure can only be reached after a CRC pass, so it always
means a format bug or deliberate tampering, never a torn write.
"""

from __future__ import annotations

from typing import Hashable

from ...errors import CorruptionError, StorageError
from ..record import Record

_KEY_INT = 0
_KEY_STR = 1
_KEY_BYTES = 2

_FLAG_TOMBSTONE = 0x01
_FLAG_HAS_VALUE = 0x02


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise StorageError(f"cannot varint-encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """``(value, next_offset)``; raises on truncation."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CorruptionError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def encode_zigzag(value: int) -> bytes:
    """Signed integer as a zigzag varint (arbitrary precision)."""
    return encode_varint(value << 1 if value >= 0 else ((-value) << 1) - 1)


def decode_zigzag(data: bytes, offset: int) -> tuple[int, int]:
    raw, offset = decode_varint(data, offset)
    return (raw >> 1 if not raw & 1 else -((raw + 1) >> 1)), offset


def encode_key(key: Hashable) -> bytes:
    """Type-tagged key bytes (int, str or bytes keys only)."""
    # bool is an int subclass but hashes/compares differently enough to
    # matter elsewhere; refuse rather than silently coerce.
    if type(key) is int:
        return bytes([_KEY_INT]) + encode_zigzag(key)
    if type(key) is str:
        payload = key.encode("utf-8")
        return bytes([_KEY_STR]) + encode_varint(len(payload)) + payload
    if type(key) is bytes:
        return bytes([_KEY_BYTES]) + encode_varint(len(key)) + key
    raise StorageError(
        f"key {key!r} of type {type(key).__name__} is not serializable; "
        "durable sstables support int, str and bytes keys"
    )


def decode_key(data: bytes, offset: int) -> tuple[Hashable, int]:
    if offset >= len(data):
        raise CorruptionError("truncated key tag")
    tag = data[offset]
    offset += 1
    if tag == _KEY_INT:
        return decode_zigzag(data, offset)
    if tag in (_KEY_STR, _KEY_BYTES):
        length, offset = decode_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise CorruptionError("truncated key payload")
        payload = data[offset:end]
        try:
            return (payload.decode("utf-8") if tag == _KEY_STR else payload), end
        except UnicodeDecodeError as error:
            message = f"str key is not valid UTF-8: {error.reason}"
            raise CorruptionError(message) from None
    raise CorruptionError(f"unknown key tag {tag}")


def encode_record(record: Record) -> bytes:
    """One record's canonical bytes: flags, key, seqno, value."""
    flags = 0
    if record.tombstone:
        flags |= _FLAG_TOMBSTONE
    if record.value is not None:
        flags |= _FLAG_HAS_VALUE
    out = bytearray([flags])
    out += encode_key(record.key)
    out += encode_varint(record.seqno)
    if record.value is not None:
        out += encode_varint(len(record.value))
        out += record.value
    else:
        out += encode_varint(record.value_size)
    return bytes(out)


def decode_record(data: bytes, offset: int) -> tuple[Record, int]:
    if offset >= len(data):
        raise CorruptionError("truncated record flags")
    flags = data[offset]
    if flags & ~(_FLAG_TOMBSTONE | _FLAG_HAS_VALUE):
        raise CorruptionError(f"unknown record flags 0x{flags:02x}")
    key, offset = decode_key(data, offset + 1)
    seqno, offset = decode_varint(data, offset)
    size, offset = decode_varint(data, offset)
    value = None
    if flags & _FLAG_HAS_VALUE:
        end = offset + size
        if end > len(data):
            raise CorruptionError("truncated record value")
        value = data[offset:end]
        offset = end
    return (
        Record(
            key=key,
            seqno=seqno,
            value_size=size,
            tombstone=bool(flags & _FLAG_TOMBSTONE),
            value=value,
        ),
        offset,
    )

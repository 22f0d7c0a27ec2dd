"""File-backed write-ahead log with CRC-framed records.

Each append writes one frame — ``u32 len | u32 crc32c | encoded
record`` — to an append-only file, followed by a ``sync()`` every
``sync_every`` appends (1 = sync each record, the durable default).
Replay distinguishes two failure shapes:

* a **torn tail** — the *final* frame is short or fails its CRC, which
  is exactly what a crash mid-append leaves behind.  The partial frame
  is dropped and truncated away; every complete frame before it is kept.
* **mid-log corruption** — a bad frame *followed by more bytes*, a
  whole frame whose length field was damaged (a prefix of the bytes
  after its header matches its CRC), or a frame whose payload decodes
  to a sequence number that does not strictly increase.  Appends happen in seqno order, so either means
  the durable bytes are wrong, and replay raises
  :class:`~repro.errors.CorruptionError` rather than serve them.

Only the active log can be torn.  A sealed ``wal-NNNNNN.log`` segment
was synced before it was renamed, so :func:`read_sealed_log` treats a
bad final frame as corruption too.

The class mirrors the in-memory :class:`~repro.lsm.wal.WriteAheadLog`
surface (``append``/``replay``/``is_empty``/``__len__``/``last_seqno``/
``bytes_appended_total``) so the engine can swap one for the other, and
bills frame bytes to a
:class:`~repro.lsm.disk.SimulatedDisk` when one is attached.
"""

from __future__ import annotations

import struct
from typing import Optional

from ...errors import CorruptionError
from ..disk import SimulatedDisk
from ..record import Record
from .checksum import FRAME_HEADER_BYTES, crc32c, frame_block, read_block
from .encoding import decode_record, encode_record

WAL_NAME = "wal.log"


class FileWriteAheadLog:
    """An append-only, crash-tolerant record log on disk."""

    def __init__(
        self,
        fs,
        name: str = WAL_NAME,
        disk: Optional[SimulatedDisk] = None,
        sync_every: int = 1,
    ) -> None:
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {sync_every}")
        self._fs = fs
        self._name = name
        self._disk = disk
        self._sync_every = sync_every
        self._unsynced = 0
        self.bytes_appended_total = 0
        # Repair a torn tail *before* opening for append, so new frames
        # never land after garbage bytes.
        records = self._scan(repair=True)
        self._entry_count = len(records)
        #: seqno of the newest logged record (0 when empty).
        self.last_seqno = records[-1].seqno if records else 0
        self._file = fs.open_append(name)

    # -- write path -----------------------------------------------------
    def append(self, record: Record) -> None:
        frame = frame_block(encode_record(record))
        self._file.append(frame)
        self.bytes_appended_total += len(frame)
        if self._disk is not None:
            self._disk.write(len(frame))
        self._entry_count += 1
        self.last_seqno = record.seqno
        self._unsynced += 1
        if self._unsynced >= self._sync_every:
            self.sync()

    def sync(self) -> None:
        """Force appended frames to durable storage."""
        self._file.sync()
        self._unsynced = 0

    def close(self) -> None:
        """Sync what the group commit left unsynced, then release the file.

        Idempotent: a second close finds nothing unsynced.
        """
        if self._unsynced:
            self.sync()
        self._file.close()

    # -- read path ------------------------------------------------------
    def __len__(self) -> int:
        return self._entry_count

    @property
    def is_empty(self) -> bool:
        return self._entry_count == 0

    def replay(self) -> list[Record]:
        """Every logged record (crash-recovery view)."""
        return self._scan(repair=False)

    def _scan(self, repair: bool) -> list[Record]:
        """Decode every complete frame; drop a torn tail.

        With ``repair=True`` (open time) a torn tail is physically
        truncated off the file so subsequent appends start clean.
        """
        data = self._fs.read_bytes(self._name) if self._fs.exists(self._name) else b""
        records, torn_at = _decode_frames(data, torn_tail_ok=True)
        if torn_at is not None and repair:
            self._fs.truncate(self._name, torn_at)
        return records


def read_sealed_log(fs, name: str) -> list[Record]:
    """Every record of a sealed ``wal-NNNNNN.log`` segment.

    A segment is synced before the rename that seals it and is never
    appended to again, so it has no torn tail: a bad final frame is
    corruption like any other, and so is an empty segment (an empty log
    is never sealed).
    """
    records, _ = _decode_frames(fs.read_bytes(name), torn_tail_ok=False)
    if not records:
        raise CorruptionError(f"WAL segment {name} holds no record")
    return records


def _decode_frames(
    data: bytes, torn_tail_ok: bool
) -> tuple[list[Record], Optional[int]]:
    """A log's records, and the offset of its torn tail (``None`` if whole).

    Raises :class:`CorruptionError` on a bad frame unless ``torn_tail_ok``
    and the frame could be one torn final append.
    """
    records: list[Record] = []
    offset = 0
    last_seqno: Optional[int] = None
    while offset < len(data):
        block = read_block(data, offset)
        if block is None:
            # Bad frame: only droppable if nothing follows it.  A
            # longest-possible torn frame is header + claimed length
            # running past EOF; anything beyond that span means
            # complete frames sit after the bad one → corruption.
            if not torn_tail_ok:
                raise CorruptionError(
                    f"WAL frame at offset {offset} failed its checksum "
                    "in a sealed segment"
                )
            if not _is_plausible_tail(data, offset):
                raise CorruptionError(
                    f"WAL frame at offset {offset} failed its checksum "
                    "with valid data following it"
                )
            return records, offset
        payload, next_offset = block
        try:
            record, end = decode_record(payload, 0)
        except CorruptionError as error:
            raise CorruptionError(f"WAL frame at offset {offset}: {error}") from None
        if end != len(payload):
            raise CorruptionError(
                f"WAL frame at offset {offset} has {len(payload) - end} "
                "trailing bytes after the record"
            )
        if last_seqno is not None and record.seqno <= last_seqno:
            raise CorruptionError(
                f"WAL seqno went backwards: {record.seqno} after "
                f"{last_seqno} (offset {offset}); the log is not a "
                "faithful append history"
            )
        last_seqno = record.seqno
        records.append(record)
        offset = next_offset
    return records, None


def _is_plausible_tail(data: bytes, offset: int) -> bool:
    """Could the bad frame at ``offset`` be one torn final append?"""
    remaining = len(data) - offset
    if remaining < FRAME_HEADER_BYTES:
        return True  # short header: certainly a torn tail
    length, crc = struct.unpack_from("<II", data, offset)
    # A torn append stops short of its declared end; if the buffer
    # extends past it, the CRC failure is mid-log corruption.
    if len(data) > offset + FRAME_HEADER_BYTES + length:
        return False
    # A whole frame whose length field was damaged also claims to run
    # past the end, but some prefix of the bytes after its header still
    # carries its CRC.  A torn payload matches by chance only (2**-32
    # per byte), and it is at most one frame long, so this walk is short
    # unless the length lies.
    register = 0
    for index in range(offset + FRAME_HEADER_BYTES, len(data)):
        register = crc32c(data[index : index + 1], register)
        if register == crc:
            return False
    return True

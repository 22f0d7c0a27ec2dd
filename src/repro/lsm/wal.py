"""Write-ahead log (commit log).

Every write is appended to the WAL before reaching the memtable so the
buffered data survives a crash; the storage rotates to a fresh log when
a memtable flushes and retires the sealed one once its flush lands (see
``lsm/storage.py``).  The simulation keeps the log in memory and
accounts its byte traffic against the simulated disk when one is
attached — WAL appends are sequential writes and contribute to the
engine's total I/O picture, though not to compaction cost.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import CorruptionError
from .disk import SimulatedDisk
from .record import Record


class WriteAheadLog:
    """An append-only record log."""

    def __init__(self, disk: Optional[SimulatedDisk] = None) -> None:
        self._entries: list[Record] = []
        self._disk = disk
        self.bytes_appended_total = 0

    def append(self, record: Record) -> None:
        self._entries.append(record)
        self.bytes_appended_total += record.size_bytes
        if self._disk is not None:
            self._disk.write(record.size_bytes)

    def restore(self, records: Iterable[Record]) -> None:
        """Re-enter already-durable records after a crash, billing nothing.

        Recovery replays survivors out of the pre-crash log; those bytes
        were appended (and charged to the disk) before the crash, so
        putting them back into the post-crash log must not move
        ``bytes_appended_total`` or the simulated disk's write ledger —
        recovery re-reads durable state, it does not re-write it.
        """
        self._entries.extend(records)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def last_seqno(self) -> int:
        """Seqno of the newest logged record (0 when empty)."""
        return self._entries[-1].seqno if self._entries else 0

    def replay(self) -> list[Record]:
        """Every logged record (crash-recovery view).

        Validates the log's core invariant — strictly increasing seqnos,
        because appends happen in write order — and raises
        :class:`~repro.errors.CorruptionError` on any violation rather
        than hand back a history that cannot have been written.
        """
        last_seqno: Optional[int] = None
        for index, record in enumerate(self._entries):
            if last_seqno is not None and record.seqno <= last_seqno:
                raise CorruptionError(
                    f"WAL seqno went backwards: {record.seqno} after "
                    f"{last_seqno} (entry {index}); the log is not a "
                    "faithful append history"
                )
            last_seqno = record.seqno
        return list(self._entries)

"""Where an engine's bytes live: the storage axis of :class:`LSMEngine`.

A storage owns the write-ahead logs and the persistence of sstables
behind one small surface, so the engine's write, flush, compaction and
recovery paths are written once:

``wal``
    the active log; the engine appends every write to it.
``rotate()``
    at a flush: seal the active log (it now covers exactly the memtable
    being flushed) and install a fresh one.
``persist(table)``
    make one flushed sstable durable.
``commit(tables, next_table_id, durable_seqno)``
    atomically publish the live table set, then collect what the commit
    made garbage: tables no longer live, and sealed logs whose every
    record is ``<= durable_seqno`` (i.e. sits in a committed sstable).
``recover()``
    ``(tables, next_table_id, durable_seqno, survivors)`` — the last
    committed state plus every logged record newer than it, oldest
    first.
``after_crash()``
    a fresh storage over whatever a process death leaves behind.
``close()``
    a clean stop: sync and release the active log.

:class:`MemoryStorage` keeps list-backed logs and bills a
:class:`~repro.lsm.disk.SimulatedDisk`; :class:`FileStorage` writes
CRC-framed files through a :mod:`~repro.lsm.faults` filesystem, and the
order of its steps is the durability argument (docs/durability.md).
"""

from __future__ import annotations

from typing import Optional

from ..errors import CorruptionError
from .disk import SimulatedDisk
from .format.manifest import (
    MANIFEST_TMP_NAME,
    ManifestState,
    read_manifest,
    write_manifest,
)
from .format.sstable_io import decode_sstable, encode_sstable
from .format.wal import WAL_NAME, FileWriteAheadLog, read_sealed_log
from .record import Record
from .sstable import SSTable
from .wal import WriteAheadLog

Recovered = tuple[list[SSTable], int, int, list[Record]]


class MemoryStorage:
    """Tables and logs held in process memory, billed to a simulated disk."""

    def __init__(self, disk: SimulatedDisk, use_wal: bool) -> None:
        self.disk = disk
        self._log_disk = disk if use_wal else None
        self.wal = WriteAheadLog(self._log_disk)
        self._sealed: list[WriteAheadLog] = []  # oldest first
        self._committed: tuple[list[SSTable], int, int] = ([], 0, 0)

    def rotate(self) -> None:
        if not self.wal.is_empty:
            self._sealed.append(self.wal)
            self.wal = WriteAheadLog(self._log_disk)

    def persist(self, table: SSTable) -> None:
        self.disk.write(table.size_bytes)

    def commit(
        self, tables: list[SSTable], next_table_id: int, durable_seqno: int
    ) -> None:
        self._committed = (list(tables), next_table_id, durable_seqno)
        self._sealed = [
            log for log in self._sealed if log.last_seqno > durable_seqno
        ]

    def recover(self) -> Recovered:
        tables, next_table_id, durable_seqno = self._committed
        survivors = [
            record
            for log in (*self._sealed, self.wal)
            for record in log.replay()
            if record.seqno > durable_seqno
        ]
        return list(tables), next_table_id, durable_seqno, survivors

    def after_crash(self) -> "MemoryStorage":
        """Committed tables plus the logs, which re-enter unbilled.

        The logged bytes were charged to the disk when they were
        appended; a restart re-reads them, it does not re-write them.
        """
        survivor = MemoryStorage(self.disk, self._log_disk is not None)
        survivor._committed = self._committed
        for log in self._sealed:
            survivor.wal.restore(log.replay())
            survivor.rotate()
        survivor.wal.restore(self.wal.replay())
        return survivor

    def close(self) -> None:
        """Nothing to release: the logs are lists."""


def _table_name(table_id: int) -> str:
    return f"{table_id:06d}.sst"


def _segment_name(index: int) -> str:
    return f"wal-{index:06d}.log"


def _segment_index(name: str) -> Optional[int]:
    if not (name.startswith("wal-") and name.endswith(".log")):
        return None
    try:
        return int(name[len("wal-"):-len(".log")])
    except ValueError:
        return None


class FileStorage:
    """``NNNNNN.sst`` files, a MANIFEST and a segmented WAL on a filesystem.

    The active log is always ``wal.log``; ``rotate()`` syncs it, closes
    it and atomically renames it to the next ``wal-NNNNNN.log`` segment,
    so every record of a flushed memtable is durable before the memtable
    leaves the write path.  The MANIFEST rename inside ``commit()`` is
    the commit point: files it does not name are garbage, and nothing
    is removed before it lands.
    """

    def __init__(
        self, fs, disk: SimulatedDisk, use_wal: bool, sync_every: int
    ) -> None:
        self.fs = fs
        self.disk = disk
        self._use_wal = use_wal
        self._sync_every = sync_every
        #: table ids with a durable .sst file (manifest-committed or not).
        self._persisted: set[int] = set()
        #: (segment name, last seqno) of every sealed log, oldest first.
        self._sealed: list[tuple[str, int]] = []
        self._next_segment = 0
        self.wal = WriteAheadLog()  # stays empty and unused without a WAL

    def rotate(self) -> None:
        if self.wal.is_empty:
            return
        self.wal.sync()
        self.wal.close()
        name = _segment_name(self._next_segment)
        self._next_segment += 1
        self.fs.rename(WAL_NAME, name)
        self._sealed.append((name, self.wal.last_seqno))
        self.wal = self._open_log(WAL_NAME)

    def _open_log(self, name: str) -> FileWriteAheadLog:
        return FileWriteAheadLog(
            self.fs, name=name, disk=self.disk, sync_every=self._sync_every
        )

    def persist(self, table: SSTable) -> None:
        data = encode_sstable(table)
        handle = self.fs.open_write(_table_name(table.table_id))
        handle.append(data)
        handle.sync()
        handle.close()
        self.disk.write(len(data))
        self._persisted.add(table.table_id)

    def commit(
        self, tables: list[SSTable], next_table_id: int, durable_seqno: int
    ) -> None:
        for table in tables:
            if table.table_id not in self._persisted:
                self.persist(table)  # a compaction output
        live = tuple(table.table_id for table in tables)
        write_manifest(self.fs, ManifestState(live, next_table_id, durable_seqno))
        # Only garbage after the commit: a crash before the rename
        # leaves the old state whole, a crash below leaves orphans that
        # recover() sweeps or filters out by seqno.
        for table_id in sorted(self._persisted.difference(live)):
            self.fs.remove(_table_name(table_id))
        self._persisted = set(live)
        kept = []
        for name, last_seqno in self._sealed:
            if last_seqno <= durable_seqno:
                self.fs.remove(name)
            else:
                kept.append((name, last_seqno))
        self._sealed = kept

    def recover(self) -> Recovered:
        state = read_manifest(self.fs) or ManifestState()
        if self.fs.exists(MANIFEST_TMP_NAME):
            # A crash between writing the temp manifest and renaming it;
            # the rename never happened, so the temp file is garbage.
            self.fs.remove(MANIFEST_TMP_NAME)
        segments: dict[int, str] = {}
        for name in self.fs.listdir():
            index = _segment_index(name)
            if index is not None:
                segments[index] = name
            elif name.endswith(".sst") and name[: -len(".sst")].isdigit():
                if int(name[: -len(".sst")]) not in state.live_tables:
                    # Flushed or compacted, but the manifest commit
                    # never landed: the file was still invisible.
                    self.fs.remove(name)
        tables = [self._load(table_id) for table_id in state.live_tables]
        self._persisted = set(state.live_tables)
        self._next_segment = max(segments, default=-1) + 1
        survivors: list[Record] = []
        if self._use_wal:
            # Every write takes the next seqno and each log picks up
            # where the one it replaced stopped, so the logs hold one
            # contiguous run: a gap means a segment lost its tail.
            last_seqno = None
            names = [segments[i] for i in sorted(segments)]
            # A crash can tear only the active log.  A store of the
            # pipelined engine has no wal.log: its newest segment was.
            active = names[-1] if names and not self.fs.exists(WAL_NAME) else None
            for name in [*names, WAL_NAME]:
                if name == WAL_NAME:
                    self.wal = self._open_log(name)  # repairs a torn tail
                    records = self.wal.replay()
                elif name == active:
                    log = self._open_log(name)  # repairs a torn tail
                    records = log.replay()
                    log.close()
                    self._sealed.append((name, log.last_seqno))
                else:
                    records = read_sealed_log(self.fs, name)
                    self._sealed.append((name, records[-1].seqno))
                if records:
                    if last_seqno is not None and records[0].seqno != last_seqno + 1:
                        raise CorruptionError(
                            f"WAL {name} starts at seqno {records[0].seqno}, "
                            f"not at {last_seqno + 1}"
                        )
                    last_seqno = records[-1].seqno
                survivors.extend(
                    record for record in records if record.seqno > state.last_seqno
                )
        return tables, state.next_table_id, state.last_seqno, survivors

    def _load(self, table_id: int) -> SSTable:
        name = _table_name(table_id)
        if not self.fs.exists(name):
            raise CorruptionError(
                f"manifest names table {table_id} but {name} is missing"
            )
        table = decode_sstable(self.fs.read_bytes(name))
        if table.table_id != table_id:
            raise CorruptionError(
                f"{name} holds table id {table.table_id}, manifest says {table_id}"
            )
        return table

    def after_crash(self) -> "FileStorage":
        """Everything durable is in the files; reopen them."""
        return FileStorage(self.fs, self.disk, self._use_wal, self._sync_every)

    def close(self) -> None:
        if self._use_wal:
            self.wal.close()  # syncs what the group commit has not

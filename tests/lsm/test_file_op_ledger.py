"""The default engine's file-operation ledger, pinned.

A fixed op stream — puts and deletes with at least one flush, one
compaction, a reopen from the files and a crash-restart — runs over
``FaultInjectedFileSystem(MemoryFileSystem())`` for each memtable mode
and WAL cadence.  ``fixtures/file_op_ledger.json`` holds what it did:
the destructive writes and syncs it counted, a sha256 of the operation
sequence (each append with its file and size, each sync, open, rename,
remove and truncate with its file) and a sha256 of every file left in
the directory.  The crash harness picks its fault points by those
counts, so an engine change that moves them moves every fault point,
and one that changes a file's bytes changes what recovery reads.

The fixture was recorded from the commit before the engine dropped its
flush queue (``PYTHONPATH=<that commit>/src python
tests/lsm/test_file_op_ledger.py > tests/lsm/fixtures/file_op_ledger.json``).
A deliberate change to the write path or the file format re-records it
the same way and says so.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.lsm import (
    EngineConfig,
    FaultInjectedFileSystem,
    LSMEngine,
    MemoryFileSystem,
)

FIXTURE = Path(__file__).parent / "fixtures" / "file_op_ledger.json"
MODES = ("map", "append")
SYNC_EVERY = (1, 4)
KEYS = 48


class OpRecordingFileSystem(FaultInjectedFileSystem):
    """Counts like its base class and hashes every operation in order."""

    def __init__(self, base) -> None:
        super().__init__(base)
        self.sequence = hashlib.sha256()

    def _note(self, *parts) -> None:
        self.sequence.update(" ".join(map(str, parts)).encode() + b"\n")

    def _on_append(self, file, data: bytes) -> None:
        self._note("append", file.name, len(data))
        super()._on_append(file, data)

    def _on_sync(self, file) -> None:
        self._note("sync", file.name)
        super()._on_sync(file)

    def open_write(self, name: str):
        self._note("open_write", name)
        return super().open_write(name)

    def rename(self, src: str, dst: str) -> None:
        self._note("rename", src, dst)
        super().rename(src, dst)

    def remove(self, name: str) -> None:
        self._note("remove", name)
        super().remove(name)

    def truncate(self, name: str, length: int = 0) -> None:
        self._note("truncate", name, length)
        super().truncate(name, length)


def _ops(engine: LSMEngine, rng: random.Random, count: int) -> None:
    for _ in range(count):
        key = rng.randrange(KEYS)
        if rng.random() < 0.85:
            engine.put(key, value_size=rng.randint(1, 64))
        else:
            engine.delete(key)


def ledger(mode: str, sync_every: int) -> dict:
    """Run the stream; return its counts and the final directory's hashes."""
    fs = OpRecordingFileSystem(MemoryFileSystem())
    config = EngineConfig(memtable_capacity=8, memtable_mode=mode)
    rng = random.Random(7)

    def open_engine() -> LSMEngine:
        return LSMEngine.open(fs=fs, config=config, wal_sync_every=sync_every)

    engine = open_engine()
    _ops(engine, rng, 120)
    engine.flush()
    engine.compact()
    _ops(engine, rng, 40)
    # Reopen from the files alone, the active log synced and closed by hand.
    engine.wal.sync()
    engine.wal.close()
    engine = open_engine()
    _ops(engine, rng, 60)
    engine = engine.simulate_crash_and_recover()
    _ops(engine, rng, 20)
    return {
        "writes": fs.writes_done,
        "syncs": fs.syncs_done,
        "sequence": fs.sequence.hexdigest(),
        "files": {
            name: hashlib.sha256(fs.base.read_bytes(name)).hexdigest()
            for name in fs.listdir()
        },
    }


@pytest.mark.parametrize("sync_every", SYNC_EVERY)
@pytest.mark.parametrize("mode", MODES)
def test_engine_reproduces_the_pinned_ledger(mode, sync_every):
    pinned = json.loads(FIXTURE.read_text())[f"{mode}/sync_every={sync_every}"]
    assert ledger(mode, sync_every) == pinned


def test_ledger_covers_flushed_compacted_and_logged_state():
    pinned = json.loads(FIXTURE.read_text())
    assert set(pinned) == {f"{m}/sync_every={s}" for m in MODES for s in SYNC_EVERY}
    for cell in pinned.values():
        names = set(cell["files"])
        assert {"MANIFEST", "wal.log"} <= names
        assert any(name.endswith(".sst") for name in names)
        assert cell["writes"] > 0 and cell["syncs"] > 0


if __name__ == "__main__":
    print(
        json.dumps(
            {
                f"{mode}/sync_every={sync_every}": ledger(mode, sync_every)
                for mode in MODES
                for sync_every in SYNC_EVERY
            },
            indent=1,
            sort_keys=True,
        )
    )

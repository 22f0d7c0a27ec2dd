"""Seeded bit flips and truncations of every durable file a loader reads.

Each file is mutated through ``faults.py``'s ``flip_bit`` / ``truncate``
and reloaded.  The loader must refuse it with its own error —
:class:`~repro.errors.CorruptionError` for the engine's files,
:class:`~repro.errors.ResultsStoreError` for run manifests — never with
a ``struct`` / ``KeyError`` / numpy traceback and never by serving
different data.  A run manifest may also load unchanged when the
mutation leaves its parsed content alone (whitespace, the trailing
newline): its checksum covers content, not bytes.  One file may recover instead: the active ``wal.log``,
whose last frame a crash mid-append tears, so a bad final frame there
is cut off and the store recovers without its last write.

A sealed ``wal-NNNNNN.log`` segment was synced before it was renamed,
so a bad tail there is corruption; a segment cut on a frame boundary is
caught by the seqno gap it leaves before the next log.  The store built
here keeps two sealed segments and a non-empty ``wal.log`` (the engine
died twice between a flush's log rotation and its manifest commit).
"""

from __future__ import annotations

import random

import pytest

from repro.errors import CorruptionError, ResultsStoreError
from repro.lsm import (
    CrashPoint,
    EngineConfig,
    LocalFileSystem,
    LSMEngine,
    MemoryFileSystem,
)
from repro.lsm.format.manifest import MANIFEST_NAME
from repro.lsm.format.wal import WAL_NAME
from repro.lsm.storage import _segment_index
from repro.scenarios import ExperimentRunner, ResultsStore

CONFIG = EngineConfig(memtable_capacity=4)
ROOMY = EngineConfig(memtable_capacity=64)
MUTATIONS = 120  # per file


class DyingFileSystem(MemoryFileSystem):
    """Raises at the next sstable write once armed."""

    die_at_next_table = False

    def open_write(self, name: str):
        if self.die_at_next_table and name.endswith(".sst"):
            self.die_at_next_table = False
            raise CrashPoint(f"died before writing {name}")
        return super().open_write(name)


#: The writes, in order: the first ten flush (and commit) at capacity 4;
#: two rounds of three die mid-flush, each sealing a segment; the last
#: three stay in the active log.
HISTORY = [
    *((i % 9, i + 1) for i in range(10)),
    *((20 + i, 5) for i in range(6)),
    *((100 + i, 7) for i in range(3)),
]
KEYS = sorted({key for key, _ in HISTORY})


def build_store() -> DyingFileSystem:
    fs = DyingFileSystem()
    engine = LSMEngine.open(fs=fs, config=CONFIG)
    for key, size in HISTORY[:10]:
        engine.put(key, value_size=size)
    for start in (10, 13):
        engine = LSMEngine.open(fs=fs, config=ROOMY)
        for key, size in HISTORY[start : start + 3]:
            engine.put(key, value_size=size)
        fs.die_at_next_table = True
        with pytest.raises(CrashPoint):
            engine.flush()
    engine = LSMEngine.open(fs=fs, config=ROOMY)
    for key, size in HISTORY[16:]:
        engine.put(key, value_size=size)
    engine.close()
    return fs


def state_after(prefix: int) -> dict:
    state: dict = {}
    for key, size in HISTORY[:prefix]:
        state[key] = size
    return state


def served(fs) -> dict:
    engine = LSMEngine.open(fs=fs, config=CONFIG)
    state = {}
    for key in KEYS:
        record = engine.get(key)
        if record is not None:
            state[key] = record.value_size
    return state


def mutate(fs, name: str, rng: random.Random) -> str:
    size = fs.size(name)
    if rng.random() < 0.5:
        offset, bit = rng.randrange(size), rng.randrange(8)
        fs.flip_bit(name, offset, bit)
        return f"flip_bit({name!r}, {offset}, {bit})"
    length = rng.randrange(size)
    fs.truncate(name, length)
    return f"truncate({name!r}, {length})"


def sealed_segments(fs) -> list[str]:
    return sorted(name for name in fs.listdir() if _segment_index(name) is not None)


def test_the_store_keeps_sealed_segments_and_an_active_log():
    fs = build_store()
    assert len(sealed_segments(fs)) == 2
    assert fs.size(WAL_NAME) > 0
    assert served(fs) == state_after(len(HISTORY))


@pytest.mark.parametrize("target", [0, 1, MANIFEST_NAME])
def test_sealed_segments_and_manifest_refuse_every_mutation(target):
    rng = random.Random(f"hostile-{target}")
    for _ in range(MUTATIONS):
        fs = build_store()
        name = sealed_segments(fs)[target] if isinstance(target, int) else target
        mutation = mutate(fs, name, rng)
        with pytest.raises(CorruptionError):
            served(fs)
            pytest.fail(f"{mutation} recovered")


def test_active_log_mutation_is_refused_or_recovers_a_prefix():
    """A flip costs at most the last write: every frame was synced
    (sync_every=1), and a crash tears only the last one.  A cut may cost
    more: nothing records the active log's length, so a log cut short
    reads as a shorter history."""
    rng = random.Random("hostile-wal.log")
    in_logs = len(HISTORY) - 3  # writes before the active log's three
    outcomes = {"refused": 0, "recovered": 0}
    for _ in range(MUTATIONS):
        fs = build_store()
        mutation = mutate(fs, WAL_NAME, rng)
        try:
            state = served(fs)
        except CorruptionError:
            outcomes["refused"] += 1
            continue
        outcomes["recovered"] += 1
        shortest = in_logs if mutation.startswith("truncate") else len(HISTORY) - 1
        prefixes = [state_after(n) for n in range(shortest, len(HISTORY) + 1)]
        assert state in prefixes, mutation
    assert all(outcomes.values()), outcomes


@pytest.fixture(scope="module")
def run_manifest(tmp_path_factory):
    store = ResultsStore(tmp_path_factory.mktemp("runs"))
    _, path = ExperimentRunner(store=store).run_and_record(
        "churn",
        runs=1,
        overrides={"recordcount": 150, "operationcount": 1500, "memtable_capacity": 150},
    )
    return store, path


def test_run_manifests_refuse_every_mutation(run_manifest, tmp_path):
    store, path = run_manifest
    original = path.read_bytes()
    manifest = store.load(path)
    assert manifest.cells
    fs = LocalFileSystem(tmp_path)
    rng = random.Random("hostile-run-manifest")
    outcomes = {"refused": 0, "unchanged": 0}
    for _ in range(4 * MUTATIONS):
        handle = fs.open_write(path.name)
        handle.append(original)
        handle.close()
        mutation = mutate(fs, path.name, rng)
        try:
            loaded = store.load(tmp_path / path.name)
        except ResultsStoreError:
            outcomes["refused"] += 1
            continue
        # A flip that leaves the parsed content alone (a space turned
        # into a tab, a cut trailing newline) loads the same manifest.
        assert loaded == manifest, f"{mutation} loaded different content"
        outcomes["unchanged"] += 1
    assert outcomes["refused"], outcomes

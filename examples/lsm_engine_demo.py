#!/usr/bin/env python3
"""Drive the LSM storage engine directly: writes, reads, compaction.

Shows the substrate the paper's motivation describes (Figure 1's write
path, the multi-sstable read path) and why compaction matters: read
amplification before vs after, for major compaction and for the two
related-work baselines (Size-Tiered, Leveled).

Run:  python examples/lsm_engine_demo.py
"""

import random

from repro.analysis import format_table
from repro.lsm import (
    EngineConfig,
    LeveledCompaction,
    LSMEngine,
    MajorCompaction,
    SizeTieredCompaction,
)


def build_engine(seed: int = 0) -> LSMEngine:
    """An engine loaded with an update-heavy keyspace of 500 keys."""
    rng = random.Random(seed)
    engine = LSMEngine(EngineConfig(memtable_capacity=100, memtable_mode="map"))
    for round_ in range(12):
        for _ in range(100):
            engine.put(rng.randrange(500), value_size=100)
    # sprinkle deletes: tombstones must vanish after major compaction
    for key in range(0, 500, 50):
        engine.delete(key)
    engine.flush()
    return engine


def probe_read_amplification(engine: LSMEngine) -> float:
    start_reads = engine.read_stats.reads
    start_probes = engine.read_stats.tables_probed
    for key in range(0, 500, 3):
        engine.get(key)
    reads = engine.read_stats.reads - start_reads
    probes = engine.read_stats.tables_probed - start_probes
    return probes / reads


def main() -> None:
    print("== Write path ==")
    engine = build_engine()
    print(
        f"1,200 writes through a 100-key memtable -> {engine.table_count} sstables, "
        f"{engine.total_entries_on_disk} entries on disk, "
        f"{engine.flush_count} flushes, {len(engine.wal)} records left in the active log"
    )

    print("\n== Read path before compaction ==")
    amp = probe_read_amplification(engine)
    print(f"tables probed per read: {amp:.2f} (bloom filters prune the rest)")

    print("\n== Compaction strategies ==")
    rows = []
    for name, strategy in [
        ("major BT(I)", MajorCompaction("BT(I)", seed=1)),
        ("major SI", MajorCompaction("SI")),
        ("size-tiered", SizeTieredCompaction()),
        ("leveled", LeveledCompaction(table_target_entries=200, base_level_entries=400)),
    ]:
        fresh = build_engine()
        before = probe_read_amplification(fresh)
        result = fresh.compact(strategy)
        after = probe_read_amplification(fresh)
        rows.append(
            [
                name,
                fresh.table_count,
                result.cost_actual_entries,
                round(result.total_simulated_seconds, 4),
                round(before, 2),
                round(after, 2),
            ]
        )
    print(
        format_table(
            [
                "strategy",
                "tables after",
                "costactual",
                "sim seconds",
                "amp before",
                "amp after",
            ],
            rows,
        )
    )

    print("\n== Correctness through compaction ==")
    engine = build_engine()
    engine.compact(MajorCompaction("BT(I)", seed=1))
    deleted_gone = all(engine.get(key) is None for key in range(0, 500, 50))
    survivors = sum(1 for key in range(500) if engine.get(key) is not None)
    print(f"deleted keys stay deleted: {deleted_gone}; live keys readable: {survivors}")
    assert deleted_gone


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Background compaction over an engine's lifetime.

The paper's setting (§1): "each server in a NoSQL system periodically
runs a compaction protocol in the background".  This example drives a
standard YCSB workload (preset A, update-heavy zipfian) against the LSM
engine with a :class:`CompactionController` and contrasts compaction
aggressiveness via lifetime amplification metrics:

* write amplification (bytes rewritten by compaction),
* space amplification (obsolete versions awaiting merge),
* read amplification (tables probed per read).

Run:  python examples/background_compaction.py
"""

from repro.analysis import format_table
from repro.lsm import (
    CompactionController,
    EngineConfig,
    LSMEngine,
    MajorCompaction,
    SizeTieredCompaction,
    measure_amplification,
)
from repro.ycsb import CoreWorkload, workload_preset


def run_lifetime(label, strategy_factory, table_threshold):
    config = workload_preset(
        "A",
        recordcount=500,
        operationcount=8000,
        seed=7,
        update_proportion=0.5,
        read_proportion=0.5,
    )
    workload = CoreWorkload(config)
    engine = LSMEngine(EngineConfig(memtable_capacity=200, use_wal=False))
    controller = CompactionController(
        engine, strategy_factory=strategy_factory, table_threshold=table_threshold
    )
    controller.run(workload.all_operations())
    engine.flush()
    report = measure_amplification(engine)
    return [
        label,
        controller.stats.compactions,
        engine.table_count,
        round(report.write_amplification, 2),
        round(report.space_amplification, 2),
        round(report.read_amplification, 2),
    ]


def main() -> None:
    print("YCSB workload A (50% read / 50% update, zipfian), 8,500 ops")
    print("through a 200-entry memtable with background compaction:\n")
    rows = [
        run_lifetime("major BT(I), threshold 4", lambda: MajorCompaction("BT(I)", seed=1), 4),
        run_lifetime("major BT(I), threshold 12", lambda: MajorCompaction("BT(I)", seed=1), 12),
        run_lifetime(
            "size-tiered, threshold 8",
            lambda: SizeTieredCompaction(min_threshold=4, until_single=False),
            8,
        ),
        run_lifetime("no compaction", lambda: MajorCompaction("BT(I)"), 10**9),
    ]
    print(
        format_table(
            ["setup", "compactions", "tables", "write amp", "space amp", "read amp"],
            rows,
        )
    )
    print(
        "\nThe trade-off the paper's Section 1 motivates: compacting more"
        "\naggressively rewrites more data (write amplification) but keeps"
        "\nthe sstable count — and with it read fan-out and stale-version"
        "\nspace — low.  The compaction *strategy* decides how cheaply each"
        "\nmerge round buys that reduction."
    )


if __name__ == "__main__":
    main()

"""Lifetime write-amplification bench: compaction aggressiveness trade-off.

Beyond the paper's single-compaction experiments, this bench runs the
engine with *background* compaction (the deployment model §1 describes)
over an update-heavy YCSB workload and measures lifetime amplification:

* more aggressive compaction (lower table threshold) pays more write
  amplification but keeps fewer tables on disk,
* no compaction has WA ~= 1 (each byte written once at flush) but the
  table count grows without bound,
* a Size-Tiered trigger lands between those extremes.
"""

from __future__ import annotations

from conftest import is_fast, write_bench_json

from repro.analysis import format_table
from repro.lsm import (
    CompactionController,
    EngineConfig,
    LSMEngine,
    MajorCompaction,
    SizeTieredCompaction,
    measure_amplification,
)
from repro.ycsb import CoreWorkload, WorkloadConfig


def run_lifetime(strategy_factory, table_threshold, operationcount):
    config = WorkloadConfig(
        recordcount=500,
        operationcount=operationcount,
        update_proportion=0.8,
        insert_proportion=0.2,
        distribution="zipfian",
        seed=31,
    )
    engine = LSMEngine(EngineConfig(memtable_capacity=250, use_wal=False))
    controller = CompactionController(
        engine, strategy_factory=strategy_factory, table_threshold=table_threshold
    )
    controller.run(CoreWorkload(config).all_operations())
    engine.flush()
    report = measure_amplification(engine)
    return report, engine.table_count, controller.stats.compactions


def test_write_amplification_vs_aggressiveness(benchmark, results_dir):
    operationcount = 4000 if is_fast() else 20_000

    def measure():
        rows = {}
        rows["major t=4"] = run_lifetime(
            lambda: MajorCompaction("BT(I)", seed=0), 4, operationcount
        )
        rows["major t=16"] = run_lifetime(
            lambda: MajorCompaction("BT(I)", seed=0), 16, operationcount
        )
        rows["stcs t=8"] = run_lifetime(
            lambda: SizeTieredCompaction(min_threshold=4, until_single=False),
            8,
            operationcount,
        )
        rows["none"] = run_lifetime(
            lambda: MajorCompaction("BT(I)"), 10_000_000, operationcount
        )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = [
        [
            name,
            round(report.write_amplification, 2),
            round(report.space_amplification, 2),
            tables,
            compactions,
        ]
        for name, (report, tables, compactions) in rows.items()
    ]
    (results_dir / "ablation_write_amplification.txt").write_text(
        format_table(
            ["setup", "write amp", "space amp", "tables", "compactions"], table
        )
        + "\n"
    )

    wa = {name: report.write_amplification for name, (report, _, _) in rows.items()}
    tables = {name: count for name, (_, count, _) in rows.items()}
    write_bench_json(
        results_dir,
        "write_amplification",
        {
            "operationcount": operationcount,
            "write_amplification": wa,
            "tables_on_disk": tables,
        },
    )

    # no compaction: every byte written once (flush only)
    assert wa["none"] < 1.6
    # aggressive major compaction costs the most rewriting ...
    # (at reduced scale the lazy threshold may never trigger, hence >=)
    assert wa["major t=4"] > wa["major t=16"] >= wa["none"]
    # ... but keeps the fewest tables on disk
    assert tables["major t=4"] <= tables["major t=16"] <= tables["none"]
    # a tiered trigger lands between full major and nothing
    assert wa["none"] < wa["stcs t=8"]

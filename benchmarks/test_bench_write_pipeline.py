"""Write-pipeline ablation: serial vs pipelined phase-1 ingest.

Pins the acceptance bar of the concurrent-write-pipeline PR: at
figure-7 scale the pipelined ingest (memtable freezes flushing on
background workers through the :class:`FlushPipeline`) must produce
**byte-identical** sstables to serial ingest at every worker count, and
on a machine with at least 4 cores the best pipelined configuration
must ingest at least 1.5x faster than the serial loop.

The timed leg is the fast plane, where the slab builds (GIL-releasing
argsort + columnar sstable construction) are nearly the whole wall —
the serial loop pays them inline, the pipeline overlaps them.  The
reference plane's put-loop dominates its wall, so it is held to the
identity bar only.  On fewer than 4 cores the identity matrix still
runs (the correctness half of the bar) but the speedup assertion is
skipped: a 1-core box physically cannot overlap builds, and the
recorded ``machine.cpu_count`` lets ``repro bench-trends`` tell
cross-machine movement apart from real regressions.

Writes ``results/ablation_write_pipeline.txt`` and
``results/BENCH_write_pipeline.json``.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.analysis.tables import format_table
from repro.simulator import SimulationConfig
from repro.simulator.phase1 import (
    generate_sstables_fast,
    generate_sstables_reference,
)

from conftest import write_artifact, write_bench_json

REPEATS = 3  # best-of timing to damp scheduler noise
MIN_CORES = 4  # the speedup bar only binds on machines with >= 4 cores
MIN_SPEEDUP = 1.5


def build_config(fast: bool) -> SimulationConfig:
    # Insert-only keeps every slab at full capacity (maximal build work);
    # the scaled-up op count makes each slab ~1 ms of argsort+construction
    # so worker handoff overhead stays negligible against the build.
    return replace(
        SimulationConfig.figure7(update_fraction=0.0),
        operationcount=500_000 if fast else 2_000_000,
        memtable_capacity=5_000 if fast else 20_000,
    )


def best_ingest(config: SimulationConfig):
    best = None
    for _ in range(REPEATS):
        result = generate_sstables_fast(config)
        if best is None or result.ingest_wall_seconds < best.ingest_wall_seconds:
            best = result
    return best


def assert_identical(reference, candidate, label):
    assert [t.table_id for t in candidate.tables] == [
        t.table_id for t in reference.tables
    ], label
    for ref_table, cand_table in zip(reference.tables, candidate.tables):
        assert cand_table.records == ref_table.records, label
    assert candidate.total_entries == reference.total_entries, label


def test_pipelined_ingest_identical_and_fast(bench_fast, results_dir):
    cpu_count = os.cpu_count() or 1
    parallel_workers = max(MIN_CORES, min(8, cpu_count))
    config = build_config(bench_fast)

    serial = best_ingest(config)
    matrix = [(1, 2), (2, 2), (parallel_workers, 4)]
    rows = [["serial", serial.ingest_wall_seconds, 1.0, 0, "0%"]]
    measured = {
        "serial": {
            "ingest_wall_seconds": serial.ingest_wall_seconds,
            "speedup_vs_serial": 1.0,
        }
    }
    best_speedup = None
    for workers, max_imm in matrix:
        label = f"pipelined x{workers} imm{max_imm}"
        candidate = best_ingest(
            replace(
                config,
                write_pipeline=True,
                flush_workers=workers,
                max_immutable_memtables=max_imm,
            )
        )
        assert_identical(serial, candidate, label)
        speedup = (
            serial.ingest_wall_seconds / candidate.ingest_wall_seconds
            if candidate.ingest_wall_seconds
            else 0.0
        )
        if workers >= MIN_CORES:
            best_speedup = max(best_speedup or 0.0, speedup)
        measured[label.replace(" ", "_")] = {
            "ingest_wall_seconds": candidate.ingest_wall_seconds,
            "speedup_vs_serial": speedup,
            "write_stall_count": candidate.write_stall_count,
            "flush_overlap_fraction": candidate.flush_overlap_fraction,
        }
        rows.append(
            [
                label,
                candidate.ingest_wall_seconds,
                speedup,
                candidate.write_stall_count,
                f"{candidate.flush_overlap_fraction:.0%}",
            ]
        )

    # The reference plane (real engine, operation at a time) is held to
    # the identity bar at a reduced scale: its put-loop dominates the
    # wall, so it proves correctness, not speedup.
    ref_config = replace(
        config,
        operationcount=100_000,
        memtable_capacity=2_000,
        data_plane="reference",
    )
    ref_serial = generate_sstables_reference(ref_config)
    ref_piped = generate_sstables_reference(
        replace(
            ref_config,
            write_pipeline=True,
            flush_workers=parallel_workers,
            max_immutable_memtables=4,
        )
    )
    assert_identical(ref_serial, ref_piped, "reference plane")

    table = format_table(
        ["ingest", "wall s", "speedup", "stalls", "overlap"],
        rows,
        float_digits=3,
        title=(
            f"phase-1 ingest over {serial.n_tables} flushes "
            f"(ops={config.operationcount}, memtable="
            f"{config.memtable_capacity}, best of {REPEATS}, "
            f"{cpu_count} cores)"
        ),
    )

    class _Artifact:
        title = (
            "Write-pipeline ablation: background flush workers vs the "
            "serial ingest loop (byte-identical sstables required)"
        )
        text = table

    write_artifact(results_dir, "ablation_write_pipeline", _Artifact())
    write_bench_json(
        results_dir,
        "write_pipeline",
        {
            "operationcount": config.operationcount,
            "memtable_capacity": config.memtable_capacity,
            "n_tables": serial.n_tables,
            "repeats": REPEATS,
            "parallel_workers": parallel_workers,
            "min_speedup_bar": MIN_SPEEDUP,
            "reference_plane_identity": True,
            "configs": measured,
        },
    )

    if cpu_count < MIN_CORES:
        pytest.skip(
            f"speedup bar needs >= {MIN_CORES} cores, this machine has "
            f"{cpu_count}; byte-identity across worker counts verified"
        )
    assert best_speedup is not None and best_speedup >= MIN_SPEEDUP, (
        f"best pipelined ingest speedup {best_speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x bar ({measured})"
    )

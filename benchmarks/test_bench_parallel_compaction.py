"""Parallel-compaction ablation: real workers vs the serial merge loop.

Pins the acceptance bar of the multi-worker merge-execution PR: on a
multi-lane BALANCETREE schedule at figure-7 scale (insert-only, so the
merge kernel does maximal work) both execution backends — ``serial``
and ``thread``, at several worker counts — must produce
**byte-identical** output tables, cost metrics and simulated durations,
and on a machine with at least 4 cores the thread backend must finish
the merge section at least 2x faster than the serial loop.

On fewer cores the identity matrix still runs (that is the correctness
half of the bar) but the speedup assertion is skipped: a 1-core box
physically cannot exhibit parallel speedup, and the recorded
``machine.cpu_count`` lets ``repro bench-trends`` tell cross-machine
movement apart from real regressions.

Writes ``results/ablation_parallel_compaction.txt`` and
``results/BENCH_parallel_compaction.json``.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.analysis.tables import format_table
from repro.core import GreedyMerger, MergeInstance
from repro.lsm import SimulatedDisk, execute_schedule
from repro.simulator import SimulationConfig, generate_sstables

from conftest import write_artifact, write_bench_json

REPEATS = 3  # best-of timing to damp scheduler noise
MIN_CORES = 4  # the speedup bar only binds on machines with >= 4 cores
POLICY = "balance_tree_input"  # BT(I): bushy tree, wide ready sets


def build_workload(fast: bool):
    """Phase-1 tables plus a BT(I) schedule over them, computed once."""
    config = replace(
        SimulationConfig.figure7(update_fraction=0.0),
        operationcount=200_000 if fast else 500_000,
        memtable_capacity=4_000 if fast else 5_000,
    )
    tables = generate_sstables(config).tables
    instance = MergeInstance(tuple(table.key_set for table in tables))
    schedule = GreedyMerger(POLICY, k=2, backend="bitset").run(instance).schedule
    return config, tables, schedule


def run_once(tables, schedule, executor, workers):
    return execute_schedule(
        tables,
        schedule,
        SimulatedDisk(),
        next_table_id=len(tables),
        lanes=4,
        executor=executor,
        workers=workers,
    )


def best_of(tables, schedule, executor, workers):
    best = None
    for _ in range(REPEATS):
        result = run_once(tables, schedule, executor, workers)
        if best is None or result.merge_wall_seconds < best.merge_wall_seconds:
            best = result
    return best


def assert_identical(reference, candidate, label):
    assert candidate.output_table.records == reference.output_table.records, label
    assert candidate.output_table.table_id == reference.output_table.table_id, label
    assert candidate.n_merges == reference.n_merges, label
    assert candidate.cost_actual_entries == reference.cost_actual_entries, label
    assert (
        candidate.cost_simplified_entries == reference.cost_simplified_entries
    ), label
    assert candidate.bytes_read == reference.bytes_read, label
    assert candidate.bytes_written == reference.bytes_written, label
    assert candidate.io_seconds == reference.io_seconds, label
    assert candidate.simulated_seconds == reference.simulated_seconds, label


def test_parallel_backends_identical_and_fast(bench_fast, results_dir):
    # Full fig7 scale keeps the merges large enough for pool overhead to
    # amortize; the reduced fast-mode workload gets a reduced bar.
    min_speedup = 1.5 if bench_fast else 2.0
    cpu_count = os.cpu_count() or 1
    parallel_workers = max(MIN_CORES, min(8, cpu_count))
    config, tables, schedule = build_workload(bench_fast)

    matrix = [
        ("serial", 1),
        ("thread", 1),
        ("thread", 2),
        ("thread", parallel_workers),
    ]
    serial = best_of(tables, schedule, "serial", 1)
    rows = []
    measured = {}
    best_parallel = None
    for executor, workers in matrix:
        label = f"{executor} x{workers}"
        result = (
            serial
            if (executor, workers) == ("serial", 1)
            else best_of(tables, schedule, executor, workers)
        )
        assert_identical(serial, result, label)
        speedup = (
            serial.merge_wall_seconds / result.merge_wall_seconds
            if result.merge_wall_seconds
            else 0.0
        )
        if executor != "serial" and workers >= MIN_CORES:
            best_parallel = max(best_parallel or 0.0, speedup)
        measured[label.replace(" ", "_")] = {
            "merge_wall_seconds": result.merge_wall_seconds,
            "speedup_vs_serial": speedup,
            "worker_utilization": result.merge_utilization,
        }
        rows.append(
            [
                label,
                result.merge_wall_seconds,
                speedup,
                f"{result.merge_utilization:.0%}",
            ]
        )

    table = format_table(
        ["backend", "merge wall s", "speedup", "util"],
        rows,
        float_digits=3,
        title=(
            f"BT(I) schedule over {len(tables)} tables "
            f"(ops={config.operationcount}, memtable="
            f"{config.memtable_capacity}, best of {REPEATS}, "
            f"{cpu_count} cores)"
        ),
    )

    class _Artifact:
        title = (
            "Parallel-compaction ablation: execution backends vs the "
            "serial merge loop (byte-identical outputs required)"
        )
        text = table

    write_artifact(results_dir, "ablation_parallel_compaction", _Artifact())
    write_bench_json(
        results_dir,
        "parallel_compaction",
        {
            "policy": POLICY,
            "n_tables": len(tables),
            "operationcount": config.operationcount,
            "memtable_capacity": config.memtable_capacity,
            "repeats": REPEATS,
            "parallel_workers": parallel_workers,
            "min_speedup_bar": min_speedup,
            "simulated_seconds": serial.simulated_seconds,
            "cost_actual_entries": serial.cost_actual_entries,
            "backends": measured,
        },
    )

    if cpu_count < MIN_CORES:
        pytest.skip(
            f"speedup bar needs >= {MIN_CORES} cores, this machine has "
            f"{cpu_count}; byte-identity across backends verified"
        )
    assert best_parallel is not None and best_parallel >= min_speedup, (
        f"best parallel merge speedup {best_parallel:.2f}x below the "
        f"{min_speedup}x bar ({measured})"
    )

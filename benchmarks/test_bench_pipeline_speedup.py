"""Data-plane ablation: batched columnar pipeline vs the reference plane.

Reproduces the acceptance bar of the vectorized data-plane PR: at
figure-7 scale (~100 sstables from the paper's workload) one end-to-end
phase 1 + phase 2 pass — YCSB generation, memtable flushes, and a full
SMALLESTINPUT major compaction — must run at least 3x faster on the
fast plane (``data_plane="auto"``: columnar YCSB batches, array-backed
sstables, columnar run-merge kernel) than on the reference plane
(``data_plane="reference"``: per-operation engine loop, heap merge),
while producing **bit-identical** sstables and metrics.  The insert-mix
point is also timed because insert-heavy workloads stress the merge
kernel hardest (nothing dedups away).

Writes ``results/ablation_pipeline_speedup.txt`` and
``results/BENCH_pipeline_speedup.json``.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.analysis.tables import format_table
from repro.simulator import SimulationConfig, generate_sstables, run_strategy

from conftest import write_artifact, write_bench_json

REPEATS = 3  # best-of timing to damp scheduler noise
STRATEGY = "SI"


def pipeline_pass(config: SimulationConfig):
    """One timed end-to-end pass: phase 1 + a full compaction."""
    started = time.perf_counter()
    phase1 = generate_sstables(config)
    result = run_strategy(phase1.tables, STRATEGY, config)
    return time.perf_counter() - started, phase1, result


def best_of(config: SimulationConfig):
    best_seconds, phase1, result = float("inf"), None, None
    for _ in range(REPEATS):
        seconds, this_phase1, this_result = pipeline_pass(config)
        if seconds < best_seconds:
            best_seconds, phase1, result = seconds, this_phase1, this_result
    return best_seconds, phase1, result


def assert_identical(reference, fast):
    ref_phase1, ref_result = reference
    fast_phase1, fast_result = fast
    assert ref_phase1.total_entries == fast_phase1.total_entries
    assert len(ref_phase1.tables) == len(fast_phase1.tables)
    for ref_table, fast_table in zip(ref_phase1.tables, fast_phase1.tables):
        assert ref_table.records == fast_table.records
    assert ref_result.cost_actual == fast_result.cost_actual
    assert ref_result.cost_simplified == fast_result.cost_simplified
    assert ref_result.bytes_read == fast_result.bytes_read
    assert ref_result.simulated_seconds == fast_result.simulated_seconds


def test_pipeline_at_least_3x_faster(bench_fast, results_dir):
    min_speedup = 2.0 if bench_fast else 3.0
    operationcount = 20_000 if bench_fast else 100_000

    rows = []
    measured = {}
    for update_fraction in (0.0, 0.5):
        base = replace(
            SimulationConfig.figure7(update_fraction),
            operationcount=operationcount,
        )
        fast_seconds, fast_phase1, fast_result = best_of(base)
        ref_seconds, ref_phase1, ref_result = best_of(
            replace(base, data_plane="reference")
        )
        assert_identical((ref_phase1, ref_result), (fast_phase1, fast_result))
        speedup = ref_seconds / fast_seconds
        measured[update_fraction] = {
            "baseline_seconds": ref_seconds,
            "optimized_seconds": fast_seconds,
            "speedup": speedup,
            "n_tables": fast_phase1.n_tables,
            "cost_actual": fast_result.cost_actual,
        }
        rows.append(
            [
                f"{update_fraction:.0%}",
                fast_phase1.n_tables,
                ref_seconds,
                fast_seconds,
                speedup,
            ]
        )

    table = format_table(
        ["update %", "tables", "reference s", "fast s", "speedup"],
        rows,
        float_digits=3,
        title=(
            f"phase1 + {STRATEGY} compaction, ops={operationcount}, "
            f"fast={bench_fast} (best of {REPEATS})"
        ),
    )

    class _Artifact:
        title = (
            "Data-plane ablation: batched columnar pipeline vs reference "
            f"(phase1 + {STRATEGY} at fig7 scale)"
        )
        text = table

    write_artifact(results_dir, "ablation_pipeline_speedup", _Artifact())
    write_bench_json(
        results_dir,
        "pipeline_speedup",
        {
            "strategy": STRATEGY,
            "operationcount": operationcount,
            "repeats": REPEATS,
            "min_speedup_bar": min_speedup,
            "points": {
                f"update_{fraction:.0%}": values
                for fraction, values in measured.items()
            },
        },
    )

    worst = min(values["speedup"] for values in measured.values())
    assert worst >= min_speedup, (
        f"pipeline speedup {worst:.2f}x below the {min_speedup}x bar "
        f"({measured})"
    )

"""Sharding ablation: shard-count scaling and parallel shard fan-out.

Pins the acceptance bar of the scale-out tier: an 8-shard cell fanned
over the process pool (the sweep runner's ``--jobs`` path, which splits
a sharded cell into one task per shard) must produce **byte-identical** cluster results
to the same shards executed serially, and on a machine with at least
4 cores the fan-out must finish at least 2x faster than the serial
shard loop.  The workload is insert-only at figure-7-like scale so the
per-shard merge work dominates the (per-task, duplicated) stream
generation — the same trick the parallel-compaction bench uses.

On fewer cores the identity half still runs but the speedup assertion
is skipped: a 1-core box physically cannot exhibit parallel speedup,
and the recorded ``machine.cpu_count`` tells a reader of two snapshots
cross-machine movement apart from real regressions.

Also records the shard-count scaling curve (1, 2, 4, 8 shards): total
merge cost stays roughly conserved while the cluster makespan drops as
shards spread the schedule over the shared lane budget.

Writes ``results/ablation_sharding.txt`` and
``results/BENCH_sharding.json``.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import pytest

from repro.analysis.tables import format_table
from repro.cluster import run_sharded_cell
from repro.simulator import SimulationConfig
from repro.simulator.runner import _run_cells

from conftest import write_artifact, write_bench_json

REPEATS = 3  # best-of timing to damp scheduler noise
MIN_CORES = 4  # the speedup bar only binds on machines with >= 4 cores
SHARD_CURVE = (1, 2, 4, 8)
#: Several strategies per shard so per-shard phase-2 work dominates the
#: stream generation each fanned task repeats.
LABELS = ("SI", "SO", "BT(I)", "BT(O)", "RANDOM", "LM")
HEADLINE = "BT(I)"

#: StrategyResult fields that must not depend on how shards were
#: executed (wall-clock/overhead fields legitimately differ).
DETERMINISTIC_FIELDS = (
    "strategy",
    "n_tables",
    "n_merges",
    "cost_actual",
    "cost_simplified",
    "bytes_read",
    "bytes_written",
    "io_seconds",
    "simulated_seconds",
    "num_shards",
    "cluster_makespan_seconds",
    "shard_imbalance",
    "shard_ops",
    "shard_costs",
    "shard_read_amps",
)


def build_config(fast: bool) -> SimulationConfig:
    return SimulationConfig(
        recordcount=1_000,
        operationcount=150_000 if fast else 500_000,
        memtable_capacity=400 if fast else 1_000,
        distribution="latest",
        update_fraction=0.0,  # insert-only: maximal merge work per shard
        seed=11,
    )


def timed_cell(config: SimulationConfig, jobs: int):
    start = time.perf_counter()
    if jobs == 1:
        cell = run_sharded_cell(config, LABELS, 0)
    else:
        # The runner's fan-out: one pool task per shard.
        (cell,) = _run_cells([(config, LABELS, 0)], jobs)
    return cell, time.perf_counter() - start


def best_of(config: SimulationConfig, jobs: int):
    best_cell, best_wall = None, None
    for _ in range(REPEATS):
        cell, wall = timed_cell(config, jobs)
        if best_wall is None or wall < best_wall:
            best_cell, best_wall = cell, wall
    return best_cell, best_wall


def assert_identical(reference, candidate, label):
    for field_name in DETERMINISTIC_FIELDS:
        assert getattr(candidate, field_name) == getattr(
            reference, field_name
        ), f"{label}: {field_name}"


def test_shard_scaling_and_parallel_fanout(bench_fast, results_dir):
    # Full scale keeps per-shard merges large enough for pool overhead
    # to amortize; the reduced fast-mode workload gets a reduced bar.
    min_speedup = 1.5 if bench_fast else 2.0
    cpu_count = os.cpu_count() or 1
    parallel_workers = max(MIN_CORES, min(8, cpu_count))
    base = build_config(bench_fast)

    # --- Shard-count scaling curve (serial shard execution). -----------
    curve = {}
    rows = []
    serial_cell = None
    serial_wall = None
    for num_shards in SHARD_CURVE:
        config = replace(base, num_shards=num_shards)
        cell, wall = timed_cell(config, jobs=1)
        headline = cell[HEADLINE]
        total_cost = sum(cell[label].cost_actual for label in LABELS)
        curve[str(num_shards)] = {
            "wall_seconds": wall,
            "cluster_makespan_seconds": headline.cluster_makespan_seconds,
            "shard_imbalance": headline.shard_imbalance,
            "total_cost_entries": total_cost,
            "headline_cost_entries": headline.cost_actual,
        }
        rows.append(
            [
                num_shards,
                wall,
                headline.cluster_makespan_seconds,
                headline.shard_imbalance,
                total_cost,
            ]
        )
        if num_shards == SHARD_CURVE[-1]:
            serial_cell, serial_wall = cell, wall

    # More shards must not inflate the cluster makespan: shards spread
    # the merge schedule over the shared lane budget.
    makespans = [
        curve[str(num_shards)]["cluster_makespan_seconds"]
        for num_shards in SHARD_CURVE
    ]
    assert makespans[-1] <= makespans[0], curve

    # --- Parallel fan-out: byte-identical, then the speedup bar. -------
    sharded = replace(base, num_shards=SHARD_CURVE[-1])
    for _ in range(REPEATS - 1):  # best-of for the serial reference too
        _, wall = timed_cell(sharded, jobs=1)
        serial_wall = min(serial_wall, wall)
    parallel_cell, parallel_wall = best_of(sharded, jobs=parallel_workers)
    for label in LABELS:
        assert_identical(serial_cell[label], parallel_cell[label], label)
    speedup = serial_wall / parallel_wall if parallel_wall else 0.0

    table = format_table(
        ["shards", "wall s", "makespan s", "imbalance", "total cost"],
        rows,
        float_digits=3,
        title=(
            f"{len(LABELS)} strategies per shard "
            f"(ops={base.operationcount}, memtable="
            f"{base.memtable_capacity}, insert-only, {cpu_count} cores); "
            f"fan-out x{parallel_workers}: {serial_wall:.3f}s serial vs "
            f"{parallel_wall:.3f}s parallel = {speedup:.2f}x "
            f"(best of {REPEATS})"
        ),
    )

    class _Artifact:
        title = (
            "Sharding ablation: shard-count scaling curve and parallel "
            "shard fan-out (byte-identical results required)"
        )
        text = table

    write_artifact(results_dir, "ablation_sharding", _Artifact())
    write_bench_json(
        results_dir,
        "sharding",
        {
            "labels": list(LABELS),
            "operationcount": base.operationcount,
            "memtable_capacity": base.memtable_capacity,
            "repeats": REPEATS,
            "parallel_workers": parallel_workers,
            "min_speedup_bar": min_speedup,
            "shard_curve": curve,
            "serial_wall_seconds": serial_wall,
            "parallel_wall_seconds": parallel_wall,
            "speedup_vs_serial_shards": speedup,
        },
    )

    if cpu_count < MIN_CORES:
        pytest.skip(
            f"speedup bar needs >= {MIN_CORES} cores, this machine has "
            f"{cpu_count}; serial/parallel byte-identity verified"
        )
    assert speedup >= min_speedup, (
        f"parallel shard fan-out speedup {speedup:.2f}x below the "
        f"{min_speedup}x bar (serial {serial_wall:.3f}s, parallel "
        f"{parallel_wall:.3f}s on {cpu_count} cores)"
    )

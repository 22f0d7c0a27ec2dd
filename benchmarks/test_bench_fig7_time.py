"""Figure 7b: compaction time vs update percentage (latest distribution).

Regenerates the right panel of Figure 7: total compaction time
(simulated disk time + measured strategy overhead) for the five §5.1
strategies.  Each ordering is asserted on the part of the time that
decides it:

* the disk model (exact): both BALANCETREE variants finish ahead of SI,
  SO and RANDOM (parallel level merges),
* the measured strategy overhead (``strategy_overhead_mean``): SO pays
  for cardinality estimation on top of SI, and BT(O) amortizes it below
  SO's, as §5.1 states it,
* the total: BT(I) finishes first, up to its tie with BT(O)
  (``repro.analysis.bt_i_finishes_first``: where BT(O)'s schedules are
  quicker on the disk model, only its estimation time puts BT(I) ahead),
  and BT(O) finishes ahead of SO.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis import bt_i_finishes_first
from repro.scenarios.registry import UPDATE_FRACTIONS
from repro.simulator import SimulationConfig
from repro.simulator.runner import sweep as run_sweep

from conftest import series_payload, write_artifact, write_bench_json


def test_fig7b_time_vs_update_percentage(
    benchmark, figure7_run, figure7_results, results_dir
):
    def regenerate():
        return figure7_results

    _, fig7b = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact(results_dir, "fig7b", fig7b)
    write_bench_json(
        results_dir,
        "fig7_time",
        {"runs": fig7b.metadata["runs"], "series": series_payload(fig7b)},
    )

    (sweep,) = figure7_run.results.values()
    for point in sweep.points:
        total = {
            label: agg.simulated_seconds_mean
            for label, agg in point.per_strategy.items()
        }
        overhead = {
            label: agg.strategy_overhead_mean
            for label, agg in point.per_strategy.items()
        }
        disk = {label: total[label] - overhead[label] for label in total}
        where = f"update {point.x}%"

        # Disk model: both BALANCETREE variants ahead of the rest.
        assert max(disk["BT(I)"], disk["BT(O)"]) < min(
            disk["SI"], disk["SO"], disk["RANDOM"]
        ), where

        # Overhead: SO pays the HLL estimation on top of SI's; BT(O)
        # amortizes it per level, below SO's.
        assert overhead["SO"] > overhead["SI"], where
        assert overhead["BT(O)"] < overhead["SO"], where

        # Total: BT(I) first up to the BT(O) tie band; BT(O) ahead of SO.
        assert bt_i_finishes_first(total), (where, total)
        assert total["BT(O)"] < total["SO"], where


def test_fig7b_bto_overhead_below_so(bench_fast, bench_runs):
    """§5.1's claim is about overhead: the total time above would still
    hold if BT(O) merely won on parallel merge lanes."""
    base = SimulationConfig.figure7(0.5)
    if bench_fast:
        base = replace(base, operationcount=20_000)
    sweep = run_sweep(
        base, "update_fraction", UPDATE_FRACTIONS, ("SO", "BT(O)"), runs=bench_runs
    )
    for point in sweep.points:
        so = point.per_strategy["SO"].strategy_overhead_mean
        bto = point.per_strategy["BT(O)"].strategy_overhead_mean
        assert bto < so, f"update {point.x}%: BT(O) {bto:.4f}s vs SO {so:.4f}s"

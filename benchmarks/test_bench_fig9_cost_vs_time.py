"""Figure 9: cost-function effectiveness — time is linear in costactual.

Regenerates both panels of Figure 9 for the SI strategy (the paper
chooses SI for "its low overhead and single-threaded implementation"):

* 9a — the (cost, time) trajectory as the update percentage varies,
* 9b — the trajectory as operationcount (data size) varies,

for all three key-access distributions.  The paper's claim ("an almost
linear increase for time as cost increases ... validates the cost
function") is asserted as a Pearson correlation of at least 0.97 per
distribution, and positive fitted slopes.
"""

from __future__ import annotations

from conftest import figure_panel, series_payload, write_artifact, write_bench_json


def test_fig9a_update_sweep(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: figure_panel("fig9a"), rounds=1, iterations=1
    )
    write_artifact(results_dir, "fig9a", result)

    correlations = result.metadata["r"]
    assert set(correlations) == {"uniform", "zipfian", "latest"}
    for distribution, r in correlations.items():
        assert r >= 0.97, f"{distribution}: time not linear in cost (r={r:.4f})"
    write_bench_json(
        results_dir,
        "fig9a_cost_vs_time",
        {"pearson_r": correlations, "series": series_payload(result)},
    )


def test_fig9b_operationcount_sweep(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: figure_panel("fig9b"), rounds=1, iterations=1
    )
    write_artifact(results_dir, "fig9b", result)

    correlations = result.metadata["r"]
    for distribution, r in correlations.items():
        assert r >= 0.97, f"{distribution}: time not linear in cost (r={r:.4f})"
    write_bench_json(
        results_dir,
        "fig9b_cost_vs_time",
        {"pearson_r": correlations, "series": series_payload(result)},
    )
    # more data => more cost: series must be increasing in cost
    for distribution, points in result.series.items():
        costs = [cost for cost, _ in points]
        assert costs == sorted(costs)

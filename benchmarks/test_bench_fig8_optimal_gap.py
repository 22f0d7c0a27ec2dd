"""Figure 8: BT(I) cost vs the LOPT lower bound across memtable sizes.

Regenerates the §5.3 experiment: 100 sstables, update:insert = 60:40,
memtable size swept 10 -> 10 000 (log-log axes).  Asserted claims:

* both curves are straight lines in log-log space with similar slopes
  ("a linear increase in log scale with similar slope"),
* BT(I)'s cost stays within a constant factor of the lower bound —
  far below the worst-case guarantee of
  2 * (ceil(log2 n) + 1) = 16 for n = 100 tables.
"""

from __future__ import annotations

from conftest import figure_panel, series_payload, write_artifact, write_bench_json


def test_fig8_bt_cost_vs_lower_bound(benchmark, results_dir):
    result = benchmark.pedantic(
        lambda: figure_panel("fig8"), rounds=1, iterations=1
    )
    write_artifact(results_dir, "fig8", result)

    bt_slope = result.metadata["slopes"]["BT(I)"]
    lopt_slope = result.metadata["slopes"]["LOPT"]
    ratios = result.metadata["ratios"]["BT(I)"]

    # Parallel log-log lines: slopes agree within 0.15.
    assert abs(bt_slope - lopt_slope) < 0.15

    # Within a constant factor of optimal, far below the worst case.
    worst_case_factor = 16.0  # 2 * (ceil(log2 100) + 1)
    for ratio in ratios:
        assert 1.0 < ratio <= worst_case_factor

    # Constant factor: the ratio varies by < 1.6x across three decades
    # of memtable size (the paper's "within a constant factor" claim).
    assert max(ratios) / min(ratios) < 1.6

    write_bench_json(
        results_dir,
        "fig8_optimal_gap",
        {
            "bt_slope": bt_slope,
            "lopt_slope": lopt_slope,
            "cost_over_lopt": list(ratios),
            "series": series_payload(result),
        },
    )

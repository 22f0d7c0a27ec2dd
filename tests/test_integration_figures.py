"""Integration tests: the paper's figure shapes at tiny scale.

The benchmark suite regenerates the figures at paper scale; these tests
protect the same qualitative claims inside the ordinary test run, using
a workload small enough to finish in seconds.
"""

from dataclasses import replace

import pytest

from repro.analysis import linear_fit, log_log_fit
from repro.simulator import (
    SimulationConfig,
    generate_sstables,
    run_strategy,
    strategy_labels,
    sweep,
)

TINY = SimulationConfig(
    recordcount=250,
    operationcount=4000,
    memtable_capacity=250,
    distribution="latest",
    update_fraction=0.0,
    seed=13,
)


@pytest.fixture(scope="module")
def tiny_sweep():
    return sweep(
        TINY, "update_fraction", (0.0, 0.5, 1.0), strategy_labels(), runs=1
    )


class TestFigure7Shapes:
    def test_random_worst_at_low_updates(self, tiny_sweep):
        point = tiny_sweep.points[0].per_strategy
        for label in ("SI", "SO", "BT(I)", "BT(O)"):
            assert point[label].cost_actual_mean < point["RANDOM"].cost_actual_mean

    def test_random_converges_at_full_updates(self, tiny_sweep):
        point = tiny_sweep.points[-1].per_strategy
        best = min(
            point[label].cost_actual_mean for label in ("SI", "SO", "BT(I)", "BT(O)")
        )
        assert point["RANDOM"].cost_actual_mean <= best * 1.3

    def test_cost_decreases_with_updates(self, tiny_sweep):
        for label in strategy_labels():
            costs = [p.per_strategy[label].cost_actual_mean for p in tiny_sweep.points]
            assert costs[0] > costs[-1]

    def test_bt_fastest_so_slowest(self, tiny_sweep):
        for point in tiny_sweep.points:
            times = {
                label: agg.simulated_seconds_mean
                for label, agg in point.per_strategy.items()
            }
            assert times["BT(I)"] == min(times.values())
            assert times["SO"] >= times["SI"]


class TestFigure8Shape:
    def test_parallel_loglog_lines(self):
        result = sweep(
            SimulationConfig.figure8(memtable_capacity=10),
            "memtable_capacity",
            (10, 40, 160),
            runs=1,
            n_sstables=100,
        )
        assert result.labels == ("BT(I)",)
        xs = [point.x for point in result.points]
        bt = [point.per_strategy["BT(I)"].cost_actual_mean for point in result.points]
        bound = [point.per_strategy["BT(I)"].lopt_entries_mean for point in result.points]
        bt_fit = log_log_fit(xs, bt)
        bound_fit = log_log_fit(xs, bound)
        assert abs(bt_fit.slope - bound_fit.slope) < 0.2
        ratios = [c / b for c, b in zip(bt, bound)]
        assert max(ratios) / min(ratios) < 1.7


class TestFigure9Shape:
    def test_time_linear_in_cost(self):
        points = []
        for fraction in (0.0, 0.5, 1.0):
            config = replace(TINY, update_fraction=fraction)
            tables = generate_sstables(config).tables
            result = run_strategy(tables, "SI", config)
            points.append((result.cost_actual, result.total_simulated_seconds))
        fit = linear_fit([c for c, _ in points], [t for _, t in points])
        assert fit.r >= 0.97
        assert fit.slope > 0

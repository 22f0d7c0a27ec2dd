"""Tests for run aggregation and the figure sweeps (reduced scale)."""

import pytest

from repro.errors import ConfigError
from repro.simulator import (
    SimulationConfig,
    StrategyResult,
    aggregate,
    run_comparison,
    sweep as run_sweep,
)
from tests.helpers import BAD_SWEEP_VALUES


def tiny_config(**overrides) -> SimulationConfig:
    defaults = dict(
        recordcount=200,
        operationcount=1600,
        memtable_capacity=200,
        distribution="latest",
        update_fraction=0.5,
        seed=0,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def make_result(strategy="SI", cost=100, seconds=1.0) -> StrategyResult:
    return StrategyResult(
        strategy=strategy,
        n_tables=10,
        n_merges=9,
        cost_actual=cost,
        cost_simplified=cost // 2,
        lopt_entries=50,
        bytes_read=1000,
        bytes_written=900,
        io_seconds=seconds,
        simulated_seconds=seconds,
        strategy_overhead_seconds=0.1,
        wall_seconds=seconds,
    )


class TestAggregation:
    def test_mean_and_std(self):
        agg = aggregate([make_result(cost=100), make_result(cost=200)])
        assert agg.cost_actual_mean == 150
        assert agg.cost_actual_std == pytest.approx(70.71, abs=0.01)
        assert agg.runs == 2

    def test_single_run_std_zero(self):
        agg = aggregate([make_result()])
        assert agg.cost_actual_std == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_rejects_mixed_strategies(self):
        with pytest.raises(ValueError):
            aggregate([make_result("SI"), make_result("SO")])

    def test_cost_over_lopt(self):
        agg = aggregate([make_result(cost=100)])
        assert agg.cost_over_lopt == pytest.approx(2.0)


class TestComparison:
    def test_runs_and_strategies(self):
        comparison = run_comparison(tiny_config(), labels=("SI", "RANDOM"), runs=2)
        assert comparison.runs == 2
        assert set(comparison.per_strategy) == {"SI", "RANDOM"}
        for agg in comparison.per_strategy.values():
            assert agg.runs == 2
            assert agg.cost_actual_mean > 0

    def test_default_labels_are_paper_set(self):
        comparison = run_comparison(tiny_config(), runs=1)
        assert set(comparison.per_strategy) == {"SI", "SO", "BT(I)", "BT(O)", "RANDOM"}


class TestSweeps:
    def test_update_fraction_sweep_shape(self):
        sweep = run_sweep(
            tiny_config(), "update_fraction", (0.0, 1.0), ("SI", "RANDOM"), runs=1
        )
        assert sweep.parameter == "update_percentage"
        assert [point.x for point in sweep.points] == [0.0, 100.0]
        series = sweep.series("SI")
        assert len(series) == 2

    def test_cost_decreases_with_updates(self):
        """The paper's headline Figure 7 trend at small scale."""
        sweep = run_sweep(
            tiny_config(), "update_fraction", (0.0, 1.0), ("SI",), runs=1
        )
        insert_heavy = sweep.points[0].per_strategy["SI"].cost_actual_mean
        update_heavy = sweep.points[1].per_strategy["SI"].cost_actual_mean
        assert update_heavy < insert_heavy

    def test_memtable_sweep_uses_figure8_configs(self):
        sweep = run_sweep(
            SimulationConfig.figure8(memtable_capacity=10),
            "memtable_capacity",
            (10, 20),
            runs=1,
        )
        assert sweep.labels == ("BT(I)",)
        assert [point.x for point in sweep.points] == [10.0, 20.0]
        for point in sweep.points:
            assert point.config.update_fraction == 0.6
        # larger memtables, same table count => strictly larger LOPT
        lopts = [p.per_strategy["BT(I)"].lopt_entries_mean for p in sweep.points]
        assert lopts[1] > lopts[0]

    def test_operationcount_sweep(self):
        sweep = run_sweep(tiny_config(), "operationcount", (800, 1600), runs=1)
        assert sweep.labels == ("SI",)
        costs = [p.per_strategy["SI"].cost_actual_mean for p in sweep.points]
        assert costs[1] > costs[0]

    def test_series_accessor_metric(self):
        sweep = run_sweep(tiny_config(), "update_fraction", (0.5,), ("SI",), runs=1)
        series = sweep.series("SI", metric="simulated_seconds_mean")
        assert len(series) == 1
        assert series[0][1] > 0

    def test_k_sweep_shape_and_monotonicity(self):
        sweep = run_sweep(tiny_config(), "k", (2, 4), labels=("SI",), runs=1)
        assert sweep.parameter == "k"
        assert [point.x for point in sweep.points] == [2.0, 4.0]
        assert [point.config.k for point in sweep.points] == [2, 4]
        # A larger fan-in can only reduce re-merge work for SI.
        costs = [p.per_strategy["SI"].cost_actual_mean for p in sweep.points]
        assert costs[1] <= costs[0]

    @pytest.mark.parametrize("parameter,value", BAD_SWEEP_VALUES)
    def test_bad_value_rejected_before_any_cell(self, parameter, value):
        """The API path once cast with ``int``, which ran k=2.9 as k=2."""
        with pytest.raises(ConfigError) as exc:
            run_sweep(tiny_config(), parameter, (3, value), runs=1)
        message = str(exc.value)
        assert parameter in message and repr(value) in message

    def test_whole_float_is_cast_to_int(self):
        sweep = run_sweep(tiny_config(), "k", (3.0,), labels=("SI",), runs=1)
        assert sweep.points[0].config.k == 3
        assert type(sweep.points[0].config.k) is int

    def test_hll_precision_sweep_defaults_to_estimator_strategies(self):
        sweep = run_sweep(tiny_config(), "hll_precision", (10, 12), runs=1)
        assert sweep.parameter == "hll_precision"
        assert sweep.labels == ("SO", "BT(O)")
        assert [point.config.hll_precision for point in sweep.points] == [10, 12]
        for point in sweep.points:
            for agg in point.per_strategy.values():
                assert agg.cost_actual_mean > 0

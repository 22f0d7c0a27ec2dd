"""The figure panels at tiny scale, through the one entry point.

The benchmark suite draws the panels at paper scale; here a reduced
``Scenario`` (same name, so ``PANELS`` picks the same renderer) goes
through ``ExperimentRunner.run(...).panel()`` to exercise the whole
figure path (sweep -> table -> plot -> metadata) inside the ordinary
test run.
"""

from dataclasses import replace

import pytest

from repro.scenarios import REGISTRY, ExperimentRunner, SweepSpec
from repro.simulator import SimulationConfig
from repro.simulator.metrics import AggregateResult

TINY = SimulationConfig(
    recordcount=150,
    operationcount=1500,
    memtable_capacity=150,
    distribution="latest",
    update_fraction=0.0,
    seed=5,
)
TWO_POINTS = SweepSpec("update_fraction", (0.0, 1.0))


def tiny_run(name: str, **changes):
    return ExperimentRunner().run(replace(REGISTRY.get(name), **changes), runs=1)


class TestFigure7Panels:
    @pytest.fixture(scope="class")
    def panels(self):
        run = tiny_run("fig7a", config=TINY, sweep=TWO_POINTS)
        twin = replace(run, scenario=replace(run.scenario, name="fig7b"))
        return run.panel(), twin.panel()

    def test_returns_both_panels(self, panels):
        fig7a, fig7b = panels
        assert fig7a.experiment_id == "fig7a"
        assert fig7b.experiment_id == "fig7b"
        assert fig7a.title == REGISTRY.get("fig7a").title

    def test_series_cover_all_strategies(self, panels):
        for panel in panels:
            assert set(panel.series) == {"SI", "SO", "BT(I)", "BT(O)", "RANDOM"}
            for points in panel.series.values():
                assert [x for x, _ in points] == [0.0, 100.0]

    def test_each_panel_draws_its_own_metric(self, panels):
        fig7a, fig7b = panels
        assert "costactual (entries)" in fig7a.text
        assert "compaction time" not in fig7a.text
        assert "compaction time (simulated s)" in fig7b.text
        assert "Figure 7a" in fig7a.text and "Figure 7b" in fig7b.text
        assert fig7a.series["SI"] != fig7b.series["SI"]

    def test_text_contains_table_and_plot(self, panels):
        for panel in panels:
            assert "update %" in panel.text
            assert "legend:" in panel.text

    def test_metadata(self, panels):
        fig7a, _ = panels
        assert fig7a.metadata["runs"] == 1


class TestFigure8Panel:
    def test_reduced_capacities(self):
        fig8 = REGISTRY.get("fig8")
        result = tiny_run(
            "fig8", sweep=replace(fig8.sweep, values=(10, 40))
        ).panel()
        assert result.experiment_id == "fig8"
        assert {"BT(I)", "LOPT"} == set(result.series)
        assert len(result.series["BT(I)"]) == 2
        assert set(result.metadata["slopes"]) == {"BT(I)", "LOPT"}
        assert "log-log slopes: BT(I)=" in result.text
        assert "100 sstables, update:insert=60:40" in result.text
        assert "cost/LOPT" in result.text
        for ratio in result.metadata["ratios"]["BT(I)"]:
            assert ratio > 1.0

    def test_every_strategy_of_the_grid_meets_the_bound(self):
        """``--strategies`` on fig8 must not drop a strategy silently."""
        fig8 = REGISTRY.get("fig8")
        result = tiny_run(
            "fig8",
            sweep=replace(fig8.sweep, values=(10, 40)),
            strategies=("SI", "BT(I)"),
        ).panel()
        assert set(result.series) == {"SI", "BT(I)", "LOPT"}
        assert "SI/LOPT" in result.text and "BT(I)/LOPT" in result.text
        assert set(result.metadata["ratios"]) == {"SI", "BT(I)"}


class TestFigure9Panels:
    @pytest.fixture(scope="class")
    def panel(self):
        return tiny_run("fig9a", config=TINY).panel()

    def test_one_fitted_series_per_distribution(self, panel):
        assert list(panel.series) == ["uniform", "zipfian", "latest"]
        assert set(panel.metadata["r"]) == set(panel.series)
        for r in panel.metadata["r"].values():
            assert r > 0.97

    def test_title_has_no_format_escape(self, panel):
        assert "while update % varies" in panel.text
        assert "%%" not in panel.text

    def test_slope_keeps_significant_digits(self, panel):
        rows = [
            line.split() for line in panel.text.splitlines()
            if line.split()[:1] in (["uniform"], ["zipfian"], ["latest"])
        ]
        assert len(rows) == 3
        for _, slope, _, _ in rows:
            assert "e-" in slope and float(slope) > 0  # not "0.000001"

    def test_says_the_time_axis_is_the_model(self, panel):
        table_end = panel.text.index("pearson r")
        plot_start = panel.text.index("Figure 9a")
        assert "r = 1 holds by construction" in panel.text[table_end:plot_start]

    def test_fig9b_varies_the_operation_count(self):
        panel = tiny_run(
            "fig9b",
            config=replace(TINY, update_fraction=0.6),
            sweep=SweepSpec("operationcount", (600, 1200, 1800)),
        ).panel()
        assert "while operationcount varies" in panel.text
        for points in panel.series.values():
            costs = [cost for cost, _ in points]
            assert costs == sorted(costs)


class TestGenericPanel:
    """Sweep scenarios without a ``PANELS`` row: cost + time series."""

    def test_cost_and_time_tables_then_a_cost_plot(self):
        panel = tiny_run("k-sweep", config=TINY, sweep=SweepSpec("k", (2, 4))).panel()
        text = panel.text
        assert text.index("costactual (entries)") < text.index(
            "compaction time (simulated s)"
        ) < text.index("costactual vs k")
        assert set(panel.series) == {"SI", "BT(I)"}

    def test_one_headed_section_per_distribution(self):
        panel = tiny_run(
            "k-sweep",
            config=TINY,
            sweep=SweepSpec("k", (2, 4)),
            distributions=("uniform", "latest"),
        ).panel()
        assert "-- distribution: uniform --" in panel.text
        assert "-- distribution: latest --" in panel.text
        assert set(panel.series) == {
            "uniform SI", "uniform BT(I)", "latest SI", "latest BT(I)",
        }


def test_swept_metrics_are_catalogue_keys():
    from repro.analysis.experiments import SWEPT_METRICS

    keys = set(AggregateResult.__dataclass_fields__)
    for metric in SWEPT_METRICS:
        assert {f"{metric}_mean", f"{metric}_std"} <= keys

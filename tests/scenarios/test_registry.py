"""The built-in registry: legacy figures + new presets, by contract."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ScenarioError
from repro.scenarios import REGISTRY, Scenario, ScenarioRegistry
from repro.scenarios.registry import PANELS
from repro.simulator import SWEEP_AXES, SimulationConfig

LEGACY_FIGURES = ("fig7a", "fig7b", "fig8", "fig9a", "fig9b")
NEW_PRESETS = ("read-heavy", "timeseries-scan", "churn")
YCSB_PRESETS = tuple(f"ycsb-{letter}" for letter in "abcdef")


class TestBuiltins:
    @pytest.mark.parametrize("name", LEGACY_FIGURES)
    def test_every_legacy_figure_registered(self, name):
        assert name in REGISTRY

    @pytest.mark.parametrize("name", NEW_PRESETS)
    def test_new_presets_registered(self, name):
        scenario = REGISTRY.get(name)
        assert "preset" in scenario.tags

    def test_at_least_three_presets_beyond_legacy_drivers(self):
        """The workload presets need mix shapes the old figure CLIs had
        no flags for."""
        presets = REGISTRY.scenarios("workload")
        assert len(presets) >= 3
        for scenario in presets:
            config = scenario.config
            assert (
                config.read_fraction > 0
                or config.scan_fraction > 0
                or config.delete_fraction > 0
            ), scenario.name

    @pytest.mark.parametrize("name", YCSB_PRESETS)
    def test_ycsb_workloads_registered(self, name):
        scenario = REGISTRY.get(name)
        assert "ycsb" in scenario.tags
        config = scenario.config
        # Every YCSB shape has a non-write slice except none of A-F is
        # writes-only; the mixes must sum within the unit interval.
        assert config.read_fraction + config.scan_fraction > 0
        assert (
            config.read_fraction
            + config.scan_fraction
            + config.delete_fraction
            <= 1.0
        )

    def test_ycsb_mixes_match_the_canonical_table(self):
        """Spot-check the A-F proportions against repro.ycsb.presets."""
        approx = pytest.approx
        a = REGISTRY.get("ycsb-a").config.workload_config()
        assert (a.read_proportion, a.update_proportion) == approx((0.5, 0.5))
        b = REGISTRY.get("ycsb-b").config.workload_config()
        assert (b.read_proportion, b.update_proportion) == approx((0.95, 0.05))
        c = REGISTRY.get("ycsb-c").config.workload_config()
        assert c.read_proportion == 1.0
        assert c.insert_proportion == c.update_proportion == 0.0
        d = REGISTRY.get("ycsb-d").config.workload_config()
        assert (d.read_proportion, d.insert_proportion) == approx((0.95, 0.05))
        assert d.update_proportion == 0.0
        assert d.distribution == "latest"
        e = REGISTRY.get("ycsb-e").config.workload_config()
        assert (e.scan_proportion, e.insert_proportion) == approx((0.95, 0.05))

    def test_kernel_sweep_presets_registered(self):
        k_sweep = REGISTRY.get("k-sweep")
        assert k_sweep.sweep.parameter == "k"
        assert all(value >= 2 for value in k_sweep.sweep.values)
        hll_sweep = REGISTRY.get("hll-sweep")
        assert hll_sweep.sweep.parameter == "hll_precision"
        assert set(hll_sweep.strategies) == {"SO", "BT(O)"}

    def test_ablations_registered(self):
        assert "distributions" in REGISTRY
        practical = REGISTRY.get("practical")
        assert "STCS" in practical.strategies
        assert "LEVELED" in practical.strategies

    def test_fig7a_matches_paper_settings(self):
        scenario = REGISTRY.get("fig7a")
        assert scenario.config == SimulationConfig.figure7(0.0, "latest")
        assert scenario.sweep.parameter == "update_fraction"
        assert scenario.sweep.values == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert scenario.runs == 3

    def test_fig8_sweep_shape(self):
        scenario = REGISTRY.get("fig8")
        assert scenario.sweep.parameter == "memtable_capacity"
        assert scenario.sweep.values == (10, 100, 1000, 10_000)
        assert scenario.sweep.fast_values == (10, 100, 1000)
        assert scenario.sweep.n_sstables == 100
        assert scenario.strategies == ("BT(I)",)

    def test_fig9_distribution_axis(self):
        for name in ("fig9a", "fig9b"):
            assert REGISTRY.get(name).distributions == (
                "uniform", "zipfian", "latest"
            )


class TestPanels:
    """Every paper figure is a registered scenario plus a panel row."""

    def test_every_figure_scenario_has_a_panel(self):
        figures = {scenario.name for scenario in REGISTRY.scenarios("figure")}
        assert figures == set(LEGACY_FIGURES)
        assert figures <= set(PANELS)

    def test_every_panel_names_a_registered_sweep(self):
        for name in PANELS:
            assert REGISTRY.get(name).sweep is not None, name


def test_spec_hashes_are_pinned():
    """Refactors must leave every registered spec alone.  A deliberate
    spec change re-records the fixture: it was last re-recorded when the
    five merge executor / write pipeline fields left the config, after
    checking that each new spec with those fields put back at their old
    defaults hashed to its previous pin."""
    fixture = Path(__file__).parent / "fixtures" / "spec_hashes.json"
    pinned = json.loads(fixture.read_text())
    assert {s.name: s.spec_hash() for s in REGISTRY} == pinned


class TestRegistryBehavior:
    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        scenario = Scenario("dup", "t", SimulationConfig())
        registry.register(scenario)
        with pytest.raises(ScenarioError):
            registry.register(scenario)
        registry.register(scenario, replace=True)  # explicit override ok
        assert len(registry) == 1

    def test_unknown_name_lists_known(self):
        with pytest.raises(ScenarioError, match="fig7a"):
            REGISTRY.get("nope")

    def test_tag_filtering(self):
        figures = REGISTRY.scenarios("figure")
        assert {scenario.name for scenario in figures} == set(LEGACY_FIGURES)


class TestEveryPointValidates:
    """Every registered scenario's base config, its fast variant, every
    distribution on its axis and every value of its sweep is a config
    ``SimulationConfig`` accepts, so no registered spec can fail inside
    its first cell.  (Each such config runs the columnar phase 1: there
    is no other plane to fall back to.)
    """

    @pytest.mark.parametrize(
        "scenario", list(REGISTRY), ids=lambda scenario: scenario.name
    )
    def test_every_scenario_point_is_a_valid_config(self, scenario):
        sweep = scenario.sweep
        for fast in (False, True):
            base = scenario.config_for(fast)
            for distribution in scenario.distributions_for():
                config = replace(base, distribution=distribution)
                if sweep is None:
                    continue
                axis = SWEEP_AXES[sweep.parameter]
                options = {
                    name: getattr(sweep, name) for name in axis.options
                }
                for value in sweep.values_for(fast):
                    point = axis.apply(config, axis.cast(value), **options)
                    assert isinstance(point, SimulationConfig), (
                        scenario.name, distribution, value,
                    )

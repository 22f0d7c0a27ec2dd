"""The built-in registry: legacy figures + new presets, by contract."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ScenarioError
from repro.scenarios import REGISTRY, Scenario, ScenarioRegistry
from repro.scenarios.registry import PANELS
from repro.simulator import SimulationConfig, fast_plane_eligible, resolve_plane

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
    """Refactors must leave every registered spec alone: the fixture
    holds the hashes of the tree before the figure paths were merged
    (PR 21's parent commit).  A deliberate spec change re-records it."""
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


class TestUniversalFastPlane:
    """Every registered scenario runs the columnar plane under "auto".

    A quiet reference fallback made map-mode and read/scan experiments
    an order of magnitude slower than the write-only figures without
    anyone noticing.  This contract makes that impossible: a scenario
    that genuinely needs the operation-at-a-time loop must carry the
    ``reference-only`` tag, every other registered spec must resolve to
    the fast plane for its base config, its fast variant, every
    distribution on its axis, and every value of its sweep.
    """

    @staticmethod
    def _sweep_configs(scenario, config):
        sweep = scenario.sweep
        if sweep is None:
            return
        for value in sweep.values:
            if sweep.parameter == "memtable_capacity":
                capacity = int(value)
                yield replace(
                    config,
                    memtable_capacity=capacity,
                    operationcount=capacity * sweep.n_sstables
                    - config.recordcount,
                )
            elif sweep.parameter in ("operationcount", "k", "hll_precision"):
                yield replace(config, **{sweep.parameter: int(value)})
            else:
                yield replace(config, **{sweep.parameter: value})

    @pytest.mark.parametrize(
        "scenario", list(REGISTRY), ids=lambda scenario: scenario.name
    )
    def test_every_scenario_is_fast_plane_eligible(self, scenario):
        if "reference-only" in scenario.tags:
            pytest.skip(f"{scenario.name} is explicitly reference-only")
        for fast in (False, True):
            base = scenario.config_for(fast)
            assert base.data_plane == "auto", scenario.name
            for distribution in scenario.distributions_for():
                config = replace(base, distribution=distribution)
                assert fast_plane_eligible(config), (scenario.name, distribution)
                assert resolve_plane(config) == "fast"
                for point_config in self._sweep_configs(scenario, config):
                    assert fast_plane_eligible(point_config), (
                        scenario.name,
                        distribution,
                        scenario.sweep.parameter,
                    )

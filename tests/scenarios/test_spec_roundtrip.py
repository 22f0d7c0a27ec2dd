"""Round-trip and validation tests for the declarative scenario spec."""

import json
import re

import pytest

from repro.errors import ConfigError, ScenarioError
from repro.scenarios import REGISTRY, Scenario, SweepSpec
from repro.scenarios.spec import SWEEP_PARAMETERS
from repro.simulator import SimulationConfig
from tests.helpers import BAD_SWEEP_VALUES, WHOLE_AXES


class TestSweepSpec:
    def test_roundtrip(self):
        spec = SweepSpec("update_fraction", (0.0, 0.5, 1.0), fast_values=(0.0,))
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_values_coerced_to_tuple(self):
        spec = SweepSpec("operationcount", [1000, 2000])
        assert spec.values == (1000, 2000)

    def test_fast_values_selection(self):
        spec = SweepSpec("update_fraction", (0.0, 1.0), fast_values=(0.5,))
        assert spec.values_for(fast=False) == (0.0, 1.0)
        assert spec.values_for(fast=True) == (0.5,)
        assert SweepSpec("update_fraction", (0.0,)).values_for(True) == (0.0,)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ScenarioError):
            SweepSpec("disk_bandwidth", (1.0,))

    def test_empty_values_rejected(self):
        with pytest.raises(ScenarioError):
            SweepSpec("update_fraction", ())

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError):
            SweepSpec.from_dict({"parameter": "update_fraction", "values": [1], "vibes": 1})


class TestSweepValues:
    """A sweep value is a number, and whole on an integer axis: ``int``
    once truncated 2.9 to 2 while the spec recorded 2.9, and a ``true``
    ran as 1 (100 % on ``update_fraction``)."""

    @pytest.mark.parametrize("parameter,value", BAD_SWEEP_VALUES)
    def test_bad_value_rejected(self, parameter, value):
        for spec in (
            lambda: SweepSpec(parameter, (value,)),
            lambda: SweepSpec(parameter, (1,), fast_values=(value,)),
            lambda: SweepSpec.from_dict(
                {"parameter": parameter, "values": [value, 3]}
            ),
        ):
            with pytest.raises(ScenarioError) as exc:
                spec()
            message = str(exc.value)
            assert parameter in message and repr(value) in message

    @pytest.mark.parametrize("parameter", WHOLE_AXES)
    def test_whole_float_accepted_on_integer_axis(self, parameter):
        """``--values`` parses floats, so ``2.0`` must pass."""
        assert SweepSpec(parameter, (2.0, 3)).values == (2.0, 3)

    def test_fraction_accepted_on_real_axis(self):
        assert SweepSpec("shard_skew", (0, 0.5)).values == (0, 0.5)


class TestScenarioValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario("x", "t", SimulationConfig(), strategies=("WAT",))

    def test_empty_strategies_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario("x", "t", SimulationConfig(), strategies=())

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario("x", "t", SimulationConfig(), distributions=("gaussian",))

    @pytest.mark.parametrize(
        "axis, values, repeated",
        [
            ("strategies", ("SI", "SI", "STCS"), ["SI"]),
            ("strategies", ("BT(O)", "SO", "BT(O)", "SO"), ["BT(O)", "SO"]),
            ("distributions", ("latest", "latest", "uniform"), ["latest"]),
        ],
        ids=["strategy", "two-strategies", "distribution"],
    )
    def test_duplicate_labels_rejected(self, axis, values, repeated):
        """A repeated label would be run twice but key one result."""
        with pytest.raises(
            ScenarioError, match=re.escape(f"duplicate {axis} {repeated}")
        ):
            Scenario("x", "t", SimulationConfig(), **{axis: values})

    def test_duplicate_labels_rejected_from_a_spec(self):
        spec = REGISTRY.get("churn").to_dict()
        spec["strategies"] = ["SI", "STCS", "SI"]
        with pytest.raises(ScenarioError, match="duplicate strategies"):
            Scenario.from_dict(spec)

    def test_bad_fast_override_rejected_at_construction(self):
        with pytest.raises(Exception):  # ConfigError via overridden()
            Scenario("x", "t", SimulationConfig(), fast_overrides={"nope": 1})

    def test_fast_overrides_tuple_form_normalized_like_dict(self):
        """Unsorted pair-tuple input must round-trip (sorted) like a dict."""
        scenario = Scenario(
            "x", "t", SimulationConfig(),
            fast_overrides=(("operationcount", 10), ("k", 3)),
        )
        assert scenario.fast_overrides == (("k", 3), ("operationcount", 10))
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_fast_overrides_dict_normalized(self):
        scenario = Scenario(
            "x", "t", SimulationConfig(), fast_overrides={"operationcount": 10}
        )
        assert scenario.fast_overrides == (("operationcount", 10),)
        assert scenario.config_for(fast=True).operationcount == 10
        assert scenario.config_for(fast=False) == scenario.config

    def test_runs_resolution(self):
        scenario = Scenario("x", "t", SimulationConfig(), runs=5, fast_runs=2)
        assert scenario.runs_for() == 5
        assert scenario.runs_for(fast=True) == 2
        assert scenario.runs_for(fast=True, runs=9) == 9


class TestRegisteredScenarioRoundtrips:
    """The satellite contract: dict -> Scenario -> dict is idempotent."""

    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_spec_roundtrip(self, name):
        scenario = REGISTRY.get(name)
        data = scenario.to_dict()
        rebuilt = Scenario.from_dict(data)
        assert rebuilt == scenario
        assert rebuilt.to_dict() == data

    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_json_roundtrip_and_hash_stability(self, name):
        scenario = REGISTRY.get(name)
        via_json = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert via_json == scenario
        assert via_json.spec_hash() == scenario.spec_hash()

    def test_hashes_distinct_across_registry(self):
        hashes = {scenario.spec_hash() for scenario in REGISTRY}
        assert len(hashes) == len(REGISTRY)

    def test_spec_version_guard(self):
        data = REGISTRY.get("fig7a").to_dict()
        data["spec_version"] = 99
        with pytest.raises(ScenarioError):
            Scenario.from_dict(data)


class TestClusterSweepParameters:
    """The scale-out tier's sweep axes and presets (docs/sharding.md)."""

    def test_cluster_parameters_registered(self):
        assert "num_shards" in SWEEP_PARAMETERS
        assert "shard_skew" in SWEEP_PARAMETERS

    @pytest.mark.parametrize(
        "parameter,values",
        [("num_shards", (1, 2, 4, 8)), ("shard_skew", (0.0, 0.5, 0.99))],
    )
    def test_cluster_sweepspec_roundtrip(self, parameter, values):
        spec = SweepSpec(parameter, values)
        assert SweepSpec.from_dict(spec.to_dict()) == spec
        via_json = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert via_json == spec

    @pytest.mark.parametrize(
        "name,parameter",
        [("shard-sweep", "num_shards"), ("multi-tenant", "shard_skew")],
    )
    def test_cluster_presets_roundtrip_via_json(self, name, parameter):
        scenario = REGISTRY.get(name)
        assert scenario.sweep is not None
        assert scenario.sweep.parameter == parameter
        assert "cluster" in scenario.tags
        rebuilt = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert rebuilt == scenario
        assert rebuilt.spec_hash() == scenario.spec_hash()

    def test_sharded_config_roundtrip(self):
        config = SimulationConfig(
            num_shards=4, shard_skew=0.9, partitioner="range"
        )
        assert SimulationConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_shards": 0},
            {"shard_skew": -0.5},
            {"shard_skew": float("nan")},
            {"partitioner": "modulo"},
        ],
    )
    def test_invalid_shard_fields_rejected(self, overrides):
        with pytest.raises(ConfigError):
            SimulationConfig(**overrides)

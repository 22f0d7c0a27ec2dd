"""Tests for SimulationConfig and the figure presets."""

import pytest

from repro.errors import ConfigError, WorkloadError
from repro.scenarios import Scenario
from repro.simulator import SimulationConfig, sweep


class TestValidation:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.k == 2
        assert config.memtable_mode == "append"

    def test_update_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SimulationConfig(update_fraction=1.5)

    def test_k_bounds(self):
        with pytest.raises(ConfigError):
            SimulationConfig(k=1)

    def test_lanes_bounds(self):
        with pytest.raises(ConfigError):
            SimulationConfig(parallel_lanes=0)

    def test_experiment_driver_defaults(self):
        """Paper-scale drivers default to the fast exact kernels."""
        config = SimulationConfig()
        assert config.backend == "bitset"
        assert config.estimator == "hll"

    def test_backend_and_estimator_aliases_canonicalized(self):
        config = SimulationConfig(backend="bits", estimator="hyperloglog")
        assert config.backend == "bitset"
        assert config.estimator == "hll"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(backend="vibes")

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(estimator="psychic")

    def test_memtable_mode_validated_eagerly(self):
        SimulationConfig(memtable_mode="map")
        with pytest.raises(ConfigError):
            SimulationConfig(memtable_mode="lsm")

    def test_hll_precision_bounds(self):
        with pytest.raises(ConfigError):
            SimulationConfig(hll_precision=3)
        with pytest.raises(ConfigError):
            SimulationConfig(hll_precision=99)

    def test_merge_executor_validated(self):
        assert SimulationConfig().merge_executor == "serial"
        SimulationConfig(merge_executor="thread", merge_workers=4)
        for removed_or_unknown in ("process", "gpu"):
            with pytest.raises(ConfigError, match=r"'serial', 'thread'"):
                SimulationConfig(merge_executor=removed_or_unknown)
        with pytest.raises(ConfigError):
            SimulationConfig(merge_workers=-1)

    def test_describe_mentions_parallel_merges_only(self):
        assert "merge=" not in SimulationConfig().describe()
        text = SimulationConfig(merge_executor="thread").describe()
        assert "merge=threadxauto" in text
        text = SimulationConfig(merge_executor="thread", merge_workers=2).describe()
        assert "merge=threadx2" in text


#: Values that used to construct and then die inside the first cell
#: (under ``--jobs``, inside a worker), two of them as bare TypeErrors.
HOSTILE_VALUES = [
    ("recordcount", 0),
    ("value_size", -5),
    ("operationcount", -3),
    ("disk_bandwidth", 0),
    ("disk_seek_seconds", -1),
    ("distribution", "pareto"),
    ("seed", "x"),
    ("memtable_capacity", 2.5),
    ("bloom_fp_rate", 1.5),
    ("bloom_fp_rate", 0.0),
]

ROUTES = {
    "init": lambda overrides: SimulationConfig(**overrides),
    "overridden": lambda overrides: SimulationConfig().overridden(overrides),
    "scenario": lambda overrides: Scenario.from_dict(
        {"name": "hostile", "title": "hostile", "config": overrides}
    ),
}


class TestFailsAtConfigurationTime:
    @pytest.mark.parametrize("field, value", HOSTILE_VALUES)
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_hostile_value_names_its_field(self, route, field, value):
        with pytest.raises((ConfigError, WorkloadError), match=field):
            ROUTES[route]({field: value})

    def test_reference_plane_is_unsharded_only(self):
        """Shards ingest on the fast plane only, so the pair would put
        ``plane_used: reference`` on a fast-plane run."""
        SimulationConfig(data_plane="reference", num_shards=1)
        SimulationConfig(data_plane="fast", num_shards=2)
        with pytest.raises(ConfigError, match="data_plane.*num_shards"):
            SimulationConfig(data_plane="reference", num_shards=2)
        # A num_shards sweep over a reference-plane base fails when its
        # first sharded point is built, before any cell runs.
        base = SimulationConfig(
            data_plane="reference", recordcount=50, operationcount=100
        )
        with pytest.raises(ConfigError, match="data_plane.*num_shards"):
            sweep(base, "num_shards", (1, 2), ("SI",), runs=1)


class TestPresets:
    def test_figure7_settings(self):
        """§5.2: operationcount 100K, recordcount 1000, memtable 1000."""
        config = SimulationConfig.figure7(0.5)
        assert config.recordcount == 1000
        assert config.operationcount == 100_000
        assert config.memtable_capacity == 1000
        assert config.distribution == "latest"
        assert config.update_fraction == 0.5

    def test_figure8_operationcount_formula(self):
        """§5.3: opcount = memtable * n_sstables - recordcount."""
        config = SimulationConfig.figure8(memtable_capacity=100)
        assert config.operationcount == 100 * 100 - 1000
        assert config.update_fraction == 0.6

    def test_figure8_minimum_scale(self):
        config = SimulationConfig.figure8(memtable_capacity=10)
        assert config.operationcount == 0  # load phase alone fills 100 tables

    def test_figure8_rejects_impossible(self):
        with pytest.raises(ConfigError):
            SimulationConfig.figure8(memtable_capacity=5)

    def test_with_seed(self):
        config = SimulationConfig.figure7(0.5, seed=3)
        other = config.with_seed(9)
        assert other.seed == 9
        assert other.operationcount == config.operationcount


class TestMixFractions:
    def test_defaults_keep_paper_mix_exactly(self):
        """Zero read/scan/delete fractions reproduce the historical mix."""
        config = SimulationConfig.figure7(0.25)
        workload = config.workload_config()
        assert workload.update_proportion == 0.25
        assert workload.insert_proportion == 0.75
        assert workload.read_proportion == 0.0
        assert workload.scan_proportion == 0.0
        assert workload.delete_proportion == 0.0

    def test_full_mix_proportions(self):
        config = SimulationConfig(
            update_fraction=0.5,
            read_fraction=0.4,
            scan_fraction=0.1,
            delete_fraction=0.1,
        )
        workload = config.workload_config()
        assert workload.read_proportion == pytest.approx(0.4)
        assert workload.scan_proportion == pytest.approx(0.1)
        assert workload.delete_proportion == pytest.approx(0.1)
        # remaining 0.4 write slice split by update_fraction
        assert workload.insert_proportion == pytest.approx(0.2)
        assert workload.update_proportion == pytest.approx(0.2)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SimulationConfig(read_fraction=1.5)
        with pytest.raises(ConfigError):
            SimulationConfig(delete_fraction=-0.1)

    def test_fractions_must_not_exceed_one(self):
        with pytest.raises(ConfigError):
            SimulationConfig(read_fraction=0.6, scan_fraction=0.3, delete_fraction=0.2)

    def test_exact_full_non_write_mix_survives_float_rounding(self):
        """Sums that are 1.0 up to float error must neither be rejected
        at construction nor crash workload_config with a negative
        write share."""
        config = SimulationConfig(
            read_fraction=0.33, scan_fraction=0.56, delete_fraction=0.11
        )
        workload = config.workload_config()  # sum is 1.0000000000000002
        assert workload.insert_proportion >= 0.0
        config = SimulationConfig(scan_fraction=0.07, delete_fraction=0.93)
        workload = config.workload_config()  # write share is -1.1e-16
        assert workload.insert_proportion == 0.0
        assert workload.update_proportion == 0.0


class TestRoundTrip:
    """The scenario-layer contract: from_dict(to_dict(cfg)) == cfg."""

    CONFIGS = [
        SimulationConfig(),
        SimulationConfig.figure7(0.5, "zipfian", seed=7),
        SimulationConfig.figure8(memtable_capacity=100),
        SimulationConfig(
            update_fraction=0.3,
            read_fraction=0.5,
            scan_fraction=0.1,
            delete_fraction=0.1,
            backend="frozenset",
            estimator="exact",
            data_plane="reference",
            k=4,
        ),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_roundtrip_identity(self, config):
        data = config.to_dict()
        rebuilt = SimulationConfig.from_dict(data)
        assert rebuilt == config
        assert rebuilt.to_dict() == data

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="vibes"):
            SimulationConfig.from_dict({"vibes": 1})

    def test_from_dict_accepts_partial_dicts(self):
        config = SimulationConfig.from_dict({"operationcount": 42})
        assert config.operationcount == 42
        assert config.recordcount == SimulationConfig().recordcount

    def test_overridden_validates_field_names(self):
        config = SimulationConfig()
        assert config.overridden({}).operationcount == config.operationcount
        assert config.overridden({"k": 4}).k == 4
        with pytest.raises(ConfigError):
            config.overridden({"not_a_field": 1})

    def test_describe_mentions_key_knobs(self):
        config = SimulationConfig(
            update_fraction=0.5, read_fraction=0.25, seed=9, data_plane="fast"
        )
        text = config.describe()
        assert "update=50%" in text
        assert "read=25%" in text
        assert "seed=9" in text
        assert "data_plane=fast" in text


class TestDerivedObjects:
    def test_workload_config(self):
        config = SimulationConfig.figure7(0.25)
        workload = config.workload_config()
        assert workload.update_proportion == 0.25
        assert workload.insert_proportion == 0.75
        assert workload.recordcount == 1000

    def test_timing_model(self):
        config = SimulationConfig(disk_bandwidth=1e6, disk_seek_seconds=0.1)
        model = config.timing_model()
        assert model.transfer_seconds(1_000_000) == pytest.approx(1.1)

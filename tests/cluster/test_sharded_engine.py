"""Sharded-engine differential harness and cluster-scheduler tests.

The acceptance contract of the scale-out tier:

* ``num_shards=1`` sharded runs are byte-identical to the unsharded
  baseline (every deterministic StrategyResult field, RANDOM included);
* sharded results are byte-stable for any ``--jobs`` value.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterScheduler,
    ShardedEngine,
    ShardStream,
    combine_shard_results,
    imbalance_p99_over_mean,
    run_shard,
    run_sharded_cell,
    shard_seed,
    shard_streams,
)
from repro.errors import ConfigError
from repro.simulator import SimulationConfig, run_comparison
from repro.simulator.runner import _comparison_cell, _run_cells

LABELS = ("SI", "SO", "BT(I)", "BT(O)", "RANDOM", "LM")

#: Every StrategyResult field that must not depend on sharding plumbing,
#: job count, or wall clock (the wall/overhead fields measure real time
#: and legitimately differ between runs).
DETERMINISTIC_FIELDS = (
    "strategy",
    "n_tables",
    "n_merges",
    "cost_actual",
    "cost_simplified",
    "lopt_entries",
    "bytes_read",
    "bytes_written",
    "io_seconds",
    "simulated_seconds",
    "merge_executor",
    "merge_workers",
    "reads",
    "scans",
    "read_hits",
    "read_misses",
    "read_tables_probed",
    "read_bloom_skips",
    "read_bloom_false_positives",
    "read_bytes",
    "scan_tables_probed",
    "scan_tables_pruned",
    "scan_records_scanned",
    "scan_records_returned",
    "num_shards",
    "cluster_makespan_seconds",
    "shard_imbalance",
    "shard_ops",
    "shard_costs",
    "shard_read_amps",
)


def det(result):
    return {name: getattr(result, name) for name in DETERMINISTIC_FIELDS}


def small_config(**overrides) -> SimulationConfig:
    defaults = dict(
        recordcount=250,
        operationcount=2500,
        memtable_capacity=200,
        distribution="latest",
        update_fraction=0.5,
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestShardSeed:
    def test_shard_zero_keeps_base_seed(self):
        assert shard_seed(41, 0) == 41

    def test_shards_and_runs_never_collide(self):
        seeds = {
            shard_seed(base + run, shard)
            for base in (0,)
            for run in range(10)
            for shard in range(16)
        }
        assert len(seeds) == 10 * 16


class TestUnshardedIdentity:
    """num_shards=1 through the cluster path == the unsharded baseline."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"read_fraction": 0.1, "scan_fraction": 0.05},
            {"memtable_mode": "map", "memtable_capacity": 120},
            {"delete_fraction": 0.2},
        ],
    )
    def test_single_shard_matches_baseline(self, overrides):
        config = small_config(**overrides)
        baseline = _comparison_cell(config, LABELS, 0)
        sharded = run_sharded_cell(config, LABELS, 0)
        for label in LABELS:
            base = det(baseline[label])
            # The baseline run is unsharded, so its cluster fields are
            # the defaults; the sharded run reports one shard carrying
            # everything with makespan == the schedule's own makespan.
            clustered = det(sharded[label])
            assert clustered["num_shards"] == 1
            # One shard carries the whole stream: load-phase inserts
            # plus every run-phase operation (reads/scans included).
            assert clustered["shard_ops"] == (
                config.recordcount + config.operationcount,
            )
            assert clustered["cluster_makespan_seconds"] == pytest.approx(
                base["simulated_seconds"]
            )
            for field in DETERMINISTIC_FIELDS:
                if field in (
                    "num_shards",
                    "cluster_makespan_seconds",
                    "shard_imbalance",
                    "shard_ops",
                    "shard_costs",
                    "shard_read_amps",
                ):
                    continue
                assert clustered[field] == base[field], field


class TestJobsByteStability:
    def test_sharded_cells_stable_for_any_jobs(self):
        config = small_config(
            num_shards=4, shard_skew=0.5, read_fraction=0.1
        )
        cells = [(config, ("SI", "RANDOM"), run) for run in range(2)]
        serial = _run_cells(cells, jobs=1)
        fanned = _run_cells(cells, jobs=4)
        for cell_serial, cell_fanned in zip(serial, fanned):
            for label in ("SI", "RANDOM"):
                assert det(cell_serial[label]) == det(cell_fanned[label])

    def test_sharded_engine_api_matches_cell_path(self):
        config = small_config(num_shards=3, partitioner="range")
        engine = ShardedEngine(config, ("BT(I)",))
        assert det(engine.run(0)["BT(I)"]) == det(
            run_sharded_cell(config, ("BT(I)",), 0)["BT(I)"]
        )

    def test_mixed_sharded_and_unsharded_cells_on_one_pool(self):
        sharded = small_config(num_shards=2)
        plain = small_config()
        cells = [(sharded, ("SI",), 0), (plain, ("SI",), 0)]
        serial = _run_cells(cells, jobs=1)
        fanned = _run_cells(cells, jobs=3)
        assert det(serial[0]["SI"]) == det(fanned[0]["SI"])
        assert det(serial[1]["SI"]) == det(fanned[1]["SI"])
        assert serial[0]["SI"].num_shards == 2
        assert serial[1]["SI"].num_shards == 1


class TestShardedExecution:
    def test_per_shard_seqnos_are_local(self):
        config = small_config(num_shards=3)
        for stream in shard_streams(config):
            result = run_shard(config, ("SI",), stream)
            # Seqnos restart per shard: the shard's table entries can
            # never exceed its own write count.
            assert result.total_entries <= stream.write_count
            assert result.per_label["SI"].strategy == "SI"

    def test_skew_concentrates_ops(self):
        even = run_sharded_cell(
            small_config(num_shards=4), ("SI",), 0
        )["SI"]
        skewed = run_sharded_cell(
            small_config(num_shards=4, shard_skew=1.2), ("SI",), 0
        )["SI"]
        assert skewed.shard_imbalance > even.shard_imbalance

    def test_empty_shard_serves_misses(self):
        config = small_config()
        stream = ShardStream(
            shard_id=0, write_keynums=[], tombstone_positions=[]
        )
        result = run_shard(config, ("SI", "RANDOM"), stream)
        assert result.n_tables == 0
        assert result.per_label["SI"].cost_actual == 0
        from repro.ycsb.workload import ReadOpColumns

        with_reads = ShardStream(
            shard_id=0,
            write_keynums=[],
            tombstone_positions=[],
            read_ops=ReadOpColumns(
                read_keynums=[1, 2], scan_keynums=[3], scan_lengths=[5]
            ),
        )
        served = run_shard(config, ("SI",), with_reads).per_label["SI"]
        assert served.reads == 2
        assert served.read_misses == 2
        assert served.scans == 1
        assert served.read_tables_probed == 0

    def test_aggregate_carries_cluster_fields(self):
        config = small_config(num_shards=2)
        comparison = run_comparison(config, labels=("SI",), runs=2, jobs=2)
        agg = comparison.per_strategy["SI"]
        assert agg.num_shards == 2
        assert len(agg.shard_ops_mean) == 2
        assert agg.cluster_makespan_mean > 0
        assert agg.shard_imbalance_mean > 0


class TestClusterScheduler:
    def test_lpt_makespan_shared_lanes(self):
        scheduler = ClusterScheduler(2)
        # LPT on 2 lanes: 8 | 5+4 -> makespan 9.
        assert scheduler.makespan([5.0, 8.0, 4.0]) == 9.0

    def test_more_lanes_than_jobs(self):
        assert ClusterScheduler(16).makespan([3.0, 1.0]) == 3.0

    def test_single_lane_sums(self):
        assert ClusterScheduler(1).makespan([1.0, 2.0, 3.0]) == 6.0

    def test_lane_budget_validated(self):
        with pytest.raises(ConfigError):
            ClusterScheduler(0)

    def test_imbalance_p99_over_mean(self):
        assert imbalance_p99_over_mean([]) == 0.0
        assert imbalance_p99_over_mean([5.0, 5.0, 5.0]) == 1.0
        # nearest-rank p99 of 4 values is the max.
        assert imbalance_p99_over_mean([1.0, 1.0, 1.0, 5.0]) == 2.5

    def test_combine_rejects_mixed_labels(self):
        config = small_config(num_shards=2)
        streams = shard_streams(config)
        results = [
            run_shard(config, ("SI",), streams[0]).per_label["SI"],
            run_shard(config, ("RANDOM",), streams[1]).per_label["RANDOM"],
        ]
        with pytest.raises(ConfigError):
            combine_shard_results(
                "SI", [1, 1], results, ClusterScheduler(2)
            )

    def test_combine_sums_costs_and_takes_makespan(self):
        config = small_config(num_shards=2)
        shard_results = [
            run_shard(config, ("SI",), stream)
            for stream in shard_streams(config)
        ]
        combined = combine_shard_results(
            "SI",
            [r.op_count for r in shard_results],
            [r.per_label["SI"] for r in shard_results],
            ClusterScheduler(config.parallel_lanes),
        )
        assert combined.cost_actual == sum(
            r.per_label["SI"].cost_actual for r in shard_results
        )
        per_shard = [r.per_label["SI"].simulated_seconds for r in shard_results]
        assert combined.simulated_seconds == max(per_shard)
        assert combined.shard_costs == tuple(
            r.per_label["SI"].cost_actual for r in shard_results
        )

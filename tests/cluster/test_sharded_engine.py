"""Sharded-engine differential harness and cluster-scheduler tests.

The acceptance contract of the scale-out tier:

* every cell is a cluster of ``num_shards`` >= 1 shards; a one-shard
  cell equals the former unsharded cell (frozen below as
  :func:`unsharded_cell`) on every deterministic non-cluster field,
  RANDOM included, and reports the one-shard cluster it is;
* sharded results are byte-stable for any ``--jobs`` value.
"""

from __future__ import annotations

import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cluster.engine as engine_module
from repro.cluster import (
    ClusterScheduler,
    ShardStream,
    combine_shard_results,
    combine_shard_runs,
    imbalance_p99_over_mean,
    run_shard,
    shard_phase1,
    shard_seed,
    shard_streams,
    sharded_shard_task,
)
from repro.errors import ConfigError
from repro.simulator import SimulationConfig, run_comparison
from repro.simulator.metrics import StrategyResult, ingest_fields
from repro.simulator.phase1 import generate_sstables
from repro.simulator.phase2 import run_strategy
from repro.simulator.runner import _comparison_cell, _run_cells

LABELS = ("SI", "SO", "BT(I)", "BT(O)", "RANDOM", "LM")

#: Every deterministic StrategyResult field the shard fold does not
#: compute: none may depend on the cell path or the job count.
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
)

#: The fields only the shard fold computes.
CLUSTER_FIELDS = (
    "num_shards",
    "cluster_makespan_seconds",
    "shard_imbalance",
    "shard_ops",
    "shard_costs",
    "shard_read_amps",
)


#: The fields that measure real time, and legitimately differ between
#: two runs of one cell.
TIMED_FIELDS = (
    "strategy_overhead_seconds",
    "wall_seconds",
    "merge_wall_seconds",
    "merge_utilization",
    "ingest_wall_seconds",
)


def test_every_field_is_classified():
    classified = DETERMINISTIC_FIELDS + CLUSTER_FIELDS + TIMED_FIELDS
    assert sorted(classified) == sorted(f.name for f in fields(StrategyResult))


def det(result):
    return {
        name: getattr(result, name)
        for name in DETERMINISTIC_FIELDS + CLUSTER_FIELDS
    }


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


def run_stream(config, labels, stream):
    """Both phases on one shard's stream."""
    return run_shard(config, labels, *shard_phase1(config, stream))


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


def unsharded_cell(config, labels, run_index):
    """The cell body from before every cell became a cluster: one phase
    1 over the whole stream, then every label on the same tables."""
    run_config = config.with_seed(config.seed + run_index)
    phase1 = generate_sstables(run_config)
    ingest = ingest_fields(phase1)
    return {
        label: replace(
            run_strategy(
                phase1.tables,
                label,
                run_config,
                seed=run_config.seed,
                read_ops=phase1.read_ops,
            ),
            **ingest,
        )
        for label in labels
    }


def assert_one_shard_cluster(config, labels, run_index=0):
    """The cell equals the frozen unsharded body, plus the one-shard
    cluster fields, exactly."""
    oracle = unsharded_cell(config, labels, run_index)
    cell = _comparison_cell(config, labels, run_index)
    for label in labels:
        expected, got = oracle[label], cell[label]
        for field in DETERMINISTIC_FIELDS:
            assert getattr(got, field) == getattr(expected, field), field
        assert got.num_shards == 1
        assert got.cluster_makespan_seconds == expected.simulated_seconds
        assert got.shard_imbalance == 1.0
        # One shard carries the whole stream: load-phase inserts plus
        # every run-phase operation (reads/scans included).
        assert got.shard_ops == (config.recordcount + config.operationcount,)
        assert got.shard_costs == (expected.cost_actual,)
        assert got.shard_read_amps == (expected.read_amplification,)


@st.composite
def tiny_configs(draw):
    reads = draw(st.sampled_from((0.0, 0.2)))
    scans = draw(st.sampled_from((0.0, 0.1)))
    deletes = draw(st.sampled_from((0.0, 0.15)))
    return SimulationConfig(
        recordcount=draw(st.integers(1, 60)),
        operationcount=draw(st.integers(0, 400)),
        memtable_capacity=draw(st.integers(5, 60)),
        memtable_mode=draw(st.sampled_from(("append", "map"))),
        distribution=draw(st.sampled_from(("latest", "zipfian", "uniform"))),
        update_fraction=draw(st.sampled_from((0.0, 0.5, 1.0))),
        read_fraction=reads,
        scan_fraction=scans,
        delete_fraction=deletes,
        k=draw(st.integers(2, 4)),
        seed=draw(st.integers(0, 1000)),
    )


class TestUnshardedIdentity:
    """A one-shard cell == the frozen unsharded cell + one-shard fields."""

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
        assert_one_shard_cluster(small_config(**overrides), LABELS)

    def test_later_runs_match_baseline(self):
        assert_one_shard_cluster(small_config(), ("SI", "RANDOM"), run_index=2)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(tiny_configs())
    def test_single_shard_matches_baseline_on_drawn_configs(self, config):
        assert_one_shard_cluster(config, LABELS)

    def test_write_column_freed_after_phase1(self, monkeypatch):
        """No shard's write column outlives its phase 1, in the serial
        cell and in the pool's shard task alike: the spy on the cell-level
        phase 2 (``run_strategies``) fires once per shard and sees none."""
        columns = []
        alive_in_phase2 = []
        phase1 = engine_module.phase1_from_columns
        strategies = engine_module.run_strategies

        def watched_phase1(keynums, *args, **kwargs):
            columns.append(weakref.ref(keynums))
            return phase1(keynums, *args, **kwargs)

        def watched_strategies(*args, **kwargs):
            alive_in_phase2.append([ref() is not None for ref in columns])
            return strategies(*args, **kwargs)

        monkeypatch.setattr(
            engine_module, "phase1_from_columns", watched_phase1
        )
        monkeypatch.setattr(engine_module, "run_strategies", watched_strategies)
        for num_shards in (1, 3):
            config = small_config(num_shards=num_shards)
            cell = lambda: _comparison_cell(config, ("SI",), 0)
            tasks = lambda: [
                sharded_shard_task(config, ("SI",), 0, shard_id)
                for shard_id in range(num_shards)
            ]
            for run in (cell, tasks):
                columns.clear()
                alive_in_phase2.clear()
                run()
                assert len(columns) == num_shards
                assert len(alive_in_phase2) == num_shards
                assert not any(map(any, alive_in_phase2))


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

    def test_shard_tasks_fold_to_the_cell(self):
        """The pool's work unit, folded, is the serial cell."""
        config = small_config(num_shards=3, partitioner="range")
        runs = [
            sharded_shard_task(config, ("BT(I)",), 1, shard_id)
            for shard_id in range(3)
        ]
        folded = combine_shard_runs(config.with_seed(8), ("BT(I)",), runs)
        assert det(folded["BT(I)"]) == det(
            _comparison_cell(config, ("BT(I)",), 1)["BT(I)"]
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
            result = run_stream(config, ("SI",), stream)
            # Seqnos restart per shard: the shard's table entries can
            # never exceed its own write count.
            assert result.per_label["SI"].lopt_entries <= stream.write_count
            assert result.per_label["SI"].strategy == "SI"

    def test_skew_concentrates_ops(self):
        even = _comparison_cell(small_config(num_shards=4), ("SI",), 0)["SI"]
        skewed = _comparison_cell(
            small_config(num_shards=4, shard_skew=1.2), ("SI",), 0
        )["SI"]
        assert skewed.shard_imbalance > even.shard_imbalance

    def test_empty_shard_serves_misses(self):
        config = small_config()
        stream = ShardStream(
            shard_id=0, write_keynums=[], tombstone_positions=[]
        )
        result = run_stream(config, ("SI", "RANDOM"), stream)
        assert result.per_label["SI"].n_tables == 0
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
        served = run_stream(config, ("SI",), with_reads).per_label["SI"]
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
            run_stream(config, ("SI",), streams[0]).per_label["SI"],
            run_stream(config, ("RANDOM",), streams[1]).per_label["RANDOM"],
        ]
        with pytest.raises(ConfigError):
            combine_shard_results(
                "SI", [1, 1], results, ClusterScheduler(2)
            )

    def test_combine_sums_costs_and_takes_makespan(self):
        config = small_config(num_shards=2)
        shard_results = [
            run_stream(config, ("SI",), stream)
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

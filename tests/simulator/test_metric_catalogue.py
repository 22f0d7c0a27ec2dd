"""The metric catalogue against the hand-written code it replaced.

``_parent_metrics.py`` holds the parent commit's ``aggregate``,
``combine_shard_results``, ``_cell_metrics`` and
``render_comparison_table`` verbatim (plus the overhead fix); under
hypothesis the catalogue-derived versions must agree with them on
random results, and a structural test pins the catalogue itself.
"""

from __future__ import annotations

from dataclasses import asdict, fields, replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _parent_metrics as parent
from repro.cluster import ClusterScheduler, combine_shard_results
from repro.scenarios.runner import render_comparison_table
from repro.simulator import SimulationConfig, run_comparison
from repro.simulator.metrics import (
    CATALOGUE,
    CLUSTER,
    AggregateResult,
    StrategyResult,
    aggregate,
    cell_metrics,
    empty_result,
)
from repro.simulator.runner import ComparisonResult

COUNTS = st.integers(0, 10**7)
SECONDS = st.floats(0.0, 1e4, allow_nan=False)
FRACTIONS = st.floats(0.0, 1.0, allow_nan=False)
#: Fields the catalogue does not report: constants the benchmark's
#: traced mirror still passes to ``StrategyResult``.
UNREPORTED = {"merge_executor", "merge_workers"}


@st.composite
def result_rows(draw, count, *, served=None, shards=1):
    """``count`` runs (or shards) of one strategy on one config.

    ``served=None`` lets hypothesis pick whether reads were served.
    """
    served = draw(st.booleans()) if served is None else served
    rows = []
    for _ in range(count):
        reads = draw(st.integers(1, 10**5)) if served else 0
        row = dict(
            strategy="SI",
            n_tables=draw(COUNTS),
            n_merges=draw(COUNTS),
            cost_actual=draw(COUNTS),
            cost_simplified=draw(COUNTS),
            lopt_entries=draw(COUNTS),
            bytes_read=draw(COUNTS),
            bytes_written=draw(COUNTS),
            io_seconds=draw(SECONDS),
            simulated_seconds=draw(SECONDS),
            strategy_overhead_seconds=draw(SECONDS),
            wall_seconds=draw(SECONDS),
            merge_wall_seconds=draw(SECONDS),
            merge_utilization=draw(FRACTIONS),
            ingest_wall_seconds=draw(SECONDS),
        )
        if served:
            row.update(
                reads=reads,
                scans=draw(COUNTS),
                read_hits=draw(COUNTS),
                read_misses=draw(COUNTS),
                read_tables_probed=draw(COUNTS),
                read_bloom_skips=draw(COUNTS),
                read_bloom_false_positives=draw(COUNTS),
                read_bytes=draw(COUNTS),
                scan_tables_probed=draw(COUNTS),
                scan_tables_pruned=draw(COUNTS),
                scan_records_scanned=draw(COUNTS),
                scan_records_returned=draw(COUNTS),
            )
        if shards > 1:
            vector = st.lists(COUNTS, min_size=shards, max_size=shards)
            row.update(
                num_shards=shards,
                cluster_makespan_seconds=draw(SECONDS),
                shard_imbalance=draw(SECONDS),
                shard_ops=tuple(draw(vector)),
                shard_costs=tuple(draw(vector)),
                shard_read_amps=tuple(
                    draw(st.lists(SECONDS, min_size=shards, max_size=shards))
                ),
            )
        rows.append(StrategyResult(**row))
    return rows


@st.composite
def run_lists(draw):
    return draw(
        result_rows(
            draw(st.integers(1, 5)), shards=draw(st.integers(1, 4))
        )
    )


@st.composite
def shard_lists(draw):
    """1-4 per-shard rows; some shards may have received no writes."""
    rows = draw(result_rows(draw(st.integers(1, 4))))
    for index in range(len(rows)):
        if draw(st.booleans()):
            reads = draw(COUNTS)
            rows[index] = empty_result(
                "SI", reads=reads, read_misses=reads, scans=draw(COUNTS)
            )
    ops = draw(st.lists(COUNTS, min_size=len(rows), max_size=len(rows)))
    return rows, ops


class TestAgainstParent:
    @settings(max_examples=60, deadline=None)
    @given(run_lists())
    def test_aggregate_and_manifest_cell(self, runs):
        derived = aggregate(runs)
        oracle = parent.aggregate(runs)
        assert asdict(derived) == asdict(oracle)
        assert derived.cost_over_lopt == oracle.cost_over_lopt
        assert cell_metrics(derived) == parent._cell_metrics(oracle)

    @settings(max_examples=60, deadline=None)
    @given(shard_lists(), st.integers(1, 4))
    def test_shard_fold(self, shards_and_ops, lanes):
        shards, ops = shards_and_ops
        scheduler = ClusterScheduler(lanes)
        derived = combine_shard_results("SI", ops, shards, scheduler)
        oracle = parent.combine_shard_results("SI", ops, shards, scheduler)
        # The parent dropped the ingest wall (the defect this fold
        # fixes); everything else must match it field for field.
        assert replace(derived, ingest_wall_seconds=0.0) == oracle
        assert derived.ingest_wall_seconds == sum(
            row.ingest_wall_seconds for row in shards
        )

    @pytest.mark.parametrize("sharded,served", product((False, True), repeat=2))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_comparison_table_column_groups(self, data, sharded, served):
        """All 4 on/off combinations of the two groups, byte for byte."""
        labels = ("SI", "BT(I)")
        per_strategy = {}
        for label in labels:
            runs = data.draw(
                result_rows(
                    data.draw(st.integers(1, 3)),
                    served=served,
                    shards=3 if sharded else 1,
                )
            )
            runs = [replace(run, strategy=label) for run in runs]
            per_strategy[label] = (aggregate(runs), parent.aggregate(runs))
        config = SimulationConfig()
        tables = [
            render(
                config,
                ComparisonResult(
                    config,
                    {label: pair[side] for label, pair in per_strategy.items()},
                    runs=3,
                ),
                labels,
            )
            for side, render in enumerate(
                (render_comparison_table, parent.render_comparison_table)
            )
        ]
        assert tables[0] == tables[1]
        header = tables[0].splitlines()[1]
        for group, marker in (
            (sharded, "makespan s"),
            (served, "read amp"),
            (False, "merge wall s"),
            (False, "ingest s"),
        ):
            assert (marker in header) == group


#: Schema v1 of a manifest cell: 26 metric keys plus the four the
#: scenario layer adds around them.
MANIFEST_CELL_KEYS = [
    "strategy",
    "runs",
    "cost_actual_mean",
    "cost_actual_std",
    "cost_simplified_mean",
    "cost_over_lopt",
    "lopt_entries_mean",
    "simulated_seconds_mean",
    "simulated_seconds_std",
    "strategy_overhead_mean",
    "wall_seconds_mean",
    "merge_wall_seconds_mean",
    "merge_utilization_mean",
    "reads_mean",
    "scans_mean",
    "read_amplification_mean",
    "bloom_fp_rate_mean",
    "read_bytes_mean",
    "scan_records_scanned_mean",
    "num_shards",
    "cluster_makespan_mean",
    "shard_imbalance_mean",
    "shard_ops_mean",
    "shard_costs_mean",
    "shard_read_amps_mean",
    "ingest_wall_seconds_mean",
    "distribution",
    "parameter",
    "x",
    "plane_used",
]


def tiny_config(**overrides) -> SimulationConfig:
    defaults = dict(
        recordcount=200, operationcount=2000, memtable_capacity=200, seed=3
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestCatalogueStructure:
    def test_every_result_field_has_exactly_one_row(self):
        sources = [metric.source for metric in CATALOGUE if metric.source]
        assert len(sources) == len(set(sources))
        result_fields = {f.name for f in fields(StrategyResult)} - UNREPORTED
        assert not UNREPORTED & set(sources)
        assert result_fields <= set(sources)
        # The remaining rows read a StrategyResult property.
        for name in set(sources) - result_fields:
            assert isinstance(getattr(StrategyResult, name), property), name
        # Every field folds; only properties (recomputed) do not.
        for metric in CATALOGUE:
            if metric.source in result_fields:
                assert metric.fold is CLUSTER or callable(metric.fold)
            else:
                assert metric.fold is None, metric.source

    def test_every_result_field_has_a_declared_producer(self):
        """The compaction ledger, the serving phase, phase 1 or the
        cluster scheduler; ``run_strategy`` adds the label and LOPT."""
        from repro.lsm.compaction import CompactionResult

        compacted = {m.source: m.compacted for m in CATALOGUE if m.compacted}
        assert set(compacted.values()) <= {f.name for f in fields(CompactionResult)}
        assert len(compacted) == 12
        produced = set(compacted) | {"strategy", "lopt_entries"}
        for metric in CATALOGUE:
            if metric.served or metric.ingest or metric.fold is CLUSTER:
                produced.add(metric.source)
        assert produced == {f.name for f in fields(StrategyResult)} - UNREPORTED

    def test_aggregate_fields_are_the_catalogue_keys(self):
        stored = [
            key
            for metric in CATALOGUE
            if metric.runs[1] is not None
            for key in metric.keys
        ]
        assert [f.name for f in fields(AggregateResult)] == stored
        derived = [
            key
            for metric in CATALOGUE
            if metric.runs[0] and metric.runs[1] is None
            for key in metric.keys
        ]
        assert derived == ["cost_over_lopt"]
        assert isinstance(AggregateResult.cost_over_lopt, property)

    def test_manifest_cell_keys_are_schema_v1(self):
        from repro.scenarios import ExperimentRunner

        run = ExperimentRunner().run(
            "read-heavy",
            runs=1,
            overrides=dict(
                recordcount=200, operationcount=2000, memtable_capacity=200
            ),
        )
        for cell in run.cells():
            assert sorted(cell) == sorted(MANIFEST_CELL_KEYS)
        assert len(MANIFEST_CELL_KEYS) == 30

    @settings(max_examples=30, deadline=None)
    @given(result_rows(1), COUNTS)
    def test_one_shard_fold_is_the_identity(self, rows, ops):
        (row,) = rows
        folded = combine_shard_results("SI", [ops], rows, ClusterScheduler(4))
        for metric in CATALOGUE:
            if callable(metric.fold):
                assert getattr(folded, metric.source) == getattr(
                    row, metric.source
                ), metric.source
        assert folded.simulated_seconds == row.simulated_seconds
        assert folded.num_shards == 1 and folded.shard_ops == (ops,)

    def test_empty_result_is_all_zero(self):
        assert empty_result("LM", reads=2, read_misses=2, scans=1) == (
            StrategyResult(
                strategy="LM",
                n_tables=0,
                n_merges=0,
                cost_actual=0,
                cost_simplified=0,
                lopt_entries=0,
                bytes_read=0,
                bytes_written=0,
                io_seconds=0.0,
                simulated_seconds=0.0,
                strategy_overhead_seconds=0.0,
                wall_seconds=0.0,
                reads=2,
                scans=1,
                read_misses=2,
            )
        )


class TestFixedDefects:
    def test_sharded_cell_keeps_ingest_accounting(self):
        """A sharded cell used to report the serial defaults."""
        from repro.cluster import ShardedEngine

        config = tiny_config(num_shards=2)
        engine = ShardedEngine(config, ("SI",))
        shards = [run.per_label["SI"] for run in engine.run_shards(0)]
        assert all(row.ingest_wall_seconds > 0 for row in shards)
        agg = run_comparison(config, ("SI",), runs=1).per_strategy["SI"]
        assert agg.ingest_wall_seconds_mean > 0
        cell = combine_shard_results(
            "SI", [1, 1], shards, ClusterScheduler(config.parallel_lanes)
        )
        assert cell.ingest_wall_seconds == sum(
            row.ingest_wall_seconds for row in shards
        )

    def test_time_cell_is_the_mean_total_simulated_seconds(self):
        """The table used to add the strategy overhead a second time."""
        config = tiny_config()
        labels = ("SI", "SO")
        runs = {
            label: [
                StrategyResult(
                    strategy=label,
                    n_tables=4,
                    n_merges=3,
                    cost_actual=1000 * (run + 1),
                    cost_simplified=900,
                    lopt_entries=800,
                    bytes_read=1,
                    bytes_written=1,
                    io_seconds=0.5,
                    simulated_seconds=0.25 * (run + 1),
                    strategy_overhead_seconds=0.125,
                    wall_seconds=0.1,
                )
                for run in range(2)
            ]
            for label in labels
        }
        comparison = ComparisonResult(
            config, {label: aggregate(runs[label]) for label in labels}, runs=2
        )
        table = render_comparison_table(config, comparison, labels)
        expected = sum(r.total_simulated_seconds for r in runs["SI"]) / 2
        assert expected == 0.5  # 0.375 I/O + 0.125 overhead, counted once
        row = next(
            line.split() for line in table.splitlines() if "SI" in line.split()
        )
        assert row[4:6] == ["0.500", "0.125"]

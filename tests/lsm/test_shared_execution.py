"""Joint schedule execution: each leaf set is merged once, billed to all.

``execute_schedules`` over several schedules must equal each schedule
executed alone — every ledger field, ``simulated_seconds`` and the final
table's columns — on a comparison cell's real strategies, on drawn
tables and schedules, and on leaves whose seqno ranges overlap (the
unshared branch).  The counted-work tests pin what the sharing saves.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import shard_phase1, shard_streams
from repro.core import MergeSchedule, MergeStep
from repro.errors import CompactionError
from repro.lsm import (
    MajorCompaction,
    Record,
    SSTable,
    SimulatedDisk,
    compact_majors,
    execute_schedule,
    execute_schedules,
)
from repro.lsm.compaction import executor as executor_module
from repro.lsm.compaction.executor import seqnos_disjoint
from repro.simulator import (
    PAPER_STRATEGIES,
    SimulationConfig,
    build_strategy,
    generate_sstables,
    run_strategies,
    run_strategy,
)

LEDGER = (
    "input_count",
    "n_merges",
    "cost_actual_entries",
    "cost_simplified_entries",
    "bytes_read",
    "bytes_written",
    "io_seconds",
    "simulated_seconds",
)


def ledger(result):
    return {name: getattr(result, name) for name in LEDGER}


def final_columns(result):
    table = result.output_table
    columns = table.columns()
    if columns is None:
        return list(table.records)
    tombstones = columns.tombstones
    return (
        columns.keys.tolist(),
        columns.seqnos.tolist(),
        columns.value_sizes.tolist(),
        None if tombstones is None else tombstones.tolist(),
    )


def assert_same(joint, alone):
    assert len(joint) == len(alone)
    for shared, single in zip(joint, alone):
        assert ledger(shared) == ledger(single)
        assert shared.schedule is single.schedule
        assert final_columns(shared) == final_columns(single)


@pytest.fixture
def merge_calls(monkeypatch):
    """Count the real merges: every call of ``executor._merge_step``."""
    calls = []
    merge_step = executor_module._merge_step

    def counting(inputs, *args):
        calls.append(len(inputs))
        return merge_step(inputs, *args)

    monkeypatch.setattr(executor_module, "_merge_step", counting)
    return calls


def equal_size_tables(n_tables, size=40):
    """Leaves of one size over one key range, seqnos in disjoint slabs."""
    keys = np.arange(size)
    return [
        SSTable.from_columns(table_id, keys, keys + size * table_id + 1, 10)
        for table_id in range(n_tables)
    ]


class TestCellDifferential:
    """Every paper label plus LM and SO(exact), at tiny fig7 scale."""

    LABELS = tuple(PAPER_STRATEGIES)

    @staticmethod
    def config(update_fraction, **overrides):
        return replace(
            SimulationConfig.figure7(update_fraction, "latest", seed=3),
            recordcount=200,
            operationcount=2_000,
            memtable_capacity=200,
            **overrides,
        )

    @pytest.mark.parametrize(
        "overrides",
        (
            dict(update_fraction=0.5),
            dict(update_fraction=1.0),
            dict(update_fraction=0.5, delete_fraction=0.2, memtable_mode="map"),
        ),
    )
    def test_joint_equals_each_alone(self, overrides, merge_calls):
        config = self.config(**overrides)
        tables = generate_sstables(config).tables
        assert seqnos_disjoint(tables)

        def strategies():
            return [build_strategy(label, config) for label in self.LABELS]

        def disks():
            return [SimulatedDisk(config.timing_model()) for _ in self.LABELS]

        joint = compact_majors(strategies(), tables, disks(), 10_000_000)
        computed = len(merge_calls)
        alone = [
            strategy.compact(tables, disk, 10_000_000)
            for strategy, disk in zip(strategies(), disks())
        ]
        assert len(merge_calls) - computed == sum(r.n_merges for r in alone)
        assert computed < sum(r.n_merges for r in alone)  # the final is shared
        assert [r.strategy_name for r in joint] == [r.strategy_name for r in alone]
        for shared, single in zip(joint, alone):
            assert ledger(shared) == ledger(single)
            assert [s.inputs for s in shared.schedule.steps] == [
                s.inputs for s in single.schedule.steps
            ]
            assert final_columns(shared) == final_columns(single)

    def test_cell_entry_equals_one_label_calls(self):
        """``run_strategies`` (the cell) == ``run_strategy`` per label on
        every deterministic field, practical strategies included."""
        config = self.config(0.5, read_fraction=0.2, scan_fraction=0.05)
        phase1 = generate_sstables(config)
        labels = ("SI", "SO", "BT(I)", "STCS", "BT(O)", "RANDOM", "LEVELED")
        cell = run_strategies(
            phase1.tables, labels, config, read_ops=phase1.read_ops
        )
        assert list(cell) == list(labels)
        timed = {"wall_seconds", "strategy_overhead_seconds",
                 "merge_wall_seconds", "merge_utilization"}
        for label in labels:
            single = run_strategy(
                phase1.tables, label, config, read_ops=phase1.read_ops
            )
            for name, value in vars(single).items():
                if name not in timed:
                    assert getattr(cell[label], name) == value, (label, name)


class TestPhase1LeavesAreDisjoint:
    """The sharing precondition holds on every phase-1 table set."""

    @pytest.mark.parametrize("mode", ("append", "map"))
    def test_single_shard(self, mode):
        config = TestCellDifferential.config(
            0.5, delete_fraction=0.1, memtable_mode=mode
        )
        assert seqnos_disjoint(generate_sstables(config).tables)

    def test_each_of_three_shards(self):
        config = TestCellDifferential.config(0.5, num_shards=3)
        for stream in shard_streams(config):
            _, phase1 = shard_phase1(config, stream)
            assert len(phase1.tables) > 1
            assert seqnos_disjoint(phase1.tables)


# ----------------------------------------------------------------------
# Drawn leaves and schedules
# ----------------------------------------------------------------------
@st.composite
def leaf_tables(draw, overlapping=False):
    """2-6 record tables over a small key universe, tombstones included.

    Seqnos are handed out table by table (disjoint ranges), in a drawn
    table order; ``overlapping`` deals them round-robin instead, so the
    ranges interleave while every (key, seqno) pair stays unique.
    """
    n_tables = draw(st.integers(2, 6))
    min_size = 2 if overlapping else 1  # two rounds of the deal interleave
    key_sets = [
        sorted(draw(st.sets(st.integers(0, 30), min_size=min_size, max_size=12)))
        for _ in range(n_tables)
    ]
    flags = [
        [draw(st.booleans()) and draw(st.booleans()) for _ in keys]
        for keys in key_sets
    ]
    seqnos: list[list[int]] = [[] for _ in range(n_tables)]
    if overlapping:
        counter = 0
        for position in range(max(map(len, key_sets))):
            for table in range(n_tables):
                if position < len(key_sets[table]):
                    counter += 1
                    seqnos[table].append(counter)
    else:
        counter = 0
        for table in draw(st.permutations(range(n_tables))):
            for _ in key_sets[table]:
                counter += 1
                seqnos[table].append(counter)
    return [
        SSTable(
            table,
            [
                Record.delete(key, seqno)
                if dead
                else Record.put(key, seqno, value_size=1 + key % 7)
                for key, seqno, dead in zip(key_sets[table], seqnos[table], flags[table])
            ],
        )
        for table in range(n_tables)
    ]


@st.composite
def merge_schedule(draw, n_tables):
    """A random merge tree of fan-in 2..k, k drawn from 2..4."""
    k = draw(st.integers(2, 4))
    live = list(range(n_tables))
    steps = []
    while len(live) > 1:
        arity = draw(st.integers(2, min(k, len(live))))
        chosen = draw(st.permutations(live))[:arity]
        output = n_tables + len(steps)
        steps.append(MergeStep(tuple(chosen), output))
        live = [table for table in live if table not in chosen] + [output]
    return MergeSchedule(n_tables, steps)


@st.composite
def tables_and_schedules(draw, overlapping=False):
    tables = draw(leaf_tables(overlapping=overlapping))
    schedules = draw(
        st.lists(merge_schedule(len(tables)), min_size=1, max_size=4)
    )
    if draw(st.booleans()):
        schedules.append(schedules[0])  # one schedule twice: all shared
    lanes = draw(
        st.lists(st.integers(1, 3), min_size=len(schedules), max_size=len(schedules))
    )
    return tables, schedules, lanes


def run_both(tables, schedules, lanes):
    disks = [SimulatedDisk() for _ in schedules]
    joint = execute_schedules(tables, schedules, disks, lanes, 500)
    alone = [
        execute_schedule(tables, schedule, SimulatedDisk(), 500, lanes=lane_count)
        for schedule, lane_count in zip(schedules, lanes)
    ]
    return joint, alone


class TestDrawnDifferential:
    @settings(max_examples=60)
    @given(tables_and_schedules())
    def test_joint_equals_each_alone(self, drawn):
        tables, schedules, lanes = drawn
        assert seqnos_disjoint(tables)
        joint, alone = run_both(tables, schedules, lanes)
        assert_same(joint, alone)

    @settings(max_examples=40)
    @given(tables_and_schedules(overlapping=True))
    def test_overlapping_seqnos_run_unshared(self, drawn):
        """Interleaved seqno ranges: the joint call merges every step of
        every schedule, exactly as many merges as the calls alone."""
        tables, schedules, lanes = drawn
        assert not seqnos_disjoint(tables)
        calls = []
        merge_step = executor_module._merge_step

        def counting(inputs, *args):
            calls.append(len(inputs))
            return merge_step(inputs, *args)

        executor_module._merge_step = counting
        try:
            joint, alone = run_both(tables, schedules, lanes)
        finally:
            executor_module._merge_step = merge_step
        assert len(calls) == 2 * sum(len(s.steps) for s in schedules)
        assert_same(joint, alone)


# ----------------------------------------------------------------------
# Counted work
# ----------------------------------------------------------------------
class TestCountedWork:
    N_TABLES = 16

    def test_si_and_bti_share_every_merge(self, merge_calls):
        """On equal-size leaves SI's and BT(I)'s schedules coincide, so a
        joint run merges n - 1 times and bills 2(n - 1) steps."""
        tables = equal_size_tables(self.N_TABLES)
        strategies = [MajorCompaction("SI"), MajorCompaction("BT(I)")]
        schedules = [strategy.plan(tables).schedule for strategy in strategies]
        assert schedules[0].steps == schedules[1].steps
        results = compact_majors(
            strategies, tables, [SimulatedDisk(), SimulatedDisk()], 100
        )
        assert len(merge_calls) == self.N_TABLES - 1
        assert sum(r.n_merges for r in results) == 2 * (self.N_TABLES - 1)
        assert results[0].output_table is results[1].output_table
        # The lanes still differ: BT(I)'s makespan is its critical path.
        assert results[1].simulated_seconds < results[0].simulated_seconds

    def test_one_schedule_merges_every_step(self, merge_calls):
        tables = equal_size_tables(self.N_TABLES)
        MajorCompaction("SI").compact(tables, SimulatedDisk(), 100)
        assert len(merge_calls) == self.N_TABLES - 1

    def test_time_rule(self):
        """A fully reused schedule is billed the merges' measured seconds:
        its merge wall is at least their sum, and its utilization is the
        merges' share of that wall."""
        tables = equal_size_tables(self.N_TABLES)
        schedule = MajorCompaction("SI").plan(tables).schedule
        first, second = execute_schedules(
            tables, [schedule, schedule], [SimulatedDisk()] * 2, [1, 1], 100
        )
        for result in (first, second):
            assert 0.0 < result.merge_utilization <= 1.0
            assert result.wall_seconds >= result.merge_wall_seconds > 0.0
        busy = [r.merge_wall_seconds * r.merge_utilization for r in (first, second)]
        assert busy[0] == pytest.approx(busy[1])


class TestArguments:
    def test_one_entry_per_schedule(self):
        tables = equal_size_tables(3)
        schedule = MajorCompaction("SI").plan(tables).schedule
        with pytest.raises(CompactionError, match="one disk"):
            execute_schedules(tables, [schedule] * 2, [SimulatedDisk()], [1, 1], 10)
        with pytest.raises(CompactionError, match="lanes must be >= 1"):
            execute_schedules(tables, [schedule], [SimulatedDisk()], [0], 10)

    def test_joint_strategies_must_agree_on_outputs(self):
        tables = equal_size_tables(3)
        strategies = [
            MajorCompaction("SI"),
            MajorCompaction("SI", bloom_fp_rate=0.05),
        ]
        with pytest.raises(CompactionError, match="bloom_fp_rate"):
            compact_majors(strategies, tables, [SimulatedDisk()] * 2, 10)

    def test_no_strategies_compact_nothing(self):
        assert compact_majors([], equal_size_tables(3), [], 10) == []

"""Tests for the compaction strategies and the schedule executor."""

import random

import numpy as np
import pytest

from repro.core import MergeSchedule, MergeStep
from repro.errors import CompactionError
from repro.lsm import (
    LeveledCompaction,
    MajorCompaction,
    Record,
    SSTable,
    SimulatedDisk,
    SizeTieredCompaction,
    execute_schedule,
)


def make_tables(n_tables=8, keys_per_table=50, universe=300, seed=0, tombstone_rate=0.0):
    rng = random.Random(seed)
    tables = []
    seqno = 0
    for table_id in range(n_tables):
        records = []
        for key in sorted(rng.sample(range(universe), keys_per_table)):
            seqno += 1
            if rng.random() < tombstone_rate:
                records.append(Record.delete(key, seqno))
            else:
                records.append(Record.put(key, seqno, value_size=100))
        tables.append(SSTable(table_id, records))
    return tables


def all_keys(tables):
    return frozenset().union(*(t.key_set for t in tables))


class TestExecutor:
    def test_simple_execution(self):
        tables = make_tables(4)
        schedule = MergeSchedule(
            4, [MergeStep((0, 1), 4), MergeStep((2, 3), 5), MergeStep((4, 5), 6)]
        )
        disk = SimulatedDisk()
        result = execute_schedule(tables, schedule, disk, next_table_id=10)
        assert result.output_table.key_set == all_keys(tables)
        assert result.n_merges == 3
        assert result.bytes_read > 0 and result.bytes_written > 0
        assert disk.stats.bytes_read == result.bytes_read

    def test_cost_actual_counts_interior_twice(self):
        tables = make_tables(3, keys_per_table=10, universe=1000, seed=1)
        # disjoint-ish tables: sizes known
        schedule = MergeSchedule(3, [MergeStep((0, 1), 3), MergeStep((3, 2), 4)])
        disk = SimulatedDisk()
        result = execute_schedule(
            tables, schedule, disk, next_table_id=10, drop_tombstones=False
        )
        sizes = [t.entry_count for t in tables]
        interior = len(
            tables[0].key_set | tables[1].key_set
        )
        root = len(all_keys(tables))
        assert result.cost_actual_entries == sum(sizes) + 2 * interior + root
        assert result.cost_simplified_entries == sum(sizes) + interior + root

    def test_serial_time_is_sum(self):
        tables = make_tables(4)
        schedule = MergeSchedule(
            4, [MergeStep((0, 1), 4), MergeStep((2, 3), 5), MergeStep((4, 5), 6)]
        )
        result = execute_schedule(
            tables, schedule, SimulatedDisk(), next_table_id=10, lanes=1
        )
        assert result.simulated_seconds == pytest.approx(result.io_seconds)

    def test_parallel_time_shorter_for_independent_merges(self):
        tables = make_tables(8, keys_per_table=40)
        steps = [MergeStep((i, i + 1), 8 + i // 2) for i in range(0, 8, 2)]
        steps.append(MergeStep((8, 9), 12))
        steps.append(MergeStep((10, 11), 13))
        steps.append(MergeStep((12, 13), 14))
        schedule = MergeSchedule(8, steps)
        serial = execute_schedule(
            tables, schedule, SimulatedDisk(), next_table_id=20, lanes=1
        )
        parallel = execute_schedule(
            tables, schedule, SimulatedDisk(), next_table_id=20, lanes=4
        )
        assert parallel.simulated_seconds < serial.simulated_seconds
        assert parallel.io_seconds == pytest.approx(serial.io_seconds)

    def test_dependency_respected_with_many_lanes(self):
        """A chain schedule cannot go faster than its critical path."""
        tables = make_tables(3)
        schedule = MergeSchedule(3, [MergeStep((0, 1), 3), MergeStep((3, 2), 4)])
        result = execute_schedule(
            tables, schedule, SimulatedDisk(), next_table_id=10, lanes=16
        )
        assert result.simulated_seconds == pytest.approx(result.io_seconds)

    def test_validation(self):
        tables = make_tables(3)
        schedule = MergeSchedule(3, [MergeStep((0, 1), 3), MergeStep((3, 2), 4)])
        with pytest.raises(CompactionError):
            execute_schedule(tables, schedule, SimulatedDisk(), 10, lanes=0)
        with pytest.raises(CompactionError):
            execute_schedule(tables[:2], schedule, SimulatedDisk(), 10)


class TestMajorCompaction:
    @pytest.mark.parametrize(
        "policy", ["SI", "SO", "BT(I)", "BT(O)", "LM", "random"]
    )
    def test_every_policy_compacts_correctly(self, policy):
        tables = make_tables(8, seed=3)
        strategy = MajorCompaction(policy, seed=1)
        result = strategy.compact(tables, SimulatedDisk(), next_table_id=100)
        assert len(result.output_tables) == 1
        assert result.output_table.key_set == all_keys(tables)
        assert result.n_merges == 7
        assert result.cost_actual_entries > 0

    def test_single_table_is_noop(self):
        tables = make_tables(1)
        result = MajorCompaction("SI").compact(tables, SimulatedDisk(), 10)
        assert result.output_tables == [tables[0]]
        assert result.n_merges == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MajorCompaction("SI").compact([], SimulatedDisk(), 10)

    def test_tombstone_gc_only_at_root(self):
        tables = make_tables(6, tombstone_rate=0.3, seed=5)
        live_keys = set()
        newest: dict = {}
        for table in tables:
            for record in table.records:
                if record.key not in newest or record.seqno > newest[record.key].seqno:
                    newest[record.key] = record
        live_keys = {k for k, r in newest.items() if not r.tombstone}
        result = MajorCompaction("SI").compact(tables, SimulatedDisk(), 100)
        assert result.output_table.key_set == frozenset(live_keys)

    def test_bt_uses_parallel_lanes_by_default(self):
        tables = make_tables(8)
        bt = MajorCompaction("BT(I)")
        si = MajorCompaction("SI")
        assert bt.lanes == 8
        assert si.lanes == 1
        bt_result = bt.compact(tables, SimulatedDisk(), 100)
        si_result = si.compact(tables, SimulatedDisk(), 100)
        assert bt_result.simulated_seconds < si_result.simulated_seconds

    def test_kway(self):
        tables = make_tables(9)
        result = MajorCompaction("SI", k=3).compact(tables, SimulatedDisk(), 100)
        assert result.schedule.max_arity() == 3
        assert result.output_table.key_set == all_keys(tables)

    def test_strategy_overhead_recorded(self):
        tables = make_tables(10)
        result = MajorCompaction("SO", hll_precision=10).compact(
            tables, SimulatedDisk(), 100
        )
        assert result.strategy_overhead_seconds > 0
        assert result.total_simulated_seconds >= result.simulated_seconds


class TestSizeTiered:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            SizeTieredCompaction(min_threshold=1)
        with pytest.raises(ValueError):
            SizeTieredCompaction(min_threshold=4, max_threshold=2)
        with pytest.raises(ValueError):
            SizeTieredCompaction(bucket_low=1.2)

    def test_until_single(self):
        tables = make_tables(12, seed=7)
        result = SizeTieredCompaction().compact(tables, SimulatedDisk(), 100)
        assert len(result.output_tables) == 1
        assert result.output_tables[0].key_set <= all_keys(tables)
        assert result.extras["rounds"] >= 1

    def test_partial_mode_leaves_multiple_tables(self):
        # tables with very different sizes won't bucket together
        rng = random.Random(0)
        tables = []
        seqno = 0
        for table_id, size in enumerate([10, 10, 10, 10, 500]):
            records = []
            for key in sorted(rng.sample(range(10_000), size)):
                seqno += 1
                records.append(Record.put(key, seqno))
            tables.append(SSTable(table_id, records))
        result = SizeTieredCompaction(until_single=False).compact(
            tables, SimulatedDisk(), 100
        )
        assert len(result.output_tables) == 2  # merged small bucket + big table
        assert all_keys(result.output_tables) == all_keys(tables)

    def test_equal_sized_tables_bucket_together(self):
        tables = make_tables(8, keys_per_table=50, seed=9)
        result = SizeTieredCompaction(min_threshold=4, until_single=False).compact(
            tables, SimulatedDisk(), 100
        )
        assert len(result.output_tables) < 8


class TestLeveled:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            LeveledCompaction(table_target_entries=0)
        with pytest.raises(ValueError):
            LeveledCompaction(fanout=1)
        with pytest.raises(ValueError):
            LeveledCompaction(level0_threshold=0)

    def test_keys_preserved(self):
        tables = make_tables(10, seed=11)
        result = LeveledCompaction(
            table_target_entries=60, base_level_entries=120
        ).compact(tables, SimulatedDisk(), 100)
        assert all_keys(result.output_tables) == all_keys(tables)

    def test_levels_non_overlapping(self):
        tables = make_tables(10, seed=13)
        result = LeveledCompaction(
            table_target_entries=60, base_level_entries=120
        ).compact(tables, SimulatedDisk(), 100)
        by_id = {t.table_id: t for t in result.output_tables}
        for level, ids in result.extras["levels"].items():
            members = [by_id[i] for i in ids]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert not members[i].key_range_overlaps(members[j])

    def test_table_size_cap_respected(self):
        tables = make_tables(10, seed=17)
        target = 60
        result = LeveledCompaction(
            table_target_entries=target, base_level_entries=120
        ).compact(tables, SimulatedDisk(), 100)
        assert all(t.entry_count <= target for t in result.output_tables)

    def test_newest_version_survives(self):
        # same key updated across tables
        t1 = SSTable(0, [Record.put("k", 1, value_size=1)])
        t2 = SSTable(1, [Record.put("k", 2, value_size=2)])
        t3 = SSTable(2, [Record.put("z", 3, value_size=3)])
        result = LeveledCompaction(table_target_entries=10).compact(
            [t1, t2, t3], SimulatedDisk(), 100
        )
        merged = {r.key: r for t in result.output_tables for r in t.records}
        assert merged["k"].seqno == 2


def column_tables(seed, n_tables=10, universe=2000, tombstone_rate=0.1):
    """Column-backed inputs: overlapping int keys, varied sizes, tombstones."""
    rng = np.random.default_rng(seed)
    tables = []
    seqno = 0
    for table_id in range(n_tables):
        keys = np.unique(rng.integers(-universe, universe, rng.integers(1, 300)))
        seqnos = np.arange(seqno + 1, seqno + 1 + keys.size)
        seqno += keys.size
        tables.append(
            SSTable.from_columns(
                table_id,
                keys,
                seqnos,
                rng.integers(0, 500, keys.size),
                rng.random(keys.size) < tombstone_rate,
            )
        )
    return tables


def table_rows(table):
    """A table's identity and every row, read without building records."""
    columns = table.columns()
    tombstones = (
        columns.tombstones.tolist()
        if columns.tombstones is not None
        else [False] * len(table)
    )
    return (
        table.table_id,
        columns.keys.tolist(),
        columns.seqnos.tolist(),
        columns.value_sizes.tolist(),
        tombstones,
        table.size_bytes,
    )


class TestLeveledColumnSplit:
    """The column split against the record split, its oracle.

    The heap kernel's merge outputs are record-backed, so LEVELED cuts
    them by record slices; the default kernel's are column-backed and
    cut by column slices.
    """

    LEDGER = (
        "n_merges",
        "cost_actual_entries",
        "cost_simplified_entries",
        "bytes_read",
        "bytes_written",
        "io_seconds",
    )

    def run(self, seed, kernel, target):
        strategy = LeveledCompaction(
            table_target_entries=target,
            base_level_entries=200,
            fanout=3,
            merge_kernel=kernel,
        )
        return strategy.compact(column_tables(seed), SimulatedDisk(), 100)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("target", [1, 37, 150, 5000])
    def test_column_split_equals_record_split(self, seed, target):
        heap = self.run(seed, "heap", target)
        columnar = self.run(seed, "auto", target)
        assert columnar.n_merges > 1
        assert [table_rows(t) for t in columnar.output_tables] == [
            table_rows(t) for t in heap.output_tables
        ]
        for field in self.LEDGER:
            assert getattr(columnar, field) == getattr(heap, field), field
        assert columnar.extras["levels"] == heap.extras["levels"]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_column_inputs_never_build_records(self, seed):
        result = self.run(seed, "auto", 37)
        assert result.output_tables
        assert not [t for t in result.output_tables if "records" in vars(t)]

    @pytest.mark.parametrize("rows", [1, 3, 4, 10, 11])
    def test_split_equals_record_split(self, rows):
        keys = np.arange(10)
        table = SSTable.from_columns(0, keys, keys + 10, keys + 5, keys % 3 == 0)
        pieces = table.split(rows, 7, 0.02)
        oracle = SSTable(0, list(table.records)).split(rows, 7, 0.02)
        assert not [piece for piece in pieces if "records" in vars(piece)]
        assert [table_rows(p) for p in pieces] == [table_rows(p) for p in oracle]
        assert [p._bloom_fp_rate for p in pieces] == [0.02] * len(oracle)

    def test_split_copies_its_slices(self):
        table = SSTable.from_columns(0, np.arange(10), np.arange(10), 3)
        pieces = table.split(4, 7, 0.02)
        assert [(p.table_id, len(p)) for p in pieces] == [(7, 4), (8, 4), (9, 2)]
        for piece in pieces:
            for column in (piece.columns().keys, piece.columns().seqnos):
                assert not np.shares_memory(column, table.columns().keys)
                assert not np.shares_memory(column, table.columns().seqnos)

    def test_record_backed_table_splits_by_records(self):
        records = [Record.put(f"k{i:02d}", i, value=b"v" * i) for i in range(9)]
        pieces = SSTable(0, records).split(4, 1, 0.01)
        assert [list(p.records) for p in pieces] == [
            records[0:4],
            records[4:8],
            records[8:],
        ]

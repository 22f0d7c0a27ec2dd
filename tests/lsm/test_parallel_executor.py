"""Schedule execution: the merge loop's checks, accounting and memory bound.

A schedule that reads a table no earlier step leaves live is refused
with a :class:`CompactionError`; a single-table schedule merges nothing;
utilization is the merges' share of the merge wall.  A counted bound on
the intermediate tables alive during an SI and a BT(I) schedule checks
that settling frees them as it goes, and a joint SI + SO + BT(I) run
checks that a shared output dies once its last reader has merged.
"""

from __future__ import annotations

import random
import weakref

import numpy as np
import pytest

from repro.core import MergeSchedule, MergeStep
from repro.errors import CompactionError
from repro.lsm import (
    MajorCompaction,
    Record,
    SSTable,
    SimulatedDisk,
    compact_majors,
    execute_schedule,
)
from repro.lsm.compaction import executor as executor_module


def make_tables(n_tables, seed, keys_per_table=12, universe=40, tombstone_rate=0.0):
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
                records.append(Record.put(key, seqno, value_size=30))
        tables.append(SSTable(table_id, records))
    return tables


class TestScheduleLoop:
    def test_corrupt_schedule_rejected(self):
        # MergeSchedule.__init__ validates, so hand-build a corrupt one:
        # step 0 reads table 3, which only step 1 (later) produces.
        schedule = object.__new__(MergeSchedule)
        schedule.n_initial = 2
        schedule.steps = (MergeStep((0, 3), 2), MergeStep((1, 2), 3))
        with pytest.raises(CompactionError, match=r"step #0 .* no earlier step"):
            execute_schedule(
                make_tables(2, seed=1), schedule, SimulatedDisk(), next_table_id=10
            )

    def test_single_table_schedule_merges_nothing(self):
        tables = make_tables(1, seed=3)
        result = execute_schedule(
            tables, MergeSchedule(1, []), SimulatedDisk(), next_table_id=100
        )
        assert result.n_merges == 0
        assert result.output_table is tables[0]
        assert result.merge_wall_seconds == result.merge_utilization == 0.0

    def test_utilization_is_the_merges_share_of_the_wall(self):
        tables = make_tables(4, seed=5)
        schedule = MergeSchedule(
            4, [MergeStep((0, 1), 4), MergeStep((2, 3), 5), MergeStep((4, 5), 6)]
        )
        result = execute_schedule(tables, schedule, SimulatedDisk(), next_table_id=10)
        assert result.merge_workers == 1
        assert 0.0 < result.merge_utilization <= 1.0


class TestIntermediatesFreed:
    """A counted memory bound: an intermediate table is dropped once the
    step consuming it is settled, not kept until the schedule ends.

    Every ``_merge_step`` output is watched through a weakref.  When a
    step's merge starts, the intermediates still alive are counted and
    held to the number of tables live in the schedule just before that
    step.  Keeping every output until a post-pass lets the count reach
    ``n - 2``.
    """

    N_TABLES = 32
    FIRST_ID = 1_000

    @staticmethod
    def columnar_tables(n_tables, seed):
        rng = np.random.default_rng(seed)
        tables = []
        for table_id in range(n_tables):
            keys = np.unique(rng.integers(0, 5_000, 300))
            tables.append(
                SSTable.from_columns(
                    table_id, keys, rng.permutation(keys.size) + 1_000 * table_id, 40
                )
            )
        return tables

    @pytest.mark.parametrize("policy", ["SI", "BT(I)"])
    def test_alive_intermediates_stay_within_the_live_tables(
        self, monkeypatch, policy
    ):
        watched: list[weakref.ref] = []
        calls: list[tuple[int, int]] = []  # (output table id, alive)
        merge_step = executor_module._merge_step

        def counting_merge_step(inputs, new_table_id, *args):
            calls.append((new_table_id, sum(ref() is not None for ref in watched)))
            output, seconds = merge_step(inputs, new_table_id, *args)
            watched.append(weakref.ref(output))
            return output, seconds

        monkeypatch.setattr(executor_module, "_merge_step", counting_merge_step)
        tables = self.columnar_tables(self.N_TABLES, seed=17)
        result = MajorCompaction(policy, merge_kernel="columnar").compact(
            tables, SimulatedDisk(), next_table_id=self.FIRST_ID
        )

        live_before = []  # tables live in the schedule before each step
        live = self.N_TABLES
        for step in result.schedule.steps:
            live_before.append(live)
            live -= len(step.inputs) - 1
        assert len(calls) == result.schedule.n_steps == self.N_TABLES - 1
        for table_id, alive in calls:
            assert alive <= live_before[table_id - self.FIRST_ID], (
                table_id, alive
            )
        # The only survivor is the schedule's output.
        assert [ref() for ref in watched if ref() is not None] == [
            result.output_table
        ]

    def test_joint_run_frees_each_output_after_its_last_reader(self, monkeypatch):
        """SI + SO + BT(I) executed jointly: every merge output is watched;
        from the merge after its last reader on it must be dead, and after
        the call only the schedules' final tables are alive.  An output
        whose only consumer is a reused step is merged (to bill it) but
        read by no merge: it must be dead from the next merge on."""
        watched: list[weakref.ref] = []
        alive_at: list[list[bool]] = []  # per merge: which outputs live
        last_reader: dict[int, int] = {}  # watched index -> merge index
        merge_step = executor_module._merge_step

        def watching_merge_step(inputs, new_table_id, *args):
            merge_index = len(alive_at)
            alive_at.append([ref() is not None for ref in watched])
            for index, ref in enumerate(watched):
                if any(ref() is table for table in inputs):
                    last_reader[index] = merge_index
            output, seconds = merge_step(inputs, new_table_id, *args)
            watched.append(weakref.ref(output))
            return output, seconds

        monkeypatch.setattr(executor_module, "_merge_step", watching_merge_step)
        tables = self.columnar_tables(self.N_TABLES, seed=17)
        strategies = [
            MajorCompaction(policy, merge_kernel="columnar")
            for policy in ("SI", "SO", "BT(I)")
        ]
        results = compact_majors(
            strategies, tables, [SimulatedDisk() for _ in strategies], self.FIRST_ID
        )

        billed = sum(result.n_merges for result in results)
        assert len(alive_at) < billed == 3 * (self.N_TABLES - 1)
        finals = {id(result.output_table) for result in results}
        for index, ref in enumerate(watched):
            if id(ref()) in finals:
                continue
            last = last_reader.get(index, index)  # merge ``index`` made it
            for alive in alive_at[last + 1:]:
                assert not alive[index], (index, last)
        assert {id(ref()) for ref in watched if ref() is not None} == finals

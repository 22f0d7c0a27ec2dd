"""Planner + execution-backend properties: any backend, same bytes.

The parallel merge engine rests on two invariants:

* :func:`plan_schedule` recovers exactly the producer/consumer structure
  a schedule's table ids encode, and its waves are the fixpoint of the
  ready-set rule (a step is ready once every dependency has finished);
* every :class:`ExecutionBackend` is a pure function of the schedule —
  serial and thread execution produce byte-identical tables,
  cost metrics, simulated durations and propagated sketches for any
  worker count.

Both are checked here over hypothesis-generated random valid schedules.
A counted bound on the intermediate tables alive during an SI and a
BT(I) schedule checks that settling frees them as it goes.
"""

from __future__ import annotations

import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MergeSchedule, MergeStep
from repro.errors import CompactionError
from repro.lsm import (
    MajorCompaction,
    Record,
    SSTable,
    SimulatedDisk,
    execute_schedule,
)
from repro.lsm.compaction import executor as executor_module
from repro.lsm.compaction import make_execution_backend, plan_schedule
from repro.lsm.compaction.executor import resolve_merge_workers


@st.composite
def schedules(draw, min_initial: int = 2, max_initial: int = 8) -> MergeSchedule:
    """Random valid schedules: repeatedly merge 2-3 live tables."""
    n = draw(st.integers(min_initial, max_initial))
    live = list(range(n))
    steps = []
    next_id = n
    while len(live) > 1:
        fan_in = draw(st.integers(2, min(3, len(live))))
        chosen = []
        for _ in range(fan_in):
            chosen.append(live.pop(draw(st.integers(0, len(live) - 1))))
        steps.append(MergeStep(tuple(chosen), next_id))
        live.append(next_id)
        next_id += 1
    schedule = MergeSchedule(n, steps)
    schedule.validate()
    return schedule


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


class TestPlannerProperties:
    @given(schedule=schedules())
    @settings(max_examples=50, deadline=None)
    def test_dependencies_are_exactly_the_producers(self, schedule):
        plan = plan_schedule(schedule)
        n = schedule.n_initial
        for index, step in enumerate(plan.steps):
            producers = {
                table_id - n for table_id in step.inputs if table_id >= n
            }
            assert set(plan.dependencies[index]) == producers
            assert all(dep < index for dep in plan.dependencies[index])
        # dependents is the exact inverse edge set
        edges = {
            (dep, index)
            for index, deps in enumerate(plan.dependencies)
            for dep in deps
        }
        inverse = {
            (index, dependent)
            for index, dependents in enumerate(plan.dependents)
            for dependent in dependents
        }
        assert edges == inverse

    @given(schedule=schedules())
    @settings(max_examples=50, deadline=None)
    def test_waves_are_the_ready_set_fixpoint(self, schedule):
        plan = plan_schedule(schedule)
        waves = plan.topological_waves()
        done: set[int] = set()
        remaining = set(range(plan.n_steps))
        assert set(waves[0]) == set(plan.ready_steps())
        for wave in waves:
            ready = {
                index
                for index in remaining
                if all(dep in done for dep in plan.dependencies[index])
            }
            assert set(wave) == ready
            done |= ready
            remaining -= ready
        assert not remaining
        assert plan.critical_path_steps == len(waves)

    def test_corrupt_schedule_rejected(self):
        # MergeSchedule.__init__ validates, so hand-build a corrupt one:
        # step 0 reads table 3, which only step 1 (later) produces.
        schedule = object.__new__(MergeSchedule)
        schedule.n_initial = 2
        schedule.steps = (MergeStep((0, 3), 2), MergeStep((1, 2), 3))
        with pytest.raises(CompactionError, match="no earlier step"):
            plan_schedule(schedule)


class TestBackendEquivalence:
    @staticmethod
    def _run(tables, schedule, executor, workers=None):
        return execute_schedule(
            tables,
            schedule,
            SimulatedDisk(),
            next_table_id=100,
            lanes=3,
            executor=executor,
            workers=workers,
        )

    @staticmethod
    def _assert_equal(reference, candidate):
        assert candidate.output_table.records == reference.output_table.records
        assert candidate.output_table.table_id == reference.output_table.table_id
        assert candidate.n_merges == reference.n_merges
        assert candidate.cost_actual_entries == reference.cost_actual_entries
        assert (
            candidate.cost_simplified_entries
            == reference.cost_simplified_entries
        )
        assert candidate.bytes_read == reference.bytes_read
        assert candidate.bytes_written == reference.bytes_written
        assert candidate.io_seconds == reference.io_seconds
        assert candidate.simulated_seconds == reference.simulated_seconds
        ref_sketch = reference.output_table.cached_sketch()
        out_sketch = candidate.output_table.cached_sketch()
        if ref_sketch is None:
            assert out_sketch is None
        else:
            assert out_sketch._registers == ref_sketch._registers

    @given(
        schedule=schedules(),
        seed=st.integers(0, 10_000),
        with_tombstones=st.booleans(),
        workers=st.sampled_from([1, 2, 5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_thread_matches_serial(
        self, schedule, seed, with_tombstones, workers
    ):
        tables = make_tables(
            schedule.n_initial,
            seed=seed,
            tombstone_rate=0.3 if with_tombstones else 0.0,
        )
        for table in tables:
            table.sketch()
        serial = self._run(tables, schedule, "serial")
        threaded = self._run(tables, schedule, "thread", workers=workers)
        self._assert_equal(serial, threaded)

    def test_single_table_schedule_runs_on_every_backend(self):
        schedule = MergeSchedule(1, [])
        tables = make_tables(1, seed=3)
        for executor in ("serial", "thread"):
            result = self._run(tables, schedule, executor)
            assert result.n_merges == 0
            assert result.output_table is tables[0]


class TestBackendErrors:
    def test_unknown_executor(self):
        for name in ("gpu", "process"):  # "process" was removed in PR 21
            with pytest.raises(
                CompactionError,
                match=r"unknown merge executor.*'serial', 'thread'",
            ):
                make_execution_backend(name)

    def test_negative_workers(self):
        with pytest.raises(CompactionError, match="must be >= 0"):
            resolve_merge_workers(-1)

    def test_auto_workers_resolve_to_cpu_count(self):
        assert resolve_merge_workers(None) >= 1
        assert resolve_merge_workers(0) == resolve_merge_workers(None)
        assert resolve_merge_workers(3) == 3

    def test_serial_backend_defaults_to_one_worker(self):
        assert make_execution_backend("serial").workers == 1
        assert make_execution_backend("thread", 4).workers == 4

    def test_serial_backend_reports_one_worker_whatever_is_asked(self):
        """A worker count is the thread backend's setting: the serial loop
        merges one step at a time, so it records one worker and its
        utilization is not divided by workers it never used."""
        assert make_execution_backend("serial", 4).workers == 1
        tables = make_tables(4, seed=5)
        schedule = MergeSchedule(
            4, [MergeStep((0, 1), 4), MergeStep((2, 3), 5), MergeStep((4, 5), 6)]
        )
        result = execute_schedule(
            tables, schedule, SimulatedDisk(), next_table_id=10,
            executor="serial", workers=4,
        )
        assert result.merge_workers == 1
        assert 0.0 < result.merge_utilization <= 1.0


class TestIntermediatesFreed:
    """A counted memory bound: an intermediate table is dropped once the
    step consuming it is settled, not kept until the schedule ends.

    Every ``_merge_step`` output is watched through a weakref.  When a
    step's merge starts, the intermediates still alive are counted and
    held to the number of tables live in the schedule just before that
    step.  The thread backend may run ``workers`` steps ahead of its
    settle cursor, so it gets that many more.  Keeping every output
    until a post-pass lets the count reach ``n - 2``.
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
    @pytest.mark.parametrize("executor, workers", [("serial", 1), ("thread", 2)])
    def test_alive_intermediates_stay_within_the_live_tables(
        self, monkeypatch, policy, executor, workers
    ):
        watched: list[weakref.ref] = []
        calls: list[tuple[int, int]] = []  # (output table id, alive)
        lock = threading.Lock()
        merge_step = executor_module._merge_step

        def counting_merge_step(inputs, new_table_id, *args):
            with lock:
                calls.append(
                    (new_table_id, sum(ref() is not None for ref in watched))
                )
            output, seconds = merge_step(inputs, new_table_id, *args)
            with lock:
                watched.append(weakref.ref(output))
            return output, seconds

        monkeypatch.setattr(executor_module, "_merge_step", counting_merge_step)
        tables = self.columnar_tables(self.N_TABLES, seed=17)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # shake the thread interleavings
        try:
            result = MajorCompaction(
                policy,
                merge_kernel="columnar",
                merge_executor=executor,
                merge_workers=workers,
            ).compact(tables, SimulatedDisk(), next_table_id=self.FIRST_ID)
        finally:
            sys.setswitchinterval(interval)

        live_before = []  # tables live in the schedule before each step
        live = self.N_TABLES
        for step in result.schedule.steps:
            live_before.append(live)
            live -= len(step.inputs) - 1
        slack = workers if executor == "thread" else 0
        assert len(calls) == result.schedule.n_steps == self.N_TABLES - 1
        for table_id, alive in calls:
            assert alive <= live_before[table_id - self.FIRST_ID] + slack, (
                table_id, alive
            )
        # The only survivor is the schedule's output.
        assert [ref() for ref in watched if ref() is not None] == [
            result.output_table
        ]

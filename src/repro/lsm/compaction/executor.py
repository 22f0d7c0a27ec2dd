"""Schedule execution: real sstable merges with I/O and time accounting.

:func:`execute_schedule` replays a :class:`~repro.core.schedule.MergeSchedule`
against actual sstables, performing each step with
:func:`~repro.lsm.sstable.merge_sstables`.  It returns a
:class:`~repro.lsm.compaction.base.CompactionResult` holding the paper's
cost metrics measured on the *executed* merges (entry and byte units,
every step billed through ``CompactionResult.bill``) and a simulated
duration computed by list-scheduling the merge steps onto ``lanes``
parallel workers of the disk model:

* a step becomes ready when all its input tables exist,
* each simulated worker executes one merge at a time,
* a merge's duration is the disk-model time to read its inputs and
  write its output.

With ``lanes=1`` this degenerates to the serial sum (SI/SO execution);
with ``lanes=c`` it models BALANCETREE's intra-level parallelism
(Figure 7b).  Tombstones are dropped only at the final merge, where the
output is bottommost by construction.

Independently of the simulated lanes, the merges themselves can run on
**real workers**: ``executor`` selects an :class:`ExecutionBackend` —

* ``"serial"`` — the reference loop, one merge at a time in schedule
  order, on one worker.  The differential baseline every other backend
  must match byte for byte.
* ``"thread"`` — a thread pool driven by the ready-set DAG
  (:mod:`~repro.lsm.compaction.planner`).  Worth real wall-clock
  speedup when the merges run the columnar kernel, whose numpy
  sort and gather kernels release the GIL; on the pure-python heap
  kernel threads are correct but GIL-bound.

Each step is *settled* — sketches propagated, billed, placed on a
simulated lane — in schedule order, as soon as it and every earlier
step have merged.  Settling a step drops its inputs from the one map
of live tables, so an intermediate table is freed once its consumer is
settled instead of living until the schedule ends.  Both backends
produce bit-identical output tables, cost metrics and simulated
durations for any worker count; only the measured wall clock
(``merge_wall_seconds``, the merges and the settling between them, and
``merge_utilization``) differs.  See ``docs/concurrency.md``.
"""

from __future__ import annotations

import heapq
import os
import time
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Callable, Optional, Sequence

from ...core.schedule import MergeSchedule
from ...errors import CompactionError
from ..disk import SimulatedDisk
from ..sstable import SSTable, merge_sstables
from .base import CompactionResult
from .planner import SchedulePlan, plan_schedule

#: ``execute_schedule`` backend names.
MERGE_EXECUTORS = ("serial", "thread")


def resolve_merge_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count setting (``None``/``0`` = one per CPU)."""
    if workers is None or workers == 0:
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise CompactionError(f"merge workers must be >= 0, got {workers}")
    return workers


def _propagate_sketches(
    inputs: Sequence[SSTable], output: SSTable, union_valid: bool
) -> None:
    """Carry the inputs' cached sketches onto the merge output.

    For every (precision, seed) cached on *all* inputs:

    * ``union_valid=True`` — the output's key set is exactly the union
      of the inputs' (no tombstone GC dropped a key), so the
      register-wise max of the input sketches is adopted losslessly.
    * ``union_valid=False`` — keys may have been dropped, so the union
      would overcount; instead the output's sketch is built fresh from
      its surviving keys (one batch-hash of the key column per
      parameterization), keeping the (precision, seed) cache alive on
      bottommost tables too.

    Single pass: each input's cache is consulted exactly once per
    parameterization.
    """
    first, rest = inputs[0], inputs[1:]
    for precision, seed in first.cached_sketch_keys:
        sketches = [first.cached_sketch(precision, seed)]
        for table in rest:
            sketch = table.cached_sketch(precision, seed)
            if sketch is None:
                break
            sketches.append(sketch)
        else:
            if union_valid:
                output.adopt_sketch(sketches[0].union(*sketches[1:]))
            else:
                output.sketch(precision, seed)  # fresh build over live keys


# ----------------------------------------------------------------------
# Execution backends
# ----------------------------------------------------------------------
def _merge_step(
    inputs: Sequence[SSTable],
    new_table_id: int,
    drop_tombstones: bool,
    bloom_fp_rate: float,
    kernel: str = "auto",
) -> tuple[SSTable, float]:
    """One timed merge: ``(output, seconds)``.

    The only caller of :func:`merge_sstables` in this package — the
    serial loop, the thread workers and the practical strategies all
    merge here, so every merge's wall clock is measured the same way.
    """
    started = time.perf_counter()
    output = merge_sstables(
        inputs,
        new_table_id=new_table_id,
        drop_tombstones=drop_tombstones,
        bloom_fp_rate=bloom_fp_rate,
        kernel=kernel,
    )
    return output, time.perf_counter() - started


class ExecutionBackend(ABC):
    """Runs every merge step of a plan and settles each in schedule order.

    Implementations must be *pure* with respect to the schedule: the
    output table of step ``j`` (id, columns, records) may depend only on
    the step's inputs, never on scheduling order — that is what keeps
    every backend byte-identical to the serial reference.
    """

    name: str = "abstract"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = resolve_merge_workers(workers)

    @abstractmethod
    def run(
        self,
        live: dict[int, SSTable],
        plan: SchedulePlan,
        merge: Callable[[int, list[SSTable]], tuple[SSTable, float]],
        settle: Callable[[int], None],
    ) -> float:
        """Execute all steps; return the workers' busy seconds.

        ``live`` maps table id to table.  ``merge(index, inputs)`` runs
        step ``index``; its output goes into ``live`` under the step's
        output id.  ``settle(index)`` must be called in schedule order,
        each as soon as steps ``0..index`` have merged; it pops the
        step's inputs from ``live``, so a table is freed once its
        consumer is settled.
        """


class SerialBackend(ExecutionBackend):
    """The reference loop: merges in schedule order, one at a time,
    settling each before the next starts.  It always reports one
    worker, whatever worker count was asked for."""

    name = "serial"

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__(1)

    def run(self, live, plan, merge, settle):
        busy = 0.0
        for index, step in enumerate(plan.steps):
            live[step.output], seconds = merge(
                index, [live[table_id] for table_id in step.inputs]
            )
            busy += seconds
            settle(index)
        return busy


class ThreadBackend(ExecutionBackend):
    """A thread pool pumped by the ready-set DAG: submit the ready
    steps, release dependents as their inputs land, and settle through
    a cursor over the completed prefix of the schedule.

    A ready step is submitted only while it lies within ``workers``
    steps of the cursor, so at most that many steps hold outputs the
    cursor has not yet settled.  Workers call :func:`merge_sstables`
    directly.  The columnar kernel spends its time in numpy sort and
    gather kernels that release the GIL, so independent merges
    genuinely overlap; the heap kernel stays correct but serializes on
    the GIL.
    """

    name = "thread"

    def run(self, live, plan, merge, settle):
        steps = plan.steps
        pending = [len(deps) for deps in plan.dependencies]
        ready = list(plan.ready_steps())  # ascending, so already a heap
        settled = 0
        busy = 0.0
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures: dict = {}

            def submit(index: int) -> None:
                inputs = [live[table_id] for table_id in steps[index].inputs]
                futures[pool.submit(merge, index, inputs)] = index

            while settled < plan.n_steps:
                while ready and ready[0] < settled + self.workers:
                    submit(heapq.heappop(ready))
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures.pop(future)
                    live[steps[index].output], seconds = future.result()
                    busy += seconds
                    for dependent in plan.dependents[index]:
                        pending[dependent] -= 1
                        if pending[dependent] == 0:
                            heapq.heappush(ready, dependent)
                # A step's output is in ``live`` from its merge until
                # its consumer settles, which comes after the step's own.
                while settled < plan.n_steps and steps[settled].output in live:
                    settle(settled)
                    settled += 1
        return busy


_BACKENDS: dict[str, Callable[[Optional[int]], ExecutionBackend]] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
}


def make_execution_backend(
    executor: str, workers: Optional[int] = None
) -> ExecutionBackend:
    """Instantiate a merge-execution backend by name."""
    try:
        factory = _BACKENDS[executor]
    except KeyError:
        raise CompactionError(
            f"unknown merge executor {executor!r}; "
            f"available: {MERGE_EXECUTORS}"
        ) from None
    return factory(workers)


# ----------------------------------------------------------------------
# Schedule execution
# ----------------------------------------------------------------------
def execute_schedule(
    tables: Sequence[SSTable],
    schedule: MergeSchedule,
    disk: SimulatedDisk,
    next_table_id: int,
    lanes: int = 1,
    drop_tombstones: bool = True,
    bloom_fp_rate: float = 0.01,
    merge_kernel: str = "auto",
    executor: str = "serial",
    workers: Optional[int] = None,
) -> CompactionResult:
    """Execute every merge step; see module docstring for the time model.

    Returns the ledger of the run (``strategy_name`` is left to the
    caller).  ``merge_kernel`` is forwarded to every
    :func:`~repro.lsm.sstable.merge_sstables` call (``"auto"`` /
    ``"columnar"`` / ``"heap"``; the kernels are bit-identical).
    ``executor``/``workers`` select the real execution backend; all
    backends return byte-identical tables and metrics, so the default
    ``"serial"`` stays the differential baseline.
    """
    if lanes < 1:
        raise CompactionError(f"lanes must be >= 1, got {lanes}")
    if schedule.n_initial != len(tables):
        raise CompactionError(
            f"schedule expects {schedule.n_initial} tables, got {len(tables)}"
        )
    started_wall = time.perf_counter()
    plan = plan_schedule(schedule)
    backend = make_execution_backend(executor, workers)
    result = CompactionResult.start("schedule", tables)
    result.schedule = schedule
    result.merge_executor = backend.name
    result.merge_workers = backend.workers
    live: dict[int, SSTable] = dict(enumerate(tables))
    ready_at: dict[int, float] = {table_id: 0.0 for table_id in live}
    lane_free = [0.0] * lanes
    final_step_index = plan.n_steps - 1

    def merge(index: int, inputs: list[SSTable]) -> tuple[SSTable, float]:
        return _merge_step(
            inputs,
            next_table_id + index,
            drop_tombstones and index == final_step_index,
            bloom_fp_rate,
            merge_kernel,
        )

    def settle(index: int) -> None:
        # Identical for every backend: costs, bytes and the simulated
        # lane model depend only on the step list and the
        # (deterministic) merge outputs, and run in schedule order.
        step = plan.steps[index]
        inputs = [live.pop(table_id) for table_id in step.inputs]
        output = live[step.output]
        dropping = drop_tombstones and index == final_step_index
        # Sketch persistence: adopt the lossless union sketch, or — when
        # tombstone GC could have dropped keys — rebuild from the
        # surviving key column so bottommost outputs keep their caches.
        if output is not inputs[0]:
            union_valid = not dropping or not any(
                table.has_tombstones for table in inputs
            )
            _propagate_sketches(inputs, output, union_valid)

        duration = result.bill(inputs, [output], disk)

        # --- simulated parallel list scheduling -----------------------
        ready = max(ready_at[table_id] for table_id in step.inputs)
        lane = min(range(lanes), key=lambda index_: lane_free[index_])
        begin = max(ready, lane_free[lane])
        finish = begin + duration
        lane_free[lane] = finish
        ready_at[step.output] = finish

    if plan.n_steps:  # a single-table schedule has nothing to merge
        merge_started = time.perf_counter()
        busy_seconds = backend.run(live, plan, merge, settle)
        result.merge_wall_seconds = time.perf_counter() - merge_started
        worker_seconds = backend.workers * result.merge_wall_seconds
        if worker_seconds:
            result.merge_utilization = busy_seconds / worker_seconds

    if len(live) != 1:
        raise CompactionError("schedule did not reduce the tables to one")
    (final_id, final_table), = live.items()
    result.output_tables = [final_table]
    result.simulated_seconds = ready_at[final_id]
    result.wall_seconds = time.perf_counter() - started_wall
    return result

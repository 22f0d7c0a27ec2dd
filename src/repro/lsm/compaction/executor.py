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

Each step is merged and then *settled* — sketches propagated, billed,
placed on a simulated lane — before the next one starts.  Settling a
step drops its inputs from the one map of live tables, so an
intermediate table is freed once its consumer has merged instead of
living until the schedule ends.  ``merge_wall_seconds`` measures the
merges and the settling between them; ``merge_utilization`` is the
share of it spent merging.
"""

from __future__ import annotations

import time
from typing import Sequence

from ...core.schedule import MergeSchedule
from ...errors import CompactionError
from ..disk import SimulatedDisk
from ..sstable import SSTable, merge_sstables
from .base import CompactionResult


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


def _merge_step(
    inputs: Sequence[SSTable],
    new_table_id: int,
    drop_tombstones: bool,
    bloom_fp_rate: float,
    kernel: str = "auto",
) -> tuple[SSTable, float]:
    """One timed merge: ``(output, seconds)``.

    The only caller of :func:`merge_sstables` in this package — the
    schedule loop and the practical strategies both merge here, so every
    merge's wall clock is measured the same way.
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
) -> CompactionResult:
    """Execute every merge step; see module docstring for the time model.

    Returns the ledger of the run (``strategy_name`` is left to the
    caller).  ``merge_kernel`` is forwarded to every
    :func:`~repro.lsm.sstable.merge_sstables` call (``"auto"`` /
    ``"columnar"`` / ``"heap"``; the kernels are bit-identical).
    """
    if lanes < 1:
        raise CompactionError(f"lanes must be >= 1, got {lanes}")
    if schedule.n_initial != len(tables):
        raise CompactionError(
            f"schedule expects {schedule.n_initial} tables, got {len(tables)}"
        )
    started_wall = time.perf_counter()
    result = CompactionResult.start("schedule", tables)
    result.schedule = schedule
    live: dict[int, SSTable] = dict(enumerate(tables))
    ready_at: dict[int, float] = {table_id: 0.0 for table_id in live}
    lane_free = [0.0] * lanes
    final_step_index = len(schedule.steps) - 1
    busy_seconds = 0.0
    merge_started = time.perf_counter()
    for index, step in enumerate(schedule.steps):
        for table_id in step.inputs:
            if table_id not in live:
                raise CompactionError(
                    f"step #{index} reads table {table_id}, which no earlier "
                    "step leaves live"
                )
        dropping = drop_tombstones and index == final_step_index
        inputs = [live.pop(table_id) for table_id in step.inputs]
        output, seconds = _merge_step(
            inputs, next_table_id + index, dropping, bloom_fp_rate, merge_kernel
        )
        busy_seconds += seconds
        live[step.output] = output
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

    if schedule.steps:  # a single-table schedule has nothing to merge
        result.merge_wall_seconds = time.perf_counter() - merge_started
        if result.merge_wall_seconds:
            result.merge_utilization = busy_seconds / result.merge_wall_seconds

    if len(live) != 1:
        raise CompactionError("schedule did not reduce the tables to one")
    (final_id, final_table), = live.items()
    result.output_tables = [final_table]
    result.simulated_seconds = ready_at[final_id]
    result.wall_seconds = time.perf_counter() - started_wall
    return result

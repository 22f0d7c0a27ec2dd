"""Schedule execution: real sstable merges with I/O and time accounting.

:func:`execute_schedules` replays one or more
:class:`~repro.core.schedule.MergeSchedule` s over the same leaf sstables,
performing each merge with :func:`~repro.lsm.sstable.merge_sstables`.  It
returns one :class:`~repro.lsm.compaction.base.CompactionResult` per
schedule, holding the paper's cost metrics measured on the *executed*
merges (entry and byte units, every step billed through
``CompactionResult.bill``) and a simulated duration computed by
list-scheduling the schedule's steps onto its ``lanes`` parallel workers
of the disk model:

* a step becomes ready when all its input tables exist,
* each simulated worker executes one merge at a time,
* a merge's duration is the disk-model time to read its inputs and
  write its output.

With ``lanes=1`` this degenerates to the serial sum (SI/SO execution);
with ``lanes=c`` it models BALANCETREE's intra-level parallelism
(Figure 7b).  Tombstones are dropped only at the final merge, where the
output is bottommost by construction.  :func:`execute_schedule` is the
one-schedule call.

Shared merges
-------------
Every write carries its own seqno, so a merge's output is the newest
version of each key over the leaves it covers, whatever tree built it.
A step is therefore keyed by ``(leaf bitmask, drops tombstones, merge
kernel)``, and each key is merged once, by :func:`_merge_step`, at its
first occurrence in schedule order (schedule 0's steps, then schedule
1's, ...); every later occurrence reuses that output.  The precondition
is that no (key, seqno) pair sits in two leaves, checked as disjoint
``[min_seqno, max_seqno]`` ranges (:func:`seqnos_disjoint`; phase-1
leaves are consecutive slabs of one write stream).  When the ranges
overlap, the key also carries the schedule's index, so each schedule
runs unshared through the same loop.  A reused final table carries the
table id of the step that first computed it; its columns are identical.

A merge output is kept only until the last merge that reads it has run,
or for as long as it is some schedule's final table: once it is an
input of its last reader it leaves the map of stored outputs (an output
whose only consumer is a reused step is merged, to be billed, and never
stored), and what billing later needs of it — ``entry_count`` and
``size_bytes`` — is kept as a two-number shape.  Each schedule bills
all its steps in its own step order, a reused step at the shared
output's shape, so every ledger field and ``simulated_seconds`` are
bit-identical to running the schedule alone.

Time: a merge's measured seconds are billed to every schedule that runs
the step.  A schedule's ``merge_wall_seconds`` is the sum of its steps'
merge seconds plus its own settling (sketch propagation, billing, lane
placement); ``merge_utilization`` is the merges' share of it.  STCS and
LEVELED sum their merges' seconds the same way.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Hashable, NamedTuple, Optional, Sequence

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
class _Shape(NamedTuple):
    """What billing reads of a table, kept after the table is freed."""

    entry_count: int
    size_bytes: int


def _shape(table: SSTable) -> _Shape:
    return _Shape(table.entry_count, table.size_bytes)


def seqnos_disjoint(tables: Sequence[SSTable]) -> bool:
    """Whether the tables' ``[min_seqno, max_seqno]`` ranges are pairwise
    disjoint, so no (key, seqno) pair sits in two of them.

    The precondition of sharing merges across schedules (see the module
    docstring); sorting the ranges makes it O(n log n) in the tables.
    """
    spans = sorted((table.min_seqno, table.max_seqno) for table in tables)
    return all(high < low for (_, high), (low, _) in zip(spans, spans[1:]))


class _Compiled(NamedTuple):
    """One schedule, keyed: per step its key and its inputs' keys."""

    steps: list[tuple[Hashable, tuple[Hashable, ...]]]
    final_key: Hashable


def _compile(
    schedule: MergeSchedule,
    n_tables: int,
    namespace: int,
    drop_tombstones: bool,
    kernel: str,
) -> _Compiled:
    """Key every step of ``schedule`` by the leaves it covers.

    Leaf ``i``'s key is ``i``; a step's key is ``(namespace, bitmask of
    its leaves, drops tombstones, kernel)``.  Checks, before anything is
    merged, that every step reads a live table and that the schedule
    ends with one.
    """
    keys: dict[int, Hashable] = {index: index for index in range(n_tables)}
    masks = {index: 1 << index for index in range(n_tables)}
    final_index = len(schedule.steps) - 1
    steps = []
    for index, step in enumerate(schedule.steps):
        mask = 0
        for table_id in step.inputs:
            if table_id not in keys:
                raise CompactionError(
                    f"step #{index} reads table {table_id}, which no earlier "
                    "step leaves live"
                )
            mask |= masks.pop(table_id)
        dropping = drop_tombstones and index == final_index
        key = (namespace, mask, dropping, kernel)
        steps.append((key, tuple(keys.pop(table_id) for table_id in step.inputs)))
        keys[step.output] = key
        masks[step.output] = mask
    if len(keys) != 1:
        raise CompactionError("schedule did not reduce the tables to one")
    (final_key,) = keys.values()
    return _Compiled(steps, final_key)


def execute_schedules(
    tables: Sequence[SSTable],
    schedules: Sequence[MergeSchedule],
    disks: Sequence[SimulatedDisk],
    lanes: Sequence[int],
    next_table_id: int,
    drop_tombstones: bool = True,
    bloom_fp_rate: float = 0.01,
    merge_kernels: Optional[Sequence[str]] = None,
) -> list[CompactionResult]:
    """Execute several schedules over the same ``tables``, each merge once.

    ``disks``, ``lanes`` and ``merge_kernels`` (default ``"auto"`` for
    every schedule) hold one entry per schedule; ``merge_kernel`` is
    forwarded to :func:`~repro.lsm.sstable.merge_sstables` (the kernels
    are bit-identical).  Returns one ledger per schedule, in order
    (``strategy_name`` is left to the caller).  Sharing, freeing and the
    time rule are in the module docstring.
    """
    kernels = (
        ("auto",) * len(schedules) if merge_kernels is None else tuple(merge_kernels)
    )
    if not len(disks) == len(lanes) == len(kernels) == len(schedules):
        raise CompactionError("need one disk, lane count and kernel per schedule")
    for lane_count in lanes:
        if lane_count < 1:
            raise CompactionError(f"lanes must be >= 1, got {lane_count}")
    for schedule in schedules:
        if schedule.n_initial != len(tables):
            raise CompactionError(
                f"schedule expects {schedule.n_initial} tables, got {len(tables)}"
            )
    shared = len(schedules) > 1 and seqnos_disjoint(tables)
    compiled = [
        _compile(schedule, len(tables), 0 if shared else index, drop_tombstones, kernel)
        for index, (schedule, kernel) in enumerate(zip(schedules, kernels))
    ]
    # Only a key's first occurrence merges, so only it reads its inputs.
    readers: Counter = Counter()
    merged: set = set()
    for plan in compiled:
        for key, input_keys in plan.steps:
            if key not in merged:
                merged.add(key)
                readers.update(input_keys)
    finals = {plan.final_key for plan in compiled}
    stored: dict[Hashable, SSTable] = dict(enumerate(tables))
    shapes: dict[Hashable, _Shape] = {
        index: _shape(table) for index, table in enumerate(tables)
    }
    merge_seconds: dict[Hashable, float] = {}

    results = []
    for schedule, plan, disk, lane_count, kernel in zip(
        schedules, compiled, disks, lanes, kernels
    ):
        started = time.perf_counter()
        result = CompactionResult.start("schedule", tables)
        result.schedule = schedule
        ready_at = dict.fromkeys(range(len(tables)), 0.0)
        lane_free = [0.0] * lane_count
        busy_seconds = merged_here = 0.0
        loop_started = time.perf_counter()
        for index, (step, (key, input_keys)) in enumerate(
            zip(schedule.steps, plan.steps)
        ):
            if key not in shapes:
                inputs = [stored[input_key] for input_key in input_keys]
                for input_key in input_keys:
                    readers[input_key] -= 1
                    if not readers[input_key] and input_key not in finals:
                        del stored[input_key]
                dropping = key[2]
                output, seconds = _merge_step(
                    inputs, next_table_id + index, dropping, bloom_fp_rate, kernel
                )
                # Sketch persistence: adopt the lossless union sketch, or
                # — when tombstone GC could have dropped keys — rebuild
                # from the surviving key column so bottommost outputs
                # keep their caches.
                union_valid = not dropping or not any(
                    table.has_tombstones for table in inputs
                )
                _propagate_sketches(inputs, output, union_valid)
                if readers[key] or key in finals:
                    stored[key] = output
                shapes[key] = _shape(output)
                merge_seconds[key] = seconds
                merged_here += seconds
                del inputs, output
            busy_seconds += merge_seconds[key]
            duration = result.bill(
                [shapes[input_key] for input_key in input_keys], [shapes[key]], disk
            )

            # --- simulated parallel list scheduling -------------------
            ready = max(ready_at[table_id] for table_id in step.inputs)
            lane = min(range(lane_count), key=lambda index_: lane_free[index_])
            begin = max(ready, lane_free[lane])
            finish = begin + duration
            lane_free[lane] = finish
            ready_at[step.output] = finish

        if schedule.steps:  # a single-table schedule has nothing to merge
            settling = time.perf_counter() - loop_started - merged_here
            result.merge_wall_seconds = busy_seconds + settling
            if result.merge_wall_seconds:
                result.merge_utilization = busy_seconds / result.merge_wall_seconds
        result.output_tables = [stored[plan.final_key]]
        result.simulated_seconds = ready_at[schedule.final_id]
        result.wall_seconds = (
            time.perf_counter() - started - merged_here + busy_seconds
        )
        results.append(result)
    return results


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
    """Execute one schedule: :func:`execute_schedules` over ``[schedule]``."""
    (result,) = execute_schedules(
        tables,
        [schedule],
        [disk],
        [lanes],
        next_table_id,
        drop_tombstones=drop_tombstones,
        bloom_fp_rate=bloom_fp_rate,
        merge_kernels=[merge_kernel],
    )
    return result

"""Run orchestration: repeated runs and the paper's parameter sweeps.

The paper reports "the average and the standard deviation for cost and
time ... from 3 independent runs of the experiment" (§5.2); runs here
differ by workload seed, and every strategy is evaluated on the *same*
phase-1 sstables within a run (paired comparison, as in the paper).

Every sweepable parameter is one row of :data:`SWEEP_AXES` and runs
through :func:`sweep`; the paper's figures are the ``update_fraction``
(Figure 7 and 9a), ``memtable_capacity`` (Figure 8) and
``operationcount`` (Figure 9b) axes.

Parallelism
-----------
:func:`sweep` and :func:`run_comparison` accept ``jobs``: the
independent *(point, run)* cells fan out over a
``concurrent.futures.ProcessPoolExecutor``.  A cell is a cluster of
``config.num_shards`` shards (one by default), each a seeded phase 1
plus phase 2 for every strategy label — the whole unit the paired
comparison needs — and every shard of every cell is one pool task.
Seeds derive from the cell's configuration alone (``config.seed +
run_index``), never from scheduling order.  Cells are reassembled in
submission order, so all
deterministic outputs (costs, simulated seconds, byte counts, figure
tables) are byte-identical for any job count; only the wall-clock
overhead columns vary, exactly as they do between two serial runs.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

from ..errors import ConfigError
from .config import SimulationConfig
from .metrics import AggregateResult, StrategyResult, aggregate
from .phase2 import strategy_labels


@dataclass(frozen=True)
class ComparisonResult:
    """All strategies on one configuration, aggregated over runs."""

    config: SimulationConfig
    per_strategy: dict[str, AggregateResult]
    runs: int


@dataclass(frozen=True)
class SweepPoint:
    """One x-value of a sweep with its per-strategy aggregates."""

    x: float
    config: SimulationConfig
    per_strategy: dict[str, AggregateResult]


@dataclass(frozen=True)
class SweepResult:
    """A full sweep: the series behind one paper figure."""

    parameter: str
    points: tuple[SweepPoint, ...]
    labels: tuple[str, ...]

    def series(self, label: str, metric: str = "cost_actual_mean") -> list[tuple[float, float]]:
        """(x, metric) pairs for one strategy across the sweep."""
        return [
            (point.x, getattr(point.per_strategy[label], metric))
            for point in self.points
        ]


def _comparison_cell(
    config: SimulationConfig,
    labels: tuple[str, ...],
    run_index: int,
) -> dict[str, StrategyResult]:
    """One (point, run) unit of work: phase 1 + phase 2 for every label.

    Every cell is a cluster of ``config.num_shards`` shards (one by
    default): the run's op stream is split over the shards, each shard
    runs both phases (:func:`~repro.cluster.engine.shard_phase1`, then
    :func:`~repro.cluster.engine.run_shard`) and the shards fold into
    one row per label.  Module-level and deterministic given its
    arguments, which is what makes ``jobs`` invisible in the results.
    """
    # repro.cluster imports this package, so it is imported at call time.
    from ..cluster.engine import (
        combine_shard_runs,
        run_shard,
        shard_phase1,
        shard_streams,
    )

    run_config = config.with_seed(config.seed + run_index)
    streams = shard_streams(run_config)
    # Each stream is popped straight into shard_phase1 and referenced by
    # nothing else, so no shard's write column outlives its phase 1.
    shard_runs = []
    while streams:
        shard_runs.append(
            run_shard(
                run_config, labels, *shard_phase1(run_config, streams.pop(0))
            )
        )
    return combine_shard_runs(run_config, labels, shard_runs)


def _run_cells(
    cells: Sequence[tuple[SimulationConfig, tuple[str, ...], int]],
    jobs: int,
) -> list[dict[str, StrategyResult]]:
    """Evaluate comparison cells serially or on a process pool.

    Results come back in ``cells`` order either way.  On the pool every
    shard of every cell is one :func:`~repro.cluster.engine.sharded_shard_task`
    (a cell with 8 shards keeps 8 workers busy, not 1), and each cell is
    reassembled by :func:`~repro.cluster.engine.combine_shard_runs` — the
    fold the serial path applies, so the results are byte-identical for
    any ``jobs``.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    tasks = [
        (index, (config, labels, run_index, shard_id))
        for index, (config, labels, run_index) in enumerate(cells)
        for shard_id in range(config.num_shards)
    ]
    if jobs == 1 or len(tasks) <= 1:
        return [_comparison_cell(*cell) for cell in cells]
    from ..cluster.engine import combine_shard_runs, sharded_shard_task

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(sharded_shard_task, *args) for _, args in tasks]
        shard_runs: list[list] = [[] for _ in cells]
        for (index, _), future in zip(tasks, futures):
            shard_runs[index].append(future.result())
    return [
        combine_shard_runs(
            config.with_seed(config.seed + run_index), labels, runs
        )
        for (config, labels, run_index), runs in zip(cells, shard_runs)
    ]


def _aggregate_cells(
    labels: tuple[str, ...],
    cell_results: Sequence[dict[str, StrategyResult]],
) -> dict[str, AggregateResult]:
    """Per-strategy aggregates over the runs of one configuration."""
    return {
        label: aggregate([cell[label] for cell in cell_results])
        for label in labels
    }


def run_comparison(
    config: SimulationConfig,
    labels: Sequence[str] | None = None,
    runs: int = 3,
    jobs: int = 1,
) -> ComparisonResult:
    """Phase 1 + phase 2 for every label, over ``runs`` seeds."""
    labels = tuple(labels) if labels is not None else strategy_labels()
    cells = [(config, labels, run_index) for run_index in range(runs)]
    return ComparisonResult(
        config, _aggregate_cells(labels, _run_cells(cells, jobs)), runs
    )


def _number(value: Any) -> float:
    """A real axis's value: a finite int or float, never a bool."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise ConfigError(f"value {value!r} is not a finite number")


def _whole(value: Any) -> int:
    """An integer axis's value: a :func:`_number` with no fraction
    (``2.0`` passes: ``--values`` parses floats)."""
    if not _number(value).is_integer():
        raise ConfigError(f"value {value!r} is not a whole number")
    return int(value)


@dataclass(frozen=True)
class SweepAxis:
    """One sweepable parameter: how a value lands on the config and on
    the x-axis."""

    #: ``SweepResult.parameter``: the unit ``SweepPoint.x`` is in.
    label: str
    #: ``cast(value)`` -> the value the axis sets, or a ConfigError.
    cast: Callable[[Any], Any]
    #: ``apply(base, value, **options)`` -> the point's config.
    apply: Callable[..., SimulationConfig]
    #: Default strategy grid (``None``: the paper's five).
    labels: Optional[tuple[str, ...]] = None
    x: Callable[[Any], float] = float
    #: Keyword options ``apply`` takes beyond the value.
    options: tuple[str, ...] = ()


def _set(field: str) -> Callable[..., SimulationConfig]:
    return lambda base, value: replace(base, **{field: value})


def _set_capacity(
    base: SimulationConfig, capacity: int, n_sstables: int = 100
) -> SimulationConfig:
    """Figure 8's construction: a fixed sstable count, so the implied
    ``operationcount = capacity * n_sstables - recordcount``."""
    operationcount = capacity * n_sstables - base.recordcount
    if operationcount < 0:
        raise ConfigError(
            "memtable_capacity * n_sstables must cover the recordcount"
        )
    return replace(
        base, memtable_capacity=capacity, operationcount=operationcount
    )


def _set_shard_skew(base: SimulationConfig, skew: float) -> SimulationConfig:
    """Zipfian shard-weight skew at the base's shard count, which must
    be above one: skew needs shards to act on."""
    if base.num_shards == 1:
        raise ConfigError(
            "a shard_skew sweep needs num_shards > 1 (e.g. --set num_shards=8)"
        )
    return replace(base, shard_skew=skew)


#: Every sweepable ``SimulationConfig`` parameter: one per paper figure
#: axis, the kernel knobs the ablation presets grid over, and the
#: scale-out tier's two.
SWEEP_AXES: dict[str, SweepAxis] = {
    # Figure 7 / 9a: the update share of the write mix, plotted in %.
    "update_fraction": SweepAxis(
        "update_percentage", _number, _set("update_fraction"),
        x=lambda fraction: fraction * 100.0,
    ),
    # Figure 8: memtable size against the LOPT lower bound.
    "memtable_capacity": SweepAxis(
        "memtable_capacity", _whole, _set_capacity, ("BT(I)",),
        options=("n_sstables",),
    ),
    # Figure 9b: the data size.
    "operationcount": SweepAxis(
        "operationcount", _whole, _set("operationcount"), ("SI",)
    ),
    # How much a larger merge fan-in shrinks re-merge cost.
    "k": SweepAxis("k", _whole, _set("k")),
    # Only the estimator-driven strategies can move with the precision.
    "hll_precision": SweepAxis(
        "hll_precision", _whole, _set("hll_precision"), ("SO", "BT(O)")
    ),
    # Scale-out: does splitting the workload shrink the cluster makespan
    # faster than it inflates total work?
    "num_shards": SweepAxis("num_shards", _whole, _set("num_shards")),
    # Multi-tenant: do estimation-heavy policies amortize their overhead
    # better than LM under hot shards?
    "shard_skew": SweepAxis("shard_skew", _number, _set_shard_skew),
}


def cast_sweep_values(parameter: str, values: Sequence[Any]) -> list:
    """``values`` as ``parameter``'s axis sets them: the one check of a
    sweep value, shared by :func:`sweep` and the scenario spec.  A bad
    value is a ConfigError that names the parameter and the value."""
    try:
        axis = SWEEP_AXES[parameter]
    except KeyError:
        raise ConfigError(
            f"unknown sweep parameter {parameter!r}; known: {list(SWEEP_AXES)}"
        ) from None
    try:
        return [axis.cast(value) for value in values]
    except ConfigError as exc:
        raise ConfigError(f"sweep {parameter} {exc}") from None


def sweep(
    base: SimulationConfig,
    parameter: str,
    values: Sequence[float],
    labels: Sequence[str] | None = None,
    runs: int = 3,
    jobs: int = 1,
    **options: Any,
) -> SweepResult:
    """Vary one :data:`SWEEP_AXES` parameter of ``base`` over ``values``.

    Every (point, run) cell of the sweep fans out together: parallelizing
    at the sweep level (rather than per point) keeps all ``jobs`` workers
    busy across point boundaries.
    """
    values = cast_sweep_values(parameter, values)
    axis = SWEEP_AXES[parameter]
    labels = tuple(labels) if labels is not None else (
        axis.labels or strategy_labels()
    )
    points = [
        (axis.x(value), axis.apply(base, value, **options))
        for value in values
    ]
    cells = [
        (config, labels, run_index)
        for _, config in points
        for run_index in range(runs)
    ]
    cell_results = _run_cells(cells, jobs)
    return SweepResult(
        axis.label,
        tuple(
            SweepPoint(
                x,
                config,
                _aggregate_cells(
                    labels, cell_results[i * runs : (i + 1) * runs]
                ),
            )
            for i, (x, config) in enumerate(points)
        ),
        labels,
    )

"""The metric catalogue: what a run reports, declared once.

:class:`StrategyResult` is what one strategy measured on one run.
Everything downstream of it is *derived* from :data:`CATALOGUE`, one
:class:`Metric` row per reported number: how per-shard rows fold into a
cluster row (:func:`fold_shards`), how repeated runs aggregate
(:class:`AggregateResult`, :func:`aggregate` — "the average and the
standard deviation for cost and time ... from 3 independent runs",
paper §5.2), which key the number has in a manifest cell
(:func:`cell_metrics`) and which column, if any, it gets in the
comparison table (:func:`report_table`).  Adding a metric is one row
plus its producer; see docs/simulator.md, "Adding a metric".
"""

from __future__ import annotations

import statistics
from dataclasses import MISSING, dataclass, fields, make_dataclass
from typing import Any, Callable, Mapping, Optional, Sequence


@dataclass(frozen=True)
class StrategyResult:
    """Metrics of one compaction strategy on one set of sstables."""

    strategy: str
    n_tables: int
    n_merges: int
    cost_actual: int
    cost_simplified: int
    lopt_entries: int
    bytes_read: int
    bytes_written: int
    io_seconds: float
    simulated_seconds: float
    strategy_overhead_seconds: float
    wall_seconds: float
    # Real merge-execution accounting (lsm/compaction/executor.py).
    # ``merge_executor`` and ``merge_workers`` are constants that no
    # catalogue row reads; they stay only because the benchmark's traced
    # mirror (bench/simulator.py) still passes them, and leave with the
    # next benchmark change (ROADMAP item 1).
    merge_executor: str = "serial"
    merge_workers: int = 1
    merge_wall_seconds: float = 0.0
    merge_utilization: float = 0.0
    # Serving-phase read metrics (zero when the mix has no reads/scans
    # or the serving phase did not run; see simulator/read_path.py).
    reads: int = 0
    scans: int = 0
    read_hits: int = 0
    read_misses: int = 0
    read_tables_probed: int = 0
    read_bloom_skips: int = 0
    read_bloom_false_positives: int = 0
    read_bytes: int = 0
    scan_tables_probed: int = 0
    scan_tables_pruned: int = 0
    scan_records_scanned: int = 0
    scan_records_returned: int = 0
    # Cluster-level fields (num_shards == 1 with empty vectors for
    # unsharded runs so historical results are unchanged; see
    # cluster/scheduler.py for the makespan/imbalance definitions).
    num_shards: int = 1
    cluster_makespan_seconds: float = 0.0
    shard_imbalance: float = 0.0
    shard_ops: tuple[int, ...] = ()
    shard_costs: tuple[int, ...] = ()
    shard_read_amps: tuple[float, ...] = ()
    # Phase-1 ingest wall clock (simulator/phase1.py).
    ingest_wall_seconds: float = 0.0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def total_simulated_seconds(self) -> float:
        """Simulated compaction time: scheduled I/O + strategy overhead."""
        return self.simulated_seconds + self.strategy_overhead_seconds

    @property
    def cost_over_lopt(self) -> float:
        """Cost relative to the Fig. 8 lower bound (sum of sstable sizes)."""
        return self.cost_actual / self.lopt_entries if self.lopt_entries else 0.0

    @property
    def read_amplification(self) -> float:
        """Tables probed per point read against this strategy's output."""
        return self.read_tables_probed / self.reads if self.reads else 0.0

    @property
    def bloom_fp_rate(self) -> float:
        """Fraction of read probes the bloom filter let through in vain."""
        return (
            self.read_bloom_false_positives / self.read_tables_probed
            if self.read_tables_probed
            else 0.0
        )


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
# Shard-fold rules, ``(field name, per-shard rows) -> cluster value``.
def _sum(name: str, shards: Sequence[StrategyResult]) -> Any:
    return sum(getattr(row, name) for row in shards)


def _mean(name: str, shards: Sequence[StrategyResult]) -> float:
    return _sum(name, shards) / len(shards)


def _first(name: str, shards: Sequence[StrategyResult]) -> Any:
    """Constant across the shards of one cell (the label)."""
    return getattr(shards[0], name)


#: Fold rule of the fields the cluster scheduler computes (the LPT
#: makespan, the imbalance headline, the per-shard vectors); their
#: values are handed to :func:`fold_shards`.
CLUSTER = "cluster"


def _std(values: Sequence[float]) -> float:
    return statistics.stdev(values) if len(values) > 1 else 0.0


def _vector_mean(vectors: Sequence[Sequence[float]]) -> tuple[float, ...]:
    """Per-shard mean over runs (empty when the vectors are empty)."""
    if not vectors[0]:
        return ()
    lengths = {len(vector) for vector in vectors}
    if len(lengths) != 1:
        raise ValueError(f"mixed shard-vector lengths: {sorted(lengths)}")
    return tuple(
        statistics.mean([float(vector[i]) for vector in vectors])
        for i in range(len(vectors[0]))
    )


# Run-aggregation rules: the suffixes of the aggregate keys a rule
# emits, and ``per-run values -> one value per suffix``.
PER_RUN = ((), None)  # reported per run only, never aggregated
CONST = (("",), lambda values: (values[0],))  # same in every run of a config
COUNT = (("",), lambda values: (len(values),))
MEAN = (("_mean",), lambda values: (statistics.mean(values),))
MEAN_STD = (
    ("_mean", "_std"),
    lambda values: (statistics.mean(values), _std(values)),
)
VECTOR = (("_mean",), lambda values: (_vector_mean(values),))
DERIVED = (("",), None)  # a property of the aggregate, recomputed from its keys


def _percent(value: float, agg: Any) -> float:
    return value * 100.0


def _megabytes(value: float, agg: Any) -> float:
    return value / 1e6


@dataclass(frozen=True)
class Column:
    """A comparison-table column: its header, its group ("" = always
    shown) and how ``(value, aggregate)`` is displayed (default: as is)."""

    header: str
    group: str = ""
    show: Callable[[Any, Any], Any] = lambda value, agg: value


def _col(*column: Any) -> tuple[Column, ...]:
    return (Column(*column),)


@dataclass(frozen=True)
class Metric:
    """One catalogue row: everything the stack knows about one number."""

    #: The :class:`StrategyResult` field or property the value is read
    #: from (``None``: the row counts the runs).
    source: Optional[str]
    #: Shard-fold rule; ``None`` for a property, which the folded row
    #: recomputes from its fields.
    fold: Any
    #: Run-aggregation rule (one of the constants above).
    runs: tuple
    #: Report columns of the row's keys, in key order.
    columns: tuple[Column, ...] = ()
    #: Stem of the aggregate attribute / manifest key when it is not
    #: ``source`` itself.
    stem: str = ""
    #: Column group this row switches on: the group is shown when some
    #: strategy's value differs from the field's default.
    switch: str = ""
    #: The ``CompactionResult`` attribute phase 2 fills it from.
    compacted: str = ""
    #: The ``ReadPhaseResult`` attribute the serving phase fills it from.
    served: str = ""
    #: Filled from the ``Phase1Result`` attribute of the same name.
    ingest: bool = False

    @property
    def keys(self) -> tuple[str, ...]:
        """The aggregate attributes / manifest keys this row emits."""
        return tuple((self.stem or self.source) + end for end in self.runs[0])


# One row per line, in comparison-table column order (which is why the
# serving block sits last although its fields precede the cluster's).
CATALOGUE: tuple[Metric, ...] = (
    Metric("strategy", _first, CONST, _col("strategy")),
    Metric(None, None, COUNT, stem="runs"),
    Metric("n_tables", _sum, PER_RUN, compacted="input_count"),
    Metric("n_merges", _sum, PER_RUN, compacted="n_merges"),
    Metric(
        "cost_actual", _sum, MEAN_STD, _col("costactual mean") + _col("std"),
        compacted="cost_actual_entries",
    ),
    Metric("cost_simplified", _sum, MEAN, compacted="cost_simplified_entries"),
    Metric("cost_over_lopt", None, DERIVED, _col("cost/LOPT")),
    Metric("lopt_entries", _sum, MEAN),
    Metric("bytes_read", _sum, PER_RUN, compacted="bytes_read"),
    Metric("bytes_written", _sum, PER_RUN, compacted="bytes_written"),
    Metric("io_seconds", _sum, PER_RUN, compacted="io_seconds"),
    # Scheduled I/O only; a cluster's is the makespan of its shards'
    # schedules under the shared lane budget.
    Metric("simulated_seconds", CLUSTER, PER_RUN, compacted="simulated_seconds"),
    # "The running time measures both the strategy overhead and the
    # actual merge time" (paper 5.1): the reported time holds both.
    Metric(
        "total_simulated_seconds", None, MEAN_STD, _col("sim seconds"),
        stem="simulated_seconds",
    ),
    Metric(
        "strategy_overhead_seconds", _sum, MEAN, _col("overhead s"),
        stem="strategy_overhead", compacted="strategy_overhead_seconds",
    ),
    Metric("wall_seconds", _sum, MEAN, compacted="wall_seconds"),
    # Real merge execution (lsm/compaction/executor.py).
    Metric("merge_wall_seconds", _sum, MEAN, compacted="merge_wall_seconds"),
    Metric("merge_utilization", _mean, MEAN, compacted="merge_utilization"),
    # Cluster shape (cluster/scheduler.py).
    Metric("num_shards", CLUSTER, CONST, _col("shards", "sharded"), switch="sharded"),
    Metric(
        "cluster_makespan_seconds", CLUSTER, MEAN, _col("makespan s", "sharded"),
        stem="cluster_makespan",
    ),
    Metric("shard_imbalance", CLUSTER, MEAN, _col("imbalance", "sharded")),
    Metric("shard_ops", CLUSTER, VECTOR),
    Metric("shard_costs", CLUSTER, VECTOR),
    Metric("shard_read_amps", CLUSTER, VECTOR),
    # Phase-1 ingest (simulator/phase1.py).
    Metric("ingest_wall_seconds", _sum, MEAN, ingest=True),
    # Serving phase (simulator/read_path.py).
    Metric("reads", _sum, MEAN, switch="served", served="reads"),
    Metric("scans", _sum, MEAN, switch="served", served="scans"),
    Metric("read_hits", _sum, PER_RUN, served="hits"),
    Metric("read_misses", _sum, PER_RUN, served="misses"),
    Metric("read_tables_probed", _sum, PER_RUN, served="tables_probed"),
    Metric("read_bloom_skips", _sum, PER_RUN, served="bloom_skips"),
    Metric("read_bloom_false_positives", _sum, PER_RUN, served="bloom_false_positives"),
    Metric("read_amplification", None, MEAN, _col("read amp", "served")),
    Metric("bloom_fp_rate", None, MEAN, _col("bloom FP%", "served", _percent)),
    Metric(
        "read_bytes", _sum, MEAN, _col("read MB", "served", _megabytes),
        served="read_bytes",
    ),
    Metric("scan_tables_probed", _sum, PER_RUN, served="scan_tables_probed"),
    Metric("scan_tables_pruned", _sum, PER_RUN, served="scan_tables_pruned"),
    Metric("scan_records_scanned", _sum, MEAN, served="scan_records_scanned"),
    Metric("scan_records_returned", _sum, PER_RUN, served="scan_records_returned"),
)


# ----------------------------------------------------------------------
# Derived from the catalogue
# ----------------------------------------------------------------------
def _aggregate_cost_over_lopt(self) -> float:
    return (
        self.cost_actual_mean / self.lopt_entries_mean
        if self.lopt_entries_mean
        else 0.0
    )


AggregateResult = make_dataclass(
    "AggregateResult",
    [key for metric in CATALOGUE if metric.runs[1] for key in metric.keys],
    frozen=True,
    namespace={
        "__doc__": "Mean / standard deviation / constant over repeated runs "
        "of one strategy: one attribute per stored catalogue key.",
        "cost_over_lopt": property(_aggregate_cost_over_lopt),
    },
)
AggregateResult.__module__ = __name__  # picklable on every supported python


def aggregate(results: Sequence[StrategyResult]) -> AggregateResult:
    """Aggregate repeated runs of the same strategy."""
    if not results:
        raise ValueError("cannot aggregate zero results")
    names = {result.strategy for result in results}
    if len(names) != 1:
        raise ValueError(f"mixed strategies in aggregation: {sorted(names)}")
    values: dict[str, Any] = {}
    for metric in CATALOGUE:
        rule = metric.runs[1]
        if rule is not None:
            per_run = (
                [getattr(result, metric.source) for result in results]
                if metric.source
                else results
            )
            values.update(zip(metric.keys, rule(per_run)))
    return AggregateResult(**values)


def fold_shards(
    shards: Sequence[StrategyResult], cluster: Mapping[str, Any]
) -> StrategyResult:
    """One cluster-level row from per-shard rows of one strategy.

    Every field folds by its catalogue rule; ``cluster`` carries the
    :data:`CLUSTER` fields, which only the scheduler can compute.
    """
    expected = {m.source for m in CATALOGUE if m.fold is CLUSTER}
    if set(cluster) != expected:
        raise ValueError(
            f"cluster-computed fields {sorted(cluster)} != {sorted(expected)}"
        )
    folded = {
        metric.source: metric.fold(metric.source, shards)
        for metric in CATALOGUE
        if callable(metric.fold)
    }
    return StrategyResult(**folded, **cluster)


def empty_result(strategy: str, **produced: Any) -> StrategyResult:
    """The row of a strategy that had nothing to compact: every required
    field zero, ``produced`` (serving / ingest fields) on top."""
    zeros = {
        f.name: 0.0 if f.type == "float" else 0
        for f in fields(StrategyResult)
        if f.default is MISSING
    }
    return StrategyResult(**{**zeros, "strategy": strategy, **produced})


def compacted_fields(compacted: Any) -> dict[str, Any]:
    """The result fields one ``CompactionResult`` fills."""
    return {
        m.source: getattr(compacted, m.compacted) for m in CATALOGUE if m.compacted
    }


def served_fields(served: Any) -> dict[str, Any]:
    """The result fields one ``ReadPhaseResult`` fills."""
    return {m.source: getattr(served, m.served) for m in CATALOGUE if m.served}


def ingest_fields(phase1: Any) -> dict[str, Any]:
    """The result fields a run's ``Phase1Result`` fills (the tables are
    shared within a run, so these ride on every strategy's row)."""
    return {m.source: getattr(phase1, m.source) for m in CATALOGUE if m.ingest}


def cell_metrics(agg: AggregateResult) -> dict[str, Any]:
    """The manifest cell of one aggregate: every catalogue key."""
    cell = {key: getattr(agg, key) for m in CATALOGUE for key in m.keys}
    vectors = {k: list(v) for k, v in cell.items() if isinstance(v, tuple)}
    return {**cell, **vectors}


def shown_groups(aggregates: Sequence[AggregateResult]) -> set[str]:
    """The optional column groups at least one strategy switches on."""
    defaults = {f.name: f.default for f in fields(StrategyResult)}
    return {
        metric.switch
        for metric in CATALOGUE
        if metric.switch
        and any(
            getattr(agg, metric.keys[0]) != defaults[metric.source]
            for agg in aggregates
        )
    }


def report_table(
    aggregates: Sequence[AggregateResult],
) -> tuple[list[str], list[list[Any]]]:
    """Headers and one row per aggregate of the comparison table.

    A column group appears only when some strategy switched it on
    (shards, served reads), so reports of runs without the feature stay
    byte-identical.
    """
    shown = shown_groups(aggregates) | {""}
    columns = [
        (key, column)
        for metric in CATALOGUE
        for key, column in zip(metric.keys, metric.columns)
        if column.group in shown
    ]
    rows = [
        [column.show(getattr(agg, key), agg) for key, column in columns]
        for agg in aggregates
    ]
    return [column.header for _, column in columns], rows

"""The parent commit's hand-written result plumbing, kept as the oracle.

Copied verbatim from the commit before the metric catalogue
(``simulator/metrics.py``: ``AggregateResult`` / ``aggregate``;
``cluster/scheduler.py``: ``ClusterMetrics`` / ``combine_shard_results``;
``scenarios/runner.py``: ``_cell_metrics`` / ``render_comparison_table``)
with three edits: ``ClusterScheduler.metrics`` became the free
function ``cluster_metrics`` (the scheduler class itself is imported),
the comparison table prints ``simulated_seconds_mean`` as is (the
overhead double-count fix), and, in step with the catalogue, the
merge executor and write pipeline fields are gone with their column
groups.  ``combine_shard_results`` still drops ``ingest_wall_seconds``,
as it did: test_metric_catalogue.py checks it against its stated rule
instead.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Sequence

from repro.analysis.tables import format_table
from repro.cluster.scheduler import ClusterScheduler, imbalance_p99_over_mean
from repro.errors import ConfigError
from repro.simulator.config import SimulationConfig
from repro.simulator.metrics import StrategyResult
from repro.simulator.runner import ComparisonResult


@dataclass(frozen=True)
class AggregateResult:
    """Mean and standard deviation over repeated runs of one strategy."""

    strategy: str
    runs: int
    cost_actual_mean: float
    cost_actual_std: float
    cost_simplified_mean: float
    simulated_seconds_mean: float
    simulated_seconds_std: float
    wall_seconds_mean: float
    strategy_overhead_mean: float
    lopt_entries_mean: float
    # Real merge-execution accounting: wall clock and utilization are
    # averaged like the other measured times.
    merge_wall_seconds_mean: float = 0.0
    merge_utilization_mean: float = 0.0
    # Serving-phase read metrics, averaged over runs (all zero for
    # write-only mixes so historical reports are unchanged).
    reads_mean: float = 0.0
    scans_mean: float = 0.0
    read_amplification_mean: float = 0.0
    bloom_fp_rate_mean: float = 0.0
    read_bytes_mean: float = 0.0
    scan_records_scanned_mean: float = 0.0
    # Cluster-level fields: shard count is constant across runs of one
    # config; the makespan/imbalance headlines and the per-shard load
    # vector are averaged elementwise over runs.
    num_shards: int = 1
    cluster_makespan_mean: float = 0.0
    shard_imbalance_mean: float = 0.0
    shard_ops_mean: tuple[float, ...] = ()
    shard_costs_mean: tuple[float, ...] = ()
    shard_read_amps_mean: tuple[float, ...] = ()
    # Phase-1 ingest wall clock, averaged like other measured times.
    ingest_wall_seconds_mean: float = 0.0

    @property
    def cost_over_lopt(self) -> float:
        return (
            self.cost_actual_mean / self.lopt_entries_mean
            if self.lopt_entries_mean
            else 0.0
        )


def _std(values: Sequence[float]) -> float:
    return statistics.stdev(values) if len(values) > 1 else 0.0


def _elementwise_mean(
    vectors: Sequence[Sequence[float]],
) -> tuple[float, ...]:
    """Per-shard mean over runs (empty when the vectors are empty)."""
    if not vectors or not vectors[0]:
        return ()
    lengths = {len(vector) for vector in vectors}
    if len(lengths) != 1:
        raise ValueError(f"mixed shard-vector lengths: {sorted(lengths)}")
    return tuple(
        statistics.mean([float(vector[i]) for vector in vectors])
        for i in range(len(vectors[0]))
    )


def aggregate(results: Sequence[StrategyResult]) -> AggregateResult:
    """Aggregate repeated runs of the same strategy."""
    if not results:
        raise ValueError("cannot aggregate zero results")
    names = {result.strategy for result in results}
    if len(names) != 1:
        raise ValueError(f"mixed strategies in aggregation: {sorted(names)}")
    costs = [result.cost_actual for result in results]
    sims = [result.total_simulated_seconds for result in results]
    return AggregateResult(
        strategy=results[0].strategy,
        runs=len(results),
        cost_actual_mean=statistics.mean(costs),
        cost_actual_std=_std(costs),
        cost_simplified_mean=statistics.mean(
            [result.cost_simplified for result in results]
        ),
        simulated_seconds_mean=statistics.mean(sims),
        simulated_seconds_std=_std(sims),
        wall_seconds_mean=statistics.mean(
            [result.wall_seconds for result in results]
        ),
        strategy_overhead_mean=statistics.mean(
            [result.strategy_overhead_seconds for result in results]
        ),
        lopt_entries_mean=statistics.mean(
            [result.lopt_entries for result in results]
        ),
        merge_wall_seconds_mean=statistics.mean(
            [result.merge_wall_seconds for result in results]
        ),
        merge_utilization_mean=statistics.mean(
            [result.merge_utilization for result in results]
        ),
        reads_mean=statistics.mean([result.reads for result in results]),
        scans_mean=statistics.mean([result.scans for result in results]),
        read_amplification_mean=statistics.mean(
            [result.read_amplification for result in results]
        ),
        bloom_fp_rate_mean=statistics.mean(
            [result.bloom_fp_rate for result in results]
        ),
        read_bytes_mean=statistics.mean(
            [result.read_bytes for result in results]
        ),
        scan_records_scanned_mean=statistics.mean(
            [result.scan_records_scanned for result in results]
        ),
        num_shards=results[0].num_shards,
        cluster_makespan_mean=statistics.mean(
            [result.cluster_makespan_seconds for result in results]
        ),
        shard_imbalance_mean=statistics.mean(
            [result.shard_imbalance for result in results]
        ),
        shard_ops_mean=_elementwise_mean(
            [result.shard_ops for result in results]
        ),
        shard_costs_mean=_elementwise_mean(
            [result.shard_costs for result in results]
        ),
        shard_read_amps_mean=_elementwise_mean(
            [result.shard_read_amps for result in results]
        ),
        ingest_wall_seconds_mean=statistics.mean(
            [result.ingest_wall_seconds for result in results]
        ),
    )


@dataclass(frozen=True)
class ClusterMetrics:
    """Cross-shard shape of one strategy's run on a sharded cluster."""

    num_shards: int
    makespan_seconds: float
    imbalance: float  # p99/mean of per-shard routed operations
    shard_ops: tuple[int, ...]
    shard_costs: tuple[int, ...]
    shard_read_amps: tuple[float, ...]
    shard_simulated_seconds: tuple[float, ...]


def cluster_metrics(
    scheduler, shard_ops: Sequence[int], shard_results: Sequence[StrategyResult]
) -> ClusterMetrics:
    """Cluster metrics for one label's per-shard results."""
    simulated = tuple(r.simulated_seconds for r in shard_results)
    return ClusterMetrics(
        num_shards=len(shard_results),
        makespan_seconds=scheduler.makespan(simulated),
        imbalance=imbalance_p99_over_mean([float(n) for n in shard_ops]),
        shard_ops=tuple(int(n) for n in shard_ops),
        shard_costs=tuple(r.cost_actual for r in shard_results),
        shard_read_amps=tuple(r.read_amplification for r in shard_results),
        shard_simulated_seconds=simulated,
    )


def combine_shard_results(
    label: str,
    shard_ops: Sequence[int],
    shard_results: Sequence[StrategyResult],
    scheduler: ClusterScheduler,
) -> StrategyResult:
    """One cluster-level :class:`StrategyResult` from per-shard rows.

    Additive counters are summed across shards; ``simulated_seconds``
    becomes the scheduler's global makespan under the shared lane
    budget; the per-shard vectors and the imbalance headline ride along
    in the cluster fields.
    """
    if not shard_results:
        raise ConfigError("combine_shard_results needs at least one shard")
    if any(r.strategy != label for r in shard_results):
        raise ConfigError(
            f"mixed strategy labels in shard results for {label!r}"
        )
    metrics = cluster_metrics(scheduler, shard_ops, shard_results)
    utilizations = [r.merge_utilization for r in shard_results]
    return StrategyResult(
        strategy=label,
        n_tables=sum(r.n_tables for r in shard_results),
        n_merges=sum(r.n_merges for r in shard_results),
        cost_actual=sum(r.cost_actual for r in shard_results),
        cost_simplified=sum(r.cost_simplified for r in shard_results),
        lopt_entries=sum(r.lopt_entries for r in shard_results),
        bytes_read=sum(r.bytes_read for r in shard_results),
        bytes_written=sum(r.bytes_written for r in shard_results),
        io_seconds=sum(r.io_seconds for r in shard_results),
        simulated_seconds=metrics.makespan_seconds,
        strategy_overhead_seconds=sum(
            r.strategy_overhead_seconds for r in shard_results
        ),
        wall_seconds=sum(r.wall_seconds for r in shard_results),
        merge_wall_seconds=sum(r.merge_wall_seconds for r in shard_results),
        merge_utilization=sum(utilizations) / len(utilizations),
        reads=sum(r.reads for r in shard_results),
        scans=sum(r.scans for r in shard_results),
        read_hits=sum(r.read_hits for r in shard_results),
        read_misses=sum(r.read_misses for r in shard_results),
        read_tables_probed=sum(r.read_tables_probed for r in shard_results),
        read_bloom_skips=sum(r.read_bloom_skips for r in shard_results),
        read_bloom_false_positives=sum(
            r.read_bloom_false_positives for r in shard_results
        ),
        read_bytes=sum(r.read_bytes for r in shard_results),
        scan_tables_probed=sum(r.scan_tables_probed for r in shard_results),
        scan_tables_pruned=sum(r.scan_tables_pruned for r in shard_results),
        scan_records_scanned=sum(
            r.scan_records_scanned for r in shard_results
        ),
        scan_records_returned=sum(
            r.scan_records_returned for r in shard_results
        ),
        num_shards=len(shard_results),
        cluster_makespan_seconds=metrics.makespan_seconds,
        shard_imbalance=metrics.imbalance,
        shard_ops=metrics.shard_ops,
        shard_costs=metrics.shard_costs,
        shard_read_amps=metrics.shard_read_amps,
    )


def _cell_metrics(agg: AggregateResult) -> dict[str, Any]:
    return {
        "strategy": agg.strategy,
        "runs": agg.runs,
        "cost_actual_mean": agg.cost_actual_mean,
        "cost_actual_std": agg.cost_actual_std,
        "cost_simplified_mean": agg.cost_simplified_mean,
        "cost_over_lopt": agg.cost_over_lopt,
        "lopt_entries_mean": agg.lopt_entries_mean,
        "simulated_seconds_mean": agg.simulated_seconds_mean,
        "simulated_seconds_std": agg.simulated_seconds_std,
        "strategy_overhead_mean": agg.strategy_overhead_mean,
        "wall_seconds_mean": agg.wall_seconds_mean,
        # Real merge-execution accounting.
        "merge_wall_seconds_mean": agg.merge_wall_seconds_mean,
        "merge_utilization_mean": agg.merge_utilization_mean,
        # Serving-phase read metrics (additive keys; all zero for
        # write-only mixes — see store.py's schema policy).
        "reads_mean": agg.reads_mean,
        "scans_mean": agg.scans_mean,
        "read_amplification_mean": agg.read_amplification_mean,
        "bloom_fp_rate_mean": agg.bloom_fp_rate_mean,
        "read_bytes_mean": agg.read_bytes_mean,
        "scan_records_scanned_mean": agg.scan_records_scanned_mean,
        # Cluster-level metrics (additive keys; num_shards == 1 with
        # empty per-shard vectors for unsharded runs).
        "num_shards": agg.num_shards,
        "cluster_makespan_mean": agg.cluster_makespan_mean,
        "shard_imbalance_mean": agg.shard_imbalance_mean,
        "shard_ops_mean": list(agg.shard_ops_mean),
        "shard_costs_mean": list(agg.shard_costs_mean),
        "shard_read_amps_mean": list(agg.shard_read_amps_mean),
        # Phase-1 ingest wall clock.
        "ingest_wall_seconds_mean": agg.ingest_wall_seconds_mean,
    }


def render_comparison_table(
    config: SimulationConfig,
    comparison: ComparisonResult,
    labels: Sequence[str],
) -> str:
    """The classic single-run comparison table.

    The unified CLI renders every comparison scenario through it.
    """
    # Read columns appear only when the serving phase ran (the mix had
    # reads/scans), so write-only reports stay byte-identical.
    served = any(
        comparison.per_strategy[label].reads_mean
        or comparison.per_strategy[label].scans_mean
        for label in labels
    )
    # Cluster columns appear only for sharded runs (num_shards > 1), so
    # unsharded reports stay byte-identical.
    sharded = any(
        comparison.per_strategy[label].num_shards > 1 for label in labels
    )
    headers = [
        "strategy",
        "costactual mean",
        "std",
        "cost/LOPT",
        "sim seconds",
        "overhead s",
    ]
    if sharded:
        headers += ["shards", "makespan s", "imbalance"]
    if served:
        headers += ["read amp", "bloom FP%", "read MB"]
    rows = []
    for label in labels:
        agg = comparison.per_strategy[label]
        row = [
            label,
            agg.cost_actual_mean,
            agg.cost_actual_std,
            agg.cost_over_lopt,
            agg.simulated_seconds_mean,  # the overhead fix: already I/O + overhead
            agg.strategy_overhead_mean,
        ]
        if sharded:
            row += [
                agg.num_shards,
                agg.cluster_makespan_mean,
                agg.shard_imbalance_mean,
            ]
        if served:
            row += [
                agg.read_amplification_mean,
                agg.bloom_fp_rate_mean * 100.0,
                agg.read_bytes_mean / 1e6,
            ]
        rows.append(row)
    return format_table(
        headers,
        rows,
        float_digits=3,
        title=(
            f"distribution={config.distribution}, "
            f"update={config.update_fraction:.0%}, k={config.k}, "
            f"ops={config.operationcount}, runs={comparison.runs}"
        ),
    )

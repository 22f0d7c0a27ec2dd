"""Cluster-level compaction scheduling and cross-shard aggregation.

Each shard runs its compaction schedule independently (one engine and
one strategy instance per shard), but a real cluster shares its I/O
lanes: :class:`ClusterScheduler` models the cluster as ``lanes``
identical lanes and packs the per-shard compaction jobs onto them with
the deterministic LPT (longest-processing-time-first) rule.  The
resulting **global makespan** is the cluster's simulated compaction
time — the number a capacity planner would compare against a
one-shard run's makespan.

Beyond the makespan the scheduler reports the cross-shard load shape:

* ``shard_ops`` / ``shard_costs`` / ``shard_read_amps`` — per-shard
  routed operations, ``costactual`` and read amplification;
* ``imbalance`` — the p99/mean ratio of per-shard routed operations
  (nearest-rank p99), the standard skew headline: 1.0 means perfectly
  even, large values mean a few hot shards dominate.

:func:`combine_shard_results` folds one label's per-shard
:class:`~repro.simulator.metrics.StrategyResult` rows into a single
cluster-level row whose additive counters (costs, bytes, reads) are
sums, whose ``simulated_seconds`` is the scheduler's global makespan,
and whose ``strategy_overhead_seconds`` is the per-shard sum — the
quantity that answers whether an estimation-heavy policy's overhead
amortizes under sharding.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from ..errors import ConfigError
from ..simulator.metrics import StrategyResult, fold_shards


def nearest_rank_percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (q in (0, 1]) of ``values``."""
    if not values:
        return 0.0
    if not 0.0 < q <= 1.0:
        raise ConfigError(f"percentile q must be in (0, 1], got {q}")
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def imbalance_p99_over_mean(values: Sequence[float]) -> float:
    """p99/mean of a per-shard load vector (0.0 for an empty/zero one)."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    return nearest_rank_percentile(values, 0.99) / mean


class ClusterScheduler:
    """Packs per-shard compaction jobs onto a shared lane budget."""

    def __init__(self, lanes: int) -> None:
        if lanes < 1:
            raise ConfigError(f"cluster lanes must be at least 1, got {lanes}")
        self.lanes = lanes

    def makespan(self, durations: Sequence[float]) -> float:
        """LPT makespan of ``durations`` on ``self.lanes`` lanes.

        Deterministic: jobs sorted by (duration desc, index asc), each
        assigned to the least-loaded lane (lowest index on ties).
        """
        lanes = [0.0] * min(self.lanes, max(1, len(durations)))
        jobs = sorted(
            enumerate(durations), key=lambda pair: (-pair[1], pair[0])
        )
        for _, duration in jobs:
            lane = min(range(len(lanes)), key=lambda i: (lanes[i], i))
            lanes[lane] += duration
        return max(lanes) if lanes else 0.0

    def metrics(
        self, shard_ops: Sequence[int], shard_results: Sequence[StrategyResult]
    ) -> dict[str, Any]:
        """The cluster-computed result fields of one label's shards.

        The cluster's ``simulated_seconds`` is the global makespan under
        the shared lane budget; the per-shard vectors and the imbalance
        headline (p99/mean of routed operations) ride along.
        """
        makespan = self.makespan([r.simulated_seconds for r in shard_results])
        return dict(
            simulated_seconds=makespan,
            num_shards=len(shard_results),
            cluster_makespan_seconds=makespan,
            shard_imbalance=imbalance_p99_over_mean(
                [float(n) for n in shard_ops]
            ),
            shard_ops=tuple(int(n) for n in shard_ops),
            shard_costs=tuple(r.cost_actual for r in shard_results),
            shard_read_amps=tuple(r.read_amplification for r in shard_results),
        )


def combine_shard_results(
    label: str,
    shard_ops: Sequence[int],
    shard_results: Sequence[StrategyResult],
    scheduler: ClusterScheduler,
) -> StrategyResult:
    """One cluster-level :class:`StrategyResult` from per-shard rows.

    Every field folds by its rule in the metric catalogue
    (:func:`~repro.simulator.metrics.fold_shards`: additive counters
    sum, utilization-style fractions average, ...); the scheduler
    supplies the makespan, the imbalance and the per-shard vectors.
    """
    if not shard_results:
        raise ConfigError("combine_shard_results needs at least one shard")
    if any(r.strategy != label for r in shard_results):
        raise ConfigError(
            f"mixed strategy labels in shard results for {label!r}"
        )
    return fold_shards(shard_results, scheduler.metrics(shard_ops, shard_results))

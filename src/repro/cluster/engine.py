"""Sharded execution: one independent engine per keyspace shard.

Every simulator cell is a cluster of ``config.num_shards`` >= 1 shards
(one by default): the partitioner routes the YCSB op stream over the
shards, each shard runs the full two-phase simulation independently
(:func:`shard_phase1` then :func:`run_shard`: its own memtable/seqno
space, its own strategy instances, compacted jointly by
:func:`~repro.simulator.phase2.run_strategies`), and
:func:`combine_shard_runs` folds the per-shard schedules into cluster
metrics through the :class:`ClusterScheduler`.  There is
one cell path; at one shard the split is the identity and the fold is
exact (a sum over one row, the makespan of one schedule).

Determinism and seeding
-----------------------
Everything is a pure function of ``(config, labels, run_index,
shard_id)``:

* the op stream comes from the workload's certified columnar generator
  (bit-identical to the scalar reference loop), seeded with
  ``config.seed + run_index``;
* shard ``s`` seeds its strategy with :func:`shard_seed` —
  ``seed + 1_000_003 * s`` — so RANDOM-style policies draw independent
  streams per shard while shard 0 keeps the base seed;
* the ``--jobs`` fan-out (the sweep runner's ``_run_cells``, through
  :func:`sharded_shard_task`) only changes *where* a shard task runs,
  never what it computes: a worker regenerates the shard's stream from
  the config alone, so results are byte-stable for any job count.

tests/cluster/test_sharded_engine.py checks one-shard cells against a
frozen copy of the former unsharded cell, and the jobs byte-stability.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..errors import ConfigError
from ..simulator.config import SimulationConfig
from ..simulator.metrics import (
    StrategyResult,
    empty_result,
    ingest_fields,
    served_fields,
)
from ..simulator.phase1 import Phase1Result, phase1_from_columns
from ..simulator.phase2 import run_strategies
from ..simulator.read_path import ReadPhaseResult
from ..ycsb.workload import CoreWorkload
from .partitioner import ShardStream, make_partitioner, split_stream
from .scheduler import ClusterScheduler, combine_shard_results

#: Seed stride between shards.  Large and odd so per-shard RANDOM
#: streams never collide across the run_index increments (+1 per run),
#: and zero-offset for shard 0 so one-shard runs keep the base seed.
SHARD_SEED_STRIDE = 1_000_003


def shard_seed(seed: int, shard_id: int) -> int:
    """The strategy seed of shard ``shard_id`` under base ``seed``."""
    return seed + SHARD_SEED_STRIDE * shard_id


@dataclass(frozen=True)
class ShardRunResult:
    """One shard's full two-phase outcome (every label, paired)."""

    shard_id: int
    op_count: int
    per_label: dict[str, StrategyResult]


def shard_streams(config: SimulationConfig) -> list[ShardStream]:
    """Generate ``config``'s op stream and split it across its shards.

    Pure function of the config: the columnar generator is seeded by
    ``config.seed`` and certified bit-identical to the scalar reference
    loop, and the split is deterministic per key.
    """
    workload = CoreWorkload(config.workload_config())
    stream = workload.op_stream_columns(
        include_read_ops=(
            config.read_fraction > 0.0 or config.scan_fraction > 0.0
        )
    )
    partitioner = make_partitioner(
        config.partitioner, config.num_shards, config.shard_skew
    )
    return split_stream(stream, partitioner)


def shard_phase1(
    config: SimulationConfig, stream: ShardStream
) -> tuple[int, Phase1Result]:
    """Phase 1 on one shard's stream slice: its id and its tables.

    A call of its own so that the write column is referenced only while
    phase 1 runs: a caller hands the stream in and keeps only what this
    returns (the tables hold their own columns), so no write column
    reaches phase 2 on any Python version.
    """
    return stream.shard_id, phase1_from_columns(
        stream.write_keynums,
        stream.tombstone_positions,
        config,
        total_operations=stream.op_count,
        read_ops=stream.read_ops,
    )


def run_shard(
    config: SimulationConfig,
    labels: Sequence[str],
    shard_id: int,
    phase1: Phase1Result,
) -> ShardRunResult:
    """Phase 2 (every label) on one shard's :func:`shard_phase1` tables.

    High ``shard_skew`` with few operations can starve the tail shards
    entirely; phase 2 refuses empty table sets, so a shard that received
    no writes reports the zero row with the serving semantics an empty
    engine would have (every point read probes zero tables and misses).
    """
    seed = shard_seed(config.seed, shard_id)
    tables, read_ops = phase1.tables, phase1.read_ops
    reads = read_ops.read_count if read_ops is not None else 0
    scans = read_ops.scan_count if read_ops is not None else 0
    all_missed = served_fields(
        ReadPhaseResult(reads=reads, misses=reads, scans=scans)
    )
    ingest = ingest_fields(phase1)
    compacted = (
        run_strategies(tables, labels, config, seed=seed, read_ops=read_ops)
        if tables
        else {label: empty_result(label, **all_missed) for label in labels}
    )
    per_label = {label: replace(compacted[label], **ingest) for label in labels}
    return ShardRunResult(shard_id, phase1.total_operations, per_label)


def sharded_shard_task(
    config: SimulationConfig,
    labels: tuple[str, ...],
    run_index: int,
    shard_id: int,
) -> ShardRunResult:
    """One shard of one (point, run) cell — the process-pool work unit.

    Module-level so worker processes can import it.  The worker
    regenerates the run's stream from the config (generation is cheap
    next to per-shard compaction at scale) and keeps only its shard, so
    the task depends on nothing but its arguments — which is what makes
    ``--jobs`` invisible in the results.
    """
    run_config = config.with_seed(config.seed + run_index)
    # The stream is an argument of shard_phase1 alone, so it is freed
    # before phase 2 starts.
    return run_shard(
        run_config,
        labels,
        *shard_phase1(run_config, shard_streams(run_config)[shard_id]),
    )


def combine_shard_runs(
    config: SimulationConfig,
    labels: Sequence[str],
    shard_runs: Sequence[ShardRunResult],
) -> dict[str, StrategyResult]:
    """Fold per-shard results into one cluster-level row per label."""
    ordered = sorted(shard_runs, key=lambda run: run.shard_id)
    if [run.shard_id for run in ordered] != list(range(len(ordered))):
        raise ConfigError(
            f"incomplete shard set: {[run.shard_id for run in ordered]}"
        )
    scheduler = ClusterScheduler(config.parallel_lanes)
    shard_ops = [run.op_count for run in ordered]
    return {
        label: combine_shard_results(
            label,
            shard_ops,
            [run.per_label[label] for run in ordered],
            scheduler,
        )
        for label in labels
    }

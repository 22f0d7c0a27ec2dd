"""Sharded execution: one independent engine per keyspace shard.

A sharded run models a scale-out deployment: the partitioner routes the
YCSB op stream over ``config.num_shards`` shards, each shard runs the
full two-phase simulation independently (its own memtable/seqno space,
its own strategy instance), and the :class:`ClusterScheduler` folds the
per-shard schedules into cluster metrics.

Determinism and seeding
-----------------------
Everything is a pure function of ``(config, labels, run_index,
shard_id)``:

* the op stream comes from the workload's certified columnar generator
  (bit-identical to the scalar reference loop), seeded exactly like the
  unsharded cell (``config.seed + run_index``);
* shard ``s`` seeds its strategy with :func:`shard_seed` —
  ``seed + 1_000_003 * s`` — so RANDOM-style policies draw independent
  streams per shard while shard 0 keeps the base seed (which is what
  makes a ``num_shards=1`` sharded run byte-identical to the unsharded
  baseline, RANDOM included);
* the ``--jobs`` fan-out only changes *where* a shard task runs, never
  what it computes: a worker regenerates the shard's stream from the
  config alone, so results are byte-stable for any job count.

The differential harness in tests/cluster/test_sharded_engine.py pins
the ``num_shards=1`` identity and the jobs byte-stability.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
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
from ..simulator.phase1 import phase1_from_columns, spill_tables_to_disk
from ..simulator.phase2 import run_strategy
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
    seed: int
    op_count: int
    write_count: int
    n_tables: int
    total_entries: int
    per_label: dict[str, StrategyResult]


def shard_streams(config: SimulationConfig) -> list[ShardStream]:
    """Generate ``config``'s op stream and split it across its shards.

    Pure function of the config: the columnar generator is seeded by
    ``config.seed`` and certified bit-identical to the scalar reference
    loop, and the split is deterministic per key.
    """
    workload = CoreWorkload(config.workload_config())
    if not workload.supports_op_stream():
        raise ConfigError(
            "sharded runs need a workload that supports the columnar op "
            "stream (every SimulationConfig-expressible workload does)"
        )
    stream = workload.op_stream_columns(
        include_read_ops=(
            config.read_fraction > 0.0 or config.scan_fraction > 0.0
        )
    )
    partitioner = make_partitioner(
        config.partitioner, config.num_shards, config.shard_skew
    )
    return split_stream(stream, partitioner)


def run_shard(
    config: SimulationConfig,
    labels: Sequence[str],
    stream: ShardStream,
) -> ShardRunResult:
    """Phase 1 + phase 2 (every label) on one shard's stream slice.

    High ``shard_skew`` with few operations can starve the tail shards
    entirely; phase 2 refuses empty table sets, so a shard that received
    no writes reports the zero row with the serving semantics an empty
    engine would have (every point read probes zero tables and misses).
    """
    seed = shard_seed(config.seed, stream.shard_id)
    read_ops = stream.read_ops
    phase1 = phase1_from_columns(
        stream.write_keynums,
        stream.tombstone_positions,
        config,
        total_operations=stream.op_count,
        read_ops=read_ops,
    )
    tables = phase1.tables
    if config.storage == "disk":
        tables = spill_tables_to_disk(
            tables, wal_sync_every=config.wal_sync_every
        )
    reads = read_ops.read_count if read_ops is not None else 0
    scans = read_ops.scan_count if read_ops is not None else 0
    all_missed = served_fields(
        ReadPhaseResult(reads=reads, misses=reads, scans=scans)
    )
    ingest = ingest_fields(phase1)
    per_label = {
        label: replace(
            run_strategy(tables, label, config, seed=seed, read_ops=read_ops)
            if tables
            else empty_result(label, **all_missed),
            **ingest,
        )
        for label in labels
    }
    return ShardRunResult(
        shard_id=stream.shard_id,
        seed=seed,
        op_count=stream.op_count,
        write_count=stream.write_count,
        n_tables=len(tables),
        total_entries=phase1.total_entries,
        per_label=per_label,
    )


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
    stream = shard_streams(run_config)[shard_id]
    return run_shard(run_config, labels, stream)


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


def run_sharded_cell(
    config: SimulationConfig,
    labels: tuple[str, ...],
    run_index: int,
    jobs: int = 1,
) -> dict[str, StrategyResult]:
    """One sharded (point, run) cell: split, run every shard, combine.

    The sweep runner prefers expanding shards into its own pool so
    cross-cell and cross-shard work share workers — this entry point is
    the direct API (and the differential harness's).
    """
    return ShardedEngine(config, labels).run(run_index, jobs)


class ShardedEngine:
    """Run a sharded configuration end to end, shard-parallel on demand.

    Object API of the cell functions: holds the config and label set,
    exposes per-run execution plus the shard-level inspection the tests
    and notebooks want (streams, per-shard results).
    """

    def __init__(
        self, config: SimulationConfig, labels: Sequence[str]
    ) -> None:
        self.config = config
        self.labels = tuple(labels)

    def _run_config(self, run_index: int) -> SimulationConfig:
        return self.config.with_seed(self.config.seed + run_index)

    def streams(self, run_index: int = 0) -> list[ShardStream]:
        """The per-shard stream slices of one run's op stream."""
        return shard_streams(self._run_config(run_index))

    def run_shards(
        self, run_index: int = 0, jobs: int = 1
    ) -> list[ShardRunResult]:
        """Every shard's individual result for one run (shard order).

        Serial by default (the stream is generated and split once); with
        ``jobs > 1`` the shards fan out over a process pool via
        :func:`sharded_shard_task`, byte-identically.
        """
        num_shards = self.config.num_shards
        if jobs > 1 and num_shards > 1:
            with ProcessPoolExecutor(
                max_workers=min(jobs, num_shards)
            ) as pool:
                return list(
                    pool.map(
                        sharded_shard_task,
                        [self.config] * num_shards,
                        [self.labels] * num_shards,
                        [run_index] * num_shards,
                        range(num_shards),
                    )
                )
        run_config = self._run_config(run_index)
        return [
            run_shard(run_config, self.labels, stream)
            for stream in shard_streams(run_config)
        ]

    def run(
        self, run_index: int = 0, jobs: int = 1
    ) -> dict[str, StrategyResult]:
        """Cluster-level results of one run (one row per label)."""
        return combine_shard_runs(
            self._run_config(run_index),
            self.labels,
            self.run_shards(run_index, jobs),
        )

"""Scale-out tier: sharded keyspace, traffic routing, cluster scheduling.

See docs/sharding.md.  Every simulator cell runs through this tier: it
splits the cell's YCSB op stream over ``num_shards`` >= 1 independent
engine shards (:mod:`~repro.cluster.partitioner`), runs the two-phase
simulation per shard (:mod:`~repro.cluster.engine`) and folds the
per-shard schedules into cluster metrics
(:mod:`~repro.cluster.scheduler`).
"""

from .engine import (
    SHARD_SEED_STRIDE,
    ShardRunResult,
    combine_shard_runs,
    run_shard,
    shard_phase1,
    shard_seed,
    shard_streams,
    sharded_shard_task,
)
from .partitioner import (
    PARTITIONER_NAMES,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    ShardStream,
    make_partitioner,
    shard_weights,
    split_stream,
    stream_key_space,
)
from .scheduler import (
    ClusterScheduler,
    combine_shard_results,
    imbalance_p99_over_mean,
)

__all__ = [
    "SHARD_SEED_STRIDE",
    "PARTITIONER_NAMES",
    "ClusterScheduler",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "ShardRunResult",
    "ShardStream",
    "combine_shard_results",
    "combine_shard_runs",
    "imbalance_p99_over_mean",
    "make_partitioner",
    "run_shard",
    "shard_phase1",
    "shard_seed",
    "shard_streams",
    "shard_weights",
    "sharded_shard_task",
    "split_stream",
    "stream_key_space",
]

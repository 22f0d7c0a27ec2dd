"""Major compaction driven by the paper's merge-scheduling policies.

This is the bridge between :mod:`repro.core` and the storage substrate:

1. model each sstable as its key set (:class:`MergeInstance`, over the
   tables' key columns) — built once per distinct list of input tables,
   so the strategies a comparison cell runs over the same tables share
   one instance and with it one bitset encoding (see
   :func:`_instance_for`),
2. build the configured policy (SI / SO / BT(I) / BT(O) / LM / RANDOM)
   with :func:`~repro.core.policies.base.make_policy` — the one place
   an estimator spec is resolved — and, when the policy consults an
   :class:`~repro.core.estimator.HllEstimator`, seed it with the
   sstables' persistent sketches (tables compacted before contribute
   theirs for free — the §1 background loop never re-hashes a key),
3. run the policy through the greedy framework to obtain a merge
   schedule, timing the policy's decisions plus the sketch building
   (the *strategy overhead* of §5.1),
4. execute the schedule against the real sstables with
   :func:`~repro.lsm.compaction.executor.execute_schedule`, which
   propagates input sketches losslessly onto every merge output and
   returns the billed :class:`~.base.CompactionResult`; this strategy
   adds its name, overhead and extras.

BALANCETREE strategies default to ``lanes = 8`` (the paper's machine has
8 cores and merges within a level are independent); everything else runs
on one lane, matching the paper's single-threaded implementations.
"""

from __future__ import annotations

import time
import weakref
from typing import Optional, Sequence

from ...core.backend import canonical_backend_name
from ...core.estimator import EstimatorSpec, HllEstimator
from ...core.greedy import GreedyMerger
from ...core.instance import MergeInstance
from ...core.policies import ChoosePolicy, canonical_policy_name, make_policy
from ..disk import SimulatedDisk
from ..sstable import SSTable
from .base import CompactionResult, CompactionStrategy
from .executor import execute_schedule

_PARALLEL_POLICIES = ("balance_tree", "balance_tree_input", "balance_tree_output")
DEFAULT_PARALLEL_LANES = 8


#: One slot: first input table -> (weak refs to all the inputs, their
#: instance).  Weak on both sides: the entry dies with its first table,
#: so the memo keeps no table alive and an instance no longer than its
#: tables, and a dead reference can never match a new table that happens
#: to reuse the address.  A miss replaces the slot.
_modelled: "weakref.WeakKeyDictionary[SSTable, tuple]" = weakref.WeakKeyDictionary()


def _instance_for(tables: Sequence[SSTable]) -> MergeInstance:
    """The :class:`MergeInstance` of ``tables``, shared across strategies.

    A comparison cell compacts the *same* table objects once per
    strategy; sstables are immutable, so their instance — key columns,
    cached bitset encoding, instance-level sketch cache — is too, and is
    built once per distinct list of tables.  Tables are modelled by their
    int64 key columns (no per-key Python); a table without a column view
    (non-int keys, payload bytes) sends the list through ``key_set``.
    An engine's background compactions hand in different tables every
    time and never hit it.
    """
    refs, instance = _modelled.get(tables[0], ((), None))
    if len(refs) != len(tables) or any(
        ref() is not table for ref, table in zip(refs, tables)
    ):
        columns = [table.columns() for table in tables]
        if all(column is not None for column in columns):
            instance = MergeInstance.from_columns([column.keys for column in columns])
        else:
            instance = MergeInstance(tuple(table.key_set for table in tables))
        _modelled.clear()
        _modelled[tables[0]] = (tuple(map(weakref.ref, tables)), instance)
    return instance


class MajorCompaction(CompactionStrategy):
    """Merge every sstable into one using a core scheduling policy."""

    def __init__(
        self,
        policy: str = "balance_tree_input",
        k: int = 2,
        lanes: Optional[int] = None,
        seed: Optional[int] = None,
        drop_tombstones: bool = True,
        bloom_fp_rate: float = 0.01,
        backend: str = "frozenset",
        estimator: "EstimatorSpec" = None,
        merge_kernel: str = "auto",
        **policy_kwargs,
    ) -> None:
        self.policy_name = canonical_policy_name(policy)
        self.backend = canonical_backend_name(backend)
        self.estimator = estimator
        self.k = k
        if lanes is None:
            lanes = (
                DEFAULT_PARALLEL_LANES
                if self.policy_name in _PARALLEL_POLICIES
                else 1
            )
        self.lanes = lanes
        self.seed = seed
        self.drop_tombstones = drop_tombstones
        self.bloom_fp_rate = bloom_fp_rate
        self.merge_kernel = merge_kernel
        self.policy_kwargs = policy_kwargs
        self.name = f"major({self.policy_name}, k={k})"
        self._make_policy()  # a bad estimator or keyword fails here, not mid-run

    # ------------------------------------------------------------------
    def _make_policy(self) -> ChoosePolicy:
        return make_policy(
            self.policy_name, estimator=self.estimator, **self.policy_kwargs
        )

    @staticmethod
    def _seed_sketches(policy: ChoosePolicy, tables: Sequence[SSTable]) -> float:
        """Hand the tables' persistent sketches to the policy's HLL
        estimator; returns the seconds it took.

        Sketch building is part of the strategy's decision overhead
        (§5.1) and is billed there by the caller.  Tables that kept a
        sketch from an earlier compaction — the §1 background loop —
        contribute nothing; other estimators (and the ``force_pure``
        oracle, which bypasses pre-built sketches) cost nothing.
        """
        estimator = policy.estimator
        if not isinstance(estimator, HllEstimator) or estimator.force_pure:
            return 0.0
        started = time.perf_counter()
        estimator.seed_sketches(
            {
                index: table.sketch(estimator.precision, estimator.seed)
                for index, table in enumerate(tables)
            }
        )
        return time.perf_counter() - started

    def compact(
        self,
        tables: Sequence[SSTable],
        disk: SimulatedDisk,
        next_table_id: int,
    ) -> CompactionResult:
        if not tables:
            raise ValueError("nothing to compact")
        if len(tables) == 1:
            return CompactionResult(self.name, 1, [tables[0]])

        instance = _instance_for(tables)
        policy = self._make_policy()
        sketch_seconds = self._seed_sketches(policy, tables)
        greedy = GreedyMerger(
            policy, k=self.k, seed=self.seed, backend=self.backend
        ).run(instance)
        overhead_seconds = greedy.policy_seconds + sketch_seconds

        result = execute_schedule(
            tables,
            greedy.schedule,
            disk,
            next_table_id=next_table_id,
            lanes=self.lanes,
            drop_tombstones=self.drop_tombstones,
            bloom_fp_rate=self.bloom_fp_rate,
            merge_kernel=self.merge_kernel,
        )
        result.strategy_name = self.name
        result.strategy_overhead_seconds = overhead_seconds
        result.wall_seconds += overhead_seconds
        result.extras = {
            "policy_extras": greedy.extras,
            "lanes": self.lanes,
            "sketch_seconds": sketch_seconds,
        }
        return result

"""The generic greedy merging framework (paper, Algorithm 1).

:class:`GreedyMerger` maintains the live collection ``C`` of tables,
repeatedly asks its :class:`~repro.core.policies.base.ChoosePolicy` which
tables to merge, replaces them with their union, and records the
resulting :class:`~repro.core.schedule.MergeSchedule`.  It generalizes
Algorithm 1 from pairs to fan-in ``k`` (the K-WAYMERGING problem).

The merger also measures *strategy overhead* — wall-clock time spent
inside the policy's ``choose``/``observe_merge`` callbacks — because the
paper's Figure 7b time metric includes it (it is what makes SO slow and
SI cheap).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from ..errors import PolicyError
from .backend import BackendSpec, make_backend
from .cost import DEFAULT_COST, MergeCostFunction
from .instance import MergeInstance
from .policies.base import ChoosePolicy, GreedyState, make_policy
from .schedule import MergeSchedule, MergeStep, ScheduleReplay


@dataclass
class GreedyResult:
    """Outcome of a greedy merging run."""

    schedule: MergeSchedule
    policy_name: str
    policy_seconds: float
    extras: dict = field(default_factory=dict)

    def replay(
        self,
        instance: MergeInstance,
        cost_fn: MergeCostFunction = DEFAULT_COST,
        backend: BackendSpec = None,
    ) -> ScheduleReplay:
        """Re-execute the schedule symbolically to obtain costs."""
        return self.schedule.replay(instance, cost_fn, backend=backend)


class GreedyMerger:
    """Run a choose-merge-repeat loop with a pluggable policy.

    Parameters
    ----------
    policy:
        A policy instance or registered name/alias (``"SI"``, ``"BT(I)"``,
        ...).  A name is instantiated by
        :func:`~repro.core.policies.base.make_policy` with
        ``policy_kwargs`` — which is where ``estimator=`` (a name such as
        ``"exact"`` / ``"hll"`` or a
        :class:`~repro.core.estimator.CardinalityEstimator` instance,
        e.g. one pre-seeded with persistent sstable sketches),
        ``hll_precision=`` and ``hll_seed=`` go for the output-sensitive
        policies (SO, BT(O)).
    k:
        Maximum merge fan-in (the K-WAYMERGING parameter); ``k = 2`` is
        the BINARYMERGING problem.
    seed:
        Seed for the RNG handed to stochastic policies (RANDOM).
    backend:
        Set-algebra kernel name (``"frozenset"`` or ``"bitset"``) or a
        :class:`~repro.core.backend.SetBackend` instance.  Both kernels
        are exact, so the schedule is identical either way; ``"bitset"``
        makes set-heavy policies (SO, LM, BT(O) exact) much faster.
    """

    def __init__(
        self,
        policy: Union[str, ChoosePolicy],
        k: int = 2,
        seed: Optional[int] = None,
        backend: BackendSpec = None,
        **policy_kwargs,
    ) -> None:
        if k < 2:
            raise PolicyError(f"merge fan-in k must be at least 2, got {k}")
        if isinstance(policy, str):
            policy = make_policy(policy, **policy_kwargs)
        elif policy_kwargs:
            raise PolicyError("policy_kwargs are only valid with a policy name")
        self.policy = policy
        self.k = k
        self.seed = seed
        self.backend = backend

    def run(self, instance: MergeInstance) -> GreedyResult:
        """Merge the instance down to one table; return the schedule."""
        backend = make_backend(self.backend)
        encoded = backend.encode_instance(instance)
        state = GreedyState(
            instance=instance,
            k=self.k,
            rng=random.Random(self.seed),
            live=dict(enumerate(encoded)),
            sizes={index: backend.size(handle) for index, handle in enumerate(encoded)},
            next_id=instance.n,
            backend=backend,
        )
        policy = self.policy
        clock = time.perf_counter
        overhead = 0.0

        started = clock()
        policy.prepare(state)
        overhead += clock() - started

        steps: list[MergeStep] = []
        while state.n_live > 1:
            started = clock()
            chosen = policy.choose(state)
            overhead += clock() - started
            self._check_choice(state, chosen)

            # Retire live + sizes entries in one pass so the two dicts
            # never disagree about which tables exist.
            inputs = []
            for table_id in chosen:
                inputs.append(state.live.pop(table_id))
                del state.sizes[table_id]
            merged = backend.union(inputs)
            new_id = state.next_id
            state.next_id += 1
            state.live[new_id] = merged
            state.sizes[new_id] = backend.size(merged)
            steps.append(MergeStep(tuple(chosen), new_id))

            started = clock()
            policy.observe_merge(state, tuple(chosen), new_id)
            overhead += clock() - started

        schedule = MergeSchedule(instance.n, steps)
        schedule.validate(max_inputs=self.k)
        return GreedyResult(
            schedule=schedule,
            policy_name=policy.name,
            policy_seconds=overhead,
            extras=policy.extras(),
        )

    def _check_choice(self, state: GreedyState, chosen: tuple[int, ...]) -> None:
        if not 2 <= len(chosen) <= self.k:
            raise PolicyError(
                f"policy {self.policy.name!r} chose {len(chosen)} tables; "
                f"expected between 2 and {self.k}"
            )
        if len(set(chosen)) != len(chosen):
            raise PolicyError(f"policy {self.policy.name!r} chose a duplicate table")
        for table_id in chosen:
            if table_id not in state.live:
                raise PolicyError(
                    f"policy {self.policy.name!r} chose dead table {table_id}"
                )


def merge_with(
    policy: Union[str, ChoosePolicy],
    instance: MergeInstance,
    k: int = 2,
    seed: Optional[int] = None,
    backend: BackendSpec = None,
    **policy_kwargs,
) -> GreedyResult:
    """One-shot convenience: build a merger, run it, return the result."""
    return GreedyMerger(
        policy, k=k, seed=seed, backend=backend, **policy_kwargs
    ).run(instance)

"""The batched HLL estimate path equals the scalar one, bit for bit.

``HllEstimator.union_cardinalities`` picks between the raw estimate and
linear counting with one vectorized select over a precomputed table;
``union_cardinality`` makes the same decision per combo with a scalar
``math.log``.  Policies mix the two freely, so any last-ulp difference
could flip a tie-break.  Both regimes are covered: small tables sit in
the linear-counting regime, tables far above ``2.5 * m`` in the raw one.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core import MergeInstance
from repro.core.backend import FrozensetBackend
from repro.core.estimator import HllEstimator
from repro.core.policies.base import GreedyState


def _state(sizes: list[int], seed: int) -> GreedyState:
    rng = random.Random(seed)
    instance = MergeInstance(
        tuple(frozenset(rng.sample(range(50_000), size)) for size in sizes)
    )
    return GreedyState(
        instance=instance,
        k=3,
        rng=rng,
        live=dict(enumerate(instance.sets)),
        sizes=dict(enumerate(instance.sizes())),
        next_id=instance.n,
        backend=FrozensetBackend(),
    )


@pytest.mark.parametrize("precision", (4, 6, 12))
@pytest.mark.parametrize("arity", (2, 3))
def test_batched_estimates_equal_scalar_in_both_regimes(precision, arity):
    m = 1 << precision
    sizes = [1, 3, m // 4 + 1, m, 3 * m, 6 * m, 10 * m, 2, m // 2 + 1]
    state = _state(sizes, seed=precision)
    estimator = HllEstimator(precision=precision)
    estimator.prepare(state)
    combos = list(combinations(range(len(sizes)), arity))
    scalar = [estimator.union_cardinality(state, combo) for combo in combos]
    assert estimator.union_cardinalities(state, combos) == scalar
    threshold = 2.5 * m
    assert min(scalar) < threshold < max(scalar)  # both regimes were hit

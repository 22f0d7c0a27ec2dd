"""The batched HLL estimate path equals the scalar one, bit for bit.

``HllEstimator.union_cardinalities`` picks between the raw estimate and
linear counting with one vectorized select over a precomputed table;
``union_cardinality`` makes the same decision per combo with a scalar
``math.log``.  Policies mix the two freely, so any last-ulp difference
could flip a tie-break.  Both regimes are covered: small tables sit in
the linear-counting regime, tables far above ``2.5 * m`` in the raw one.

The term encoding is checked where it could break: forced ranks that
spill (16..30) or leave the encoding (31), and precisions on both sides
of the uint32 / int64 accumulator boundary, through every path of
``TermMatrix.union_stats_chunks``.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from repro.core import MergeInstance
from repro.core.backend import FrozensetBackend
from repro.core.estimator import HllEstimator
from repro.core.policies.base import GreedyState
from repro.hll import HyperLogLog
from repro.hll.registers import RegisterArray, TermMatrix


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


# ----------------------------------------------------------------------
# The term encoding at its edges: spill columns and accumulators
# ----------------------------------------------------------------------
def _forced_sketches(precision: int, top: int, count: int = 12) -> dict:
    """``count`` sketches loaded through ``RegisterArray.load_bytes``:
    random ranks 0..14, two all-zero sketches (the largest possible
    sums), and ranks ``top`` / ``top - 3`` forced into a few shared
    columns so unions take the max of spilled ranks."""
    m = 1 << precision
    rng = np.random.default_rng(precision * 100 + top)
    sketches = {}
    for table_id in range(count):
        regs = np.minimum(rng.geometric(0.5, m) - 1, 14).astype(np.uint8)
        if table_id < 2:
            regs[:] = 0
        elif table_id % 3 == 0:
            regs[table_id % 4] = top
        elif table_id % 3 == 1:
            regs[table_id % 4] = top - 3
        sketches[table_id] = HyperLogLog.from_registers(precision, 0, regs.tobytes())
    return sketches


@pytest.mark.parametrize("precision", (4, 12, 16, 17))
@pytest.mark.parametrize("top", (15, 16, 22, 30, 31))
def test_batched_estimates_equal_scalar_at_the_rank_edges(precision, top):
    """p = 16 sums up to 2**31 in uint32, p = 17 needs int64; ranks
    16..30 spill, 31 leaves the term domain for the scalar kernel."""
    sketches = _forced_sketches(precision, top)
    n = len(sketches)
    state = _state([1] * n, seed=top)
    estimator = HllEstimator(precision=precision)
    estimator.seed_sketches(sketches)
    estimator.prepare(state)
    matrix = estimator._matrix
    assert (matrix is None) == (top > 30)
    if matrix is not None:
        assert bool(len(matrix.spill_columns)) == (top > 15)
    batches = {
        # one shared second row: SO's per-merge refresh
        "shared-second": [(table_id, n - 1) for table_id in range(n - 1)],
        # few distinct first rows: SO's initial fill
        "grouped-first": [(a, b) for a in range(2) for b in range(a + 1, n)],
        # the general path, across a chunk boundary
        "k=3": list(combinations(range(n), 3))[:100],
    }
    for label, combos in batches.items():
        scalar = [estimator.union_cardinality(state, combo) for combo in combos]
        batched = estimator.union_cardinalities(state, np.array(combos))
        assert batched == scalar, label


def _registers(values: list[int]) -> RegisterArray:
    array = RegisterArray(16)
    array.load_bytes(bytes(values + [1] * (16 - len(values))))
    return array


def test_append_min_takes_the_spill_max():
    a, b = _registers([20, 17, 3]), _registers([16, 25, 0])
    matrix = TermMatrix.of([a, b])
    assert matrix.spill_columns.tolist() == [0, 1]
    row = matrix.append_min([0, 1])
    assert matrix._spill[row].tolist() == [20, 25]
    (totals, zeros), = matrix.union_stats_chunks([[row, row]])
    merged = RegisterArray.merged([a, b])
    assert (totals[0] / matrix.term_one, int(zeros[0])) == merged.stats()


def test_append_rejects_a_rank_above_15_outside_the_spill_columns():
    matrix = TermMatrix(16, spill_columns=[0])
    matrix.append(_registers([30, 15, 15]))
    with pytest.raises(ValueError):
        matrix.append(_registers([1, 16]))
    with pytest.raises(ValueError):
        matrix.append(_registers([31]))  # above 30 even in a spill column
    assert len(matrix) == 1
    assert TermMatrix.of([_registers([31])]) is None

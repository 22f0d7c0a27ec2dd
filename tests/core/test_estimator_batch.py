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
``TermMatrix.union_totals``.

The batched path settles most combos from ``TermMatrix.union_zeros``
alone, without the term pass: a hypothesis search over unions whose zero
counts straddle the settling bound pins it to the full term pass and to
the scalar kernel.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MergeInstance
from repro.core.backend import FrozensetBackend
from repro.core.estimator import HllEstimator, _linear_counts, _linear_floor
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
        "few-firsts": [(a, b) for a in range(2) for b in range(a + 1, n)],
        # the general path, across a chunk boundary
        "k=3": list(combinations(range(n), 3))[:100],
    }
    for label, combos in batches.items():
        scalar = [estimator.union_cardinality(state, combo) for combo in combos]
        batched = estimator.union_cardinalities(state, np.array(combos))
        assert batched == scalar, label


@pytest.mark.parametrize("precision", (4, 12, 17))
def test_every_term_pass_path_matches_the_register_kernel(precision):
    """``union_totals`` and ``union_zeros`` straight on the matrix, with
    no zeros-first split in front: the shared-right-row broadcast, a
    pair batch whose right rows agree only at its ends, and triples
    across a chunk boundary."""
    sketches = _forced_sketches(precision, top=22, count=70)
    arrays = [sketch._registers for sketch in sketches.values()]
    matrix = TermMatrix.of(arrays)
    n = len(arrays)
    batches = {
        "shared-right": [(row, n - 1) for row in range(n - 1)],
        "right-equal-at-ends": [
            (row, n - 1 - (0 < row < n - 2)) for row in range(n - 1)
        ],
        "k=3": list(combinations(range(n), 3))[:150],
    }
    for label, combos in batches.items():
        totals = matrix.union_totals(combos)
        zeros = matrix.union_zeros(combos)
        stats = [RegisterArray.union_stats([arrays[r] for r in c]) for c in combos]
        fused = [(t / matrix.term_one, int(z)) for t, z in zip(totals, zeros)]
        assert fused == stats, label


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
    (totals,), (zeros,) = matrix.union_totals([[row, row]]), matrix.union_zeros(
        [[row, row]]
    )
    merged = RegisterArray.merged([a, b])
    assert (totals / matrix.term_one, int(zeros)) == merged.stats()


def test_append_rejects_a_rank_above_15_outside_the_spill_columns():
    matrix = TermMatrix(16, spill_columns=[0])
    matrix.append(_registers([30, 15, 15]))
    with pytest.raises(ValueError):
        matrix.append(_registers([1, 16]))
    with pytest.raises(ValueError):
        matrix.append(_registers([31]))  # above 30 even in a spill column
    assert len(matrix) == 1
    assert TermMatrix.of([_registers([31])]) is None


# ----------------------------------------------------------------------
# Zeros first: combos settled by their zero count alone
# ----------------------------------------------------------------------
@pytest.mark.parametrize("precision", range(4, 19))
def test_linear_floor_is_the_least_zero_count_that_proves_linear_counting(
    precision,
):
    sketch = HyperLogLog(precision)
    m, alpha_mm = sketch.m, sketch._alpha_mm
    floor = _linear_floor(m, alpha_mm)
    assert 1 < floor < m
    assert alpha_mm / floor <= 2.5 * m < alpha_mm / (floor - 1)


@st.composite
def _straddling_sketches(draw, precision: int, arity: int):
    """Register arrays whose ``arity``-way unions keep about as many
    zero registers as the settling bound, give or take: per-table zero
    fractions drawn around ``(floor / m) ** (1 / arity)``, ranks 1..15
    elsewhere, a few shared columns at spill ranks 16..30, and one table
    without a zero register (every union with it has ``z = 0``)."""
    m = 1 << precision
    sketch = HyperLogLog(precision)
    centre = (_linear_floor(m, sketch._alpha_mm) / m) ** (1 / arity)
    count = draw(st.integers(arity + 1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spill_columns = rng.choice(m, size=min(m // 4, 6), replace=False)
    sketches = {}
    for table_id in range(count):
        zero_fraction = min(1.0, max(0.0, centre + draw(st.floats(-0.2, 0.2))))
        top = draw(st.integers(1, 15))
        regs = rng.integers(1, top + 1, size=m).astype(np.uint8)
        regs[rng.random(m) < zero_fraction] = 0
        if table_id == 0:
            regs[regs == 0] = 1
        spilled = spill_columns[rng.random(len(spill_columns)) < 0.5]
        regs[spilled] = draw(st.integers(16, 30))
        sketches[table_id] = HyperLogLog.from_registers(precision, 0, regs.tobytes())
    return sketches


@pytest.mark.parametrize("precision", (4, 6, 12, 17))
@pytest.mark.parametrize("arity", (2, 3))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_zeros_first_estimates_equal_the_full_term_pass(precision, arity, data):
    sketches = data.draw(_straddling_sketches(precision, arity))
    state = _state([1] * len(sketches), seed=precision)
    estimator = HllEstimator(precision=precision)
    estimator.seed_sketches(sketches)
    estimator.prepare(state)
    matrix = estimator._matrix
    combos = np.array(list(combinations(range(len(sketches)), arity)))
    batched = estimator.union_cardinalities(state, combos)
    assert batched == [estimator.union_cardinality(state, tuple(c)) for c in combos]

    # The full pass: every combo's exact sum, then today's decision.
    sketch = sketches[0]
    m, alpha_mm = sketch.m, sketch._alpha_mm
    rows = estimator._row_of[combos]
    zeros = matrix.union_zeros(rows)
    raws = alpha_mm / (matrix.union_totals(rows) / matrix.term_one)
    linear = (raws <= 2.5 * m) & (zeros > 0)
    assert np.where(linear, _linear_counts(m)[zeros], raws).tolist() == batched
    assert zeros.tolist() == [
        RegisterArray.union_stats([sketches[i]._registers for i in combo])[1]
        for combo in combos.tolist()
    ]
    settled = zeros >= _linear_floor(m, alpha_mm)
    assert linear[settled].all()
    assert not settled[(combos == 0).any(axis=1)].any()  # z = 0: raw


def test_the_term_pass_runs_only_for_unsettled_combos():
    sketches = {
        # few zeros and low ranks: its unions need the term pass
        0: HyperLogLog.from_registers(6, 0, bytes([0] * 4 + [3] * 60)),
        # 1 and 2 share 56 zero registers: their union is settled
        1: HyperLogLog.from_registers(6, 0, bytes([0] * 60 + [1] * 4)),
        2: HyperLogLog.from_registers(6, 0, bytes([1] * 4 + [0] * 60)),
    }
    state = _state([1] * 3, seed=0)
    estimator = HllEstimator(precision=6)
    estimator.seed_sketches(sketches)
    estimator.prepare(state)
    combos = [(0, 1), (0, 2), (1, 2)]
    batched = estimator.union_cardinalities(state, combos)
    assert batched == [estimator.union_cardinality(state, combo) for combo in combos]
    assert (estimator._matrix.zero_rows, estimator._matrix.term_rows) == (3, 2)

"""HLL accuracy bounds and numpy/pure register-kernel parity.

Accuracy: estimates must stay within the canonical
``expected_relative_error`` band across precisions and hash seeds (5
standard errors — a deterministic library means these are regression
tests, not flaky statistics).

Parity: the vectorized ingestion path (batch ``uint64`` hashing +
scatter-max) and the fused union kernel must produce registers and
estimates *identical* — not approximately equal — to the ``force_pure``
``bytearray`` backing, the oracle of the numpy kernels.
"""

from __future__ import annotations

import random

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hll import HyperLogLog
from repro.hll.hashing import hash_key, hash_keys_u64
from repro.hll.registers import RegisterArray


class TestAccuracyBounds:
    @pytest.mark.parametrize("precision", [8, 10, 12, 14])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relative_error_within_5_sigma(self, precision, seed):
        true_count = 10_000
        sketch = HyperLogLog.of(range(true_count), precision=precision, seed=seed)
        relative = abs(sketch.cardinality() - true_count) / true_count
        assert relative <= 5 * HyperLogLog.expected_relative_error(precision)

    @pytest.mark.parametrize("precision", [8, 12])
    def test_union_estimate_within_5_sigma(self, precision):
        a = HyperLogLog.of(range(0, 6000), precision=precision)
        b = HyperLogLog.of(range(4000, 10_000), precision=precision)
        estimate = a.union_cardinality(b)
        assert abs(estimate - 10_000) / 10_000 <= 5 * HyperLogLog.expected_relative_error(
            precision
        )

    def test_expected_error_halves_per_two_precision_steps(self):
        assert HyperLogLog.expected_relative_error(14) == pytest.approx(
            HyperLogLog.expected_relative_error(12) / 2
        )


class TestNumpyPureParity:
    """force_pure differential: identical registers, identical floats."""

    def _key_batches(self):
        rng = random.Random(42)
        return [
            list(range(500)),
            [rng.randrange(-(2**80), 2**80) for _ in range(400)],  # wide ints
            [rng.randrange(2**63, 2**64) for _ in range(200)],  # top-bit set
            [f"user{i}" for i in range(300)],  # scalar fallback path
            [True, False, 0, 1, (1, 2), b"raw"],  # mixed types
        ]

    @pytest.mark.parametrize("precision", [4, 8, 12])
    def test_registers_byte_identical(self, precision):
        for batch in self._key_batches():
            fast = HyperLogLog(precision=precision, seed=9)
            fast.add_all(batch)
            pure = HyperLogLog(precision=precision, seed=9, force_pure=True)
            for key in batch:
                pure.add(key)
            assert fast._registers.values() == pure._registers.values()
            assert fast.cardinality() == pure.cardinality()

    def test_batch_hashing_matches_scalar(self):
        keys = list(range(-50, 50)) + [2**64, 2**64 + 1, -(2**100)]
        hashed = hash_keys_u64(keys, seed=5)
        assert hashed is not None
        assert hashed.tolist() == [hash_key(key, 5) for key in keys]

    def test_batch_hashing_declines_non_ints(self):
        assert hash_keys_u64(["a", 1], seed=0) is None
        assert hash_keys_u64([True, 2], seed=0) is None  # bools are type-salted

    def test_union_stats_matches_merged_array(self):
        rng = random.Random(1)
        arrays = []
        for _ in range(4):
            regs = RegisterArray(256)
            for _ in range(300):
                regs.update(rng.randrange(256), rng.randrange(1, 40))
            arrays.append(regs)
        merged = RegisterArray.merged(arrays)
        harmonic_sum, zeros = RegisterArray.union_stats(arrays)
        assert harmonic_sum == merged.harmonic_sum()
        assert zeros == merged.zeros()
        # and against the pure-path fusion over pure copies
        pure_arrays = [
            RegisterArray(256, _backing=bytearray(a.values()), force_pure=True)
            for a in arrays
        ]
        assert RegisterArray.union_stats(pure_arrays) == (harmonic_sum, zeros)

    @given(st.sets(st.integers(-(2**70), 2**70), max_size=400))
    @settings(max_examples=25, deadline=None)
    def test_property_estimates_identical(self, keys):
        keys = sorted(keys)
        fast = HyperLogLog.of(keys, precision=10)
        pure = HyperLogLog.of(keys, precision=10, force_pure=True)
        assert fast.cardinality() == pure.cardinality()

    def test_stats_consistent_with_parts(self):
        sketch = HyperLogLog.of(range(1000), precision=10)
        harmonic_sum, zeros = sketch._registers.stats()
        assert harmonic_sum == sketch._registers.harmonic_sum()
        assert zeros == sketch._registers.zeros()


class TestUpdateMany:
    def test_scatter_max_handles_duplicates(self):
        regs = RegisterArray(8, force_pure=True)
        regs.update_many([3, 3, 3, 5], [2, 7, 4, 1])
        assert regs.get(3) == 7
        assert regs.get(5) == 1

    def test_numpy_scatter_matches_loop(self):
        indices = numpy.array([0, 1, 0, 1, 0], dtype=numpy.intp)
        ranks = numpy.array([3, 2, 5, 1, 4], dtype=numpy.uint8)
        fast = RegisterArray(2)
        fast.update_many(indices, ranks)
        slow = RegisterArray(2, force_pure=True)
        slow.update_many(indices.tolist(), ranks.tolist())
        assert fast.values() == slow.values() == [5, 2]

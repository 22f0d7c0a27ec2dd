"""Tests for the HyperLogLog estimator: accuracy, unions, corrections."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hll import HyperLogLog
from repro.hll.registers import RegisterArray


class TestConstruction:
    def test_precision_bounds(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=3)
        with pytest.raises(ValueError):
            HyperLogLog(precision=19)

    def test_register_count(self):
        assert HyperLogLog(precision=10).m == 1024

    def test_empty_estimate_is_zero(self):
        assert HyperLogLog().cardinality() == pytest.approx(0.0)

    def test_of_classmethod(self):
        sketch = HyperLogLog.of(range(100))
        assert 90 <= sketch.cardinality() <= 110


    @pytest.mark.parametrize("force_pure", (False, True))
    def test_int_array_sketches_like_its_plain_ints(self, force_pure):
        import numpy

        array = numpy.arange(-500, 2_000, 7)
        for keys in (array, array.astype(numpy.int32)):
            sketch = HyperLogLog.of(keys, precision=10, force_pure=force_pure)
            plain = HyperLogLog.of(keys.tolist(), precision=10, force_pure=force_pure)
            assert sketch.to_bytes() == plain.to_bytes()


class TestAccuracy:
    @pytest.mark.parametrize("true_count", [10, 100, 1000, 20000])
    def test_error_within_5_sigma(self, true_count):
        sketch = HyperLogLog(precision=12)
        sketch.add_all(range(true_count))
        estimate = sketch.cardinality()
        sigma = HyperLogLog.expected_relative_error(12)
        assert abs(estimate - true_count) <= 5 * sigma * true_count + 3

    def test_duplicates_ignored(self):
        sketch = HyperLogLog(precision=12)
        for _ in range(5):
            sketch.add_all(range(500))
        assert abs(sketch.cardinality() - 500) <= 30

    def test_len_rounds(self):
        sketch = HyperLogLog.of(range(50), precision=14)
        assert isinstance(len(sketch), int)
        assert 45 <= len(sketch) <= 55

    def test_small_range_uses_linear_counting(self):
        """A handful of keys in a large sketch must be near-exact."""
        sketch = HyperLogLog(precision=14)
        sketch.add_all(range(20))
        assert abs(sketch.cardinality() - 20) < 2

    @pytest.mark.parametrize("precision", [8, 10, 12])
    def test_higher_precision_tightens_error(self, precision):
        true_count = 5000
        sketch = HyperLogLog.of(range(true_count), precision=precision)
        relative = abs(sketch.cardinality() - true_count) / true_count
        assert relative <= 6 * HyperLogLog.expected_relative_error(precision)

    def test_string_keys(self):
        sketch = HyperLogLog.of((f"user{i}" for i in range(2000)), precision=12)
        assert abs(sketch.cardinality() - 2000) / 2000 < 0.1


class TestUnion:
    def test_union_is_lossless(self):
        """sketch(A) | sketch(B) has identical registers to sketch(A u B)."""
        a = HyperLogLog.of(range(0, 600))
        b = HyperLogLog.of(range(400, 1000))
        direct = HyperLogLog.of(range(0, 1000))
        merged = a | b
        assert merged._registers == direct._registers
        assert merged.cardinality() == direct.cardinality()

    def test_union_cardinality_no_mutation(self):
        a = HyperLogLog.of(range(100))
        b = HyperLogLog.of(range(50, 150))
        before = a.cardinality()
        estimate = a.union_cardinality(b)
        assert a.cardinality() == before
        assert abs(estimate - 150) <= 15

    def test_merge_in_place(self):
        a = HyperLogLog.of(range(100))
        b = HyperLogLog.of(range(100, 200))
        a.merge(b)
        assert abs(a.cardinality() - 200) <= 20

    def test_union_many(self):
        parts = [HyperLogLog.of(range(i * 100, (i + 1) * 100)) for i in range(5)]
        merged = parts[0].union(*parts[1:])
        assert abs(merged.cardinality() - 500) <= 40

    def test_incompatible_precision_rejected(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=10).merge(HyperLogLog(precision=12))

    def test_incompatible_seed_rejected(self):
        with pytest.raises(ValueError):
            HyperLogLog(seed=1).merge(HyperLogLog(seed=2))

    def test_copy_is_independent(self):
        a = HyperLogLog.of(range(10))
        b = a.copy()
        b.add_all(range(10, 2000))
        assert a.cardinality() < 20

    @given(
        st.sets(st.integers(0, 10_000), max_size=300),
        st.sets(st.integers(0, 10_000), max_size=300),
    )
    @settings(max_examples=25, deadline=None)
    def test_union_commutes(self, left, right):
        a = HyperLogLog.of(left, precision=10)
        b = HyperLogLog.of(right, precision=10)
        assert (a | b)._registers == (b | a)._registers

    @given(st.sets(st.integers(), min_size=0, max_size=500))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_union(self, keys):
        a = HyperLogLog.of(keys, precision=10)
        assert (a | a)._registers == a._registers


class TestRegisterArray:
    def test_update_keeps_max(self):
        regs = RegisterArray(16)
        regs.update(3, 5)
        regs.update(3, 2)
        assert regs.get(3) == 5

    def test_zeros(self):
        regs = RegisterArray(8)
        assert regs.zeros() == 8
        regs.update(0, 1)
        assert regs.zeros() == 7

    def test_harmonic_sum_all_zero(self):
        assert RegisterArray(4).harmonic_sum() == pytest.approx(4.0)

    def test_merge_max(self):
        a = RegisterArray(4)
        b = RegisterArray(4)
        a.update(0, 3)
        b.update(0, 1)
        b.update(2, 7)
        a.merge_max(b)
        assert a.values() == [3, 0, 7, 0]

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            RegisterArray(4).merge_max(RegisterArray(8))

    def test_merged_classmethod_empty(self):
        with pytest.raises(ValueError):
            RegisterArray.merged([])
        assert RegisterArray.merged([], m=4).values() == [0, 0, 0, 0]

    def test_pure_python_backend_matches_numpy(self):
        pure = RegisterArray(64, force_pure=True)
        fast = RegisterArray(64)
        for index, rank in [(0, 3), (5, 9), (63, 1), (5, 2)]:
            pure.update(index, rank)
            fast.update(index, rank)
        assert pure.values() == fast.values()
        assert pure.zeros() == fast.zeros()
        assert pure.harmonic_sum() == pytest.approx(fast.harmonic_sum())

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(RegisterArray(4))

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            RegisterArray(0)

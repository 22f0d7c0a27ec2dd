"""Tests for the bloom filter."""

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hll.hashing import hash_key
from repro.lsm import BloomFilter
from repro.lsm.bloom import _PROBE_SEED_1, _PROBE_SEED_2, probe_hashes


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ConfigError):
            BloomFilter(0)
        with pytest.raises(ConfigError):
            BloomFilter(10, fp_rate=0.0)
        with pytest.raises(ConfigError):
            BloomFilter(10, fp_rate=1.0)

    def test_sizing_grows_with_capacity(self):
        small = BloomFilter(100, fp_rate=0.01)
        large = BloomFilter(10_000, fp_rate=0.01)
        assert large.m_bits > small.m_bits

    def test_sizing_grows_with_precision(self):
        loose = BloomFilter(1000, fp_rate=0.1)
        tight = BloomFilter(1000, fp_rate=0.001)
        assert tight.m_bits > loose.m_bits


class TestMembership:
    def test_no_false_negatives(self):
        bloom = BloomFilter.of(range(1000))
        assert all(key in bloom for key in range(1000))

    def test_false_positive_rate_close_to_target(self):
        bloom = BloomFilter.of(range(2000), fp_rate=0.01)
        false_positives = sum(1 for key in range(2000, 22000) if key in bloom)
        assert false_positives / 20_000 < 0.03  # 3x headroom on 1%

    def test_len_counts_adds(self):
        bloom = BloomFilter(10)
        bloom.add_all(["a", "b"])
        assert len(bloom) == 2

    def test_string_keys(self):
        bloom = BloomFilter.of(f"user{i}" for i in range(100))
        assert "user5" in bloom
        assert sum(1 for i in range(1000, 3000) if f"user{i}" in bloom) < 120

    @pytest.mark.parametrize(
        "key", (0, -7, 2**64 + 3, True, "user5", "", b"raw", (1, "a"), 2.5)
    )
    def test_probe_pair_is_the_two_seeded_key_hashes(self, key):
        # A get hashes its key once; the pair must be what the per-seed
        # hashes give, or a hashed-once probe would miss stored bits.
        assert probe_hashes(key) == (
            hash_key(key, seed=_PROBE_SEED_1),
            hash_key(key, seed=_PROBE_SEED_2) | 1,
        )
        bloom = BloomFilter.of([key, 1, "x"])
        assert bloom.contains_hashes(*probe_hashes(key))

    @given(st.sets(st.integers(), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_never_false_negative_property(self, keys):
        bloom = BloomFilter.of(keys)
        assert all(key in bloom for key in keys)


class TestNumpyArrays:
    """An int64 / uint64 array is hashed as the plain ints it holds (a
    numpy scalar would hash by its repr and miss every plain-int probe)."""

    @pytest.mark.parametrize("dtype", (numpy.int64, numpy.uint64, numpy.int32))
    def test_no_false_negatives_for_plain_int_probes(self, dtype):
        array = numpy.arange(100, dtype=dtype)
        bloom = BloomFilter.of(array)
        assert all(int(key) in bloom for key in array)

    @pytest.mark.parametrize("dtype", (numpy.int64, numpy.uint64, numpy.int32))
    def test_bits_equal_the_plain_int_list(self, dtype):
        array = numpy.arange(-50 if dtype != numpy.uint64 else 0, 400, 3).astype(dtype)
        from_array = BloomFilter.of(array)
        from_list = BloomFilter.of(array.tolist())
        assert len(from_array) == len(from_list) == array.size
        assert from_array._bits == from_list._bits
        grown = BloomFilter(array.size)
        grown.add_all(array)
        assert grown._bits == from_list._bits


class TestContainsBatch:
    def test_matches_scalar_membership(self):
        bloom = BloomFilter.of(range(0, 1000, 3), fp_rate=0.05)
        queries = list(range(-50, 1200, 7))
        batch = bloom.contains_batch(queries)
        assert batch is not None
        assert batch.tolist() == [key in bloom for key in queries]
        # int64 arrays take the same path as plain-int lists.
        array = bloom.contains_batch(numpy.asarray(queries, dtype=numpy.int64))
        assert array.tolist() == batch.tolist()

    def test_negative_and_large_keys(self):
        keys = [-(2**40), -1, 0, 2**62]
        bloom = BloomFilter.of(keys)
        batch = bloom.contains_batch(keys + [123456])
        assert batch is not None
        assert batch.tolist() == [True, True, True, True, 123456 in bloom]

    def test_non_int_keys_fall_back(self):
        bloom = BloomFilter.of(["a", "b"])
        assert bloom.contains_batch(["a", "b"]) is None

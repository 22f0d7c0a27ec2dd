"""Tests for the bloom filter."""

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.lsm import BloomFilter


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

    @given(st.sets(st.integers(), min_size=1, max_size=200))
    @settings(max_examples=25, deadline=None)
    def test_never_false_negative_property(self, keys):
        bloom = BloomFilter.of(keys)
        assert all(key in bloom for key in keys)


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

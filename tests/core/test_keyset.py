"""Tests for key-set helpers and the bitset encoder."""

from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.keyset import BitsetEncoder, freeze, freeze_all, union_all
from repro.errors import InvalidInstanceError


class TestFreeze:
    def test_freeze_list(self):
        assert freeze([1, 2, 2]) == frozenset({1, 2})

    def test_freeze_identity_for_frozenset(self):
        s = frozenset({1})
        assert freeze(s) is s

    def test_freeze_all(self):
        assert freeze_all([[1], [2, 2]]) == (frozenset({1}), frozenset({2}))


class TestUnionAll:
    def test_union_empty(self):
        assert union_all([]) == frozenset()

    def test_union_overlapping(self):
        assert union_all([{1, 2}, {2, 3}, {4}]) == frozenset({1, 2, 3, 4})


class TestBitsetEncoder:
    def test_roundtrip(self):
        enc = BitsetEncoder()
        s = frozenset({"a", "b", "c"})
        assert enc.decode(enc.encode(s)) == s

    def test_union_via_or(self):
        enc = BitsetEncoder([{1, 2}, {2, 3}])
        a = enc.encode({1, 2})
        b = enc.encode({2, 3})
        assert (a | b).bit_count() == 3
        assert enc.decode(a | b) == frozenset({1, 2, 3})

    def test_deterministic_positions(self):
        enc = BitsetEncoder([{5}, {7}])
        assert enc.key_at(0) == 5
        assert enc.key_at(1) == 7
        assert enc.universe_size == 2

    def test_encode_registers_new_keys(self):
        enc = BitsetEncoder()
        enc.encode({10})
        assert enc.universe_size == 1

    @given(st.lists(st.frozensets(st.integers(0, 30), min_size=1), min_size=1, max_size=6))
    def test_cardinality_matches_bit_count(self, sets):
        enc = BitsetEncoder(sets)
        for s in sets:
            assert enc.encode(s).bit_count() == len(s)

    @given(st.lists(st.frozensets(st.integers(0, 300)), max_size=8))
    def test_encode_in_order_matches_observing_all_first(self, sets):
        two_pass = BitsetEncoder(sets)
        expected = [two_pass.encode(s) for s in sets]
        one_pass = BitsetEncoder()
        assert [one_pass.encode(s) for s in sets] == expected
        assert one_pass.universe_size == two_pass.universe_size
        assert [one_pass.key_at(i) for i in range(one_pass.universe_size)] == [
            two_pass.key_at(i) for i in range(two_pass.universe_size)
        ]

    @given(
        st.frozensets(st.integers(0, 30)),
        st.frozensets(st.integers(0, 30)),
    )
    def test_set_algebra_is_preserved(self, a, b):
        enc = BitsetEncoder()
        ea, eb = enc.encode(a), enc.encode(b)
        assert enc.decode(ea | eb) == a | b
        assert enc.decode(ea & eb) == a & b
        assert (ea & eb).bit_count() == len(a & b)


class TestBitsetEncoderEdgeCases:
    def test_empty_set_round_trip(self):
        enc = BitsetEncoder()
        assert enc.encode(frozenset()) == 0
        assert enc.decode(0) == frozenset()
        assert enc.universe_size == 0

    def test_empty_set_round_trip_with_populated_encoder(self):
        enc = BitsetEncoder([{1, 2, 3}])
        assert enc.encode(frozenset()) == 0
        assert enc.decode(0) == frozenset()

    @pytest.mark.parametrize("position", [-1, -5, 2, 100])
    def test_key_at_out_of_range(self, position):
        enc = BitsetEncoder([{10}, {20}])  # universe {10, 20} -> bits 0, 1
        with pytest.raises(IndexError, match="out of range"):
            enc.key_at(position)

    def test_key_at_empty_encoder(self):
        with pytest.raises(IndexError):
            BitsetEncoder().key_at(0)

    def test_re_observation_keeps_bit_assignment(self):
        enc = BitsetEncoder([{1, 2}, {2, 3}])
        before = [enc.key_at(i) for i in range(enc.universe_size)]
        first = enc.encode({1, 2, 3})
        # Re-observing already-seen keys (in any order, any number of
        # times) must neither grow the universe nor move any bit.
        for _ in range(3):
            enc.observe([3, 2, 1])
            enc.observe({2})
        assert enc.universe_size == len(before)
        assert [enc.key_at(i) for i in range(enc.universe_size)] == before
        assert enc.encode({1, 2, 3}) == first

    def test_new_keys_extend_without_moving_old_bits(self):
        enc = BitsetEncoder([{"a"}])
        old = enc.encode({"a"})
        enc.observe(["b"])
        assert enc.encode({"a"}) == old
        assert enc.universe_size == 2



INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def overlapping_columns(draw):
    """1..12 strictly ascending int64 columns drawn from one small pool of
    keys (so they overlap), with the int64 extremes and negative keys
    in reach and, sometimes, a table repeated verbatim."""
    edges = st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX])
    keys = st.one_of(edges, st.integers(-50, 50), st.integers(INT64_MIN, INT64_MAX))
    pool = draw(st.lists(keys, min_size=1, max_size=40, unique=True))
    column = st.lists(st.sampled_from(pool), min_size=1, unique=True).map(sorted)
    columns = draw(st.lists(column, min_size=1, max_size=11))
    if draw(st.booleans()):
        columns.append(columns[draw(st.integers(0, len(columns) - 1))])
    return [np.array(keys, dtype=np.int64) for keys in columns]


class TestOnePassBuild:
    """``BitsetEncoder.from_columns`` against its oracle, the per-key walk."""

    @given(overlapping_columns())
    def test_matches_the_per_key_walk(self, columns):
        batch, handles = BitsetEncoder.from_columns(columns)
        oracle = BitsetEncoder()
        expected = [oracle.encode(frozenset(column.tolist())) for column in columns]
        size = batch.universe_size
        assert size == oracle.universe_size
        assert [h.bit_count() for h in handles] == [h.bit_count() for h in expected]
        for i, j in combinations_with_replacement(range(len(columns)), 2):
            union, meet = handles[i] | handles[j], handles[i] & handles[j]
            assert union.bit_count() == (expected[i] | expected[j]).bit_count()
            assert meet.bit_count() == (expected[i] & expected[j]).bit_count()
        # The first per-key call builds the lazy dict: a new key takes the
        # next free position, and every old key keeps its sorted rank.
        assert batch.encode({"fresh"}) == 1 << size
        assert batch.key_at(size) == "fresh"
        universe = sorted(set().union(*(column.tolist() for column in columns)))
        assert [batch.key_at(i) for i in range(size)] == universe
        for handle, column in zip(handles, columns):
            assert batch.decode(handle) == set(column.tolist())

    @pytest.mark.parametrize(
        "columns", [[], [[1, 2], []], [[], [1, 2]], [[1, 3], [2, 2]], [[3, 1]]]
    )
    def test_rejects_missing_empty_or_unsorted_columns(self, columns):
        with pytest.raises(InvalidInstanceError):
            BitsetEncoder.from_columns([np.array(c, dtype=np.int64) for c in columns])

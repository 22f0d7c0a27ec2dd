"""Tests for MergeInstance validation and derived quantities."""

import numpy as np
import pytest

from repro.core import MergeInstance
from repro.errors import InvalidInstanceError
from tests.helpers import worked_example


class TestConstruction:
    def test_from_iterables_freezes(self):
        inst = MergeInstance.from_iterables([[1, 2], [2, 3]])
        assert inst.sets == (frozenset({1, 2}), frozenset({2, 3}))

    def test_rejects_empty_collection(self):
        with pytest.raises(InvalidInstanceError):
            MergeInstance(())

    def test_rejects_empty_set(self):
        with pytest.raises(InvalidInstanceError):
            MergeInstance.from_iterables([{1}, set()])

    def test_rejects_unfrozen_sets(self):
        with pytest.raises(InvalidInstanceError):
            MergeInstance(({1, 2},))  # type: ignore[arg-type]

    def test_single_set_is_valid(self):
        inst = MergeInstance.from_iterables([{1, 2, 3}])
        assert inst.n == 1


class TestDerivedQuantities:
    def test_worked_example_summary(self):
        inst = worked_example()
        assert inst.n == 5
        assert inst.ground_size == 9
        assert inst.total_input_size == 17
        assert inst.max_frequency == 3  # element 3 appears in A1, A2, A3
        assert not inst.is_disjoint

    def test_element_frequencies(self):
        inst = MergeInstance.from_iterables([{1, 2}, {2, 3}, {2}])
        assert inst.element_frequencies == {1: 1, 2: 3, 3: 1}

    def test_disjoint_detection(self):
        assert MergeInstance.from_iterables([{1}, {2}, {3}]).is_disjoint
        assert not MergeInstance.from_iterables([{1}, {1, 2}]).is_disjoint

    def test_sizes_order(self):
        inst = worked_example()
        assert inst.sizes() == (4, 4, 3, 3, 3)

    def test_iteration_and_indexing(self):
        inst = worked_example()
        assert len(inst) == 5
        assert list(inst)[2] == frozenset({3, 4, 5})
        assert inst[0] == frozenset({1, 2, 3, 5})

    def test_describe_mentions_key_stats(self):
        text = worked_example().describe()
        assert "n=5" in text and "LOPT=17" in text and "f=3" in text


def _columns(*keys):
    return [np.array(sorted(k), dtype=np.int64) for k in keys]


class TestColumnInstances:
    """``MergeInstance.from_columns``: an instance over sorted key columns."""

    def test_sizes_read_the_columns_not_the_sets(self):
        inst = MergeInstance.from_columns(_columns({1, 2, 3}, {3, 4}, {5}))
        assert (inst.n, len(inst), inst.sizes()) == (3, 3, (3, 2, 1))
        assert inst.total_input_size == 6
        inst.bitset_encoding
        assert "sets" not in inst.__dict__
        assert inst.sets == (frozenset({1, 2, 3}), frozenset({3, 4}), frozenset({5}))
        assert inst.ground_size == 5 and inst.max_frequency == 2

    def test_int_sets_and_columns_share_one_encoding(self):
        sets = ({-7, 2, 9}, {2, 3}, {2**62})
        from_sets = MergeInstance.from_iterables(sets).bitset_encoding
        from_columns = MergeInstance.from_columns(_columns(*sets)).bitset_encoding
        assert from_sets[1] == from_columns[1]
        assert from_sets[0].key_at(0) == -7  # sorted rank, not first-seen

    @pytest.mark.parametrize(
        "sets", [({"a", "b"}, {"b"}), ({True, 2}, {3}), ({2**64}, {1})]
    )
    def test_keys_numpy_cannot_represent_take_the_per_key_walk(self, sets):
        encoder, handles = MergeInstance.from_iterables(sets).bitset_encoding
        decoded = [encoder.decode(handle) for handle in handles]
        # repr tells True from 1: an int64 column would have lost the bool
        assert [sorted(map(repr, keys)) for keys in decoded] == [
            sorted(map(repr, keys)) for keys in sets
        ]

    @pytest.mark.parametrize(
        "columns", [[], [[1], []], [[2, 1]], [[1, 1]], [[5], [1, 3, 2]]]
    )
    def test_rejects_missing_empty_or_unsorted_columns(self, columns):
        with pytest.raises(InvalidInstanceError):
            MergeInstance.from_columns([np.array(c, dtype=np.int64) for c in columns])

"""Unit tests for the pluggable set-backend layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import MergeInstance
from repro.core.backend import (
    BitsetBackend,
    FrozensetBackend,
    SetBackend,
    available_backends,
    canonical_backend_name,
    make_backend,
)
from repro.errors import BackendError


class TestRegistry:
    def test_available_backends(self):
        assert available_backends() == ("bitset", "frozenset")

    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("frozenset", "frozenset"),
            ("FS", "frozenset"),
            ("set", "frozenset"),
            ("bitset", "bitset"),
            ("Bits", "bitset"),
            ("int", "bitset"),
        ],
    )
    def test_aliases(self, alias, expected):
        assert canonical_backend_name(alias) == expected

    def test_unknown_name_raises(self):
        with pytest.raises(BackendError, match="unknown set backend"):
            canonical_backend_name("roaring")

    def test_make_backend_default_is_frozenset(self):
        assert isinstance(make_backend(), FrozensetBackend)
        assert isinstance(make_backend(None), FrozensetBackend)

    def test_make_backend_passthrough(self):
        backend = BitsetBackend()
        assert make_backend(backend) is backend

    def test_make_backend_rejects_other_types(self):
        with pytest.raises(BackendError, match="backend spec"):
            make_backend(42)

    def test_simulator_strategies_run_the_bitset_backend(self):
        """The set backend is the simulator's, not the spec's: every
        major compaction ``build_strategy`` makes runs the bitset kernel."""
        from repro.simulator import PAPER_STRATEGIES, SimulationConfig, build_strategy

        config = SimulationConfig()
        for label in PAPER_STRATEGIES:
            assert build_strategy(label, config).backend == "bitset", label


@pytest.fixture(params=["frozenset", "bitset"])
def backend(request) -> SetBackend:
    return make_backend(request.param)


INSTANCE = MergeInstance.from_iterables([{1, 2, 3}, {3, 4}, {5}])


class TestKernelContract:
    """Both kernels implement the same algebra over their handles."""

    def test_encode_instance_order_and_sizes(self, backend):
        handles = backend.encode_instance(INSTANCE)
        assert len(handles) == 3
        assert [backend.size(h) for h in handles] == [3, 2, 1]
        assert [backend.decode(h) for h in handles] == list(INSTANCE.sets)

    def test_union_and_union_size(self, backend):
        a, b, c = backend.encode_instance(INSTANCE)
        union = backend.union((a, b, c))
        assert backend.size(union) == 5
        assert backend.union_size((a, b, c)) == 5
        assert backend.decode(union) == INSTANCE.ground_set

    def test_intersection_size(self, backend):
        a, b, c = backend.encode_instance(INSTANCE)
        assert backend.intersection_size(a, b) == 1
        assert backend.intersection_size(a, c) == 0
        assert backend.intersection_size(a, a) == 3

    def test_encode_arbitrary_keys(self, backend):
        backend.encode_instance(INSTANCE)
        handle = backend.encode({2, 3, 99})
        assert backend.size(handle) == 3
        assert backend.decode(handle) == frozenset({2, 3, 99})

    @given(
        sets=st.lists(
            st.frozensets(st.integers(0, 40), min_size=1), min_size=1, max_size=6
        )
    )
    def test_algebra_matches_frozensets(self, sets):
        for name in ("frozenset", "bitset"):
            kernel = make_backend(name)
            handles = kernel.encode_instance(
                MergeInstance.from_iterables(sets)
            )
            expected_union = frozenset().union(*sets)
            assert kernel.decode(kernel.union(handles)) == expected_union
            assert kernel.union_size(handles) == len(expected_union)
            for i, a in enumerate(sets):
                for j, b in enumerate(sets):
                    assert kernel.intersection_size(
                        handles[i], handles[j]
                    ) == len(a & b)


class TestBitsetSpecifics:
    def test_shares_cached_instance_encoding(self):
        first, second = BitsetBackend(), BitsetBackend()
        assert first.encode_instance(INSTANCE) == second.encode_instance(INSTANCE)
        assert first.encoder is second.encoder  # the instance-level cache

    def test_frozenset_decode_is_identity(self):
        backend = FrozensetBackend()
        (a, *_rest) = backend.encode_instance(INSTANCE)
        assert backend.decode(a) is a

    def test_union_of_nothing_is_empty(self):
        assert BitsetBackend().union(()) == 0
        assert FrozensetBackend().union(()) == frozenset()

"""The shared candidate index and the policies standing on it.

Three layers of evidence that moving SO, BT(O) and LM onto one
:class:`~repro.core.policies.CandidateIndex` changed no schedule:

* unit tests of the index contract itself;
* a differential oracle: brute-force reference choosers — a full scan
  for the minimum ``(score, combo)`` over the live combinations on every
  call, no cache, no heap — must yield the identical ``MergeSchedule``
  under hypothesis-generated instances, both fan-ins, both set backends
  and both estimators;
* work counts (no timing): BT(O) estimates each level's combinations
  exactly once and the index handles each entry at most twice, so the
  work per merge grows linearly with ``n``; the heap holds one head per
  sorted run, never one entry per candidate.
"""

from __future__ import annotations

import heapq
from collections import Counter
from itertools import combinations
from math import comb, log2
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GreedyMerger, merge_with
from repro.core.estimator import make_estimator
from repro.core.policies import BalanceTreePolicy, CandidateIndex, make_policy
from repro.core.policies import candidate_index
from repro.core.policies.base import ChoosePolicy, GreedyState
from repro.errors import PolicyError
from tests.helpers import instances, random_instance

BACKENDS = ("frozenset", "bitset")
ESTIMATORS = ("exact", "hll")


# ----------------------------------------------------------------------
# The index contract
# ----------------------------------------------------------------------
def _batch(index: CandidateIndex, entries: list[tuple[float, tuple]]) -> None:
    """Add ``(score, pair)`` entries as one (n, 2) array batch."""
    index.add_batch(
        np.array([pair for _, pair in entries], dtype=np.intp).reshape(-1, 2),
        np.array([score for score, _ in entries], dtype=np.float64),
    )


class TestCandidateIndex:
    def test_best_is_smallest_score(self):
        index = CandidateIndex()
        _batch(index, [(5.0, (0, 1)), (3.0, (0, 2)), (4.0, (1, 2))])
        assert index.best() == (0, 2)

    def test_ties_break_toward_earliest_created_combo(self):
        index = CandidateIndex()
        _batch(index, [(7.0, (1, 2)), (7.0, (0, 3)), (7.0, (0, 2))])
        assert index.best() == (0, 2)
        index.retire(2)
        assert index.best() == (0, 3)

    def test_ties_break_across_runs(self):
        index = CandidateIndex()
        _batch(index, [(7.0, (1, 2)), (8.0, (0, 1))])
        _batch(index, [(7.0, (0, 3)), (7.0, (2, 3))])
        assert index.best() == (0, 3)
        index.retire(0)
        assert index.best() == (1, 2)

    def test_best_does_not_consume(self):
        index = CandidateIndex()
        _batch(index, [(1.0, (0, 1))])
        assert index.best() == index.best() == (0, 1)
        assert index.pops == 0

    def test_best_returns_plain_int_tuples(self):
        index = CandidateIndex()
        index.add_batch(np.array([[0, 1, 2]]), np.array([1.0]))
        assert all(type(table_id) is int for table_id in index.best())

    def test_empty_index_raises(self):
        with pytest.raises(PolicyError):
            CandidateIndex().best()

    def test_exhausted_index_raises(self):
        index = CandidateIndex()
        _batch(index, [(1.0, (0, 1)), (2.0, (1, 2))])
        index.retire(1)
        with pytest.raises(PolicyError):
            index.best()
        assert (index.pushes, index.pops) == (2, 2)

    def test_retire_is_idempotent(self):
        index = CandidateIndex()
        _batch(index, [(1.0, (0, 1)), (2.0, (2, 3))])
        index.retire(0)
        index.retire(0)
        index.retire(99)  # never indexed
        assert index.best() == (2, 3)
        assert index.pops == 1

    def test_later_batches_join_the_order(self):
        index = CandidateIndex()
        _batch(index, [(5.0, (0, 1)), (6.0, (0, 2)), (7.0, (1, 2))])
        index.retire(0)
        _batch(index, [(6.5, (1, 3)), (9.0, (2, 3))])
        assert index.best() == (1, 3)
        assert index.pushes == 5

    def test_a_long_stale_prefix_is_skipped(self):
        """More stale entries than one scan window: the cursor keeps going."""
        index = CandidateIndex()
        _batch(index, [(float(i), (0, i)) for i in range(1, 200)] + [(500.0, (1, 2))])
        index.retire(0)
        assert index.best() == (1, 2)
        assert index.pops == 199

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 7), st.integers(0, 7)),
            min_size=1,
            max_size=40,
        ),
        st.lists(st.integers(0, 7), max_size=8),
        st.integers(1, 4),
    )
    def test_stale_entries_never_surface(self, scored, retire_order, runs):
        entries = [(float(s), (a, b)) for s, a, b in scored if a < b]
        index = CandidateIndex()
        for run in range(runs):  # the same entries, split into sorted runs
            _batch(index, entries[run::runs])
        dead: set[int] = set()
        for table_id in retire_order:
            index.retire(table_id)
            dead.add(table_id)
            live = [e for e in entries if dead.isdisjoint(e[1])]
            if live:
                assert index.best() == min(live)[1]
            else:
                with pytest.raises(PolicyError):
                    index.best()
        assert index.pops <= index.pushes == len(entries)


# ----------------------------------------------------------------------
# Brute-force reference choosers (the pre-index semantics)
# ----------------------------------------------------------------------
class _ScanSmallestOutput(ChoosePolicy):
    """SO by full scan: re-estimate every live combination per call."""

    name = "scan_smallest_output"

    def __init__(self, estimator: str) -> None:
        self._estimator = make_estimator(estimator)

    def prepare(self, state: GreedyState) -> None:
        self._estimator.prepare(state)

    def _candidates(self, state: GreedyState) -> tuple[list[int], int]:
        return sorted(state.live), state.arity_for_next_merge()

    def choose(self, state: GreedyState) -> tuple[int, ...]:
        candidates, arity = self._candidates(state)
        estimate = self._estimator.union_cardinality
        return min(
            (estimate(state, combo), combo)
            for combo in combinations(candidates, arity)
        )[1]

    def observe_merge(self, state, consumed, new_id) -> None:
        self._estimator.observe_merge(state, consumed, new_id)


class _ScanBalanceTreeOutput(_ScanSmallestOutput):
    """BT(O) by full scan over the minimum level's combinations."""

    name = "scan_balance_tree_output"

    def prepare(self, state: GreedyState) -> None:
        super().prepare(state)
        self._levels = dict.fromkeys(state.live, 1)
        self.step_levels: list[int] = []

    def _candidates(self, state: GreedyState) -> tuple[list[int], int]:
        levels = self._levels
        while True:
            self._level = min(levels.values())
            at_level = sorted(t for t, lvl in levels.items() if lvl == self._level)
            if len(at_level) >= 2:
                return at_level, min(state.arity_for_next_merge(), len(at_level))
            levels[at_level[0]] += 1  # promote the lone straggler (§4.3.1)

    def observe_merge(self, state, consumed, new_id) -> None:
        super().observe_merge(state, consumed, new_id)
        for table_id in consumed:
            del self._levels[table_id]
        self._levels[new_id] = self._level + 1
        self.step_levels.append(self._level)


class _ScanLargestMatch(ChoosePolicy):
    """LM by full scan over live pairs, then the greedy k-way extension."""

    name = "scan_largest_match"

    def choose(self, state: GreedyState) -> tuple[int, ...]:
        live = state.live
        backend = state.backend
        intersect = backend.intersection_size
        chosen = list(
            min(
                (-intersect(live[a], live[b]), (a, b))
                for a, b in combinations(sorted(live), 2)
            )[1]
        )
        while len(chosen) < state.arity_for_next_merge():
            union = backend.union(live[table_id] for table_id in chosen)
            chosen.append(
                min(
                    (-intersect(union, live[table_id]), table_id)
                    for table_id in live
                    if table_id not in chosen
                )[1]
            )
        return tuple(chosen)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("k", (2, 3))
class TestDifferentialOracle:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @settings(max_examples=25, deadline=None)
    @given(inst=instances(min_sets=2, max_sets=8, universe=12))
    def test_smallest_output(self, inst, k, backend, estimator):
        indexed = merge_with("SO", inst, k=k, backend=backend, estimator=estimator)
        scanned = merge_with(_ScanSmallestOutput(estimator), inst, k=k, backend=backend)
        assert indexed.schedule == scanned.schedule

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @settings(max_examples=25, deadline=None)
    @given(inst=instances(min_sets=2, max_sets=8, universe=12))
    def test_balance_tree_output(self, inst, k, backend, estimator):
        indexed = merge_with("BT(O)", inst, k=k, backend=backend, estimator=estimator)
        reference = _ScanBalanceTreeOutput(estimator)
        scanned = merge_with(reference, inst, k=k, backend=backend)
        assert indexed.schedule == scanned.schedule
        assert indexed.extras["step_levels"] == tuple(reference.step_levels)

    @settings(max_examples=25, deadline=None)
    @given(inst=instances(min_sets=2, max_sets=8, universe=12))
    def test_largest_match(self, inst, k, backend):
        indexed = merge_with("LM", inst, k=k, backend=backend)
        scanned = merge_with(_ScanLargestMatch(), inst, k=k, backend=backend)
        assert indexed.schedule == scanned.schedule


# ----------------------------------------------------------------------
# Work counts
# ----------------------------------------------------------------------
def _level_sizes(n: int) -> list[int]:
    """Table counts BALANCETREE sees per level for ``k = 2``."""
    sizes = []
    while n > 1:
        sizes.append(n)
        n = (n + 1) // 2  # floor(n/2) outputs + the promoted straggler
    return sizes


def _bto_work(n: int, estimator: str = "exact") -> tuple[BalanceTreePolicy, int]:
    policy = make_policy("BT(O)", estimator=estimator)
    result = GreedyMerger(policy, backend="bitset").run(
        random_instance(n, universe=4 * n, seed=n, max_size=24)
    )
    return policy, result.schedule.n_steps


class TestWorkCounts:
    @pytest.mark.parametrize("n", (5, 64, 100, 256))
    def test_bto_estimates_each_level_once(self, n):
        expected = sum(comb(size, 2) for size in _level_sizes(n))
        for estimator in ESTIMATORS:
            policy, _ = _bto_work(n, estimator)
            assert policy.estimate_calls == expected, estimator
            assert policy.extras()["estimate_calls"] == expected, estimator
            assert policy.index.pushes == expected, estimator
            assert policy.index.pops <= policy.index.pushes, estimator

    def test_bto_work_per_merge_grows_linearly(self):
        small, small_steps = _bto_work(64)
        large, large_steps = _bto_work(256)

        def per_merge(policy, steps):
            return (policy.index.pushes + policy.index.pops) / steps

        # 4x the tables: ~4x the index work per merge.  A per-merge
        # rescan or rebuild of the level's combinations would be ~16x.
        growth = per_merge(large, large_steps) / per_merge(small, small_steps)
        assert 3.0 < growth < 6.0

    @pytest.mark.parametrize("name", ("SO", "LM"))
    def test_so_and_lm_push_each_candidate_once(self, name):
        n = 40
        # LM consults no estimator; SO is counted under both.
        for estimator in ESTIMATORS if name == "SO" else (None,):
            policy = make_policy(name, estimator=estimator)
            GreedyMerger(policy, backend="bitset").run(
                random_instance(n, universe=4 * n, seed=3, max_size=24)
            )
            # C(n, 2) initial pairs, then one pair per survivor after each
            # merge: (n - 2) + (n - 3) + ... + 1 + 0.
            assert policy.index.pushes == comb(n, 2) + comb(n - 1, 2), estimator
            assert policy.index.pops <= policy.index.pushes, estimator

    @pytest.mark.parametrize("name", ("SO", "BT(O)", "LM"))
    def test_heap_holds_run_heads_not_candidates(self, name, monkeypatch):
        """Heap operations stay within (merges + batches) * log2(batches):
        one heap entry per sorted run.  One entry per candidate would
        cost a push or pop per candidate, an order of magnitude more."""
        calls = Counter()

        def counted(function):
            def wrapper(*args, **kwargs):
                calls[function.__name__] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            candidate_index,
            "heapq",
            SimpleNamespace(
                **{name: counted(getattr(heapq, name)) for name in heapq.__all__}
            ),
        )
        n = 128
        policy = make_policy(name)
        result = GreedyMerger(policy, backend="bitset").run(
            random_instance(n, universe=4 * n, seed=3, max_size=24)
        )
        merges, batches = result.schedule.n_steps, len(policy.index._runs)
        assert sum(calls.values()) <= (merges + batches) * log2(batches), calls
        assert policy.index.pushes > 10 * (merges + batches)

    def test_bto_reports_the_overhead_keys_so_reports(self):
        inst = random_instance(9, universe=30, seed=1)
        so = merge_with("SO", inst, estimator="hll").extras
        bto = merge_with("BT(O)", inst).extras
        assert {"estimate_calls", "estimator"} <= so.keys() & bto.keys()
        assert bto["estimator"] == "hll"
        assert "estimate_calls" not in merge_with("BT(I)", inst).extras

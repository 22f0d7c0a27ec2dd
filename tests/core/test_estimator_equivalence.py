"""Differential harness for the pluggable cardinality-estimator layer.

Two contracts make the estimator layer safe to stand on:

* ``exact`` is *behavior-preserving*: SO and BT(O) with the exact
  estimator must produce bit-identical schedules to a reference policy
  that materializes candidate unions with plain frozensets — the
  semantics the policies had before the layer existed — on either set
  backend.
* the HLL kernels are *backing-independent*: the numpy register path
  (batch hashing, scatter-max updates, fused union stats) and the pure
  ``bytearray`` fallback must report **identical** floats for every
  estimate, and therefore identical schedules, tie-breaks and costs.

Plus the lifecycle contract: estimators seeded with pre-built sketches
(the lsm layer's persistence path) choose exactly like estimators that
hash every key themselves.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from repro.core import MergeInstance, merge_with
from repro.core.estimator import (
    ExactEstimator,
    HllEstimator,
    available_estimators,
    canonical_estimator_name,
    make_estimator,
)
from repro.core.policies.base import ChoosePolicy, GreedyState
from repro.errors import EstimatorError, PolicyError
from repro.hll import HyperLogLog
from tests.helpers import random_instance, worked_example

FAN_INS = (2, 3)
SEEDS = (0, 1, 2)


class ReferenceSmallestOutput(ChoosePolicy):
    """SO exactly as specified on paper: materialize every union.

    Deliberately naive — frozenset unions, full min-scan, (size, combo)
    tie-break — to pin the semantics the estimator layer must preserve.
    """

    name = "reference_smallest_output"

    def choose(self, state: GreedyState) -> tuple[int, ...]:
        arity = state.arity_for_next_merge()
        best = None
        for combo in combinations(sorted(state.live), arity):
            union: set = set()
            for table_id in combo:
                union |= state.keys(table_id)
            key = (len(union), combo)
            if best is None or key < best:
                best = key
        return best[1]


class TestRegistry:
    def test_available(self):
        assert available_estimators() == ("exact", "hll")

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("exact", "exact"),
            ("HLL", "hll"),
            ("hyperloglog", "hll"),
            ("sketch", "hll"),
            ("reference", "exact"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert canonical_estimator_name(alias) == canonical

    def test_unknown_name(self):
        with pytest.raises(EstimatorError, match="unknown estimator"):
            canonical_estimator_name("psychic")

    def test_make_estimator_defaults_to_exact(self):
        assert isinstance(make_estimator(None), ExactEstimator)

    def test_make_estimator_passthrough(self):
        estimator = HllEstimator(precision=10, seed=3)
        assert make_estimator(estimator) is estimator

    def test_make_estimator_kwargs(self):
        estimator = make_estimator("hll", hll_precision=8, hll_seed=5)
        assert (estimator.precision, estimator.seed) == (8, 5)

    def test_bad_spec_type(self):
        with pytest.raises(EstimatorError):
            make_estimator(3.14)

    def test_policy_wraps_estimator_errors(self):
        with pytest.raises(PolicyError):
            merge_with("SO", worked_example(), estimator="exactly-wrong")

    def test_seed_sketches_rejects_mismatch(self):
        estimator = HllEstimator(precision=12, seed=0)
        with pytest.raises(EstimatorError, match="seeded sketch"):
            estimator.seed_sketches({0: HyperLogLog(precision=10)})


class TestExactPreservesReference:
    """SO(exact) == the naive materializing policy, on both backends."""

    @pytest.mark.parametrize("k", FAN_INS)
    @pytest.mark.parametrize("backend", [None, "bitset"])
    def test_schedule_identity(self, k, backend):
        for seed in SEEDS:
            instance = random_instance(
                n=10, universe=45, seed=500 * k + seed, max_size=22
            )
            reference = merge_with(ReferenceSmallestOutput(), instance, k=k)
            layered = merge_with(
                "smallest_output", instance, k=k, estimator="exact", backend=backend
            )
            assert reference.schedule == layered.schedule, (k, seed, backend)

    def test_worked_example_cost_still_40(self):
        result = merge_with("SO", worked_example(), estimator="exact")
        assert result.replay(worked_example()).simplified_cost == 40


class TestNumpyPureIdentity:
    """force_pure flips the register backing, never an estimate."""

    @pytest.mark.parametrize("policy", ["smallest_output_hll", "BT(O)"])
    @pytest.mark.parametrize("k", FAN_INS)
    def test_schedules_identical(self, policy, k):
        for seed in SEEDS:
            instance = random_instance(
                n=11, universe=60, seed=900 * k + seed, max_size=30
            )
            fast = merge_with(policy, instance, k=k)
            pure = merge_with(
                policy, instance, k=k, estimator=HllEstimator(force_pure=True)
            )
            assert fast.schedule == pure.schedule, (policy, k, seed)
            assert (
                fast.replay(instance).simplified_cost
                == pure.replay(instance).simplified_cost
            )

    def test_estimates_identical_not_just_close(self):
        instance = random_instance(n=8, universe=400, seed=7, max_size=200)
        fast = HllEstimator(precision=10)
        pure = HllEstimator(precision=10, force_pure=True)
        sets = instance.sets
        fast.seed_sketches(
            {i: HyperLogLog.of(s, precision=10) for i, s in enumerate(sets)}
        )
        pure.seed_sketches(
            {i: HyperLogLog.of(s, precision=10, force_pure=True) for i, s in enumerate(sets)}
        )
        for combo in combinations(range(len(sets)), 2):
            a = fast.union_cardinality(None, combo)
            b = pure.union_cardinality(None, combo)
            assert a == b, combo  # bit-identical, no approx

    def test_mixed_backings_estimate_identically(self):
        """A numpy-backed and a pure-backed sketch union consistently."""
        left = HyperLogLog.of(range(500), precision=10)
        right = HyperLogLog.of(range(300, 900), precision=10, force_pure=True)
        both_pure = HyperLogLog.of(range(500), precision=10, force_pure=True)
        assert left.union_cardinality(right) == both_pure.union_cardinality(right)


class TestSketchSeeding:
    """Pre-seeded sketches must not change a single choice."""

    @pytest.mark.parametrize("k", FAN_INS)
    def test_seeded_equals_self_built(self, k):
        instance = random_instance(n=9, universe=40, seed=13, max_size=20)
        built = merge_with("smallest_output_hll", instance, k=k)
        seeded_estimator = HllEstimator()
        seeded_estimator.seed_sketches(
            {index: HyperLogLog.of(keys) for index, keys in enumerate(instance.sets)}
        )
        seeded = merge_with(
            "smallest_output", instance, k=k, estimator=seeded_estimator
        )
        assert built.schedule == seeded.schedule
        assert seeded_estimator.sketches_built == 0  # nothing re-hashed

    def test_fully_seeded_estimator_still_batches(self):
        """The persistent-sketch path must build the term matrix too."""
        instance = random_instance(n=7, universe=35, seed=21)
        estimator = HllEstimator()
        estimator.seed_sketches(
            {index: HyperLogLog.of(keys) for index, keys in enumerate(instance.sets)}
        )
        merge_with("smallest_output", instance, estimator=estimator)
        assert estimator._matrix is not None

    def test_partial_seeding_builds_only_missing(self):
        instance = random_instance(n=6, universe=30, seed=3)
        estimator = HllEstimator()
        estimator.seed_sketches({0: HyperLogLog.of(instance.sets[0])})
        reference = merge_with("smallest_output_hll", instance)
        seeded = merge_with("smallest_output", instance, estimator=estimator)
        assert reference.schedule == seeded.schedule

    def test_reused_merger_rebuilds_sketches(self):
        """A policy reused across instances must not alias stale sketches.

        The first run's merged ids overlap the second instance's input
        ids; leftovers surviving prepare() would silently corrupt the
        second schedule.
        """
        from repro.core import GreedyMerger

        small = random_instance(n=3, universe=2000, seed=1, min_size=500)
        big = random_instance(n=8, universe=60, seed=2, max_size=10)
        merger = GreedyMerger("smallest_output", estimator="hll")
        merger.run(small)  # leaves merged-table sketches behind
        reused = merger.run(big)
        fresh = merge_with("smallest_output", big, estimator="hll")
        assert reused.schedule == fresh.schedule

    def test_instance_cache_shared_across_runs(self):
        instance = random_instance(n=6, universe=30, seed=4)
        first = merge_with("smallest_output_hll", instance)
        sketches = instance.hll_sketches(12, 0)
        second_estimator = HllEstimator()
        second = merge_with("smallest_output", instance, estimator=second_estimator)
        assert first.schedule == second.schedule
        assert second_estimator.sketches_built == 0
        assert instance.hll_sketches(12, 0) is sketches


class TestEstimatorThreading:
    def test_estimator_requires_policy_name(self):
        with pytest.raises(PolicyError, match="policy name"):
            merge_with(
                ReferenceSmallestOutput(), worked_example(), estimator="exact"
            )

    def test_extras_report_canonical_name(self):
        result = merge_with("SO", worked_example(), estimator="hyperloglog")
        assert result.extras["estimator"] == "hll"
        assert result.extras["estimate_calls"] > 0

    def test_so_hll_alias_still_registered(self):
        result = merge_with("so_hll", worked_example())
        assert result.extras["estimator"] == "hll"

    def test_hll_matches_exact_on_worked_example(self):
        instance = worked_example()
        exact = merge_with("SO", instance, estimator="exact")
        hll = merge_with("SO", instance, estimator="hll")
        assert (
            exact.replay(instance).simplified_cost
            == hll.replay(instance).simplified_cost
            == 40
        )

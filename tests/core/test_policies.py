"""Per-policy behaviour tests for SI, SO, BT, LM and RANDOM."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import GreedyMerger, MergeInstance, merge_with
from repro.core.policies import (
    available_policies,
    canonical_policy_name,
    make_policy,
)
from repro.errors import PolicyError
from tests.helpers import instances, random_instance, worked_example


class TestRegistry:
    def test_available_policies(self):
        names = available_policies()
        for expected in (
            "smallest_input",
            "smallest_output",
            "smallest_output_hll",
            "balance_tree",
            "balance_tree_input",
            "balance_tree_output",
            "largest_match",
            "random",
        ):
            assert expected in names

    @pytest.mark.parametrize(
        ("alias", "canonical"),
        [
            ("SI", "smallest_input"),
            ("so", "smallest_output"),
            ("BT", "balance_tree"),
            ("BT(I)", "balance_tree_input"),
            ("bt(o)", "balance_tree_output"),
            ("LM", "largest_match"),
            ("RANDOM", "random"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert canonical_policy_name(alias) == canonical

    def test_unknown_policy(self):
        with pytest.raises(PolicyError, match="unknown policy"):
            canonical_policy_name("no_such_policy")

    def test_make_policy_kwargs(self):
        policy = make_policy("smallest_output", estimator="hll", hll_precision=10)
        assert policy.estimator.precision == 10

    def test_bad_estimator(self):
        with pytest.raises(PolicyError):
            make_policy("smallest_output", estimator="exactly-wrong")

    def test_bad_suborder(self):
        with pytest.raises(PolicyError):
            make_policy("balance_tree", suborder="up")


class TestSmallestInput:
    def test_always_picks_smallest_pair(self):
        inst = MergeInstance.from_iterables([{1, 2, 3}, {4}, {5}, {6, 7}])
        schedule = merge_with("SI", inst).schedule
        assert schedule.steps[0].inputs == (1, 2)  # the two singletons

    def test_tie_break_by_creation_order(self):
        inst = MergeInstance.from_iterables([{1}, {2}, {3}])
        schedule = merge_with("SI", inst).schedule
        assert schedule.steps[0].inputs == (0, 1)

    def test_kway_arity(self):
        inst = random_instance(n=7, universe=30, seed=1)
        schedule = merge_with("SI", inst, k=3).schedule
        assert schedule.max_arity() == 3
        # 7 tables with fan-in 3: merges of arity 3,3,3 leave (7-2-2-2)=1
        assert schedule.n_steps == 3

    def test_kway_padding_makes_full_merges_last(self):
        # n=6, k=3: deficiency (6-2) % 2 = 0 -> first merge has 2 tables
        inst = random_instance(n=6, universe=30, seed=2)
        schedule = merge_with("SI", inst, k=3, pad_first_merge=True).schedule
        assert schedule.steps[0].arity == 2
        assert all(step.arity == 3 for step in schedule.steps[1:])

    @given(instances())
    def test_first_merge_is_globally_smallest(self, inst):
        if inst.n < 2:
            return
        schedule = merge_with("SI", inst).schedule
        first = schedule.steps[0].inputs
        chosen = sorted(len(inst.sets[i]) for i in first)
        smallest = sorted(len(s) for s in inst.sets)[:2]
        assert chosen == smallest


class TestSmallestOutput:
    def test_exact_picks_smallest_union(self):
        inst = MergeInstance.from_iterables(
            [{1, 2, 3}, {1, 2, 3, 4}, {9, 10}, {11, 12}]
        )
        schedule = merge_with("SO", inst).schedule
        # {1,2,3} | {1,2,3,4} has size 4, the smallest possible union
        assert schedule.steps[0].inputs == (0, 1)

    def test_hll_agrees_with_exact_on_small_instances(self):
        inst = worked_example()
        exact = merge_with("SO", inst).replay(inst).simplified_cost
        hll = merge_with("smallest_output_hll", inst).replay(inst).simplified_cost
        assert exact == hll == 40

    def test_estimate_call_accounting(self):
        inst = worked_example()
        result = merge_with("SO", inst)
        # first iteration C(5,2)=10 estimates, then 3 + 2 + 1 new pairs
        assert result.extras["estimate_calls"] == 10 + 3 + 2 + 1

    def test_kway_smallest_output(self):
        inst = random_instance(n=6, universe=20, seed=3)
        schedule = merge_with("SO", inst, k=3).schedule
        assert schedule.max_arity() <= 3
        schedule.validate(max_inputs=3)

    @given(instances(max_sets=5))
    def test_first_union_is_minimal(self, inst):
        if inst.n < 2:
            return
        schedule = merge_with("SO", inst).schedule
        first = schedule.steps[0].inputs
        chosen_union = len(inst.sets[first[0]] | inst.sets[first[1]])
        best = min(
            len(inst.sets[i] | inst.sets[j])
            for i in range(inst.n)
            for j in range(i + 1, inst.n)
        )
        assert chosen_union == best


class TestBalanceTree:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 13, 16, 21])
    def test_tree_height_is_log_n(self, n):
        inst = random_instance(n=n, universe=50, seed=n)
        result = merge_with("BT(I)", inst)
        tree, _ = result.schedule.to_tree()
        assert tree.height == math.ceil(math.log2(n))

    def test_step_levels_monotone(self):
        inst = random_instance(n=9, universe=40, seed=7)
        result = merge_with("BT(I)", inst)
        levels = result.extras["step_levels"]
        assert list(levels) == sorted(levels)

    def test_suborder_input_picks_smallest_at_level(self):
        inst = MergeInstance.from_iterables([{1, 2, 3}, {4}, {5}, {6, 7}])
        schedule = merge_with("BT(I)", inst).schedule
        assert schedule.steps[0].inputs == (1, 2)

    def test_output_suborder_runs(self):
        inst = random_instance(n=10, universe=40, seed=9)
        for estimator in ("exact", "hll"):
            result = merge_with("balance_tree", inst, suborder="output", estimator=estimator)
            tree, _ = result.schedule.to_tree()
            assert tree.height == math.ceil(math.log2(10))

    def test_kway_balance_tree(self):
        inst = random_instance(n=9, universe=40, seed=11)
        result = merge_with("BT(I)", inst, k=3)
        result.schedule.validate(max_inputs=3)
        tree, _ = result.schedule.to_tree()
        assert tree.height <= math.ceil(math.log2(9))


class TestLargestMatch:
    def test_picks_largest_intersection(self):
        inst = MergeInstance.from_iterables(
            [{1, 2, 3, 4}, {1, 2, 3, 9}, {5, 6}, {6, 7}]
        )
        schedule = merge_with("LM", inst).schedule
        assert schedule.steps[0].inputs == (0, 1)

    def test_kway_extension(self):
        inst = random_instance(n=6, universe=15, seed=5)
        schedule = merge_with("LM", inst, k=3).schedule
        schedule.validate(max_inputs=3)

    def test_nested_chain_drags_largest_set(self):
        """§4.3.4: LM always includes the largest (superset) table."""
        from repro.core.adversarial import lm_gap_instance

        inst = lm_gap_instance(5)
        schedule = merge_with("LM", inst).schedule
        biggest = 4  # index of {1..16}
        current = biggest
        for step in schedule.steps:
            assert current in step.inputs
            current = step.output


class TestRandom:
    def test_reproducible_with_seed(self):
        inst = random_instance(n=8, universe=30, seed=13)
        first = merge_with("random", inst, seed=42).schedule
        second = merge_with("random", inst, seed=42).schedule
        assert first == second

    def test_different_seeds_differ(self):
        inst = random_instance(n=10, universe=30, seed=13)
        schedules = {merge_with("random", inst, seed=s).schedule for s in range(6)}
        assert len(schedules) > 1

    @given(instances(), st.integers(0, 2**16))
    def test_always_valid(self, inst, seed):
        if inst.n < 2:
            return
        schedule = merge_with("random", inst, seed=seed).schedule
        schedule.validate(max_inputs=2)


class TestGreedyFramework:
    def test_rejects_k_below_two(self):
        with pytest.raises(PolicyError):
            GreedyMerger("SI", k=1)

    def test_rejects_kwargs_with_instance_policy(self):
        policy = make_policy("SI")
        with pytest.raises(PolicyError):
            GreedyMerger(policy, pad_first_merge=True)

    def test_single_set_instance(self):
        inst = MergeInstance.from_iterables([{1, 2}])
        result = merge_with("SI", inst)
        assert result.schedule.n_steps == 0
        assert result.replay(inst).simplified_cost == 2

    def test_policy_seconds_nonnegative(self):
        inst = random_instance(n=20, universe=100, seed=17)
        result = merge_with("SO", inst)
        assert result.policy_seconds >= 0.0

    @given(instances(max_sets=6))
    def test_all_policies_produce_valid_schedules(self, inst):
        for policy in ("SI", "SO", "BT(I)", "BT(O)", "LM", "random"):
            result = merge_with(policy, inst, seed=1)
            result.schedule.validate(max_inputs=2)
            assert result.replay(inst).final_set == inst.ground_set

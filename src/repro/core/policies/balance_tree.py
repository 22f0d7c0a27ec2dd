"""BALANCETREE (BT) heuristic — paper §4.3.1 and §5.1.

Every table is annotated with a level number, initially 1.  Each
iteration merges tables whose level equals the current minimum level
``minL``; the merged output gets level ``minL + 1``.  If only one table
remains at ``minL`` its level is incremented and the search retries.
The resulting merge tree has height ``ceil(log2 n)``, giving the
``(ceil(log2 n) + 1)``-approximation of Lemma 4.1.

The paper leaves the order of merges *within* a level unspecified; §5.1
evaluates two sub-orders, both available here:

* ``suborder="input"`` — BT(I): take the smallest-cardinality tables at
  the level (the paper's best-overall strategy).
* ``suborder="output"`` — BT(O): take the combination with the smallest
  estimated union (HyperLogLog by default).  As §5.1 notes, the overhead
  is amortized: a level's ``C(size, arity)`` combinations are estimated
  once, on entering the level, into the
  :class:`~repro.core.policies.candidate_index.CandidateIndex` shared
  with SO and LM as one sorted run; merged outputs join the *next*
  level, so a level only shrinks, each merge retires its inputs in O(1)
  and ``choose`` skips only stale entries.  A run estimates
  ``sum_levels C(size_level, arity)`` combos — ``~2/3 n^2`` for
  ``k = 2``, against SO's ``~n^2``.
* ``suborder="arrival"`` — first-come pairing (the unconstrained variant
  of §4.3.1).

Because merges within one level touch disjoint tables, the executor can
run them concurrently — the reason BT(I) finishes fastest in Figure 7b.
The per-step levels are exposed via :meth:`extras` for schedulers.
"""

from __future__ import annotations

from typing import Optional

from ...errors import PolicyError
from ..estimator import CardinalityEstimator
from .base import ChoosePolicy, GreedyState, pick_smallest, register_policy
from .candidate_index import CandidateIndex, combination_array

_SUBORDERS = ("arrival", "input", "output")


@register_policy("balance_tree", "bt", estimator="hll")
@register_policy("balance_tree_input", "bt(i)", "bt_i", "bti", suborder="input")
@register_policy(
    "balance_tree_output", "bt(o)", "bt_o", "bto", estimator="hll", suborder="output"
)
class BalanceTreePolicy(ChoosePolicy):
    """Level-balanced merging with a configurable within-level sub-order."""

    name = "balance_tree"

    def __init__(
        self,
        suborder: str = "input",
        estimator: Optional[CardinalityEstimator] = None,
    ) -> None:
        if suborder not in _SUBORDERS:
            raise PolicyError(f"suborder must be one of {_SUBORDERS}, got {suborder!r}")
        self.suborder = suborder
        # Only the output sub-order consults (and reports) an estimator.
        if suborder == "output":
            if estimator is None:
                raise PolicyError("suborder='output' needs an estimator")
            self.estimator = estimator
        self._levels: dict[int, int] = {}
        self.index = CandidateIndex()
        # (level, arity) whose combinations the index currently holds
        self._indexed: Optional[tuple[int, int]] = None
        self.estimate_calls = 0  # exposed for overhead accounting/tests
        self._last_min_level = 1
        self._step_levels: list[int] = []

    # ------------------------------------------------------------------
    def prepare(self, state: GreedyState) -> None:
        self._levels = {table_id: 1 for table_id in state.live}
        self._step_levels = []
        self.index = CandidateIndex()
        self._indexed = None
        if self.suborder == "output":
            self.estimator.prepare(state)

    def _level_candidates(self, state: GreedyState) -> tuple[int, list[int]]:
        """Find ``minL`` and its tables, promoting lone stragglers (§4.3.1)."""
        levels = self._levels
        while True:
            min_level = min(levels[table_id] for table_id in state.live)
            candidates = [
                table_id for table_id in state.live if levels[table_id] == min_level
            ]
            if len(candidates) >= 2:
                return min_level, sorted(candidates)
            levels[candidates[0]] += 1

    def choose(self, state: GreedyState) -> tuple[int, ...]:
        min_level, candidates = self._level_candidates(state)
        self._last_min_level = min_level
        arity = min(state.arity_for_next_merge(), len(candidates))
        if self.suborder == "arrival":
            return tuple(candidates[:arity])
        if self.suborder == "input":
            return pick_smallest(state, candidates, arity)
        # suborder == "output": estimate the level's combinations once.
        # Candidates only shrink within a level, so a smaller arity means
        # every indexed combo is stale and the refill starts clean.
        if self._indexed != (min_level, arity):
            self._indexed = (min_level, arity)
            combos = combination_array(candidates, arity)
            self.estimate_calls += len(combos)
            self.index.add_batch(
                combos, self.estimator.union_cardinalities(state, combos)
            )
        return self.index.best()

    def observe_merge(
        self, state: GreedyState, consumed: tuple[int, ...], new_id: int
    ) -> None:
        for table_id in consumed:
            del self._levels[table_id]
        self._levels[new_id] = self._last_min_level + 1
        self._step_levels.append(self._last_min_level)
        if self.suborder == "output":
            for table_id in consumed:
                self.index.retire(table_id)
            self.estimator.observe_merge(state, consumed, new_id)

    def extras(self) -> dict:
        extras = {"step_levels": tuple(self._step_levels), "suborder": self.suborder}
        if self.suborder == "output":
            extras.update(
                estimate_calls=self.estimate_calls, estimator=self.estimator.name
            )
        return extras

"""SMALLESTOUTPUT (SO) heuristic — paper §4.3.3 and §5.1.

Each iteration merges the combination of ``k`` live tables whose *union*
has the smallest cardinality.  The union-size oracle is the
:class:`~repro.core.estimator.CardinalityEstimator` instance the policy
is built with (:func:`~.base.make_policy` resolves names and defaults):

* ``exact`` (the default of ``"smallest_output"`` / ``"SO"``) — count
  materialized unions through the active set backend (reference
  implementation; O(n^k) set work, fine for tests and small n).
* ``hll`` (the default of ``"smallest_output_hll"``) — the paper's
  practical scheme: per-table HyperLogLog sketches, union estimated by
  register-wise max.  The combination cache is maintained incrementally
  exactly as described in §5.1: after a merge consuming ``k`` tables,
  estimates not involving them are reused and only the
  ``C(n - k, k - 1)`` combinations that contain the new table are
  estimated.

The lsm layer seeds an :class:`~repro.core.estimator.HllEstimator` with
persistent sstable sketches so compaction runs never re-hash a key.

Candidates live in the :class:`~.candidate_index.CandidateIndex` shared
with BT(O) and LM: the initial fill and each refresh are one ``(n, k)``
array and one sorted run, retiring a consumed table is one flag, and
``choose`` skips only entries that went stale.

Ties break on (cardinality, combination ids), i.e. by creation order,
which reproduces the worked example (cost 40 on the 5-set instance).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..estimator import CardinalityEstimator
from .base import ChoosePolicy, GreedyState, register_policy
from .candidate_index import CandidateIndex, combination_array


@register_policy("smallest_output", "so", estimator="exact")
@register_policy("smallest_output_hll", "so_hll", "so(hll)", estimator="hll")
class SmallestOutputPolicy(ChoosePolicy):
    """Merge the combination of live tables with the smallest union."""

    name = "smallest_output"

    def __init__(self, estimator: CardinalityEstimator) -> None:
        self.estimator = estimator
        self.index = CandidateIndex()
        self._arity: Optional[int] = None
        self.estimate_calls = 0  # exposed for overhead accounting/tests

    # ------------------------------------------------------------------
    def _add_estimates(self, state: GreedyState, combos: np.ndarray) -> None:
        """Estimate and index an (n, k) batch of combos (one vectorized call)."""
        if not len(combos):
            return
        self.estimate_calls += len(combos)
        self.index.add_batch(
            combos, self.estimator.union_cardinalities(state, combos)
        )

    def _fill_index(self, state: GreedyState, arity: int) -> None:
        self._arity = arity
        self._add_estimates(state, combination_array(sorted(state.live), arity))

    # ------------------------------------------------------------------
    def prepare(self, state: GreedyState) -> None:
        self.estimator.prepare(state)
        self.index = CandidateIndex()
        self._fill_index(state, state.arity_for_next_merge())

    def choose(self, state: GreedyState) -> tuple[int, ...]:
        arity = state.arity_for_next_merge()
        if arity != self._arity:
            # The final merge may have fewer than k live tables; every
            # indexed combo is then stale, so refill at the reduced arity.
            self._fill_index(state, arity)
        return self.index.best()

    def observe_merge(
        self, state: GreedyState, consumed: tuple[int, ...], new_id: int
    ) -> None:
        for dead in consumed:
            self.index.retire(dead)
        self.estimator.observe_merge(state, consumed, new_id)
        arity = self._arity or 2
        others = sorted(table_id for table_id in state.live if table_id != new_id)
        if len(others) + 1 < arity:
            return
        # new_id is the freshest table, so it sorts after every other id
        # and the combos are already in canonical sorted order.
        self._add_estimates(
            state, combination_array(others, arity - 1, newest=new_id)
        )

    def extras(self) -> dict:
        return {
            "estimate_calls": self.estimate_calls,
            "estimator": self.estimator.name,
        }

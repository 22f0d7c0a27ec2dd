"""LARGESTMATCH (LM) heuristic — paper §4.3.4.

Each iteration merges the two live tables with the *largest
intersection* (the idea behind DataStax's cardinality-aware compaction
proposal the paper cites).  The paper shows its worst case is Omega(n):
on ``A_i = {1..2^(i-1)}`` LM repeatedly drags the largest table into
every merge (see :mod:`repro.core.adversarial`).

For ``k > 2`` we generalize greedily: start from the best pair, then
repeatedly add the live table with the largest intersection with the
running union until ``k`` tables are selected.  (The paper defines LM
for pairs only; this extension is our own and is flagged as such in
DESIGN.md.)

Ties break by creation order, consistent with the other policies.
"""

from __future__ import annotations

import numpy as np

from .base import ChoosePolicy, GreedyState, register_policy
from .candidate_index import CandidateIndex, combination_array


@register_policy("largest_match", "lm")
class LargestMatchPolicy(ChoosePolicy):
    """Merge the tables with the largest pairwise intersection."""

    name = "largest_match"

    def __init__(self) -> None:
        # Pairs scored by *negated* intersection, so the shared index's
        # smallest (score, pair) is the largest match, ties toward the
        # earliest-created pair.
        self.index = CandidateIndex()

    def _add_pairs(self, state: GreedyState, pairs: np.ndarray) -> None:
        live = state.live
        intersect = state.backend.intersection_size
        self.index.add_batch(
            pairs, [-intersect(live[a], live[b]) for a, b in pairs.tolist()]
        )

    def prepare(self, state: GreedyState) -> None:
        self.index = CandidateIndex()
        self._add_pairs(state, combination_array(sorted(state.live), 2))

    def choose(self, state: GreedyState) -> tuple[int, ...]:
        arity = state.arity_for_next_merge()
        chosen = list(self.index.best())
        if arity > 2:
            live = state.live
            backend = state.backend
            intersect = backend.intersection_size
            union = backend.union(live[table_id] for table_id in chosen)
            remaining = set(live) - set(chosen)
            while len(chosen) < arity and remaining:
                _, best = min(
                    (-intersect(union, live[table_id]), table_id)
                    for table_id in remaining
                )
                chosen.append(best)
                union = backend.union((union, live[best]))
                remaining.discard(best)
        return tuple(chosen)

    def observe_merge(
        self, state: GreedyState, consumed: tuple[int, ...], new_id: int
    ) -> None:
        for dead in consumed:
            self.index.retire(dead)
        # new_id is the freshest table, so (other, new_id) is sorted.
        others = sorted(table_id for table_id in state.live if table_id != new_id)
        self._add_pairs(state, combination_array(others, 1, newest=new_id))

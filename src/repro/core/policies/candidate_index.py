"""The candidate structure shared by the output-sensitive policies.

SO, BT(O) and LM all answer the same question every iteration: *which
combination of live tables has the smallest score?* — the estimated
union for SO / BT(O), the negated intersection for LM.  Two facts make
one structure fit all three: a combination's score never changes once
computed (table ids never revive), and a combination dies exactly when
one of its tables is consumed.

:class:`CandidateIndex` is therefore a min-heap over ``(score, combo)``
with lazy deletion keyed on *tables*, not combinations: retiring a
consumed table is one set insertion, and an entry is stale iff it names
a retired table, which :meth:`best` checks as entries surface.  Every
entry is pushed once and popped at most once, so a run costs
``O(pushes * log pushes)`` however many merges it makes.

Ties break on ``(score, combo)``; combos are sorted id tuples and ids
are handed out in creation order, so ties go to the earliest-created
combination — the contract every schedule in the repo is pinned to.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence

from ...errors import PolicyError

Combo = tuple[int, ...]


class CandidateIndex:
    """Lazy-deletion min-heap of scored table combinations."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, Combo]] = []
        self._retired: set[int] = set()
        self.pushes = 0  # exposed for work-count tests and benches
        self.pops = 0

    def add_batch(self, combos: Sequence[Combo], scores: Iterable[float]) -> None:
        """Add ``combos`` with their ``scores`` (parallel sequences)."""
        heap = self._heap
        if heap:
            for entry in zip(scores, combos):
                heapq.heappush(heap, entry)
        else:
            heap.extend(zip(scores, combos))
            heapq.heapify(heap)
        self.pushes += len(combos)

    def retire(self, table_id: int) -> None:
        """Kill every combination containing ``table_id`` (idempotent)."""
        self._retired.add(table_id)

    def best(self) -> Combo:
        """The live combination with the smallest ``(score, combo)``."""
        heap = self._heap
        is_live = self._retired.isdisjoint
        before = len(heap)
        while heap and not is_live(heap[0][1]):
            heapq.heappop(heap)
        self.pops += before - len(heap)
        if not heap:
            raise PolicyError("no live candidate combination")
        return heap[0][1]

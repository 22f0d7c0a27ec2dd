"""The candidate structure shared by the output-sensitive policies.

SO, BT(O) and LM all answer the same question every iteration: *which
combination of live tables has the smallest score?* — the estimated
union for SO / BT(O), the negated intersection for LM.  Two facts make
one structure fit all three: a combination's score never changes once
computed (table ids never revive), and a combination dies exactly when
one of its tables is consumed.

:class:`CandidateIndex` therefore keeps each batch of candidates as one
*sorted run* — its ``(n, k)`` combo array and scores, sorted once by
``(score, combo)`` with ``np.lexsort`` — and a ``heapq`` of one head per
run, so the smallest live combination is the top head.  Deletion is
lazy and keyed on *tables*: retiring a consumed table sets one flag, an
entry is stale iff it names a retired table, and :meth:`best` moves the
top run's cursor past stale entries in vectorized windows.  Runs only
advance, so a greedy run of ``B`` batches and ``M`` merges costs one
sort per batch, each entry is skipped at most once (``pops``), and the
heap sees about ``M + B`` operations of ``O(log B)`` each — not one
push and one pop per candidate.

Ties break on ``(score, combo)``; combos are sorted id tuples and ids
are handed out in creation order, so ties go to the earliest-created
combination — the contract every schedule in the repo is pinned to.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from itertools import chain, combinations
from math import comb
from typing import Optional

import numpy as np

from ...errors import PolicyError

Combo = tuple[int, ...]


def combination_array(
    ids: Sequence[int], arity: int, newest: Optional[int] = None
) -> np.ndarray:
    """``itertools.combinations(ids, arity)`` as an (n, arity) array,
    with a last column of ``newest`` when given (ids sort below it)."""
    combos = np.fromiter(
        chain.from_iterable(combinations(ids, arity)),
        dtype=np.intp,
        count=comb(len(ids), arity) * arity,
    ).reshape(-1, arity)
    if newest is None:
        return combos
    return np.column_stack((combos, np.full(len(combos), newest, dtype=np.intp)))


class CandidateIndex:
    """Sorted runs of scored table combinations, merged by a head heap."""

    def __init__(self) -> None:
        self._runs: list = []  # run id -> (combos, scores); None once spent
        # (score, combo, run id, position): one entry per unspent run;
        # run ids are unique, so positions are never compared.
        self._heads: list[tuple[float, Combo, int, int]] = []
        self._retired = np.zeros(64, dtype=bool)
        self.pushes = 0  # exposed for work-count tests and benches
        self.pops = 0

    def _cover(self, table_id: int) -> None:
        if table_id >= len(self._retired):
            grown = np.zeros(2 * table_id + 2, dtype=bool)
            grown[: len(self._retired)] = self._retired
            self._retired = grown

    def add_batch(self, combos, scores: Iterable[float]) -> None:
        """Add an (n, k) array (or sequence) of ``combos`` with their
        ``scores`` as one sorted run."""
        combos = np.asarray(combos, dtype=np.intp)
        if not len(combos):
            return
        scores = np.asarray(scores, dtype=np.float64)
        order = np.lexsort((*combos.T[::-1], scores))
        self._cover(int(combos.max()))
        self._runs.append((combos[order], scores[order]))
        self.pushes += len(combos)
        heapq.heappush(self._heads, self._head(len(self._runs) - 1, 0))

    def _head(self, run: int, at: int) -> tuple[float, Combo, int, int]:
        combos, scores = self._runs[run]
        return float(scores[at]), tuple(combos[at].tolist()), run, at

    def retire(self, table_id: int) -> None:
        """Kill every combination containing ``table_id`` (idempotent)."""
        self._cover(table_id)
        self._retired[table_id] = True

    def _first_live(self, combos: np.ndarray, start: int) -> int:
        """The first position >= ``start`` naming no retired table
        (``len(combos)`` if none), scanning doubling windows."""
        width = 16
        while start < len(combos):
            dead = self._retired[combos[start : start + width]].any(axis=1)
            first = int(dead.argmin())
            if not dead[first]:
                return start + first
            start += width
            width *= 2
        return len(combos)

    def best(self) -> Combo:
        """The live combination with the smallest ``(score, combo)``."""
        heads = self._heads
        while heads:
            _, combo, run, at = heads[0]
            combos = self._runs[run][0]
            live = self._first_live(combos, at)
            if live == at:
                return combo
            self.pops += live - at
            if live < len(combos):
                heapq.heapreplace(heads, self._head(run, live))
            else:
                heapq.heappop(heads)
                self._runs[run] = None
        raise PolicyError("no live candidate combination")

"""Pluggable union-cardinality estimators for the greedy merging core.

The paper's output-sensitive policies — SMALLESTOUTPUT (§4.3.3/§5.1) and
BALANCETREE(O) — reduce to one question asked thousands of times per
compaction: *how large is the union of this candidate combination of
live tables?*  A :class:`CardinalityEstimator` abstracts that question
away from the policies, mirroring the :class:`~repro.core.backend.SetBackend`
layer for set algebra:

* :class:`ExactEstimator` — delegates to the active set backend's
  ``union_size`` (materialized counting; the reference semantics, exact
  on either the frozenset or bitset kernel).
* :class:`HllEstimator` — the paper's practical scheme (§5.1): one
  HyperLogLog sketch per live table, candidate unions estimated by the
  fused register-max kernel without materializing anything, and merged
  tables summarized losslessly by register-wise max instead of
  re-hashing a single key.

Estimators are *per-run* objects, like backends: they cache per-table
state (sketches) keyed by live table id, so create a fresh one per
greedy run.  A spec — name, alias or instance — is resolved in exactly
one place, :func:`~repro.core.policies.base.make_policy`, and the policy
receives the instance.  The lsm layer
(:class:`~repro.lsm.compaction.major.MajorCompaction`) pre-seeds the
policy's :class:`HllEstimator` with persistent sstable sketches
(:meth:`HllEstimator.seed_sketches`) so background-compaction lifetimes
never hash the same key twice; ``prepare`` then only builds sketches for
tables that arrived without one.

The differential harness in ``tests/core/test_estimator_equivalence.py``
pins the contracts: ``exact`` reproduces the pre-layer reference
schedules bit-for-bit, and the numpy HLL kernels return the same
estimates, and therefore the same schedules, as their ``force_pure``
oracle.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping, Sequence, Union

import numpy as _np

from ..errors import EstimatorError
from ..hll import HyperLogLog
from ..hll.registers import RegisterArray, TermMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .policies.base import GreedyState

#: An (n, k) integer array of table ids, one sorted combo per row (or
#: the equivalent sequence of tuples).
ComboArray = Union[_np.ndarray, Sequence[tuple[int, ...]]]


@lru_cache(maxsize=8)
def _linear_counts(m: int):
    """Linear-counting estimates indexed by zero-register count.

    Filled with the scalar expression of
    ``HyperLogLog._estimate_from_stats`` so the batched path stays
    bit-identical to it (``numpy.log`` may differ in the last ulp).
    Slot 0 is gathered for ``z = 0`` combos but always overwritten by
    the term pass (``z = 0`` is below the linear floor), so it never
    reaches a returned estimate.  Read-only: the array is shared.
    """
    table = _np.array([0.0] + [m * math.log(m / zeros) for zeros in range(1, m + 1)])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _linear_floor(m: int, alpha_mm: float) -> int:
    """The least zero count ``z >= 1`` with ``alpha_mm / z <= 2.5 * m``.

    A union with ``z`` zero registers has harmonic sum ``H >= z`` (each
    zero register adds exactly 1), and correctly rounded division is
    monotone, so its raw estimate ``alpha_mm / H <= alpha_mm / z``: from
    this many zeros up, ``HyperLogLog._estimate_from_stats`` picks linear
    counting whatever the rest of ``H`` is.
    """
    zeros = max(1, math.floor(alpha_mm / (2.5 * m)))
    while zeros > 1 and alpha_mm / (zeros - 1) <= 2.5 * m:
        zeros -= 1
    while alpha_mm / zeros > 2.5 * m:
        zeros += 1
    return zeros


class CardinalityEstimator(ABC):
    """Union-cardinality oracle over the live tables of a greedy run."""

    name: str = "abstract"

    def prepare(self, state: "GreedyState") -> None:
        """Called once before the first iteration; build per-table state."""

    @abstractmethod
    def union_cardinality(self, state: "GreedyState", combo: tuple[int, ...]) -> float:
        """Estimated ``|union of live tables in combo|``."""

    def union_cardinalities(
        self, state: "GreedyState", combos: ComboArray
    ) -> list[float]:
        """Estimates for an (n, k) array of same-arity combos (batch of
        :meth:`union_cardinality`; kernels may vectorize the whole batch
        but must return identical values)."""
        return [
            self.union_cardinality(state, combo)
            for combo in _np.asarray(combos).tolist()
        ]

    def observe_merge(
        self, state: "GreedyState", consumed: tuple[int, ...], new_id: int
    ) -> None:
        """Called after each merge so per-table state follows the run."""

    def describe(self) -> str:
        return self.name


class ExactEstimator(CardinalityEstimator):
    """Reference estimator: count the union through the set backend."""

    name = "exact"

    def union_cardinality(self, state: "GreedyState", combo: tuple[int, ...]) -> float:
        live = state.live
        return float(
            state.backend.union_size(live[table_id] for table_id in combo)
        )


class HllEstimator(CardinalityEstimator):
    """HyperLogLog estimator (§5.1): per-table sketches, lossless unions.

    Parameters
    ----------
    precision / seed:
        Forwarded to every sketch; pre-seeded sketches must match.
    force_pure:
        Build sketches on the pure-Python register backing, the oracle
        of the numpy kernels (differential tests).  Pre-built sketches are bypassed in this mode so the
        whole run exercises the oracle kernels.
    """

    name = "hll"

    def __init__(
        self, precision: int = 12, seed: int = 0, force_pure: bool = False
    ) -> None:
        self.precision = precision
        self.seed = seed
        self.force_pure = force_pure
        self._sketches: dict[int, HyperLogLog] = {}
        self._scratch = None
        # Persistent term matrix for the batched union kernel: one row
        # per live sketch, merged tables appended as row-wise mins, and
        # a table-id -> row vector so whole combo batches map to row
        # indices in one numpy gather.  None when force_pure is set or
        # a sketch leaves the term domain.
        self._matrix = None
        self._row_of = None
        # Ids whose sketches were explicitly seeded since the last
        # prepare(); only these survive into a new run — anything else
        # (a previous run's tables) is stale and gets rebuilt.
        self._seeded_ids: set[int] = set()
        self.sketches_built = 0  # tables hashed from raw keys (not reused)

    # ------------------------------------------------------------------
    # Sketch lifecycle
    # ------------------------------------------------------------------
    def seed_sketches(self, sketches: Mapping[int, HyperLogLog]) -> None:
        """Adopt pre-built sketches keyed by live table id.

        The lsm layer hands in persistent sstable sketches here so
        ``prepare`` skips re-hashing those tables' keys.
        """
        for table_id, sketch in sketches.items():
            if sketch.precision != self.precision or sketch.seed != self.seed:
                raise EstimatorError(
                    f"seeded sketch for table {table_id} has "
                    f"p={sketch.precision}/seed={sketch.seed}; estimator "
                    f"expects p={self.precision}/seed={self.seed}"
                )
            self._sketches[table_id] = sketch
            self._seeded_ids.add(table_id)

    def sketch(self, table_id: int) -> HyperLogLog:
        """The sketch currently summarizing a live table."""
        return self._sketches[table_id]

    def _build(self, state: "GreedyState", table_id: int) -> HyperLogLog:
        self.sketches_built += 1
        return HyperLogLog.of(
            state.keys(table_id),
            precision=self.precision,
            seed=self.seed,
            force_pure=self.force_pure,
        )

    def prepare(self, state: "GreedyState") -> None:
        live = state.live
        # Keep only live, *explicitly seeded* sketches — a reused
        # estimator's leftovers from a previous run would otherwise
        # alias unrelated table ids — and build whatever is missing.
        # Input ids share the instance-level sketch cache so repeated
        # runs over one MergeInstance hash its keys once.
        self._sketches = {
            table_id: sketch
            for table_id, sketch in self._sketches.items()
            if table_id in live and table_id in self._seeded_ids
        }
        self._seeded_ids = set()
        missing = [table_id for table_id in live if table_id not in self._sketches]
        if missing:
            instance_cache = None
            if not self.force_pure:
                cached = getattr(state.instance, "hll_sketches", None)
                if cached is not None:
                    instance_cache = cached(self.precision, self.seed)
            for table_id in missing:
                if instance_cache is not None and table_id < len(instance_cache):
                    self._sketches[table_id] = instance_cache[table_id]
                else:
                    self._sketches[table_id] = self._build(state, table_id)
        # Unconditionally: the fully-seeded path (the lsm layer's
        # persistent sketches) needs the batched kernel just as much.
        self._build_matrix()

    def _build_matrix(self) -> None:
        self._matrix = None
        self._row_of = None
        if self.force_pure or not self._sketches:
            return
        registers = [sketch._registers for sketch in self._sketches.values()]
        if any(not array.is_vectorized for array in registers):
            return
        # The spill columns are where an initial sketch passes rank 15;
        # merged rows are unions, so no other column ever needs one.
        matrix = TermMatrix.of(registers, capacity=2 * len(registers))
        if matrix is None:  # a rank above 30: the histogram kernel
            return
        ids = _np.fromiter(self._sketches, dtype=_np.intp, count=len(registers))
        size = max(2 * len(ids), int(ids.max())) + 1
        row_of = _np.full(size, -1, dtype=_np.intp)
        row_of[ids] = _np.arange(len(ids))
        self._matrix = matrix
        self._row_of = row_of

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def union_cardinality(self, state: "GreedyState", combo: tuple[int, ...]) -> float:
        sketches = self._sketches
        first = sketches[combo[0]]
        if self._scratch is None and not self.force_pure:
            self._scratch = _np.empty(first.m, dtype=_np.uint8)
        harmonic_sum, zeros = RegisterArray.union_stats(
            [sketches[table_id]._registers for table_id in combo],
            scratch=self._scratch,
        )
        return first._estimate_from_stats(harmonic_sum, zeros)

    def union_cardinalities(
        self, state: "GreedyState", combos: ComboArray
    ) -> list[float]:
        if self._matrix is None or len(combos) < 2:
            return super().union_cardinalities(state, combos)
        # One gather maps every table id in the batch to its matrix row.
        # The zeros-only pass settles every combo whose zero count alone
        # proves linear counting (see _linear_floor); only the rest pay
        # for the term pass, whose raw estimates divide out vectorized
        # (same IEEE ops as the scalar path, so values are bit-identical).
        combos = _np.asarray(combos, dtype=_np.intp)
        rows = self._row_of[combos]
        first = self._sketches[int(combos[0, 0])]
        m = first.m
        linear_counts = _linear_counts(m)
        zeros = self._matrix.union_zeros(rows)
        estimates = linear_counts[zeros]
        hard = _np.flatnonzero(zeros < _linear_floor(m, first._alpha_mm))
        if len(hard):
            totals = self._matrix.union_totals(rows[hard])
            raws = first._alpha_mm / (totals / self._matrix.term_one)
            hard_zeros = zeros[hard]
            linear = (raws <= 2.5 * m) & (hard_zeros > 0)
            estimates[hard] = _np.where(linear, linear_counts[hard_zeros], raws)
        return estimates.tolist()

    def observe_merge(
        self, state: "GreedyState", consumed: tuple[int, ...], new_id: int
    ) -> None:
        # Register-wise max is lossless for unions, so the new table's
        # sketch is exact relative to its inputs' sketches — no key of a
        # merged table is ever hashed again.
        sketches = self._sketches
        merged = sketches[consumed[0]].union(
            *(sketches[table_id] for table_id in consumed[1:])
        )
        for table_id in consumed:
            del sketches[table_id]
        sketches[new_id] = merged
        if self._matrix is not None:
            # The merged row is the min of the consumed rows — the same
            # lossless union, appended without re-encoding anything.
            row_of = self._row_of
            row = self._matrix.append_min(
                [int(row_of[table_id]) for table_id in consumed]
            )
            if new_id >= len(row_of):
                self._row_of = row_of = _np.concatenate(
                    [row_of, _np.full(new_id + 1, -1, dtype=_np.intp)]
                )
            row_of[new_id] = row

    def describe(self) -> str:
        return f"hll(p={self.precision}, seed={self.seed})"


#: Registry of estimator names (plus aliases) to factories.
_ESTIMATORS: dict[str, type[CardinalityEstimator]] = {
    "exact": ExactEstimator,
    "hll": HllEstimator,
}
_ESTIMATOR_ALIASES: dict[str, str] = {
    "reference": "exact",
    "set": "exact",
    "hyperloglog": "hll",
    "sketch": "hll",
}

EstimatorSpec = Union[str, CardinalityEstimator, None]


def available_estimators() -> tuple[str, ...]:
    """Canonical names of all registered estimators."""
    return tuple(sorted(_ESTIMATORS))


def canonical_estimator_name(name: str) -> str:
    """Resolve an alias like ``"hyperloglog"`` to its canonical name."""
    lowered = name.lower()
    if lowered in _ESTIMATORS:
        return lowered
    if lowered in _ESTIMATOR_ALIASES:
        return _ESTIMATOR_ALIASES[lowered]
    raise EstimatorError(
        f"unknown estimator {name!r}; available: {sorted(_ESTIMATORS)} "
        f"(aliases: {sorted(_ESTIMATOR_ALIASES)})"
    )


def make_estimator(
    spec: EstimatorSpec = None,
    hll_precision: int = 12,
    hll_seed: int = 0,
) -> CardinalityEstimator:
    """Build a fresh estimator from a name, alias, instance or ``None``.

    ``None`` means the reference (``exact``) estimator.  Passing an
    existing :class:`CardinalityEstimator` returns it unchanged, which
    lets a caller inject one it built itself (pre-seeded with sketches,
    or an ``HllEstimator(force_pure=True)`` oracle); the hll-specific
    keyword arguments only apply when a fresh ``hll`` estimator is being
    constructed.  Policies get theirs through
    :func:`~repro.core.policies.base.make_policy`, the one caller.
    """
    if spec is None:
        return ExactEstimator()
    if isinstance(spec, CardinalityEstimator):
        return spec
    if isinstance(spec, str):
        name = canonical_estimator_name(spec)
        if name == "hll":
            return HllEstimator(precision=hll_precision, seed=hll_seed)
        return _ESTIMATORS[name]()
    raise EstimatorError(
        "estimator spec must be a name, CardinalityEstimator or None, "
        f"got {type(spec).__name__}"
    )

"""Merge-problem instances.

A :class:`MergeInstance` is the input to every algorithm in
:mod:`repro.core`: the collection ``A_1, ..., A_n`` of key sets (sstables)
from the paper's Section 2.  It validates its input once and then exposes
the derived quantities the paper's analysis relies on:

* the ground set ``U`` and its size ``m``,
* ``LOPT = sum(|A_i|)`` — the lower bound on the optimal merge cost used
  throughout Section 4,
* the element frequency map and ``f = max_x f_x`` — the parameter of the
  f-approximation (Section 4.4).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from contextlib import suppress
from functools import cached_property

import numpy as _np

from ..errors import InvalidInstanceError
from .keyset import BitsetEncoder, Key, concat_ascending, freeze_all, union_all


class MergeInstance:
    """An immutable collection of input key sets ``A_1, ..., A_n``.

    Instances are validated at construction: there must be at least one
    set and every set must be non-empty (an empty sstable would never be
    produced by a memtable flush, and permitting it would make several of
    the paper's bounds vacuous).

    An instance built by :meth:`from_columns` holds sorted ``int64`` key
    columns instead of sets: sizes read the columns, the bitset encoding
    is built from them in one numpy pass, and :attr:`sets` is only
    materialised for callers that iterate keys.
    """

    #: Sorted int64 key columns (``from_columns``), else ``None``.
    _columns: tuple[_np.ndarray, ...] | None = None

    def __init__(self, sets: tuple[frozenset, ...]) -> None:
        self.sets = self._parts = tuple(sets)
        if not self.sets:
            raise InvalidInstanceError("a merge instance needs at least one set")
        for index, s in enumerate(self.sets):
            if not isinstance(s, frozenset):
                raise InvalidInstanceError(
                    f"set #{index} is {type(s).__name__}, expected frozenset; "
                    "use MergeInstance.from_iterables()"
                )
            if not s:
                raise InvalidInstanceError(f"set #{index} is empty")

    @classmethod
    def from_iterables(cls, collections: Iterable[Iterable[Key]]) -> "MergeInstance":
        """Build an instance from any iterable of key iterables."""
        return cls(freeze_all(collections))

    @classmethod
    def from_columns(cls, columns: Sequence[_np.ndarray]) -> "MergeInstance":
        """Build an instance from strictly ascending ``int64`` key columns,
        one per set (an sstable's key column, no copy)."""
        columns = tuple(_np.asarray(column, dtype=_np.int64) for column in columns)
        concat_ascending(columns)
        instance = cls.__new__(cls)
        instance._columns = instance._parts = columns
        return instance

    @cached_property
    def sets(self) -> tuple[frozenset, ...]:
        """The input key sets (built from the columns on first use)."""
        return tuple(frozenset(column.tolist()) for column in self._columns)

    @property
    def n(self) -> int:
        """Number of input sets."""
        return len(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self):
        return iter(self.sets)

    def __getitem__(self, index: int) -> frozenset:
        return self.sets[index]

    @cached_property
    def ground_set(self) -> frozenset:
        """The ground set ``U`` — union of all input sets."""
        return union_all(self.sets)

    @property
    def ground_size(self) -> int:
        """``m = |U|``."""
        return len(self.ground_set)

    @cached_property
    def total_input_size(self) -> int:
        """``LOPT = sum(|A_i|)`` — the paper's lower bound on OPT (§4.1)."""
        return sum(map(len, self._parts))

    @cached_property
    def element_frequencies(self) -> dict[Key, int]:
        """Map each ground-set element to the number of input sets containing it."""
        counter: Counter = Counter()
        for s in self.sets:
            counter.update(s)
        return dict(counter)

    @cached_property
    def max_frequency(self) -> int:
        """``f = max_x f_x`` — the f-approximation parameter (§4.4)."""
        return max(self.element_frequencies.values())

    @cached_property
    def bitset_encoding(self) -> tuple[BitsetEncoder, tuple[int, ...]]:
        """The instance's sets as integer bitsets, with their encoder.

        Cached so that every bitset-backend run over the same instance
        (greedy, replay, the exact solver's callers) shares one encoding
        instead of re-walking the key sets.  Int keys take the one-pass
        column build (sets of plain ints are sorted into columns first);
        keys numpy cannot represent — not a plain ``int`` (``bool``
        included) or beyond int64 — take the per-key walk.
        """
        columns = self._columns
        if columns is None and all(set(map(type, s)) <= {int} for s in self.sets):
            with suppress(OverflowError):
                columns = tuple(_np.sort(_np.fromiter(s, _np.int64)) for s in self.sets)
        if columns is not None:
            return BitsetEncoder.from_columns(columns)
        encoder = BitsetEncoder()
        return encoder, tuple(map(encoder.encode, self.sets))

    @cached_property
    def _hll_sketch_cache(self) -> dict:
        return {}

    def hll_sketches(self, precision: int = 12, seed: int = 0) -> tuple:
        """One HyperLogLog sketch per input set, cached per (precision, seed).

        The estimation analogue of :attr:`bitset_encoding`: every
        HLL-estimator run over the same instance (repeated policies,
        precision ablations, differential harnesses) shares one hashing
        pass per parameterization.  Sketches are deterministic, so
        sharing never changes an estimate; treat them as immutable.
        """
        key = (precision, seed)
        sketches = self._hll_sketch_cache.get(key)
        if sketches is None:
            from ..hll import HyperLogLog

            sketches = tuple(
                HyperLogLog.of(keys, precision=precision, seed=seed)
                for keys in self.sets
            )
            self._hll_sketch_cache[key] = sketches
        return sketches

    @cached_property
    def is_disjoint(self) -> bool:
        """True iff the input sets are pairwise disjoint (the Huffman case)."""
        return self.total_input_size == self.ground_size

    def sizes(self) -> tuple[int, ...]:
        """Cardinalities of the input sets, in order."""
        return tuple(map(len, self._parts))

    def describe(self) -> str:
        """One-line human-readable summary used by examples and logs."""
        return (
            f"MergeInstance(n={self.n}, m={self.ground_size}, "
            f"LOPT={self.total_input_size}, f={self.max_frequency}, "
            f"disjoint={self.is_disjoint})"
        )

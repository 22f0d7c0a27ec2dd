"""Register arrays backing HyperLogLog sketches.

A sketch of precision ``p`` keeps ``m = 2**p`` byte-sized registers, each
storing the maximum observed "rank" (leading-zero count + 1) for hashes
routed to it.  This module hides the storage: a numpy ``uint8`` array
(the SMALLESTOUTPUT policy evaluates thousands of sketch unions per
compaction, where vectorized max/sum matters), or under ``force_pure``
a ``bytearray`` with identical semantics -- the oracle the numpy kernels
are tested against and the "pure-python" row of
``benchmarks/test_bench_estimator_speedup.py``.

Estimation kernels are *exact* and therefore backing-independent: the
harmonic sum ``sum(2**-M[j])`` is accumulated as a dyadic integer
(every term is ``2**(SHIFT - rank)`` for a fixed ``SHIFT`` above the
maximum possible rank) and converted to float once, so the numpy and
pure-Python paths return bit-identical values regardless of summation
order.  :meth:`RegisterArray.union_stats` fuses the element-wise max of
several arrays with that reduction, estimating one union without
materializing a merged register array; :class:`TermMatrix` reduces whole
batches of candidate unions the same way, in two passes:
:meth:`TermMatrix.union_zeros` over packed zero bits, and
:meth:`TermMatrix.union_totals` over uint16 terms plus exact spill
columns (:class:`~repro.core.estimator.HllEstimator` settles most combos
from the first and turns the second's exact integer sums into estimates).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as _np

#: Ranks never exceed 61 for 64-bit hashes (p >= 4 leaves at most 60
#: suffix bits); any fixed shift above that makes every register term
#: ``2**(_SHIFT - rank)`` an exact integer.
_MAX_RANK = 70
_SHIFT = _MAX_RANK
_SHIFT_ONE = 1 << _SHIFT

# The batched union kernel's encoding: register value r maps to the
# uint16 "term" 2**(15 - min(r, 15)).  Terms are monotone *decreasing*
# in r, so the register-wise max of sketches is the element-wise *min*
# of their term vectors.  The few register positions where an initial
# sketch reaches rank 16..30 are *spill columns*: their exact ranks
# ride along as uint8, and each adds 2**(30 - R) - 2**(30 - min(R, 15))
# to the union's sum, which is kept in 2**-30 units.  Ranks above 30
# (impossible below ~10**9 distinct keys) fall back to the histogram
# kernel.  Every path computes the same exact rational, so they agree
# bit-for-bit.
_TERM_SHIFT = 15
_SPILL_SHIFT = 30
_TERM_LUT = _np.array(
    [1 << (_TERM_SHIFT - r) for r in range(_TERM_SHIFT + 1)], dtype=_np.uint16
)
_SPILL_FIX = _np.array(
    [
        (1 << (_SPILL_SHIFT - r)) - (1 << (_SPILL_SHIFT - min(r, _TERM_SHIFT)))
        for r in range(_SPILL_SHIFT + 1)
    ],
    dtype=_np.int64,
)
#: Combos per term-pass call: at p = 12 on the large unions the zeros
#: pass leaves over, 64-row chunks (512 KB of terms) measured fastest
#: (~20 % ahead of 192 rows on BT(O)'s triples, level on SO's pairs).
_CHUNK_ROWS = 64
#: Combos per zeros-only chunk: 1024 rows of zero bits are 512 KB at
#: p = 12, and measured ~8 % faster than 256-row chunks.
_ZERO_CHUNK_ROWS = 1024


def _dyadic_harmonic(counts: Sequence[int]) -> float:
    """``sum(counts[r] * 2**-r)`` via exact integer accumulation.

    The integer sum is order-independent and the final single division is
    correctly rounded, so every backing and every fusion of this kernel
    agrees to the last bit.
    """
    total = 0
    for rank, count in enumerate(counts):
        if count:
            total += count << (_SHIFT - rank)
    return total / _SHIFT_ONE


class RegisterArray:
    """Fixed-size array of byte registers with max-update semantics."""

    __slots__ = ("m", "_regs", "_numpy")

    def __init__(self, m: int, _backing=None, force_pure: bool = False) -> None:
        if m < 1:
            raise ValueError("register count must be positive")
        self.m = m
        self._numpy = not force_pure
        if _backing is not None:
            self._regs = _backing
        elif self._numpy:
            self._regs = _np.zeros(m, dtype=_np.uint8)
        else:
            self._regs = bytearray(m)

    @property
    def is_vectorized(self) -> bool:
        """True when the backing is a numpy array (not the bytearray)."""
        return self._numpy

    def update(self, index: int, rank: int) -> None:
        """Raise register ``index`` to ``rank`` if it is currently lower."""
        if rank > self._regs[index]:
            self._regs[index] = rank

    def update_many(self, indices, ranks) -> None:
        """Scatter-max a batch of (index, rank) updates.

        Accepts numpy arrays (fast path: one ``maximum.at`` call handles
        duplicate indices correctly) or any parallel int sequences.
        """
        if (
            self._numpy
            and isinstance(indices, _np.ndarray)
            and isinstance(ranks, _np.ndarray)
        ):
            _np.maximum.at(self._regs, indices, ranks)
            return
        regs = self._regs
        for index, rank in zip(indices, ranks):
            if rank > regs[index]:
                regs[index] = rank

    def get(self, index: int) -> int:
        return int(self._regs[index])

    def zeros(self) -> int:
        """Number of registers still at zero (drives linear counting)."""
        if self._numpy:
            return int(self.m - _np.count_nonzero(self._regs))
        return sum(1 for value in self._regs if value == 0)

    def counts(self) -> list[int]:
        """Histogram of register values (index = rank, value = count)."""
        if self._numpy:
            return _np.bincount(self._regs, minlength=_MAX_RANK).tolist()
        counts = [0] * _MAX_RANK
        for value in self._regs:
            counts[value] += 1
        return counts

    def harmonic_sum(self) -> float:
        """``sum(2**-M[j])`` over all registers (the raw-estimate kernel)."""
        return self.stats()[0]

    def stats(self) -> tuple[float, int]:
        """``(harmonic_sum, zeros)`` from one histogram pass."""
        counts = self.counts()
        return _dyadic_harmonic(counts), counts[0]

    def copy(self) -> "RegisterArray":
        if self._numpy:
            return RegisterArray(self.m, _backing=self._regs.copy())
        return RegisterArray(self.m, _backing=bytearray(self._regs), force_pure=True)

    def merge_max(self, other: "RegisterArray") -> None:
        """In-place element-wise maximum with ``other`` (lossless union)."""
        if self.m != other.m:
            raise ValueError("cannot merge register arrays of different sizes")
        if self._numpy and other._numpy:
            _np.maximum(self._regs, other._regs, out=self._regs)
            return
        mine, theirs = self._regs, other._regs
        for index in range(self.m):
            if theirs[index] > mine[index]:
                mine[index] = theirs[index]

    @classmethod
    def merged(
        cls, arrays: Iterable["RegisterArray"], m: Optional[int] = None
    ) -> "RegisterArray":
        """Element-wise maximum of several register arrays (new array)."""
        arrays = list(arrays)
        if not arrays:
            if m is None:
                raise ValueError("cannot merge zero arrays without an explicit m")
            return cls(m)
        out = arrays[0].copy()
        for other in arrays[1:]:
            out.merge_max(other)
        return out

    @classmethod
    def union_stats(
        cls, arrays: Sequence["RegisterArray"], scratch=None
    ) -> tuple[float, int]:
        """``(harmonic_sum, zeros)`` of the element-wise max of ``arrays``.

        The fused union-estimate kernel: no merged :class:`RegisterArray`
        is allocated.  ``scratch`` may be a reusable ``uint8`` numpy
        buffer of the right size (callers estimating thousands of
        candidate unions pass one to avoid per-call allocation).
        """
        arrays = list(arrays)
        if not arrays:
            raise ValueError("cannot estimate the union of zero arrays")
        m = arrays[0].m
        if any(other.m != m for other in arrays[1:]):
            raise ValueError("cannot merge register arrays of different sizes")
        if len(arrays) == 1:
            return arrays[0].stats()
        if all(array._numpy for array in arrays):
            if scratch is None or len(scratch) != m:
                scratch = _np.empty(m, dtype=_np.uint8)
            _np.maximum(arrays[0]._regs, arrays[1]._regs, out=scratch)
            for other in arrays[2:]:
                _np.maximum(scratch, other._regs, out=scratch)
            counts = _np.bincount(scratch, minlength=_MAX_RANK).tolist()
            return _dyadic_harmonic(counts), counts[0]
        backings = [array._regs for array in arrays]
        total = 0
        zeros = 0
        for index in range(m):
            # int() guards against numpy scalars when backings are mixed;
            # the big-int accumulator must stay a Python int.
            value = int(max(backing[index] for backing in backings))
            if value:
                total += 1 << (_SHIFT - value)
            else:
                zeros += 1
        total += zeros << _SHIFT
        return total / _SHIFT_ONE, zeros

    def values(self) -> list[int]:
        """Register contents as a plain list (testing/introspection)."""
        return [int(value) for value in self._regs]

    def to_bytes(self) -> bytes:
        """The registers as ``m`` raw bytes (sstable footer persistence)."""
        if self._numpy:
            return self._regs.tobytes()
        return bytes(self._regs)

    def load_bytes(self, data: bytes) -> None:
        """Overwrite the registers from :meth:`to_bytes` output."""
        if len(data) != self.m:
            raise ValueError(
                f"register payload is {len(data)} bytes, expected {self.m}"
            )
        if self._numpy:
            self._regs[:] = _np.frombuffer(data, dtype=_np.uint8)
        else:
            self._regs[:] = data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterArray):
            return NotImplemented
        return self.m == other.m and self.values() == other.values()

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("RegisterArray is mutable and unhashable")


class TermMatrix:
    """Append-only stack of term vectors for batched union estimates.

    One row per sketch; because terms are monotone decreasing in the
    register value, the union of sketches is the element-wise *min* of
    their rows, and the merged table produced by a compaction step is
    appended as exactly that min (:meth:`append_min`) — no re-encoding.
    :class:`~repro.core.estimator.HllEstimator` keeps one of these alive
    for a whole greedy run so candidate estimates never restack rows.

    ``spill_columns`` is fixed up front (:meth:`of` takes every column
    where an initial sketch has rank 16..30): only there may a row's
    rank exceed 15, and :meth:`append_min` never needs another column —
    a union's rank at a position is one of its inputs' ranks.

    Rows assume the register arrays they were built from are not mutated
    afterwards (sketch unions always produce fresh arrays, so the
    estimator upholds this).
    """

    __slots__ = (
        "m", "spill_columns", "zero_rows", "term_rows",
        "_acc", "_matrix", "_zbits", "_spill", "_rows",
    )

    #: Totals are in these units: a combo's harmonic sum is
    #: ``totals / term_one``.
    term_one = 1 << _SPILL_SHIFT

    def __init__(self, m: int, spill_columns=(), capacity: int = 16) -> None:
        self.m = m
        self.spill_columns = _np.asarray(spill_columns, dtype=_np.intp)
        # Combos reduced by each pass, for work-count tests and benches.
        self.zero_rows = 0
        self.term_rows = 0
        # m terms of at most 2**15 stay below 2**32 up to m = 2**16.
        self._acc = _np.uint32 if m <= 1 << 16 else _np.int64
        self._rows = 0
        capacity = max(1, capacity)
        self._matrix = _np.empty((capacity, m), dtype=_np.uint16)
        # Zero-register indicators packed 64 per word (the tail padded
        # with 0 bits): the union's zeros are popcount(AND of rows) — m/8
        # bytes per estimate instead of a pass over the 2m-byte term row.
        self._zbits = _np.empty((capacity, -(-m // 64)), dtype=_np.uint64)
        self._spill = _np.empty(
            (capacity, len(self.spill_columns)), dtype=_np.uint8
        )

    @classmethod
    def of(
        cls, arrays: Sequence[RegisterArray], capacity: int = 16
    ) -> Optional["TermMatrix"]:
        """``arrays`` as rows ``0..n-1``, spilling every column where one
        of them has rank > 15; None when a rank exceeds 30."""
        top = _np.zeros(arrays[0].m, dtype=_np.uint8)
        for array in arrays:
            _np.maximum(top, array._regs, out=top)
        if int(top.max()) > _SPILL_SHIFT:
            return None
        matrix = cls(arrays[0].m, _np.flatnonzero(top > _TERM_SHIFT), capacity)
        for array in arrays:
            matrix.append(array)
        return matrix

    def __len__(self) -> int:
        return self._rows

    def _grow_to(self, rows: int) -> None:
        if rows > len(self._matrix):
            capacity = max(rows, 2 * len(self._matrix))
            for name in ("_matrix", "_zbits", "_spill"):
                block = getattr(self, name)
                bigger = _np.empty((capacity, block.shape[1]), dtype=block.dtype)
                bigger[: self._rows] = block[: self._rows]
                setattr(self, name, bigger)

    def append(self, array: RegisterArray) -> int:
        """Encode a sketch's registers as a new row; its row index."""
        if array.m != self.m:
            raise ValueError("register array size does not match the matrix")
        regs = array._regs
        spill = regs[self.spill_columns]
        # Every rank above 15 must sit in a spill column, and none above 30.
        if int(regs.max()) > _SPILL_SHIFT or _np.count_nonzero(
            regs > _TERM_SHIFT
        ) != _np.count_nonzero(spill > _TERM_SHIFT):
            raise ValueError("rank above 15 outside the spill columns, or above 30")
        row = self._rows
        self._grow_to(row + 1)
        self._matrix[row] = _TERM_LUT[_np.minimum(regs, _TERM_SHIFT)]
        zero = _np.zeros(64 * self._zbits.shape[1], dtype=bool)
        zero[: self.m] = regs == 0
        self._zbits[row] = _np.packbits(zero).view(_np.uint64)
        self._spill[row] = spill
        self._rows += 1
        return row

    def append_min(self, rows: Sequence[int]) -> int:
        """Add the union of existing rows (lossless): the min of their
        terms, the AND of their zero bits, the max of their spill ranks."""
        rows = list(rows)
        if not rows:
            raise ValueError("append_min needs at least one row")
        row = self._rows
        self._grow_to(row + 1)
        for block, combine in (
            (self._matrix, _np.minimum),
            (self._zbits, _np.bitwise_and),
            (self._spill, _np.maximum),
        ):
            combine.reduce(block[rows], axis=0, out=block[row])
        self._rows += 1
        return row

    def union_zeros(self, row_combos) -> _np.ndarray:
        """Zero-register count of each combo's union.

        ``row_combos`` is an (n, k) integer array of row indices.  Each
        count is the popcount of the AND of the combo's zero bits: m/8
        bytes per row, against the 2m-byte term rows of
        :meth:`union_totals`, so large chunks stay cache-sized.
        """
        row_combos = _combo_rows(row_combos)
        self.zero_rows += len(row_combos)
        zeros = _np.empty(len(row_combos), dtype=_np.uint32)
        for start in range(0, len(row_combos), _ZERO_CHUNK_ROWS):
            chunk = row_combos[start : start + _ZERO_CHUNK_ROWS]
            merged = self._zbits[chunk[:, 0]]
            for partner in chunk.T[1:]:
                _np.bitwise_and(merged, self._zbits[partner], out=merged)
            _np.bitwise_count(merged).sum(
                axis=1, dtype=_np.uint32, out=zeros[start : start + len(chunk)]
            )
        return zeros

    def union_totals(self, row_combos) -> _np.ndarray:
        """Exact harmonic sum of each combo's union, in ``term_one`` units.

        ``row_combos`` is an (n, k) integer array of row indices; a
        combo's harmonic sum is ``totals[i] / term_one``.  Chunks of
        ``_CHUNK_ROWS`` combos reduce in single vectorized min/sum
        calls, and the sums are exact dyadic integers, so downstream
        estimates are bit-identical to :meth:`RegisterArray.union_stats`
        over the same sketches.

        Pair batches sharing their right row — SO's per-merge refresh
        pairs every survivor with the newest table — reduce against that
        row broadcast, halving the gather traffic of the general path.
        """
        row_combos = _combo_rows(row_combos)
        self.term_rows += len(row_combos)
        lefts, partners = row_combos[:, 0], row_combos.T[1:]
        shared = (
            len(partners) == 1
            and len(lefts) > 1
            and bool((partners[0] == partners[0, 0]).all())
        )
        totals = [_np.zeros(0, dtype=_np.int64)]
        for start in range(0, len(lefts), _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            totals.append(
                self._totals(
                    lefts[start:stop],
                    partners[:, 0] if shared else partners[:, start:stop],
                )
            )
        return _np.concatenate(totals)

    def _totals(self, rows, partners):
        """Exact sums of each of ``rows`` unioned with every partner: a
        row-index array parallel to ``rows``, or one row index."""
        merged = self._matrix[rows]
        for partner in partners:
            _np.minimum(merged, self._matrix[partner], out=merged)
        totals = merged.sum(axis=1, dtype=self._acc).astype(_np.int64)
        totals <<= _SPILL_SHIFT - _TERM_SHIFT
        if len(self.spill_columns):
            spill = self._spill[rows]
            for partner in partners:
                _np.maximum(spill, self._spill[partner], out=spill)
            totals += _SPILL_FIX[spill].sum(axis=1)
        return totals


def _combo_rows(row_combos) -> _np.ndarray:
    row_combos = _np.asarray(row_combos, dtype=_np.intp)
    if row_combos.ndim != 2:
        raise ValueError("row_combos must be a 2-D (n, k) index array")
    return row_combos

"""Key-set utilities shared by the merge-problem core.

The paper models an sstable as a *set of keys* (Section 2, assumption 1:
all key-value pairs have the same size, so an sstable's size is its key
cardinality).  Throughout :mod:`repro.core` an sstable is therefore simply
a ``frozenset`` of hashable keys; this module provides the helpers that
keep that representation convenient and fast:

* :func:`freeze` / :func:`freeze_all` — normalize arbitrary iterables of
  keys into ``frozenset`` values.
* :func:`union_all` — union of many sets in one pass.
* :class:`BitsetEncoder` — a reversible encoding of key sets as Python
  integers (one bit per distinct key).  The exact optimal solver uses this
  to evaluate unions of arbitrary subsets of the input in O(words) with
  ``int.__or__`` and ``int.bit_count``.  Int-keyed inputs are encoded in
  one numpy pass (:meth:`BitsetEncoder.from_columns`).
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterable, Sequence
from typing import Optional

import numpy as _np

from ..errors import InvalidInstanceError

Key = Hashable


def freeze(keys: Iterable[Key]) -> frozenset:
    """Return ``keys`` as a ``frozenset`` (no copy if already frozen)."""
    if isinstance(keys, frozenset):
        return keys
    return frozenset(keys)


def freeze_all(collections: Iterable[Iterable[Key]]) -> tuple[frozenset, ...]:
    """Freeze every iterable in ``collections``, preserving order."""
    return tuple(freeze(keys) for keys in collections)


def union_all(sets: Iterable[Iterable[Key]]) -> frozenset:
    """Return the union of all the given key sets."""
    out: set = set()
    for s in sets:
        out.update(s)
    return frozenset(out)


def concat_ascending(columns: Sequence["_np.ndarray"]) -> tuple:
    """``(keys, lengths)``: the concatenated ``int64`` columns and their
    sizes; :class:`InvalidInstanceError` unless there is a column and
    every column is non-empty and strictly ascends."""
    lengths = _np.array([len(column) for column in columns], dtype=_np.intp)
    if not lengths.size or not lengths.all():
        raise InvalidInstanceError("a merge instance needs non-empty sets")
    keys = _np.concatenate(columns, dtype=_np.int64)
    ascending = keys[1:] > keys[:-1]
    # a column may start at or below its predecessor's last key
    ascending[_np.cumsum(lengths)[:-1] - 1] = True
    if not ascending.all():
        raise InvalidInstanceError("key columns must be strictly ascending")
    return keys, lengths


class BitsetEncoder:
    """Bidirectional mapping between key sets and integer bitsets.

    Bit positions: an encoder built by :meth:`from_columns` — which every
    int-keyed :class:`~repro.core.instance.MergeInstance` uses — gives a
    key its rank in sorted order.  The per-key walk (:meth:`encode`,
    :meth:`observe`; keys numpy cannot represent) assigns positions in
    first-seen order, so for a ``frozenset`` of ``str`` keys they follow
    its iteration order, which depends on ``PYTHONHASHSEED``.  Positions
    never reach a schedule or a count: those read only union and
    intersection cardinalities, which no permutation of bits changes.

    Example::

        enc = BitsetEncoder([{1, 2}, {2, 3}])
        a, b = enc.encode({1, 2}), enc.encode({2, 3})
        assert (a | b).bit_count() == 3
    """

    def __init__(self, sets: Iterable[Iterable[Key]] = ()) -> None:
        # A batch-built universe (sorted int64 array) stands in for the
        # per-key list and dict until a per-key call needs them.
        self._universe: Optional["_np.ndarray"] = None
        self._positions: dict[Key, int] = {}
        self._keys: list[Key] = []
        for s in sets:
            self.observe(s)

    @classmethod
    def from_columns(cls, columns: Sequence["_np.ndarray"]) -> tuple:
        """Encode non-empty, strictly ascending ``int64`` key columns in
        one numpy pass.

        Returns ``(encoder, handles)``, one handle per column.  A stable
        argsort of the concatenation merges the sorted runs; a key's bit
        position is its rank among the distinct keys.  A column's ranks
        ascend, so its bits arrive word by word: one ``bitwise_or`` per
        (column, 64-bit word) run fills a ``uint64`` row per column, and
        ``int.from_bytes`` turns each row, up to its last set bit, into
        its handle.  The per-key :meth:`encode` walk is this build's
        oracle.
        """
        keys, lengths = concat_ascending(columns)
        order = _np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        distinct = _np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
        ranks = _np.empty_like(order)
        ranks[order] = _np.cumsum(distinct) - 1
        encoder = cls()
        encoder._universe = sorted_keys[distinct]
        # Row c, word w of a (columns x words) table lives at cell
        # c * width + w; a column's cells ascend, so equal cells are runs.
        width = (encoder._universe.size + 63) >> 6
        cells = _np.repeat(_np.arange(lengths.size) * width, lengths) + (ranks >> 6)
        runs = _np.flatnonzero(_np.diff(cells, prepend=-1))
        bits = _np.left_shift(_np.uint64(1), (ranks & 63).astype(_np.uint64))
        rows = _np.zeros((lengths.size, width), dtype="<u8")
        rows.reshape(-1)[cells[runs]] = _np.bitwise_or.reduceat(bits, runs)
        used = ((ranks[_np.cumsum(lengths) - 1] >> 6) + 1).tolist()  # up to last bit
        return encoder, tuple(
            int.from_bytes(row[:words].tobytes(), "little")
            for row, words in zip(rows, used)
        )

    def _scalar(self) -> None:
        """Give a batch-built universe its per-key list and dict, so
        per-key calls keep working and new keys take the next position."""
        if self._universe is not None:
            self._keys = self._universe.tolist()
            self._positions = dict(zip(self._keys, range(len(self._keys))))
            self._universe = None

    def observe(self, keys: Iterable[Key]) -> None:
        """Register any unseen keys, assigning them fresh bit positions."""
        self._scalar()
        positions = self._positions
        for key in keys:
            if key not in positions:
                positions[key] = len(self._keys)
                self._keys.append(key)

    @property
    def universe_size(self) -> int:
        """Number of distinct keys registered so far."""
        return len(self._keys) if self._universe is None else self._universe.size

    def encode(self, keys: Collection[Key]) -> int:
        """Encode a key set as an integer bitset.

        Unseen keys are registered on the fly, in the order they are met,
        so that ``encode`` never fails for hashable inputs and encoding
        sets one after another assigns the same positions as observing
        them all first.  Bits are set in a byte buffer and converted
        once — setting them on a growing big-int directly would copy
        O(universe/64) words per key.
        """
        self._scalar()
        positions = self._positions
        seen = self._keys
        buffer = bytearray((len(seen) + len(keys) + 7) >> 3)
        for key in keys:
            position = positions.get(key)
            if position is None:
                position = positions[key] = len(seen)
                seen.append(key)
            buffer[position >> 3] |= 1 << (position & 7)
        return int.from_bytes(buffer, "little")

    def decode(self, bits: int) -> frozenset:
        """Decode an integer bitset back into the original key set.

        Walks the bitset one byte at a time (clearing low bits of a
        big-int copies the whole integer per bit; a byte does not).
        """
        self._scalar()
        keys = self._keys
        out = []
        data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
        for byte_index, byte in enumerate(data):
            base = byte_index << 3
            while byte:
                low = byte & -byte
                out.append(keys[base + low.bit_length() - 1])
                byte ^= low
        return frozenset(out)

    def key_at(self, position: int) -> Key:
        """Return the key assigned to bit ``position``.

        Raises :class:`IndexError` for positions outside
        ``[0, universe_size)`` — including negative ones, which would
        otherwise silently wrap around via Python list indexing.
        """
        self._scalar()
        if not 0 <= position < len(self._keys):
            raise IndexError(
                f"bit position {position} out of range "
                f"[0, {len(self._keys)})"
            )
        return self._keys[position]

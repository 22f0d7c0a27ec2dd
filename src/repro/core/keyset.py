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
  ``int.__or__`` and ``int.bit_count``.
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Iterable
from typing import TypeVar

Key = Hashable
_T = TypeVar("_T", bound=Hashable)


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


class BitsetEncoder:
    """Bidirectional mapping between key sets and integer bitsets.

    Keys are assigned bit positions in first-seen order, which makes the
    encoding deterministic for a fixed input ordering regardless of
    ``PYTHONHASHSEED``.

    Example::

        enc = BitsetEncoder([{1, 2}, {2, 3}])
        a, b = enc.encode({1, 2}), enc.encode({2, 3})
        assert (a | b).bit_count() == 3
    """

    def __init__(self, sets: Iterable[Iterable[Key]] = ()) -> None:
        self._positions: dict[Key, int] = {}
        self._keys: list[Key] = []
        for s in sets:
            self.observe(s)

    def observe(self, keys: Iterable[Key]) -> None:
        """Register any unseen keys, assigning them fresh bit positions."""
        positions = self._positions
        for key in keys:
            if key not in positions:
                positions[key] = len(self._keys)
                self._keys.append(key)

    @property
    def universe_size(self) -> int:
        """Number of distinct keys registered so far."""
        return len(self._keys)

    def encode(self, keys: Collection[Key]) -> int:
        """Encode a key set as an integer bitset.

        Unseen keys are registered on the fly, in the order they are met,
        so that ``encode`` never fails for hashable inputs and encoding
        sets one after another assigns the same positions as observing
        them all first.  Bits are set in a byte buffer and converted
        once — setting them on a growing big-int directly would copy
        O(universe/64) words per key.
        """
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
        if not 0 <= position < len(self._keys):
            raise IndexError(
                f"bit position {position} out of range "
                f"[0, {len(self._keys)})"
            )
        return self._keys[position]

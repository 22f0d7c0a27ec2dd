"""Pluggable set-algebra backends for the greedy merging core.

Every hot path of the greedy framework — the merge loop itself, SO's
candidate unions, LM's pairwise intersections, BT(O)'s exact estimator,
:meth:`~repro.core.schedule.MergeSchedule.replay` — reduces to three set
operations: union, cardinality of a union, cardinality of an
intersection.  A :class:`SetBackend` abstracts those operations over an
opaque *handle* type so the same policy code can run on two kernels:

* :class:`FrozensetBackend` — handles are the input ``frozenset`` values
  themselves.  This is the reference semantics the rest of the library
  has always used; ``decode`` is the identity.
* :class:`BitsetBackend` — handles are Python integers, one bit per
  distinct key, produced by :class:`~repro.core.keyset.BitsetEncoder`.
  Unions are ``int.__or__`` and cardinalities ``int.bit_count`` — O(m/64)
  machine words instead of O(m) hash-table probes — which is what makes
  SO's and LM's O(n^2) pairwise scans tractable at figure-7 scale.

Both kernels are *exact* (no approximation is introduced by switching),
so every size comparison, and therefore every schedule, tie-break and
cost, is identical between them.  ``tests/core/test_backend_equivalence``
is the differential harness that enforces this bit-for-bit.

Backends are cheap, per-run objects: :class:`BitsetBackend` binds to the
encoder of the instance it last encoded, so create one per run (which is
what :func:`make_backend` and :class:`~repro.core.greedy.GreedyMerger`
do) rather than sharing an object across unrelated instances.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from typing import Any, Optional, Union

from ..errors import BackendError
from .keyset import BitsetEncoder, Key, freeze, union_all

#: A backend-specific set representation (``frozenset`` or ``int``).
SetHandle = Any


class SetBackend(ABC):
    """Set-algebra kernel over opaque per-backend handles."""

    name: str = "abstract"

    @abstractmethod
    def encode_instance(self, instance) -> tuple[SetHandle, ...]:
        """Encode every input set of a merge instance, in order."""

    @abstractmethod
    def encode(self, keys: Iterable[Key]) -> SetHandle:
        """Encode an arbitrary key collection into a handle."""

    @abstractmethod
    def union(self, handles: Iterable[SetHandle]) -> SetHandle:
        """Handle for the union of all the given handles."""

    @abstractmethod
    def size(self, handle: SetHandle) -> int:
        """Cardinality of the set behind ``handle``."""

    @abstractmethod
    def union_size(self, handles: Iterable[SetHandle]) -> int:
        """``|union(handles)|`` without keeping the union alive."""

    @abstractmethod
    def intersection_size(self, a: SetHandle, b: SetHandle) -> int:
        """``|a & b|``."""

    @abstractmethod
    def decode(self, handle: SetHandle) -> frozenset:
        """The plain ``frozenset`` of keys behind ``handle``."""

    def describe(self) -> str:
        return self.name


class FrozensetBackend(SetBackend):
    """Reference kernel: handles are the key ``frozenset`` values."""

    name = "frozenset"

    def encode_instance(self, instance) -> tuple[frozenset, ...]:
        return tuple(instance.sets)

    def encode(self, keys: Iterable[Key]) -> frozenset:
        return freeze(keys)

    def union(self, handles: Iterable[frozenset]) -> frozenset:
        return union_all(handles)

    def size(self, handle: frozenset) -> int:
        return len(handle)

    def union_size(self, handles: Iterable[frozenset]) -> int:
        # Not union_all(): that ends with a frozenset copy this
        # size-only hot path doesn't need.
        out: set = set()
        for handle in handles:
            out.update(handle)
        return len(out)

    def intersection_size(self, a: frozenset, b: frozenset) -> int:
        return len(a & b)

    def decode(self, handle: frozenset) -> frozenset:
        return handle


class BitsetBackend(SetBackend):
    """Integer-bitset kernel built on :class:`BitsetEncoder`.

    ``encode_instance`` binds the backend to the instance's (cached)
    encoder, so handles produced for one instance decode correctly for
    the lifetime of the run.
    """

    name = "bitset"

    def __init__(self, encoder: Optional[BitsetEncoder] = None) -> None:
        self._encoder = encoder

    @property
    def encoder(self) -> BitsetEncoder:
        if self._encoder is None:
            self._encoder = BitsetEncoder()
        return self._encoder

    def encode_instance(self, instance) -> tuple[int, ...]:
        self._encoder, encoded = instance.bitset_encoding
        return encoded

    def encode(self, keys: Iterable[Key]) -> int:
        return self.encoder.encode(keys)

    def union(self, handles: Iterable[int]) -> int:
        bits = 0
        for handle in handles:
            bits |= handle
        return bits

    def size(self, handle: int) -> int:
        return handle.bit_count()

    def union_size(self, handles: Iterable[int]) -> int:
        bits = 0
        for handle in handles:
            bits |= handle
        return bits.bit_count()

    def intersection_size(self, a: int, b: int) -> int:
        return (a & b).bit_count()

    def decode(self, handle: int) -> frozenset:
        return self.encoder.decode(handle)


#: Registry of backend names (plus aliases) to factories.
_BACKENDS: dict[str, type[SetBackend]] = {
    "frozenset": FrozensetBackend,
    "bitset": BitsetBackend,
}
_BACKEND_ALIASES: dict[str, str] = {
    "fs": "frozenset",
    "set": "frozenset",
    "bits": "bitset",
    "int": "bitset",
}

BackendSpec = Union[str, SetBackend, None]


def available_backends() -> tuple[str, ...]:
    """Canonical names of all registered backends."""
    return tuple(sorted(_BACKENDS))


def canonical_backend_name(name: str) -> str:
    """Resolve an alias like ``"fs"`` to its canonical backend name."""
    lowered = name.lower()
    if lowered in _BACKENDS:
        return lowered
    if lowered in _BACKEND_ALIASES:
        return _BACKEND_ALIASES[lowered]
    raise BackendError(
        f"unknown set backend {name!r}; available: {sorted(_BACKENDS)} "
        f"(aliases: {sorted(_BACKEND_ALIASES)})"
    )


def make_backend(spec: BackendSpec = None) -> SetBackend:
    """Build a fresh backend from a name, alias, instance or ``None``.

    ``None`` means the default (``frozenset``) kernel.  Passing an
    existing :class:`SetBackend` returns it unchanged, which lets callers
    inject a pre-bound backend (e.g. to share one bitset encoder).
    """
    if spec is None:
        return FrozensetBackend()
    if isinstance(spec, SetBackend):
        return spec
    if isinstance(spec, str):
        return _BACKENDS[canonical_backend_name(spec)]()
    raise BackendError(
        f"backend spec must be a name, SetBackend or None, got {type(spec).__name__}"
    )

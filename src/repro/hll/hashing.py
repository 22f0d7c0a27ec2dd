"""Deterministic 64-bit hashing for HyperLogLog and bloom filters.

Python's built-in ``hash`` is salted per process (``PYTHONHASHSEED``), so
the library ships its own hash functions to make every sketch, estimate
and simulation reproducible across runs:

* :func:`splitmix64` — Steele et al.'s finalizer; excellent avalanche for
  integer keys.
* :func:`fnv1a64` — FNV-1a over bytes, used for strings and as the
  fallback for other value types.
* :func:`hash_key` — the dispatching entry point used everywhere in the
  library; supports ``int``, ``str``, ``bytes``, ``tuple`` (recursively)
  and falls back to hashing ``repr`` for other values.  Its per-type
  part, :func:`key_base`, does not depend on the seed.
* :func:`hash_keys_u64` — the numpy batch form of :func:`hash_key` for
  plain-int keys; :func:`hash_key` is its oracle and the only path for
  keys a ``uint64`` vector cannot represent (str, bool, tuple, ...).

All results are uniform over ``[0, 2**64)``.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as _np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (finalizer variant)."""
    x = (x + _GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def fnv1a64(data: bytes) -> int:
    """FNV-1a 64-bit hash of a byte string."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & MASK64
    return h


def hash_key(key: Hashable, seed: int = 0) -> int:
    """Hash an arbitrary hashable key to a uniform 64-bit integer.

    The same (key, seed) pair always maps to the same value, in any
    process.  Tuples are hashed recursively (needed for the
    f-approximation's ``(element, set_index)`` dummy keys).

    Integers are folded into 64 bits before mixing, so two ints that
    agree modulo ``2**64`` collide — irrelevant for key-value keys,
    which live far below that range.
    """
    return splitmix64(key_base(key) ^ splitmix64(seed))


def key_base(key: Hashable) -> int:
    """The seed-independent part of :func:`hash_key`.

    ``hash_key(key, seed) == splitmix64(key_base(key) ^ splitmix64(seed))``,
    so a caller hashing one key under several fixed seeds (the bloom
    filter's probe pair) dispatches on its type once.
    """
    if isinstance(key, bool):  # bool is an int subclass; keep it distinct
        return 0x51ED2700 + int(key)
    if isinstance(key, int):
        return key & MASK64
    if isinstance(key, str):
        # type salt keeps str distinct from its utf-8 bytes
        return fnv1a64(key.encode("utf-8")) ^ 0x5374720000000000
    if isinstance(key, bytes):
        return fnv1a64(key)
    if isinstance(key, tuple):
        acc = 0x2545F4914F6CDD1D
        for item in key:
            acc = splitmix64(acc ^ hash_key(item))
        return acc
    if isinstance(key, frozenset):
        # Order-independent combine so equal sets hash equally.
        acc = 0
        for item in key:
            acc ^= hash_key(item)
        return acc
    return fnv1a64(repr(key).encode("utf-8"))


def _splitmix64_u64(x: "_np.ndarray") -> "_np.ndarray":
    """Vectorized :func:`splitmix64` over a ``uint64`` array.

    Bit-for-bit identical to the scalar version: uint64 arithmetic wraps
    modulo ``2**64`` exactly like the explicit ``& MASK64`` masking.
    """
    x = x + _np.uint64(_GOLDEN)
    x = (x ^ (x >> _np.uint64(30))) * _np.uint64(_MIX1)
    x = (x ^ (x >> _np.uint64(27))) * _np.uint64(_MIX2)
    return x ^ (x >> _np.uint64(31))


def hash_keys_u64(keys: Sequence[Hashable], seed: int = 0) -> Optional["_np.ndarray"]:
    """Batch :func:`hash_key` for a sequence of plain ``int`` keys.

    Returns a ``uint64`` numpy array with ``hash_keys_u64(keys)[i] ==
    hash_key(keys[i], seed)`` for every position, or ``None`` when the
    batch path does not apply (some key is not a plain int — ``bool``
    keys are type-salted by :func:`hash_key` and must take the scalar
    path).  Callers fall back to the per-key loop on ``None``.

    ``int64``/``uint64`` numpy arrays are accepted directly (the read
    path's columnar probe batches); the two's-complement ``uint64`` view
    of a negative ``int64`` equals the scalar path's ``key & MASK64``.
    """
    if isinstance(keys, _np.ndarray):
        if keys.dtype == _np.uint64:
            base = keys
        elif keys.dtype == _np.int64:
            base = _np.ascontiguousarray(keys).view(_np.uint64)
        else:
            return None
        with _np.errstate(over="ignore"):
            return _splitmix64_u64(base ^ _np.uint64(splitmix64(seed)))
    if not isinstance(keys, (list, tuple)):
        return None
    # set(map(type, ...)) runs at C speed; a strict-subset check keeps
    # bool (an int subclass with a different type salt) off this path.
    if not set(map(type, keys)) <= {int}:
        return None
    try:
        base = _np.array(keys, dtype=_np.uint64)
    except (OverflowError, ValueError, TypeError):
        # Negative or >= 2**64 keys: fold into 64 bits like the scalar path.
        base = _np.fromiter(
            (key & MASK64 for key in keys), dtype=_np.uint64, count=len(keys)
        )
    with _np.errstate(over="ignore"):
        return _splitmix64_u64(base ^ _np.uint64(splitmix64(seed)))

"""Bloom filters for sstable read-path pruning.

Every sstable carries a bloom filter so point reads can skip tables that
certainly do not contain the key — the standard LSM read-amplification
mitigation (Bigtable §6, Cassandra, RocksDB).  Classic m/k sizing from
the target false-positive rate, double hashing for the k probes (the
probe arithmetic wraps at 64 bits so the scalar and the vectorized
uint64 batch path set exactly the same bits).  The probe hashes depend
only on the key, so a point read computes them once
(:func:`probe_hashes`) and tests them against every table it checks.

:meth:`BloomFilter.add_all` is batched: plain-int key collections hash
through :func:`~repro.hll.hashing.hash_keys_u64` and scatter their probe
bits with one ``bitwise_or.at`` — the path the simulator's columnar
sstables use — and everything else falls back to the per-key loop.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Optional

import numpy as _np

from ..errors import ConfigError
from ..hll.hashing import MASK64, hash_keys_u64, key_base, splitmix64

_PROBE_SEED_1 = 0x0B1008
_PROBE_SEED_2 = 0x0B1009
_SEED_MIX_1 = splitmix64(_PROBE_SEED_1)
_SEED_MIX_2 = splitmix64(_PROBE_SEED_2)


def probe_hashes(key: Hashable) -> tuple[int, int]:
    """The double-hashing pair ``(h1, h2)`` every filter probes ``key`` with.

    ``h1``/``h2`` are ``hash_key(key, seed)`` under the two probe seeds
    (``h2`` forced odd, so its multiples cycle through every bit).  The
    pair does not depend on the filter, so a point read computes it once
    and tests it against each table's filter with
    :meth:`BloomFilter.contains_hashes`.
    """
    base = key_base(key)
    return splitmix64(base ^ _SEED_MIX_1), splitmix64(base ^ _SEED_MIX_2) | 1


class BloomFilter:
    """A fixed-size bloom filter sized for ``capacity`` keys at ``fp_rate``."""

    __slots__ = ("m_bits", "k_hashes", "_bits", "_count")

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        if capacity < 1:
            raise ConfigError("bloom capacity must be at least 1")
        if not 0.0 < fp_rate < 1.0:
            raise ConfigError("bloom fp_rate must be in (0, 1)")
        ln2 = math.log(2.0)
        self.m_bits = max(8, math.ceil(-capacity * math.log(fp_rate) / (ln2 * ln2)))
        self.k_hashes = max(1, round(self.m_bits / capacity * ln2))
        self._bits = bytearray((self.m_bits + 7) // 8)
        self._count = 0

    def add(self, key: Hashable) -> None:
        h1, h2 = probe_hashes(key)
        m = self.m_bits
        for i in range(self.k_hashes):
            bit = ((h1 + i * h2) & MASK64) % m
            self._bits[bit >> 3] |= 1 << (bit & 7)
        self._count += 1

    def add_all(self, keys: Iterable[Hashable]) -> None:
        """Insert many keys, vectorizing plain-int batches.

        An ``int64`` / ``uint64`` array is hashed as it is; any other
        array becomes plain Python scalars first, since a numpy scalar
        would hash through ``key_base``'s ``repr`` fallback and miss its
        plain-int lookups.
        """
        if isinstance(keys, _np.ndarray):
            if keys.dtype not in (_np.int64, _np.uint64):
                keys = keys.tolist()
        elif not isinstance(keys, (list, tuple)):
            keys = list(keys)
        h1 = hash_keys_u64(keys, seed=_PROBE_SEED_1)
        if h1 is None:  # keys a uint64 vector cannot represent
            for key in keys:
                self.add(key)
            return
        h2 = hash_keys_u64(keys, seed=_PROBE_SEED_2) | _np.uint64(1)
        with _np.errstate(over="ignore"):
            # uint64 arithmetic wraps exactly like the scalar & MASK64.
            probes = h1[:, None] + _np.arange(
                self.k_hashes, dtype=_np.uint64
            ) * h2[:, None]
        positions = (probes % _np.uint64(self.m_bits)).ravel()
        byte_index = (positions >> _np.uint64(3)).astype(_np.intp)
        masks = _np.left_shift(
            _np.uint8(1), (positions & _np.uint64(7)).astype(_np.uint8)
        )
        bits = _np.frombuffer(self._bits, dtype=_np.uint8)
        _np.bitwise_or.at(bits, byte_index, masks)
        self._count += len(keys)

    def contains_hashes(self, h1: int, h2: int) -> bool:
        """Membership test for a key given its :func:`probe_hashes` pair."""
        bits = self._bits
        m = self.m_bits
        for i in range(self.k_hashes):
            bit = ((h1 + i * h2) & MASK64) % m
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def __contains__(self, key: Hashable) -> bool:
        return self.contains_hashes(*probe_hashes(key))

    def contains_batch(self, keys) -> Optional["_np.ndarray"]:
        """Vectorized membership test, bit-identical to ``key in self``.

        Mirrors :meth:`add_all`'s probe arithmetic: the same double
        hashes, the same uint64 wrap, the same bit positions — gathered
        instead of scattered.  Accepts plain-int lists/tuples or
        ``int64``/``uint64`` arrays; returns a boolean array (``True``
        means possibly present) or ``None`` when the batch path does not
        apply, in which case callers fall back to the scalar ``in``.
        """
        h1 = hash_keys_u64(keys, seed=_PROBE_SEED_1)
        if h1 is None:
            return None
        h2 = hash_keys_u64(keys, seed=_PROBE_SEED_2) | _np.uint64(1)
        with _np.errstate(over="ignore"):
            probes = h1[:, None] + _np.arange(
                self.k_hashes, dtype=_np.uint64
            ) * h2[:, None]
        positions = probes % _np.uint64(self.m_bits)
        byte_index = (positions >> _np.uint64(3)).astype(_np.intp)
        masks = _np.left_shift(
            _np.uint8(1), (positions & _np.uint64(7)).astype(_np.uint8)
        )
        bits = _np.frombuffer(self._bits, dtype=_np.uint8)
        return ((bits[byte_index] & masks) != 0).all(axis=1)

    def __len__(self) -> int:
        """Number of keys added (not the bit count)."""
        return self._count

    @property
    def size_bytes(self) -> int:
        return len(self._bits)

    @classmethod
    def from_state(
        cls, m_bits: int, k_hashes: int, count: int, bits: bytes
    ) -> "BloomFilter":
        """Rebuild a filter from its persisted state (sstable footer).

        Bypasses the capacity/fp-rate sizing — the geometry was fixed
        when the filter was first built and must be restored verbatim or
        the probe positions would no longer match the stored bits.
        """
        if len(bits) != (m_bits + 7) // 8:
            raise ConfigError(
                f"bloom bit payload is {len(bits)} bytes, expected "
                f"{(m_bits + 7) // 8} for m_bits={m_bits}"
            )
        bloom = cls.__new__(cls)
        bloom.m_bits = m_bits
        bloom.k_hashes = k_hashes
        bloom._bits = bytearray(bits)
        bloom._count = count
        return bloom

    @classmethod
    def of(cls, keys: Iterable[Hashable], fp_rate: float = 0.01) -> "BloomFilter":
        """Build a filter sized for (and filled with) ``keys``."""
        if not isinstance(keys, _np.ndarray):
            keys = list(keys)
        bloom = cls(max(1, len(keys)), fp_rate)
        bloom.add_all(keys)
        return bloom

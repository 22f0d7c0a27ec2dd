"""HyperLogLog cardinality estimation (Flajolet et al., AOFA 2007).

The paper's practical SMALLESTOUTPUT strategy (§5.1) estimates the
cardinality of the union of candidate sstables with HyperLogLog instead
of materializing the union.  This module is a from-scratch
implementation:

* 64-bit hashing (:mod:`repro.hll.hashing`), so the 32-bit large-range
  correction of the original paper is unnecessary,
* ``m = 2**p`` byte registers with the standard bias correction
  ``alpha_m``,
* linear counting for the small-range regime (``E <= 2.5 m`` with empty
  registers),
* *lossless* unions — the register-wise max of two sketches equals the
  sketch of the union of their streams, the property the incremental
  pair cache in the SO policy relies on,
* batch ingestion: :meth:`add_all` hashes plain-int key batches as one
  ``uint64`` vector and scatter-maxes the registers in one call,
  producing registers byte-identical to the per-key path (which serves
  every other key type).

Estimates are backing-independent: the harmonic-sum kernel accumulates
exactly (see :mod:`repro.hll.registers`), so a numpy sketch and its
``force_pure`` bytearray oracle report identical floats over the same
keys.

Typical relative error is ``1.04 / sqrt(m)`` (about 1.6 % at the default
precision ``p = 12``).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable

import numpy as _np

from .hashing import hash_key, hash_keys_u64
from .registers import RegisterArray

MIN_PRECISION = 4
MAX_PRECISION = 18


def _alpha(m: int) -> float:
    """Bias-correction constant ``alpha_m`` from the HLL paper."""
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _bit_length_u64(x: "_np.ndarray") -> "_np.ndarray":
    """Exact vectorized ``int.bit_length`` for a ``uint64`` array.

    Splits into 32-bit halves so every value converts to float64
    exactly; ``frexp``'s exponent of an exact positive integer is its
    bit length (and 0 for 0.0), with no rounding edge cases.
    """
    high = (x >> _np.uint64(32)).astype(_np.float64)
    low = (x & _np.uint64(0xFFFFFFFF)).astype(_np.float64)
    return _np.where(high > 0.0, _np.frexp(high)[1] + 32, _np.frexp(low)[1])


class HyperLogLog:
    """A HyperLogLog sketch.

    Parameters
    ----------
    precision:
        Number of index bits ``p``; the sketch keeps ``2**p`` registers.
    seed:
        Hash seed.  Sketches can only be merged when their precision and
        seed match (they must route keys identically).
    force_pure:
        Use the pure-Python ``bytearray`` register backing: the oracle
        the numpy kernels are tested against (and benchmarked beside).
    """

    __slots__ = ("precision", "m", "seed", "_registers", "_suffix_bits", "_alpha_mm")

    def __init__(
        self, precision: int = 12, seed: int = 0, force_pure: bool = False
    ) -> None:
        if not MIN_PRECISION <= precision <= MAX_PRECISION:
            raise ValueError(
                f"precision must be in [{MIN_PRECISION}, {MAX_PRECISION}], "
                f"got {precision}"
            )
        self.precision = precision
        self.m = 1 << precision
        self.seed = seed
        self._suffix_bits = 64 - precision
        self._alpha_mm = _alpha(self.m) * self.m * self.m
        self._registers = RegisterArray(self.m, force_pure=force_pure)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def add(self, key: Hashable) -> None:
        """Add one key to the sketch."""
        self.add_hash(hash_key(key, self.seed))

    def add_hash(self, hashed: int) -> None:
        """Add a pre-hashed 64-bit value (must come from the same seed)."""
        index = hashed >> self._suffix_bits
        suffix = hashed & ((1 << self._suffix_bits) - 1)
        # rank = position of the leftmost 1-bit in the suffix (1-based);
        # an all-zero suffix ranks suffix_bits + 1.
        rank = self._suffix_bits - suffix.bit_length() + 1
        self._registers.update(index, rank)

    def add_all(self, keys: Iterable[Hashable]) -> None:
        """Add every key in ``keys``.

        Plain-int batches and ``int64`` / ``uint64`` arrays take the
        vectorized path when numpy backs the registers; anything else
        falls back to the per-key loop (which consumes iterables lazily —
        only the vectorized candidate path materializes them).  Both
        paths produce byte-identical registers.
        """
        vectorized = self._registers.is_vectorized
        if isinstance(keys, _np.ndarray) and not (
            vectorized and keys.dtype in (_np.int64, _np.uint64)
        ):
            keys = keys.tolist()  # a numpy scalar would hash by its repr
        if vectorized:
            if not isinstance(keys, (list, tuple, _np.ndarray)):
                keys = list(keys)
            if len(keys):
                hashed = hash_keys_u64(keys, self.seed)
                if hashed is not None:
                    self._add_hash_array(hashed)
                    return
        seed = self.seed
        suffix_bits = self._suffix_bits
        suffix_mask = (1 << suffix_bits) - 1
        registers = self._registers
        for key in keys:
            hashed = hash_key(key, seed)
            index = hashed >> suffix_bits
            suffix = hashed & suffix_mask
            registers.update(index, suffix_bits - suffix.bit_length() + 1)

    def _add_hash_array(self, hashed: "_np.ndarray") -> None:
        """Scatter a batch of pre-hashed ``uint64`` values into registers."""
        suffix_bits = self._suffix_bits
        indices = (hashed >> _np.uint64(suffix_bits)).astype(_np.intp)
        suffixes = hashed & _np.uint64((1 << suffix_bits) - 1)
        ranks = (suffix_bits + 1 - _bit_length_u64(suffixes)).astype(_np.uint8)
        self._registers.update_many(indices, ranks)

    @classmethod
    def of(
        cls,
        keys: Iterable[Hashable],
        precision: int = 12,
        seed: int = 0,
        force_pure: bool = False,
    ) -> "HyperLogLog":
        """Build a sketch over ``keys`` in one call."""
        sketch = cls(precision=precision, seed=seed, force_pure=force_pure)
        sketch.add_all(keys)
        return sketch

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _estimate_from_stats(self, harmonic_sum: float, zeros: int) -> float:
        """The raw-estimate + linear-counting decision, shared by every
        estimate path (single sketch, lossless union, fused candidates)."""
        m = self.m
        raw = self._alpha_mm / harmonic_sum
        if raw <= 2.5 * m and zeros:
            # Linear counting is more accurate in the sparse regime.
            return m * math.log(m / zeros)
        # 64-bit hashes make collisions astronomically unlikely below
        # 2**60 distinct keys, so no large-range correction is needed.
        return raw

    def cardinality(self) -> float:
        """Estimate the number of distinct keys added so far."""
        return self._estimate_from_stats(*self._registers.stats())

    def __len__(self) -> int:
        """Rounded cardinality estimate."""
        return round(self.cardinality())

    @staticmethod
    def expected_relative_error(precision: int) -> float:
        """The canonical ``1.04 / sqrt(2**p)`` standard error."""
        return 1.04 / math.sqrt(1 << precision)

    # ------------------------------------------------------------------
    # Union
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "HyperLogLog") -> None:
        if self.precision != other.precision or self.seed != other.seed:
            raise ValueError(
                "sketches must share precision and seed to be merged "
                f"(got p={self.precision}/seed={self.seed} vs "
                f"p={other.precision}/seed={other.seed})"
            )

    def merge(self, other: "HyperLogLog") -> None:
        """In-place union: after this call the sketch covers both streams."""
        self._check_compatible(other)
        self._registers.merge_max(other._registers)

    def union(self, *others: "HyperLogLog") -> "HyperLogLog":
        """Return a new sketch equal to the union of self and ``others``."""
        out = self.copy()
        for other in others:
            out.merge(other)
        return out

    def __or__(self, other: "HyperLogLog") -> "HyperLogLog":
        return self.union(other)

    def to_bytes(self) -> bytes:
        """The raw register bytes (``2**precision`` of them).

        Together with ``(precision, seed)`` this is the sketch's complete
        state; :meth:`from_registers` restores it losslessly, so a sketch
        persisted in an sstable footer estimates identically after a
        round-trip.
        """
        return self._registers.to_bytes()

    @classmethod
    def from_registers(
        cls, precision: int, seed: int, data: bytes, force_pure: bool = False
    ) -> "HyperLogLog":
        """Rebuild a sketch from :meth:`to_bytes` output."""
        sketch = cls(precision=precision, seed=seed, force_pure=force_pure)
        sketch._registers.load_bytes(data)
        return sketch

    def copy(self) -> "HyperLogLog":
        clone = HyperLogLog.__new__(HyperLogLog)
        clone.precision = self.precision
        clone.m = self.m
        clone.seed = self.seed
        clone._suffix_bits = self._suffix_bits
        clone._alpha_mm = self._alpha_mm
        clone._registers = self._registers.copy()
        return clone

    def union_cardinality(self, *others: "HyperLogLog", scratch=None) -> float:
        """Estimate ``|A u B u ...|`` without mutating any sketch.

        Fused kernel: the element-wise register max feeds the harmonic
        reduction directly, with no merged register array allocated
        (``scratch`` optionally recycles the max buffer across calls).
        """
        for other in others:
            self._check_compatible(other)
        harmonic_sum, zeros = RegisterArray.union_stats(
            [self._registers, *(other._registers for other in others)],
            scratch=scratch,
        )
        return self._estimate_from_stats(harmonic_sum, zeros)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HyperLogLog(p={self.precision}, estimate={self.cardinality():.1f})"

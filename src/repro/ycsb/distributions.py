"""YCSB key-access distributions (paper §5.1 "Dataset").

The paper's workloads access keys with one of three distributions:

* **Uniform** — every inserted key equally likely.
* **Zipfian** — a few keys are popular (power law).  This is Gray et
  al.'s rejection-free algorithm exactly as implemented in YCSB's
  ``ZipfianGenerator`` (theta = 0.99 by default), with incremental
  extension of the ``zeta(n, theta)`` constant as the key space grows
  from inserts.
* **Latest** — recently inserted keys are popular: a zipfian over
  recency, ``key = newest - zipf()`` (YCSB's ``SkewedLatestGenerator``).

A **scrambled zipfian** variant is also provided (zipfian popularity
assigned to hashed positions, so hot keys are spread across the key
space) — YCSB's default for read/update choosers.

Every chooser draws from ``[0, item_count)`` where ``item_count`` is
passed per call, because the run phase inserts new records and the
choosers must track the growing key space.

Batch decode
------------
The Gray-sampling choosers (zipfian, scrambled zipfian, latest) spend
exactly one ``rng.random()`` per key, so a caller that reads the rng
stream itself (:mod:`repro.ycsb.wordstream`) hands the variates to
:meth:`ZipfianChooser.decode_batch` and gets the keys the scalar
:meth:`KeyChooser.next` calls would have produced, bit for bit, zeta
state included.  The decode is numpy arrays in and out.  IEEE-754
defines add/mul/div exactly, so those vectorize as they are; ``pow`` is
not exact, and numpy's SIMD ``power`` loops round some inputs
differently from libm's ``pow``, which the scalar path calls.  All three
``pow`` sites therefore run through ``np.float_power``, whose float64
loop calls the C library's ``pow`` per element, as ``math.pow`` and
``float.__pow__`` do: the marginal zeta terms ``i**theta``,
``(2/n)**(1-theta)`` once per key-space size and ``base**alpha`` once
per tail key.

Rejection-sampled choosers (uniform, hotspot) consume a data-dependent
number of ``getrandbits`` draws per key whose acceptance depends on the
running key-space size; they have no batch decode and are driven one
``next`` at a time.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

import numpy as _np

from ..errors import WorkloadError
from ..hll.hashing import splitmix64

DEFAULT_ZIPFIAN_THETA = 0.99

#: Marginal zeta extensions shorter than this stay in the scalar loop —
#: run-phase inserts grow the key space one key at a time and a numpy
#: round-trip per single term would be slower than the arithmetic.
_ZETA_VECTOR_MIN = 32

class KeyChooser(ABC):
    """Chooses a key index in ``[0, item_count)``."""

    name: str = "abstract"

    @abstractmethod
    def next(self, rng: random.Random, item_count: int) -> int:
        """Draw the next key index given the current key-space size."""

    def _check(self, item_count: int) -> None:
        if item_count < 1:
            raise WorkloadError("item_count must be at least 1")


class UniformChooser(KeyChooser):
    """Uniform over all inserted keys (``randrange`` rejection-samples
    ``getrandbits`` draws; see the module docstring)."""

    name = "uniform"

    def next(self, rng: random.Random, item_count: int) -> int:
        self._check(item_count)
        return rng.randrange(item_count)


class ZipfianChooser(KeyChooser):
    """Gray's zipfian algorithm as used by YCSB's ``ZipfianGenerator``.

    Key ``0`` is the most popular.  ``zeta(n, theta)`` is maintained
    incrementally so that growing ``item_count`` (run-phase inserts)
    costs only the marginal terms; the marginal-terms sum is
    numpy-vectorized for large extensions (a fresh chooser's first draw
    at paper scale) with a bit-identical sequential accumulation.
    """

    name = "zipfian"

    def __init__(self, theta: float = DEFAULT_ZIPFIAN_THETA) -> None:
        if not 0.0 < theta < 1.0:
            raise WorkloadError(f"zipfian theta must be in (0, 1), got {theta}")
        self.theta = theta
        self._n = 0
        self._zetan = 0.0
        self._zeta2 = 2.0 ** -theta + 1.0  # zeta(2, theta) = 1 + 1/2^theta
        self._alpha = 1.0 / (1.0 - theta)
        self._second_cut = 1.0 + 0.5**theta  # uz below this => key 1

    # ------------------------------------------------------------------
    # zeta(n, theta) maintenance
    # ------------------------------------------------------------------
    def _marginal_accumulation(self, item_count: int) -> "_np.ndarray":
        """``zeta`` after 0, 1, ..., ``item_count - self._n`` marginal terms.

        ``np.add.accumulate`` applies the additions strictly sequentially
        and the base value is prepended before accumulating, so every
        partial sum is bit-identical to the scalar ``+=`` loop.  Each
        base is an int64 cast to float64, the float that ``i ** theta``
        converts ``i`` to, and its power comes from libm through
        ``np.float_power`` (see module docstring).
        """
        accumulation = _np.empty(item_count - self._n + 1, dtype=_np.float64)
        accumulation[0] = self._zetan
        terms = accumulation[1:]
        terms[:] = _np.arange(self._n + 1, item_count + 1, dtype=_np.int64)
        _np.float_power(terms, self.theta, out=terms)
        _np.divide(1.0, terms, out=terms)
        return _np.add.accumulate(accumulation, out=accumulation)

    def _extend_zeta(self, item_count: int) -> None:
        if item_count < self._n:
            # Key spaces never shrink in YCSB; recompute defensively.
            self._n = 0
            self._zetan = 0.0
        if item_count - self._n >= _ZETA_VECTOR_MIN:
            self._zetan = float(self._marginal_accumulation(item_count)[-1])
        else:
            theta = self.theta
            for i in range(self._n + 1, item_count + 1):
                self._zetan += 1.0 / (i**theta)
        self._n = item_count

    # ------------------------------------------------------------------
    # Gray's inverse-CDF transform (shared by next / decode_batch)
    # ------------------------------------------------------------------
    def _eta(self, item_count: int, zetan: float) -> float:
        return (1.0 - (2.0 / item_count) ** (1.0 - self.theta)) / (
            1.0 - self._zeta2 / zetan
        )

    def _decode(self, u: float, item_count: int, zetan: float) -> int:
        uz = u * zetan
        if uz < 1.0:
            return 0
        if uz < self._second_cut:
            return 1
        # eta is only needed past the head cuts, and for item_count == 2
        # those cuts cover the whole range (zeta(2) == the second cut),
        # so computing it lazily keeps the 0/0 out of reach there.
        eta = self._eta(item_count, zetan)
        value = int(item_count * (eta * u - eta + 1.0) ** self._alpha)
        return min(value, item_count - 1)

    def next(self, rng: random.Random, item_count: int) -> int:
        self._check(item_count)
        if item_count == 1:
            return 0
        if item_count != self._n:
            self._extend_zeta(item_count)
        return self._decode(rng.random(), item_count, self._zetan)

    # ------------------------------------------------------------------
    # Batch decode
    # ------------------------------------------------------------------
    def decode_batch(self, us: "_np.ndarray", item_counts: "_np.ndarray") -> "_np.ndarray":
        """Keys for pre-drawn uniform variates (all ``item_counts > 1``).

        ``us[i]`` must be the ``rng.random()`` value :meth:`next` would
        have drawn for ``item_counts[i]``; the caller reads the rng
        stream itself and decodes here, one vectorized pass per block.
        Updates the incremental zeta state exactly as the scalar calls
        would.

        ``np.float_power`` gives libm's powers bit for bit, because its
        float64 loop calls the C library's ``pow`` as :meth:`_decode`'s
        ``**`` does; ``tests/ycsb/test_distributions.py`` holds both it
        (``TestLibmPower``) and the keys (``TestDecodeBatch``,
        ``TestStraddlingKeys``) to the scalar path.
        """
        u = _np.asarray(us, dtype=_np.float64)
        counts = _np.asarray(item_counts, dtype=_np.int64)
        if u.ndim != 1 or u.shape != counts.shape:
            raise WorkloadError("decode_batch needs one variate per item count")
        if not counts.size:
            return _np.empty(0, dtype=_np.int64)
        smallest = int(counts.min())
        if smallest < 2:
            raise WorkloadError("decode_batch requires item counts > 1")
        if smallest < self._n:
            # Defensive shrink (scalar resets and recomputes from zero).
            # zeta(n) is history-independent bit for bit — every path is
            # the same sequential sum over 1..n — so restarting from
            # scratch reproduces the scalar values.
            self._n = 0
            self._zetan = 0.0
        base_n = self._n
        accumulation = self._marginal_accumulation(int(counts.max()))
        zetan = accumulation[counts - base_n]
        last = int(counts[-1])
        self._n = last
        self._zetan = float(accumulation[last - base_n])

        uz = u * zetan
        out = (uz >= 1.0).astype(_np.int64)  # head cuts: key 0, else key 1
        tail = _np.flatnonzero(uz >= self._second_cut)
        if tail.size:
            u, sizes, zetan = u[tail], counts[tail], zetan[tail]
            # eta once per run of equal key-space sizes (sizes only grow
            # in a workload, so per distinct size), with the scalar
            # path's arithmetic.  Sizes whose draws all land in the head
            # cuts (item_count == 2 always does) never get here, so the
            # 0/0-prone expression is never evaluated for them, matching
            # the lazy scalar _decode.
            fresh = _np.concatenate(([True], sizes[1:] != sizes[:-1]))
            firsts = _np.flatnonzero(fresh)
            shrink = _np.float_power(2.0 / sizes[firsts], 1.0 - self.theta)
            eta = (1.0 - shrink) / (1.0 - self._zeta2 / zetan[firsts])
            eta = eta[_np.cumsum(fresh) - 1]
            p = _np.float_power(eta * u - eta + 1.0, self._alpha)
            out[tail] = _keys_at(sizes * p, sizes)
        return out


def _keys_at(x: "_np.ndarray", sizes: "_np.ndarray") -> "_np.ndarray":
    """The scalar key ``min(int(n * p), n - 1)`` of each ``x = n * p``.

    Caps in float *before* the int cast: the same key as the scalar
    ``int()`` + ``min()``, with huge intermediates kept off the int64
    cast.
    """
    capped = _np.minimum(x, sizes.astype(_np.float64)).astype(_np.int64)
    return _np.minimum(capped, sizes - 1)


class ScrambledZipfianChooser(KeyChooser):
    """Zipfian popularity scattered over the key space by hashing.

    YCSB scrambles so the hot keys are not the low-numbered (oldest)
    records; overlap *structure* between sstables is preserved, only the
    identity of the hot keys changes.
    """

    name = "scrambled_zipfian"

    def __init__(self, theta: float = DEFAULT_ZIPFIAN_THETA, salt: int = 0xC0FFEE) -> None:
        self._zipfian = ZipfianChooser(theta)
        self._salt = salt

    def next(self, rng: random.Random, item_count: int) -> int:
        self._check(item_count)
        rank = self._zipfian.next(rng, item_count)
        return splitmix64(rank ^ self._salt) % item_count

    def decode_batch(self, us: "_np.ndarray", item_counts: "_np.ndarray") -> "_np.ndarray":
        from ..hll.hashing import _splitmix64_u64

        ranks = self._zipfian.decode_batch(us, item_counts)
        with _np.errstate(over="ignore"):
            hashed = _splitmix64_u64(ranks.astype(_np.uint64) ^ _np.uint64(self._salt))
        return (hashed % _np.asarray(item_counts, dtype=_np.uint64)).astype(_np.int64)


class LatestChooser(KeyChooser):
    """YCSB's ``SkewedLatestGenerator``: newest keys are most popular."""

    name = "latest"

    def __init__(self, theta: float = DEFAULT_ZIPFIAN_THETA) -> None:
        self._zipfian = ZipfianChooser(theta)

    def next(self, rng: random.Random, item_count: int) -> int:
        self._check(item_count)
        offset = self._zipfian.next(rng, item_count)
        return item_count - 1 - offset

    def decode_batch(self, us: "_np.ndarray", item_counts: "_np.ndarray") -> "_np.ndarray":
        ranks = self._zipfian.decode_batch(us, item_counts)
        return _np.asarray(item_counts, dtype=_np.int64) - 1 - ranks


class HotspotChooser(KeyChooser):
    """YCSB's ``HotspotIntegerGenerator``: a hot set absorbs most accesses.

    A fraction ``hot_fraction`` of the key space receives
    ``hot_access_fraction`` of the accesses (defaults: 20 % of keys get
    80 % of accesses); both regions are uniform internally.
    """

    name = "hotspot"

    def __init__(
        self, hot_fraction: float = 0.2, hot_access_fraction: float = 0.8
    ) -> None:
        if not 0.0 < hot_fraction < 1.0:
            raise WorkloadError("hot_fraction must be in (0, 1)")
        if not 0.0 < hot_access_fraction < 1.0:
            raise WorkloadError("hot_access_fraction must be in (0, 1)")
        self.hot_fraction = hot_fraction
        self.hot_access_fraction = hot_access_fraction

    def next(self, rng: random.Random, item_count: int) -> int:
        self._check(item_count)
        hot_count = max(1, int(item_count * self.hot_fraction))
        if rng.random() < self.hot_access_fraction:
            return rng.randrange(hot_count)
        if hot_count >= item_count:
            return rng.randrange(item_count)
        return hot_count + rng.randrange(item_count - hot_count)


class SequentialChooser(KeyChooser):
    """Round-robin over the key space (useful for deterministic tests)."""

    name = "sequential"

    def __init__(self) -> None:
        self._cursor = 0

    def next(self, rng: random.Random, item_count: int) -> int:
        self._check(item_count)
        value = self._cursor % item_count
        self._cursor += 1
        return value


_CHOOSERS = {
    "uniform": UniformChooser,
    "zipfian": ZipfianChooser,
    "scrambled_zipfian": ScrambledZipfianChooser,
    "latest": LatestChooser,
    "hotspot": HotspotChooser,
    "sequential": SequentialChooser,
}


def make_chooser(name: str, theta: float = DEFAULT_ZIPFIAN_THETA) -> KeyChooser:
    """Instantiate a key chooser by distribution name."""
    try:
        factory = _CHOOSERS[name.lower()]
    except KeyError:
        raise WorkloadError(
            f"unknown distribution {name!r}; available: {sorted(_CHOOSERS)}"
        ) from None
    if factory in (ZipfianChooser, ScrambledZipfianChooser, LatestChooser):
        return factory(theta)  # type: ignore[call-arg]
    return factory()


def available_distributions() -> tuple[str, ...]:
    return tuple(sorted(_CHOOSERS))

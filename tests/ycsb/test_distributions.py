"""Tests for the YCSB key-access distributions."""

import ast
import inspect
import math
import random
import struct
import textwrap
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.ycsb import (
    LatestChooser,
    ScrambledZipfianChooser,
    SequentialChooser,
    UniformChooser,
    ZipfianChooser,
    available_distributions,
    make_chooser,
)


def draw(chooser, count: int, item_count: int, seed: int = 0) -> list[int]:
    rng = random.Random(seed)
    return [chooser.next(rng, item_count) for _ in range(count)]


class TestRegistry:
    def test_available(self):
        names = available_distributions()
        assert {"uniform", "zipfian", "latest", "scrambled_zipfian"} <= set(names)

    def test_make_chooser(self):
        assert isinstance(make_chooser("uniform"), UniformChooser)
        assert isinstance(make_chooser("ZIPFIAN"), ZipfianChooser)

    def test_unknown_distribution(self):
        with pytest.raises(WorkloadError):
            make_chooser("pareto")


class TestUniform:
    def test_range(self):
        values = draw(UniformChooser(), 2000, 50)
        assert min(values) >= 0 and max(values) < 50

    def test_roughly_flat(self):
        values = draw(UniformChooser(), 20000, 10)
        counts = Counter(values)
        for key in range(10):
            assert 1600 <= counts[key] <= 2400  # expected 2000

    def test_item_count_validation(self):
        with pytest.raises(WorkloadError):
            UniformChooser().next(random.Random(0), 0)


class TestZipfian:
    def test_range(self):
        values = draw(ZipfianChooser(), 5000, 100)
        assert min(values) >= 0 and max(values) < 100

    def test_rank_frequency_decreasing(self):
        values = draw(ZipfianChooser(), 50000, 1000)
        counts = Counter(values)
        # key 0 should dominate and top keys should be ordered overall
        assert counts[0] > counts[10] > counts[200]

    def test_head_concentration(self):
        """With theta=0.99 the top 10% of keys take well over half the mass."""
        values = draw(ZipfianChooser(), 50000, 1000)
        counts = Counter(values)
        head = sum(counts[k] for k in range(100))
        assert head / len(values) > 0.5

    def test_theta_validation(self):
        with pytest.raises(WorkloadError):
            ZipfianChooser(theta=1.0)
        with pytest.raises(WorkloadError):
            ZipfianChooser(theta=0.0)

    def test_single_item(self):
        assert ZipfianChooser().next(random.Random(0), 1) == 0

    def test_growing_item_count(self):
        """Incremental zeta extension matches a fresh chooser."""
        grown = ZipfianChooser()
        rng = random.Random(1)
        for count in (10, 100, 1000):
            grown.next(rng, count)
        fresh = ZipfianChooser()
        fresh.next(random.Random(2), 1000)
        assert grown._zetan == pytest.approx(fresh._zetan)
        assert grown._n == fresh._n == 1000

    def test_shrinking_item_count_recomputes(self):
        chooser = ZipfianChooser()
        rng = random.Random(3)
        chooser.next(rng, 1000)
        chooser.next(rng, 10)  # defensive path
        assert chooser._n == 10


class TestScrambledZipfian:
    def test_range(self):
        values = draw(ScrambledZipfianChooser(), 5000, 97)
        assert min(values) >= 0 and max(values) < 97

    def test_hot_keys_not_low_numbered(self):
        """Scrambling moves the hottest key away from index 0 (w.h.p.)."""
        values = draw(ScrambledZipfianChooser(), 50000, 1000)
        counts = Counter(values)
        hottest = counts.most_common(1)[0][0]
        assert hottest != 0

    def test_still_skewed(self):
        values = draw(ScrambledZipfianChooser(), 50000, 1000)
        counts = Counter(values)
        top = counts.most_common(100)
        assert sum(c for _, c in top) / len(values) > 0.5


class TestLatest:
    def test_range(self):
        values = draw(LatestChooser(), 5000, 100)
        assert min(values) >= 0 and max(values) < 100

    def test_newest_key_most_popular(self):
        values = draw(LatestChooser(), 50000, 1000)
        counts = Counter(values)
        assert counts[999] == max(counts.values())
        assert counts[999] > counts[500] > 0

    def test_tracks_growing_keyspace(self):
        chooser = LatestChooser()
        rng = random.Random(5)
        small = [chooser.next(rng, 100) for _ in range(2000)]
        large = [chooser.next(rng, 10_000) for _ in range(2000)]
        assert max(small) < 100
        # after growth, the popular keys move to the new tail
        assert Counter(large)[9999] > 0


class TestSequential:
    def test_cycles(self):
        chooser = SequentialChooser()
        values = draw(chooser, 7, 3)
        assert values == [0, 1, 2, 0, 1, 2, 0]


class TestDeterminism:
    @pytest.mark.parametrize("name", ["uniform", "zipfian", "latest", "scrambled_zipfian"])
    def test_same_seed_same_stream(self, name):
        a = draw(make_chooser(name), 500, 200, seed=7)
        b = draw(make_chooser(name), 500, 200, seed=7)
        assert a == b

    @pytest.mark.parametrize("name", ["uniform", "zipfian", "latest"])
    def test_different_seed_differs(self, name):
        a = draw(make_chooser(name), 500, 200, seed=7)
        b = draw(make_chooser(name), 500, 200, seed=8)
        assert a != b


def decode_draws(chooser, rng, counts) -> list[int]:
    """One key per entry of ``counts`` through ``decode_batch``.

    Draws the variates the way the word-stream kernel reads them: one
    ``rng.random()`` per key-space size above one (a single-key space
    is key 0 and consumes nothing), decoded in one call.
    """
    drawn = [count for count in counts if count > 1]
    decoded = iter(chooser.decode_batch([rng.random() for _ in drawn], drawn).tolist())
    return [0 if count == 1 else next(decoded) for count in counts]


GRAY_CHOOSERS = ["zipfian", "latest", "scrambled_zipfian"]

#: The default theta plus both ends of (0, 1) and the steep middle:
#: alpha = 1 / (1 - theta), the tail's ``pow`` exponent, runs from
#: about 1 to 10**5, and the zeta terms' exponent is theta itself.
THETAS = [0.01, 0.5, 0.9, 0.99, 0.999, 0.99999]


class TestDecodeBatch:
    """The batch decode is bit-identical to the scalar next() loop."""

    GROWING = [1, 1, 3, 3, 3, 10, 10, 50, 50, 51, 52, 100] * 20 + list(
        range(100, 700, 3)
    )
    NON_MONOTONIC = [5] * 40 + [9] * 40 + [3] * 5 + [11] * 40

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("name", GRAY_CHOOSERS)
    @pytest.mark.parametrize("counts", [GROWING, NON_MONOTONIC])
    def test_matches_scalar_loop(self, name, counts, theta):
        scalar_chooser = make_chooser(name, theta)
        scalar_rng = random.Random(13)
        expected = [scalar_chooser.next(scalar_rng, c) for c in counts]
        batch_rng = random.Random(13)
        assert decode_draws(make_chooser(name, theta), batch_rng, counts) == expected
        assert batch_rng.getstate() == scalar_rng.getstate()

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("name", GRAY_CHOOSERS)
    def test_state_continues_across_batches(self, name, theta):
        counts = self.GROWING
        scalar_chooser = make_chooser(name, theta)
        scalar_rng = random.Random(3)
        expected = [scalar_chooser.next(scalar_rng, c) for c in counts]
        mixed_chooser = make_chooser(name, theta)
        mixed_rng = random.Random(3)
        got = decode_draws(mixed_chooser, mixed_rng, counts[:100])
        got += [mixed_chooser.next(mixed_rng, c) for c in counts[100:200]]
        got += decode_draws(mixed_chooser, mixed_rng, counts[200:])
        assert got == expected
        zipfian = getattr(mixed_chooser, "_zipfian", mixed_chooser)
        reference = getattr(scalar_chooser, "_zipfian", scalar_chooser)
        assert (zipfian._n, zipfian._zetan) == (reference._n, reference._zetan)

    @pytest.mark.parametrize("name", GRAY_CHOOSERS)
    def test_empty_batch(self, name):
        assert decode_draws(make_chooser(name), random.Random(0), []) == []

    def test_invalid_count_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfianChooser().decode_batch([0.1, 0.2, 0.3], [3, 0, 5])

    def test_decode_batch_validates(self):
        chooser = ZipfianChooser()
        with pytest.raises(WorkloadError):
            chooser.decode_batch([0.5], [3, 4])  # length mismatch
        with pytest.raises(WorkloadError):
            chooser.decode_batch([0.5], [1])  # single-key space

    def test_only_gray_choosers_decode(self):
        """Rejection-sampled and stateful choosers have no batch decode,
        which is what keeps them on the workload's scalar loop."""
        for name in ("uniform", "hotspot", "sequential"):
            assert not hasattr(make_chooser(name), "decode_batch")

    def test_zeta_extension_vectorized_matches_loop(self):
        vectorized = ZipfianChooser()
        vectorized._extend_zeta(5000)
        scalar = ZipfianChooser()
        theta = scalar.theta
        total = 0.0
        for i in range(1, 5001):
            total += 1.0 / (i**theta)
        assert vectorized._zetan == total
        incremental = ZipfianChooser()
        incremental._extend_zeta(321)
        incremental._extend_zeta(5000)
        assert incremental._zetan == vectorized._zetan

    def test_two_key_space_supported(self):
        """zeta(2) equals the second head cut, so every draw lands on key
        0 or 1 and the 0/0-prone eta expression is never evaluated."""
        rng = random.Random(4)
        chooser = ZipfianChooser()
        scalar = [chooser.next(rng, 2) for _ in range(200)]
        assert set(scalar) <= {0, 1}
        batch = decode_draws(make_chooser("zipfian"), random.Random(4), [2] * 200)
        assert batch == scalar
        for name in ("latest", "scrambled_zipfian"):
            values = decode_draws(make_chooser(name), random.Random(4), [2] * 50)
            assert set(values) <= {0, 1}


class _Variate:
    """An rng stand-in whose one ``random()`` draw is ``u``."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


def _float_bits(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _straddling_variates(theta: float, n: int, k: int) -> tuple[float, float]:
    """Adjacent floats ``u_below < u_at`` whose scalar keys are ``< k``
    and ``>= k``: ``n * p`` lies on either side of the integer ``k``.

    Bisects over the bit patterns of positive floats (ordered like their
    values) between the tail's start, whose key is at most 2, and the
    largest float below one, whose key is ``n - 1``.
    """
    chooser = ZipfianChooser(theta)
    chooser._extend_zeta(n)

    def reaches(bits: int) -> bool:
        return chooser.next(_Variate(_bits_float(bits)), n) >= k

    low = _float_bits(chooser._zeta2 / chooser._zetan)
    high = _float_bits(np.nextafter(1.0, 0.0))
    assert not reaches(low) and reaches(high)
    while high - low > 1:
        middle = (low + high) // 2
        if reaches(middle):
            high = middle
        else:
            low = middle
    return _bits_float(low), _bits_float(high)


class TestStraddlingKeys:
    """``decode_batch`` equals ``next()`` where a last-bit change in
    ``p`` would move the key."""

    @pytest.mark.parametrize("theta", THETAS)
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(4, 3000),
        where=st.floats(0.0, 1.0),
        variates=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30),
    )
    def test_straddling_keys_match_scalar(self, theta, n, where, variates):
        """Variates solved so that ``n * p`` lies on either side of an
        integer, alone and mixed with arbitrary ones."""
        k = 3 + int(where * (n - 4))
        straddle = list(_straddling_variates(theta, n, k))
        scalar = ZipfianChooser(theta)
        keys = ZipfianChooser(theta).decode_batch(straddle, [n, n]).tolist()
        assert keys == [scalar.next(_Variate(u), n) for u in straddle]
        assert keys[0] < k <= keys[1]
        mixed = variates + straddle
        got = ZipfianChooser(theta).decode_batch(mixed, [n] * len(mixed)).tolist()
        assert got == [scalar.next(_Variate(u), n) for u in mixed]


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestLibmPower:
    """``np.float_power`` is the scalar path's libm ``pow``, bit for bit,
    at all three of the decode's ``pow`` sites."""

    @pytest.mark.parametrize("theta", THETAS)
    def test_zeta_terms(self, theta):
        bases = np.arange(1, 200_001, dtype=np.int64).astype(np.float64)
        expected = [math.pow(i, theta) for i in range(1, 200_001)]
        assert np.array_equal(_bits(np.float_power(bases, theta)), _bits(expected))

    @pytest.mark.parametrize("theta", THETAS)
    def test_tail_bases(self, theta):
        """``(2/n)**(1-theta)`` per key-space size, and seeded bases in
        the tail's range ``[(2/n)**(1-theta), 1)`` raised to alpha."""
        sizes = np.arange(3, 100_003, dtype=np.int64)
        shrink = [math.pow(2.0 / n, 1.0 - theta) for n in sizes.tolist()]
        got = np.float_power(2.0 / sizes, 1.0 - theta)
        assert np.array_equal(_bits(got), _bits(shrink))
        rng = random.Random(17)
        bases = [s + (1.0 - s) * rng.random() for s in shrink]
        alpha = 1.0 / (1.0 - theta)
        expected = [math.pow(base, alpha) for base in bases]
        assert np.array_equal(_bits(np.float_power(bases, alpha)), _bits(expected))


def _pow_operators(function) -> list[int]:
    """Line offsets of the ``**`` operators in ``function``'s body."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
    ]


class TestNoSimdPower:
    """The batch decode calls no ``np.power`` kernel, whose SIMD loops
    are not libm's: not by name and not through an array's ``**``."""

    @pytest.mark.parametrize("name", GRAY_CHOOSERS)
    def test_decode_batch_without_np_power(self, monkeypatch, name):
        counts = list(range(2, 5_000))
        scalar = make_chooser(name)
        rng = random.Random(31)
        expected = [scalar.next(rng, c) for c in counts]

        def refuse(*args, **kwargs):
            raise AssertionError("decode_batch called np.power")

        monkeypatch.setattr(np, "power", refuse)
        assert decode_draws(make_chooser(name), random.Random(31), counts) == expected

    def test_batch_path_has_no_pow_operator(self):
        for function in (
            ZipfianChooser.decode_batch,
            ZipfianChooser._marginal_accumulation,
        ):
            assert _pow_operators(function) == [], function.__qualname__

"""Interpreter-contract canary for the word-stream kernel.

``repro.ycsb.wordstream`` rebuilds ``random.random()`` and
``random.randint()`` from raw Mersenne-Twister words.  That is a contract
with CPython's ``_randommodule.c`` (the 53-bit double layout) and
``random.py`` (``_randbelow``'s ``getrandbits`` rejection loop), not
with any documented API: if a future interpreter changes either, these
tests fail by name instead of the golden figures drifting.
"""

import random

import numpy as np
import pytest

from repro.ycsb.wordstream import MersenneWords, randbelow_at, random_at

DRAWS = 10_000


@pytest.mark.parametrize("n", (1, 2, 100, 128, 1000, 2**31))
def test_random_and_randint_rebuilt_from_raw_words(n):
    """10 k ``random()`` and 10 k ``randint(1, n)`` draws, interleaved by
    a second rng, equal the interpreter's draw for draw."""
    rng = random.Random(n)
    rng.random()  # leave the freshly-seeded position (pos == 624)
    order = random.Random(7)
    plan = [order.random() < 0.5 for _ in range(2 * DRAWS)]

    # n == 1 and n == 2 reject half their tries: ~2 words per randint.
    words = MersenneWords(rng).peek(2 * DRAWS * 4)
    unit = random_at(words)
    tries, hit = randbelow_at(words, n)
    rebuilt = []
    at = 0
    for is_double in plan:
        if is_double:
            rebuilt.append(float(unit[at]))
            at += 2
        else:
            rebuilt.append(1 + int(tries[hit[at]]))
            at = int(hit[at]) + 1
    assert at < len(words)

    expected = [rng.random() if is_double else rng.randint(1, n) for is_double in plan]
    assert rebuilt == expected


def test_randbelow_runs_off_the_block():
    """An offset with no accepted try before the block ends says so."""
    words = np.array([2**32 - 1, 0, 2**32 - 1, 2**32 - 1], dtype=np.uint64)
    tries, hit = randbelow_at(words, 100)
    assert hit.tolist() == [1, 1, 4, 4, 4]
    assert int(tries[1]) == 0


@pytest.mark.parametrize("consumed", (0, 1, 623, 624, 625, 5000))
def test_setstate_round_trip_from_bit_generator(consumed):
    """The bit generator's key / pos go back into ``setstate`` at any
    position, block-regeneration boundary included, gauss state intact."""
    rng = random.Random(99)
    rng.gauss(0.0, 1.0)  # leaves a cached gauss_next in the state
    twin = random.Random()
    twin.setstate(rng.getstate())

    stream = MersenneWords(rng)
    peeked = stream.peek(consumed + 8)
    assert stream.peek(consumed + 8).tolist() == peeked.tolist()  # unconsumed
    stream.skip(consumed)
    stream.restore()

    assert [twin.getrandbits(32) for _ in range(consumed)] == peeked[:consumed].tolist()
    assert rng.getstate() == twin.getstate()
    assert rng.gauss(0.0, 1.0) == twin.gauss(0.0, 1.0)
    assert [rng.random() for _ in range(700)] == [twin.random() for _ in range(700)]

"""Shared test helpers: instance builders and hypothesis strategies."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.core import MergeInstance
from repro.lsm.format.checksum import frame_block
from repro.simulator.runner import SWEEP_AXES, _whole

#: The worked example from the paper (Section 4.3).
WORKED_EXAMPLE_SETS = [
    {1, 2, 3, 5},
    {1, 2, 3, 4},
    {3, 4, 5},
    {6, 7, 8},
    {7, 8, 9},
]


#: The sweep axes that take whole numbers only.
WHOLE_AXES = tuple(
    name for name, axis in SWEEP_AXES.items() if axis.cast is _whole
)

#: ``(parameter, value)`` pairs no sweep may take: a non-number (a bool
#: included), a non-finite float or an int past the float range on any
#: axis, a fraction on an integer one.
BAD_SWEEP_VALUES = [
    (parameter, value)
    for parameter in SWEEP_AXES
    for value in ("x", True, False, None, float("nan"), float("inf"), 10**400)
    + ((2.9,) if parameter in WHOLE_AXES else ())
]


def worked_example() -> MergeInstance:
    """The paper's 5-set working example (BT=45, SI=47, SO=40)."""
    return MergeInstance.from_iterables(WORKED_EXAMPLE_SETS)


def random_instance(
    n: int, universe: int, seed: int, min_size: int = 1, max_size: int | None = None
) -> MergeInstance:
    """A reproducible random instance over ``range(universe)``."""
    rng = random.Random(seed)
    max_size = max_size or universe
    sets = []
    for _ in range(n):
        size = rng.randint(min_size, max(min_size, min(max_size, universe)))
        sets.append(frozenset(rng.sample(range(universe), size)))
    return MergeInstance(tuple(sets))


@st.composite
def instances(
    draw,
    min_sets: int = 2,
    max_sets: int = 6,
    universe: int = 10,
) -> MergeInstance:
    """Hypothesis strategy producing small random merge instances."""
    n = draw(st.integers(min_sets, max_sets))
    sets = [
        draw(
            st.frozensets(
                st.integers(0, universe - 1), min_size=1, max_size=universe
            )
        )
        for _ in range(n)
    ]
    return MergeInstance(tuple(sets))


@st.composite
def disjoint_instances(
    draw, min_sets: int = 2, max_sets: int = 7, max_size: int = 8
) -> MergeInstance:
    """Hypothesis strategy for pairwise-disjoint instances (Huffman case)."""
    n = draw(st.integers(min_sets, max_sets))
    sizes = [draw(st.integers(1, max_size)) for _ in range(n)]
    sets = []
    start = 0
    for size in sizes:
        sets.append(frozenset(range(start, start + size)))
        start += size
    return MergeInstance(tuple(sets))


def crc_valid_mutation(
    rng: random.Random, data: bytes, frame: tuple[int, int, int]
) -> bytes:
    """``data`` with 1-3 payload bytes of one block rewritten at random
    and the block framed again with a valid CRC.

    ``frame`` is the block's ``(frame_offset, payload_start,
    payload_end)``; the block keeps its length, so every other block
    stays where it was.  What a loader sees here passed its checksum:
    only the decoder's own checks can reject it.
    """
    offset, start, end = frame
    payload = bytearray(data[start:end])
    for _ in range(rng.randint(1, 3)):
        payload[rng.randrange(len(payload))] = rng.randrange(256)
    return data[:offset] + frame_block(bytes(payload)) + data[end:]

"""Op-stream generation straight from the Mersenne-Twister word stream.

``CoreWorkload.run_operations`` spends its rng on three kinds of draw:
``rng.random()`` for the operation type, ``rng.random()`` again for the
key of a Gray-sampling chooser (zipfian, scrambled zipfian, latest), and
``rng.randint(1, max_scan_length)`` for a scan's length.  All three are
fixed functions of the generator's 32-bit outputs:

* ``random()`` takes two words: ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``;
* ``randint(1, n)`` is ``1 + _randbelow(n)``, which tries
  ``getrandbits(n.bit_length())`` — the top bits of one word for
  ``n < 2**32`` — until the value is below ``n``.

So an operation that starts at word offset ``p`` is an insert (2 words),
a keyed operation (4) or a scan (4 + tries) depending only on the words
from ``p`` on, and the stream is the chain ``p -> next_op[p]`` from the
current offset.  :func:`gray_op_columns` copies the ``random.Random``
state into a ``numpy.random.MT19937`` bit generator, pulls raw words a
block at a time, evaluates every draw at every word offset with array
arithmetic, follows the chain by pointer jumping, gathers the columns,
and finally puts the Python rng back at the exact word consumed.  The
only numpy randomness used is ``MT19937.random_raw`` on that
transplanted state, so the draws are the interpreter's own.

``tests/ycsb/test_wordstream.py`` pins the interpreter contract (the
53-bit layout, ``_randbelow``'s rejection loop, the state round trip).
"""

from __future__ import annotations

import random

import numpy as np

from .operations import OP_TYPE_CODES, OperationType

#: Raw words parsed per block.  Every per-offset array of a block is a
#: temporary, and on the benchmark box a first-touch 64 MB temporary
#: costs 1-2.6 s against 0.013 s rewritten in place, so blocks stay
#: cache-sized and are written into preallocated output columns.
BLOCK_WORDS = 1 << 16

#: Words peeked beyond four per remaining operation: room for the last
#: scans' rejected tries (doubled whenever a block completes nothing).
_TAIL_WORDS = 64

#: The chain is walked ``2 ** _JUMP_LEVELS`` operations per Python step;
#: the operations in between are filled in by array gathers.
_JUMP_LEVELS = 5

_INSERT = OP_TYPE_CODES[OperationType.INSERT]
_READ = OP_TYPE_CODES[OperationType.READ]
_DELETE = OP_TYPE_CODES[OperationType.DELETE]
_SCAN = OP_TYPE_CODES[OperationType.SCAN]


class MersenneWords:
    """A ``random.Random``'s upcoming 32-bit outputs, as numpy arrays."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._version, internal, self._gauss_next = rng.getstate()
        self._bits = np.random.MT19937()
        self._bits.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.array(internal[:-1], dtype=np.uint32),
                "pos": internal[-1],
            },
        }

    def peek(self, count: int) -> np.ndarray:
        """The next ``count`` words (uint64 holding 32 bits), unconsumed."""
        here = self._bits.state
        words = self._bits.random_raw(count)
        self._bits.state = here
        return words

    def skip(self, count: int) -> None:
        """Consume ``count`` words."""
        self._bits.random_raw(count, output=False)

    def restore(self) -> None:
        """Put the Python rng at the first unconsumed word."""
        state = self._bits.state["state"]
        self._rng.setstate(
            (
                self._version,
                (*state["key"].tolist(), int(state["pos"])),
                self._gauss_next,
            )
        )


def random_at(words: np.ndarray) -> np.ndarray:
    """``rng.random()`` if called at each word offset (two words each)."""
    unit = words[:-1] >> 5
    unit <<= 26
    unit += words[1:] >> 6
    return unit * (1.0 / 9007199254740992.0)


def randbelow_at(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``rng._randbelow(n)`` if called at each word offset, ``n < 2**32``.

    Returns ``(tries, hit)``: ``tries[p]`` is one ``getrandbits`` try per
    word, and ``hit[q]`` the offset of the first try at or after ``q``
    that lands below ``n`` — ``tries[hit[q]]`` is the value drawn, and
    ``hit[q] + 1`` the next unconsumed word.  ``hit`` has one slot past
    the block, and holds ``len(words)`` wherever the block ends first.
    """
    size = len(words)
    tries = words >> (32 - n.bit_length())
    hit = np.full(size + 1, size, dtype=np.intp)
    np.copyto(hit[:size], np.arange(size), where=tries < n)
    np.minimum.accumulate(hit[::-1], out=hit[::-1])
    return tries, hit


def gray_op_columns(
    rng: random.Random, chooser, op_chooser, config, inserted: int, collect_reads: bool
):
    """Load + run phases as columns, for a chooser with ``decode_batch``.

    ``op_chooser`` supplies the operation mix's cumulative ``cuts`` and
    ``total``, ``config`` the counts and ``max_scan_length``, and
    ``inserted`` the keys inserted before the load phase.  Returns
    ``(write_keynums, tombstone_positions, op_codes, (read_keynums,
    scan_keynums, scan_lengths), inserted)``, each equal to the fold of
    the per-op ``load_operations()`` and ``run_operations()``, and leaves
    ``rng`` and the chooser's zeta state where that fold leaves them.
    """
    recordcount = config.recordcount
    opcount = config.operationcount
    max_scan_length = config.max_scan_length
    cuts = op_chooser.cuts
    total = op_chooser.total
    kinds = np.array([OP_TYPE_CODES[op] for _, op in cuts], dtype=np.uint8)
    # point < cut picks the first such cut; a point that rounds up to
    # the total keeps the last type, so the last cut is never compared.
    thresholds = [cut for cut, _ in cuts[:-1]]
    has_scans = _SCAN in kinds

    write_keynums = np.empty(recordcount + opcount, dtype=np.int64)
    write_keynums[:recordcount] = np.arange(recordcount)
    op_codes = np.empty(recordcount + opcount, dtype=np.uint8)
    op_codes[:recordcount] = _INSERT
    tombstone_positions: list[int] = []
    read_keynums: list[int] = []
    scan_keynums: list[int] = []
    scan_lengths: list[int] = []

    stream = MersenneWords(rng)
    inserted += recordcount
    writes = recordcount
    done = 0
    tail_words = _TAIL_WORDS
    while done < opcount:
        # A single-key space draws no key variate (every Gray chooser
        # returns key 0 without touching the rng), so keyed operations
        # are two words shorter until the first insert.
        key_words = 2 if inserted > 1 else 0
        words = stream.peek(min(BLOCK_WORDS, 4 * (opcount - done)) + tail_words)
        size = len(words)
        unit = random_at(words)
        point = unit * total
        choice = np.zeros(size - 1, dtype=np.intp)
        for cut in thresholds:
            choice += point >= cut
        kind_at = kinds[choice]

        # next_op[p]; anything that would end past the block, and the
        # two slots past the classified offsets, lead to size + 1.
        next_op = np.full(size + 2, size + 1, dtype=np.intp)
        step = np.where(kind_at == _INSERT, 2, 2 + key_words)
        step += np.arange(size - 1)
        if has_scans:
            tries, hit = randbelow_at(words, max_scan_length)
            scans = np.flatnonzero(kind_at == _SCAN)
            step[scans] = hit[np.minimum(step[scans], size)] + 1
        np.minimum(step, size + 1, out=next_op[: size - 1])

        starts = _follow(next_op, opcount - done)
        ends = next_op[starts]
        count = min(int(np.searchsorted(ends, size, side="right")), opcount - done)
        kind = kind_at[starts[:count]]
        if not key_words:
            first_insert = np.flatnonzero(kind == _INSERT)[:1]
            if first_insert.size:
                count = int(first_insert[0]) + 1
                kind = kind[:count]
        if not count:
            tail_words *= 2  # one operation outran the block
            continue
        starts = starts[:count]
        stream.skip(int(ends[count - 1]))

        is_insert = kind == _INSERT
        sizes = np.cumsum(is_insert)
        sizes += inserted
        inserted = int(sizes[-1])
        sizes -= is_insert  # key-space size *before* each operation
        keyed = np.flatnonzero(~is_insert)
        keys = sizes  # an insert's key is the size it found
        if key_words:
            keys[keyed] = chooser.decode_batch(unit[starts[keyed] + 2], sizes[keyed])
        else:
            keys[keyed] = 0

        op_codes[recordcount + done : recordcount + done + count] = kind
        done += count
        is_write = (kind != _READ) & (kind != _SCAN)
        write_kind = kind[is_write]
        tombstone_positions.extend(
            (np.flatnonzero(write_kind == _DELETE) + writes).tolist()
        )
        write_keynums[writes : writes + write_kind.size] = keys[is_write]
        writes += write_kind.size
        if collect_reads:
            read_keynums.extend(keys[kind == _READ].tolist())
            if has_scans:
                is_scan = kind == _SCAN
                scan_keynums.extend(keys[is_scan].tolist())
                landed = hit[starts[is_scan] + 2 + key_words]
                scan_lengths.extend((tries[landed] + 1).tolist())
    stream.restore()
    return (
        write_keynums[:writes],
        tombstone_positions,
        op_codes.tobytes(),
        (read_keynums, scan_keynums, scan_lengths),
        inserted,
    )


def _follow(next_op: np.ndarray, limit: int) -> np.ndarray:
    """The chain ``0, next_op[0], next_op[next_op[0]], ...``: at least
    the first ``limit`` links or every link inside the block, whichever
    is fewer, padded with the out-of-block slot (a fixed point)."""
    jumps = [next_op]
    for _ in range(_JUMP_LEVELS):
        jumps.append(jumps[-1].take(jumps[-1]))
    stride = 1 << _JUMP_LEVELS
    far = jumps.pop().item
    end = len(next_op) - 2
    coarse = []
    at = 0
    while at < end and len(coarse) * stride < limit:
        coarse.append(at)
        at = far(at)
    chain = np.empty((len(coarse), stride), dtype=np.intp)
    chain[:, 0] = coarse
    while jumps:
        stride >>= 1
        chain[:, stride :: 2 * stride] = jumps.pop().take(chain[:, :: 2 * stride])
    return chain.ravel()

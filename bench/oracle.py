"""Correctness checks that do not trust the code under test.

The oracle is a plain dict replayed from the inputs: the newest write of
each key wins, a delete removes the key.  Every write carries its
1-based index in the write stream, which is also the sequence number
the program assigns, so "the right keys" and "the right versions" are
one comparison.  Mismatches are counted, never raised: they become
``ops_failed`` over ``ops_attempted``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence


@dataclass
class Checks:
    """Comparisons made and comparisons that failed."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(note)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: 20 - len(self.notes)])


# ----------------------------------------------------------------------
# Simulator: write column -> live state -> output tables / served reads
# ----------------------------------------------------------------------
def replay_writes(
    write_keys: Iterable[int], tombstone_positions: Iterable[int]
) -> dict[int, int]:
    """Live keys after the write column, mapped to their newest seqno."""
    keys = write_keys.tolist() if hasattr(write_keys, "tolist") else list(write_keys)
    newest = dict(zip(keys, range(1, len(keys) + 1)))
    deleted = {position + 1 for position in tombstone_positions}
    if deleted:
        return {key: seqno for key, seqno in newest.items() if seqno not in deleted}
    return newest


def table_state(tables: Sequence) -> dict[int, int]:
    """What a reader of ``tables`` sees: newest live version per key."""
    newest: dict[int, tuple[int, bool]] = {}
    for table in tables:
        columns = table.columns()
        if columns is not None:
            keys = columns.keys.tolist()
            seqnos = columns.seqnos.tolist()
            dead = (
                columns.tombstones.tolist()
                if columns.tombstones is not None
                else [False] * len(keys)
            )
            rows = zip(keys, seqnos, dead)
        else:
            rows = ((r.key, r.seqno, r.tombstone) for r in table.records)
        for key, seqno, tombstone in rows:
            seen = newest.get(key)
            if seen is None or seqno > seen[0]:
                newest[key] = (seqno, tombstone)
    return {key: seqno for key, (seqno, dead) in newest.items() if not dead}


def check_tables(tables: Sequence, live: dict[int, int], what: str) -> Checks:
    """``tables`` must hold exactly the oracle's live keys, newest versions."""
    checks = Checks()
    state = table_state(tables)
    keys = state.keys() | live.keys()
    checks.attempted += max(1, len(keys))
    if state != live:
        wrong = [key for key in keys if state.get(key) != live.get(key)]
        checks.fail(
            f"{what}: {len(wrong)} keys differ from the oracle "
            f"(e.g. key {wrong[0]}: table seqno {state.get(wrong[0])}, "
            f"oracle {live.get(wrong[0])})",
            count=len(wrong),
        )
    return checks


def check_served_reads(live: dict[int, int], read_ops, served, what: str) -> Checks:
    """Hit/miss and scan-return counts of a serving phase against the oracle."""
    checks = Checks()
    hits = sum(1 for key in read_ops.read_keynums if key in live)
    checks.expect(
        served.hits == hits, f"{what}: {served.hits} read hits, oracle {hits}"
    )
    misses = read_ops.read_count - hits
    checks.expect(
        served.misses == misses,
        f"{what}: {served.misses} read misses, oracle {misses}",
    )
    ordered = sorted(live)
    returned = sum(
        min(length, len(ordered) - bisect_left(ordered, start))
        for start, length in zip(read_ops.scan_keynums, read_ops.scan_lengths)
    )
    checks.expect(
        served.scan_records_returned == returned,
        f"{what}: scans returned {served.scan_records_returned} records, "
        f"oracle {returned}",
    )
    return checks


# ----------------------------------------------------------------------
# Engine: op list -> live state -> get of every key, sampled scans
# ----------------------------------------------------------------------
def replay_operations(
    operations: Iterable, state: Optional[dict] = None, first_seqno: int = 1
) -> dict:
    """Live keys after ``operations`` (reads skipped), mapped to seqnos."""
    state = {} if state is None else state
    seqno = first_seqno
    for operation in operations:
        if not operation.is_write:
            continue
        if operation.type.value == "delete":
            state.pop(operation.key, None)
        else:
            state[operation.key] = seqno
        seqno += 1
    return state


def engine_view(engine, keys: Iterable) -> dict:
    """``get`` of every key: what the engine serves, as key -> seqno."""
    view = {}
    for key in keys:
        record = engine.get(key)
        if record is not None:
            view[key] = record.seqno
    return view


def check_engine(
    engine, live: dict, keys: Iterable, seed: int, what: str, n_scans: int = 200
) -> Checks:
    """A ``get`` of every key ever written plus sampled scans, against the dict."""
    checks = Checks()
    keys = list(keys)
    view = engine_view(engine, keys)
    checks.attempted += max(1, len(keys))
    if view != live:
        wrong = [key for key in keys if view.get(key) != live.get(key)]
        checks.fail(
            f"{what}: get() disagrees with the oracle on {len(wrong)} keys "
            f"(e.g. key {wrong[0]}: engine seqno {view.get(wrong[0])}, "
            f"oracle {live.get(wrong[0])})",
            count=max(1, len(wrong)),
        )
    ordered = sorted(live)
    rng = random.Random(seed)
    for _ in range(n_scans if ordered else 0):
        start = rng.choice(ordered) - rng.randint(0, 1)
        length = rng.randint(1, 100)
        low = bisect_left(ordered, start)
        expected = ordered[low : low + length]
        got = [record.key for record in engine.scan(start, length)]
        checks.expect(
            got == expected,
            f"{what}: scan({start}, {length}) returned {len(got)} keys, "
            f"oracle {len(expected)}",
        )
    return checks


def check_recovered_prefix(
    recovered,
    operations: Sequence,
    acked: int,
    max_lost_writes: int,
    what: str,
) -> Checks:
    """The recovered store equals the oracle at an acknowledged prefix.

    ``acked`` operations returned before the crash.  The store may have
    lost at most ``max_lost_writes`` of the newest acknowledged writes
    (the unsynced tail of the group commit) and must show nothing of the
    operation in flight or after it.
    """
    checks = Checks()
    writes = [operation for operation in operations[:acked] if operation.is_write]
    acked_writes = len(writes)
    keys = {op.key for op in operations[: acked + 1] if op.is_write}
    view = engine_view(recovered, keys)
    shortest = max(0, acked_writes - max_lost_writes)
    state = replay_operations(writes[:shortest])
    matched = None
    for count in range(shortest, acked_writes + 1):
        if count > shortest:
            replay_operations([writes[count - 1]], state, first_seqno=count)
        if state == view:
            matched = count
            break
    checks.expect(
        matched is not None,
        f"{what}: recovered store matches no prefix of "
        f"{shortest}..{acked_writes} acknowledged writes",
    )
    return checks

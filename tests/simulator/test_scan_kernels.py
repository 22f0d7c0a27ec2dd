"""Adversarial table sets for the scan kernels: batched == scalar == dict.

``tests/simulator/test_read_path.py`` certifies the two kernels on
workload-shaped tables (one seqno per write, few tombstones).  This file
feeds both the table sets a workload never produces — the same key in
every table, *equal* ``(key, seqno)`` pairs whose tombstone flags
disagree, tombstone runs far longer than a scan, nothing live at all —
and holds the scalar engine's returned records to a dict replay of the
tables, so the oracle of the batched kernel has an oracle of its own.
"""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import EngineConfig, LSMEngine, Record, SSTable
from repro.lsm.engine import ReadStats
from repro.simulator.read_path import ReadPhaseResult, serve_reads
from repro.ycsb.workload import ReadOpColumns

COUNTERS = [
    field.name for field in fields(ReadPhaseResult) if field.name != "kernel_used"
]


def test_every_served_counter_exists_on_read_stats():
    """The scalar kernel copies by name; a counter on one side only is a bug."""
    assert len(COUNTERS) == 12
    assert set(COUNTERS) <= {field.name for field in fields(ReadStats)}


def dict_replay(tables) -> dict:
    """Newest record per key; equal seqnos keep the earliest (oldest) table."""
    newest: dict = {}
    for table in tables:
        for record in table.records:
            held = newest.get(record.key)
            if held is None or record.seqno > held.seqno:
                newest[record.key] = record
    return newest


def check_scans(tables, scans) -> None:
    """Scalar records == dict replay; batched counters == scalar counters."""
    newest = dict_replay(tables)
    live = sorted(key for key, record in newest.items() if not record.tombstone)
    engine = LSMEngine(EngineConfig(use_wal=False))
    engine.sstables = list(tables)
    for start, length in scans:
        expected = [newest[key] for key in live if key >= start][: max(length, 0)]
        assert engine.scan(start, length) == expected, (start, length)

    read_ops = ReadOpColumns(
        [], [start for start, _ in scans], [length for _, length in scans]
    )
    scalar = serve_reads(tables, read_ops, kernel="scalar")
    assert scalar.scans == sum(1 for _, length in scans if length >= 1)
    assert scalar.scan_records_returned == engine.read_stats.scan_records_returned
    batched = serve_reads(tables, read_ops, kernel="batched")
    assert batched.kernel_used == "batched"
    for name in COUNTERS:
        assert getattr(batched, name) == getattr(scalar, name), name


def table_of(table_id, entries) -> SSTable:
    """``entries``: ``{key: (seqno, tombstone, value_size)}``."""
    return SSTable(
        table_id,
        [
            Record(key, seqno, value_size=0 if dead else size, tombstone=dead)
            for key, (seqno, dead, size) in sorted(entries.items())
        ],
    )


# Seqnos from a range far smaller than the entry count, so several tables
# carry the same (key, seqno) with whatever tombstone flags they drew.
entry_values = st.tuples(st.integers(1, 6), st.booleans(), st.integers(0, 300))
table_entries = st.dictionaries(
    st.integers(0, 40), entry_values, min_size=1, max_size=41
)
scan_ops = st.lists(
    st.tuples(st.integers(-5, 50), st.integers(-1, 60)), min_size=1, max_size=12
)


@settings(max_examples=150, deadline=None)
@given(st.lists(table_entries, min_size=1, max_size=8), scan_ops)
def test_random_overlapping_tables(entry_sets, scans):
    tables = [table_of(index, entries) for index, entries in enumerate(entry_sets)]
    check_scans(tables, scans)


EVERY_SCAN = [(start, length) for start in (-3, 0, 7, 199, 200, 500) for length in (0, 1, 5, 1000)]


def test_equal_key_and_seqno_keeps_the_oldest_table():
    """The tie-break itself: same (key, seqno), opposite tombstone flags."""
    live_first = [
        table_of(0, {key: (5, False, 10) for key in range(10)}),
        table_of(1, {key: (5, True, 0) for key in range(10)}),
    ]
    dead_first = list(reversed(live_first))
    check_scans(live_first, EVERY_SCAN)
    check_scans(dead_first, EVERY_SCAN)
    engine = LSMEngine(EngineConfig(use_wal=False))
    engine.sstables = live_first
    assert len(engine.scan(0, 100)) == 10
    engine.sstables = dead_first
    assert engine.scan(0, 100) == []


def test_tombstone_run_longer_than_the_scan():
    """200 shadowed keys between the start and the first live answer."""
    tables = [
        table_of(0, {key: (1, False, 50) for key in range(0, 400)}),
        table_of(1, {key: (2, False, 70) for key in range(0, 400, 3)}),
        table_of(2, {key: (3, True, 0) for key in range(0, 200)}),
    ]
    check_scans(tables, EVERY_SCAN + [(0, 3), (150, 2), (199, 201)])


def test_nothing_live_at_all():
    tables = [
        table_of(0, {key: (1, False, 50) for key in range(0, 60)}),
        table_of(1, {key: (2, True, 0) for key in range(0, 60)}),
    ]
    check_scans(tables, EVERY_SCAN)


def test_no_tables():
    check_scans([], EVERY_SCAN)


@pytest.mark.parametrize("length", (-4, 0))
def test_a_length_below_one_is_not_a_scan(length):
    tables = [table_of(0, {1: (1, False, 5)})]
    served = serve_reads(tables, ReadOpColumns([], [0], [length]))
    assert served.scans == 0 and served.scan_tables_probed == 0

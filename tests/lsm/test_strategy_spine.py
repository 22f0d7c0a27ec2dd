"""The strategy spine's two single sites, checked from outside.

*The ledger*: every strategy bills its merges through
``CompactionResult.bill`` and merges through ``executor._merge_step``.
The first half checks the ledger against counts it did not produce — the
``SimulatedDisk``'s own byte counters and a log recorded around the one
``merge_sstables`` call site — over random table sets with tombstones,
in the mould of ``test_scan_work_bound.py``: work is counted, not timed.

*The estimator*: a spec is resolved in ``make_policy`` and nowhere else.
The second half walks every registered name and alias.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HllEstimator
from repro.core.policies import base as policy_registry
from repro.core.policies import canonical_policy_name, make_policy
from repro.errors import PolicyError
from repro.hll import HyperLogLog
from repro.lsm import Record, SSTable, SimulatedDisk
from repro.lsm.compaction import (
    DateTieredCompaction,
    LeveledCompaction,
    MajorCompaction,
    SizeTieredCompaction,
    date_tiered,
    executor,
    leveled,
    major,
    size_tiered,
)

STRATEGIES = {
    "SI": lambda: MajorCompaction("SI"),
    "SO": lambda: MajorCompaction("SO", estimator="hll"),
    "BT(I)": lambda: MajorCompaction("BT(I)", lanes=3),
    "BT(O)": lambda: MajorCompaction("BT(O)", k=3),
    "LM": lambda: MajorCompaction("LM"),
    "RANDOM": lambda: MajorCompaction("RANDOM", seed=5, drop_tombstones=False),
    "STCS": lambda: SizeTieredCompaction(min_threshold=2),
    "STCS/partial": lambda: SizeTieredCompaction(min_threshold=3, until_single=False),
    "LEVELED": lambda: LeveledCompaction(
        table_target_entries=4, base_level_entries=8, fanout=2, level0_threshold=2
    ),
    "DTCS": lambda: DateTieredCompaction(base_window=6, window_growth=2),
}


@st.composite
def table_sets(draw) -> list[SSTable]:
    """1-6 small overlapping tables, tombstones included, seqnos rising."""
    tables, seqno = [], 0
    for table_id in range(draw(st.integers(1, 6))):
        keys = draw(st.sets(st.integers(0, 24), min_size=1, max_size=10))
        records = []
        for key in sorted(keys):
            seqno += 1
            if draw(st.booleans()):
                records.append(Record.delete(key, seqno))
            else:
                records.append(Record.put(key, seqno, draw(st.integers(1, 40))))
        tables.append(SSTable(table_id, records))
    return tables


@contextmanager
def recorded_merges():
    """``(entries read, entries written)`` of every real merge, in order."""
    log: list[tuple[int, int]] = []
    real = executor.merge_sstables

    def recording(inputs, **kwargs):
        output = real(inputs, **kwargs)
        log.append((sum(t.entry_count for t in inputs), output.entry_count))
        return output

    with mock.patch.object(executor, "merge_sstables", recording):
        yield log


def test_one_merge_call_site():
    """The log above is complete only if nothing else merges."""
    for module in (major, size_tiered, leveled, date_tiered):
        assert not hasattr(module, "merge_sstables"), module.__name__


@pytest.mark.parametrize("label", STRATEGIES)
@given(tables=table_sets())
@settings(max_examples=25, deadline=None)
def test_ledger_equals_independent_counts(label, tables):
    disk = SimulatedDisk()
    with recorded_merges() as log:
        result = STRATEGIES[label]().compact(tables, disk, next_table_id=1000)

    assert result.input_count == len(tables)
    assert result.n_merges == len(log)
    assert (result.bytes_read, result.bytes_written) == (
        disk.stats.bytes_read, disk.stats.bytes_written,
    )
    written = sum(entries for _, entries in log)
    assert result.cost_actual_entries == sum(entries for entries, _ in log) + written
    if result.n_merges or len(tables) > 1:
        leaves = sum(table.entry_count for table in tables)
        assert result.cost_simplified_entries == leaves + written
    operations = disk.stats.read_ops + disk.stats.write_ops
    assert result.io_seconds == pytest.approx(
        operations * disk.timing.seek_seconds
        + disk.stats.bytes_total / disk.timing.bandwidth_bytes_per_sec
    )
    assert result.simulated_seconds <= result.io_seconds * (1 + 1e-12)
    assert (result.merge_wall_seconds > 0) == (result.n_merges > 0)
    assert result.wall_seconds >= result.strategy_overhead_seconds


# ----------------------------------------------------------------------
# One estimator-resolution site
# ----------------------------------------------------------------------
#: name or alias -> the estimator its policy reports (None: no estimator
#: key in ``extras()``), as the tree before the single site reported it.
REPORTED_ESTIMATOR = {
    "balance_tree": None, "bt": None,
    "balance_tree_input": None, "bt(i)": None, "bt_i": None, "bti": None,
    "balance_tree_output": "hll", "bt(o)": "hll", "bt_o": "hll", "bto": "hll",
    "largest_match": None, "lm": None,
    "random": None, "rand": None,
    "smallest_input": None, "si": None,
    "smallest_output": "exact", "so": "exact",
    "smallest_output_hll": "hll", "so(hll)": "hll", "so_hll": "hll",
}


class TestEveryNameAndAlias:
    def test_matrix_covers_the_registry(self):
        registered = set(policy_registry._REGISTRY) | set(policy_registry._ALIASES)
        assert registered == set(REPORTED_ESTIMATOR)

    @pytest.mark.parametrize("name", REPORTED_ESTIMATOR)
    def test_builds_and_reports_its_estimator(self, name):
        for spelling in (name, name.upper()):
            policy = make_policy(spelling)
            assert policy.name == canonical_policy_name(name)
            assert policy.extras().get("estimator") == REPORTED_ESTIMATOR[name]

    @pytest.mark.parametrize("name", REPORTED_ESTIMATOR)
    def test_estimator_keyword(self, name):
        """An output-sensitive name takes any spec; any other name
        refuses one instead of ignoring it.  The generic ``balance_tree``
        accepts a spec and consults it under ``suborder="output"`` only."""
        instance = HllEstimator(precision=9)
        if REPORTED_ESTIMATOR[name] is not None:
            assert make_policy(name, estimator="exact").extras()["estimator"] == "exact"
            assert make_policy(name, estimator="sketch").extras()["estimator"] == "hll"
            assert make_policy(name, estimator=instance).estimator is instance
            fresh = make_policy(name, estimator="hll", hll_precision=7, hll_seed=3)
            assert (fresh.estimator.precision, fresh.estimator.seed) == (7, 3)
        elif canonical_policy_name(name) == "balance_tree":
            assert make_policy(name, estimator=instance).estimator is None
            consulted = make_policy(name, suborder="output", estimator=instance)
            assert consulted.estimator is instance
            assert make_policy(name, suborder="output").extras()["estimator"] == "hll"
        else:
            with pytest.raises(PolicyError, match="consults no estimator"):
                make_policy(name, estimator="hll")
            with pytest.raises(PolicyError, match="consults no estimator"):
                MajorCompaction(name, estimator="hll")
            with pytest.raises(TypeError):
                make_policy(name, hll_precision=10)

    def test_bad_spec_is_a_policy_error_at_construction(self):
        for bad in ("exactly-wrong", 3.14):
            with pytest.raises(PolicyError):
                make_policy("SO", estimator=bad)
            with pytest.raises(PolicyError):
                MajorCompaction("BT(O)", estimator=bad)

    def test_second_compaction_hashes_no_key(self):
        """Tables sketched by one compaction feed the next for free: the
        estimator is seeded from their caches and builds nothing."""
        rng = random.Random(4)
        tables = [
            SSTable(
                table_id,
                [
                    Record.put(key, 100 * table_id + key + 1, value_size=10)
                    for key in sorted(rng.sample(range(60), 20))
                ],
            )
            for table_id in range(5)
        ]
        MajorCompaction("SO", estimator="hll").compact(tables, SimulatedDisk(), 100)
        hashed = []
        real = HyperLogLog.of.__func__

        def counting(cls, keys, **kwargs):
            hashed.append(len(keys))
            return real(cls, keys, **kwargs)

        estimator = HllEstimator()
        with mock.patch.object(HyperLogLog, "of", classmethod(counting)):
            result = MajorCompaction("SO", estimator=estimator).compact(
                tables, SimulatedDisk(), 200
            )
        assert result.n_merges == 4
        assert estimator.sketches_built == 0
        assert hashed == []

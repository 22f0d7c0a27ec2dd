"""Tests for SSTable structure, reads and the k-way merge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.lsm import (
    EngineConfig,
    LSMEngine,
    Record,
    SSTable,
    merge_sstables,
    table_from_records,
)
from repro.lsm.record import ENTRY_OVERHEAD_BYTES
from repro.lsm.sstable import newest_per_key


def make_table(table_id, keys, seqno_start=1, tombstones=(), value_size=100):
    records = []
    for offset, key in enumerate(sorted(keys)):
        seqno = seqno_start + offset
        if key in tombstones:
            records.append(Record.delete(key, seqno))
        else:
            records.append(Record.put(key, seqno, value_size))
    return SSTable(table_id, records)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(StorageError):
            SSTable(0, [])

    def test_rejects_unsorted(self):
        records = [Record.put(2, 1), Record.put(1, 2)]
        with pytest.raises(StorageError):
            SSTable(0, records)

    def test_rejects_duplicate_keys(self):
        records = [Record.put(1, 1), Record.put(1, 2)]
        with pytest.raises(StorageError):
            SSTable(0, records)

    def test_metadata(self):
        table = make_table(7, [5, 1, 9])
        assert table.table_id == 7
        assert (table.min_key, table.max_key) == (1, 9)
        assert table.entry_count == len(table) == 3
        assert table.key_set == frozenset({1, 5, 9})

    def test_size_bytes(self):
        table = make_table(0, [1, 2], value_size=100)
        assert table.size_bytes == sum(r.size_bytes for r in table.records)

    def test_live_key_count_excludes_tombstones(self):
        table = make_table(0, [1, 2, 3], tombstones={2})
        assert table.live_key_count == 2


class TestReads:
    def test_point_lookup(self):
        keys = list(range(0, 1000, 3))
        table = make_table(0, keys)
        for key in (0, 3, 501, 999):
            record = table.get(key)
            assert (record is not None) == (key in set(keys))
        assert table.get(1) is None
        assert table.get(-5) is None
        assert table.get(10_000) is None

    def test_get_across_index_boundaries(self):
        """Probe around every sparse-index anchor."""
        keys = list(range(100))
        table = make_table(0, keys)
        for key in keys:
            assert table.get(key).key == key

    def test_may_contain(self):
        table = make_table(0, [10, 20, 30])
        assert table.may_contain(20)
        assert not table.may_contain(5)    # out of range
        assert not table.may_contain(100)  # out of range

    def test_lower_bound(self):
        table = make_table(0, [1, 3, 5, 7, 9])
        assert table.lower_bound(0) == 0
        assert table.lower_bound(3) == 1   # an exact hit starts on the key
        assert table.lower_bound(4) == 2   # a gap starts on the next key
        assert table.lower_bound(10) == table.entry_count

    def test_key_range_overlaps(self):
        a = make_table(0, [1, 5])
        b = make_table(1, [5, 9])
        c = make_table(2, [6, 9])
        assert a.key_range_overlaps(b)
        assert not a.key_range_overlaps(c)

    def test_get_batch_matches_get(self):
        keys = list(range(0, 1000, 3))
        table = make_table(0, keys)
        queries = list(range(-5, 1010, 7))
        rows = table.get_batch(queries)
        assert rows is not None
        for query, row in zip(queries, rows.tolist()):
            record = table.get(query)
            if record is None:
                assert row == -1
            else:
                assert table.records[row] is record

    def test_get_batch_requires_int_columns(self):
        table = make_table(0, ["a", "b"])
        assert table.get_batch(["a"]) is None


class TestMerge:
    def test_newest_version_wins(self):
        old = SSTable(0, [Record.put("k", 1, value_size=1)])
        new = SSTable(1, [Record.put("k", 5, value_size=2)])
        merged = merge_sstables([old, new], new_table_id=2)
        assert merged.get("k").seqno == 5
        assert merged.entry_count == 1

    def test_union_of_keys(self):
        a = make_table(0, [1, 2, 3], seqno_start=1)
        b = make_table(1, [3, 4, 5], seqno_start=10)
        merged = merge_sstables([a, b], new_table_id=2)
        assert merged.key_set == frozenset({1, 2, 3, 4, 5})
        assert merged.get(3).seqno >= 10  # b's version is newer

    def test_tombstones_preserved_without_gc(self):
        a = make_table(0, [1, 2], seqno_start=1)
        b = make_table(1, [2], seqno_start=10, tombstones={2})
        merged = merge_sstables([a, b], new_table_id=2, drop_tombstones=False)
        assert merged.get(2).tombstone

    def test_tombstones_dropped_with_gc(self):
        a = make_table(0, [1, 2], seqno_start=1)
        b = make_table(1, [2], seqno_start=10, tombstones={2})
        merged = merge_sstables([a, b], new_table_id=2, drop_tombstones=True)
        assert merged.get(2) is None
        assert merged.key_set == frozenset({1})

    def test_stale_write_does_not_resurrect_deleted_key(self):
        """A tombstone newer than the put must win even if the put sits in
        another table."""
        put = SSTable(0, [Record.put("k", 5)])
        tomb = SSTable(1, [Record.delete("k", 9)])
        merged = merge_sstables([put, tomb], new_table_id=2)
        assert merged.get("k").tombstone

    def test_merge_three_way(self):
        tables = [make_table(i, range(i * 4, i * 4 + 6), seqno_start=i * 10 + 1) for i in range(3)]
        merged = merge_sstables(tables, new_table_id=9)
        assert merged.key_set == frozenset(range(0, 14))

    def test_merge_single_table_without_gc_is_identity(self):
        table = make_table(0, [1, 2])
        assert merge_sstables([table], new_table_id=1) is table

    def test_merge_zero_tables_rejected(self):
        with pytest.raises(StorageError):
            merge_sstables([], new_table_id=0)

    def test_all_tombstones_leaves_marker(self):
        table = make_table(0, [1], tombstones={1})
        merged = merge_sstables([table], new_table_id=1, drop_tombstones=True)
        assert merged.entry_count == 1  # representable marker survives

    @given(
        st.lists(
            st.sets(st.integers(0, 50), min_size=1, max_size=20),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_key_union_property(self, key_sets):
        seqno = 1
        tables = []
        for table_id, keys in enumerate(key_sets):
            records = []
            for key in sorted(keys):
                records.append(Record.put(key, seqno))
                seqno += 1
            tables.append(SSTable(table_id, records))
        merged = merge_sstables(tables, new_table_id=99)
        assert merged.key_set == frozenset().union(*key_sets)
        # newest-wins: every key's seqno equals the max across inputs
        for key in merged.key_set:
            expected = max(
                record.seqno
                for table in tables
                for record in table.records
                if record.key == key
            )
            assert merged.get(key).seqno == expected

    def test_table_from_records(self):
        table = table_from_records(3, [Record.put(1, 1), Record.put(2, 2)])
        assert table.table_id == 3
        assert table.entry_count == 2


def make_columnar(table_id, keys, seqno_start=1, tombstones=(), value_size=100):
    keys = sorted(keys)
    seqnos = list(range(seqno_start, seqno_start + len(keys)))
    mask = [key in tombstones for key in keys]
    values = [0 if dead else value_size for dead in mask]
    return SSTable.from_columns(
        table_id, keys, seqnos, values, mask if any(mask) else None
    )


class TestColumnarTables:
    def test_matches_record_backed_twin(self):
        record_table = make_table(3, [5, 1, 9], tombstones={5})
        columnar = make_columnar(3, [5, 1, 9], tombstones={5})
        assert columnar.records == record_table.records
        assert columnar.size_bytes == record_table.size_bytes
        assert columnar.key_set == record_table.key_set
        assert columnar.live_key_count == record_table.live_key_count
        assert columnar.max_seqno == record_table.max_seqno
        assert columnar.min_seqno == record_table.min_seqno
        assert (columnar.min_key, columnar.max_key) == (1, 9)

    def test_records_materialize_lazily(self):
        table = make_columnar(0, range(10), tombstones={4})
        assert "records" not in vars(table)
        assert table.get(3) == Record(3, 4, 100)  # a get builds one record
        assert table.get(4).tombstone and table.seqno_at(4) == 5
        assert table.run_bytes(2, 5) == 3 * ENTRY_OVERHEAD_BYTES + 2 * 100
        assert "records" not in vars(table)
        records = list(table)  # iterating materializes
        assert "records" in vars(table)
        assert all(isinstance(record.key, int) for record in records)
        assert [table.record_at(i) for i in range(10)] == records

    def test_run_bytes_past_int64(self):
        """Entry sizes near 2**62: run totals are exact ints, not wrapped."""
        sizes = [2**62, 2**62, 5]
        table = SSTable.from_columns(1, [1, 2, 3], [1, 2, 3], sizes)
        entries = [ENTRY_OVERHEAD_BYTES + size for size in sizes]
        assert table.size_bytes == sum(entries)
        for start in range(4):
            for stop in range(start, 4):
                assert table.run_bytes(start, stop) == sum(entries[start:stop])
        narrow = SSTable.from_columns(2, [1, 2], [1, 2], [2**40, 7])
        assert narrow._size_prefix.dtype == np.int64  # the common case

    @pytest.mark.parametrize(
        "records",
        [
            [Record.put(f"k{i}", i + 1, 10 * i) for i in range(6)],  # key bytes count
            [Record.put(i, i + 1, value=b"x" * i) for i in range(6)],  # payloads
            [
                Record.put(i, i + 1, 7) if i % 3 else Record.delete(i, i + 1)
                for i in range(6)
            ],
            [Record.put(i, i + 1, 2**62) for i in range(6)],  # sums past int64
            [Record.put(i, i + 1, 2**64 + i) for i in range(6)],  # sizes past int64
            [Record.put(f"s{i}", i + 1, 2**63) for i in range(6)],
        ],
        ids=[
            "str-keys", "payloads", "tombstones", "sums-wide", "sizes-wide", "str-wide"
        ],
    )
    def test_run_bytes_of_record_backed_tables(self, records):
        """Every table reads one prefix sum; it equals the per-record sum."""
        table = SSTable(1, records)
        for start in range(len(records) + 1):
            for stop in range(start, len(records) + 1):
                expected = sum(record.size_bytes for record in records[start:stop])
                assert table.run_bytes(start, stop) == expected
        assert table.run_bytes(0, len(records)) == table.size_bytes

    def test_engine_scan_charges_exact_bytes_past_int64(self):
        table = SSTable.from_columns(1, [1, 2, 3], [1, 2, 3], [2**62, 2**62, 5])
        engine = LSMEngine(EngineConfig(use_wal=False))
        engine.sstables = [table]
        assert [record.key for record in engine.scan(1, 3)] == [1, 2, 3]
        assert engine.scan(2, 1)[0].value_size == 2**62
        expected = table.size_bytes + table.run_bytes(1, 2)
        assert engine.read_stats.read_bytes == expected == 3 * 2**62 + 5 + 4 * ENTRY_OVERHEAD_BYTES
        assert engine.disk.stats.bytes_read == expected

    def test_rejects_bad_columns(self):
        with pytest.raises(StorageError):
            SSTable.from_columns(0, [], [])
        with pytest.raises(StorageError):
            SSTable.from_columns(0, [2, 1], [1, 2])  # unsorted
        with pytest.raises(StorageError):
            SSTable.from_columns(0, [1, 1], [1, 2])  # duplicate keys
        with pytest.raises(StorageError):
            SSTable.from_columns(0, [1, 2], [1])  # ragged seqnos

    def test_column_view_built_from_records(self):
        table = make_table(0, [1, 2, 3], tombstones={2})
        columns = table.columns()
        assert columns is not None
        assert columns.keys.tolist() == [1, 2, 3]
        assert columns.tombstones.tolist() == [False, True, False]
        assert table.columns() is columns  # cached

    def test_column_view_unavailable_for_string_keys(self):
        table = SSTable(0, [Record.put("a", 1), Record.put("b", 2)])
        assert table.columns() is None

    def test_column_view_unavailable_for_payload_values(self):
        table = SSTable(0, [Record.put(1, 1, value=b"xyz")])
        assert table.columns() is None

    def test_bloom_batch_matches_scalar_inserts(self):
        from repro.lsm import BloomFilter

        keys = list(range(500))
        batched = BloomFilter(len(keys))
        batched.add_all(keys)
        scalar = BloomFilter(len(keys))
        for key in keys:
            scalar.add(key)
        assert bytes(batched._bits) == bytes(scalar._bits)
        assert len(batched) == len(scalar)


@st.composite
def merge_inputs(draw):
    """1..6 runs over a small key space, as (keys, seqnos, value sizes,
    tombstones) lists: keys overlap across runs, seqnos come from a
    range small enough that equal (key, seqno) pairs recur, and each
    example's tombstones are none, some or all of its records."""
    tombstones = draw(st.sampled_from(["none", "some", "all"]))
    inputs = []
    for _ in range(draw(st.integers(1, 6))):
        keys = sorted(draw(st.sets(st.integers(0, 20), min_size=1, max_size=12)))

        def column(values, size=len(keys)):
            return st.lists(values, min_size=size, max_size=size)

        seqnos = draw(column(st.integers(1, 8)))
        values = draw(column(st.integers(0, 99)))
        if tombstones == "some":
            dead = draw(column(st.booleans()))
        else:
            dead = [tombstones == "all"] * len(keys)
        inputs.append((keys, seqnos, values, dead))
    return inputs


class TestMergeKernels:
    def tables(self, tombstones=()):
        return [
            make_table(0, [1, 3, 5, 7], seqno_start=1),
            make_table(1, [2, 3, 8], seqno_start=10, tombstones=tombstones),
            make_table(2, [1, 8, 9], seqno_start=20),
        ]

    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("tombstones", [(), (3, 8)])
    def test_columnar_equals_heap(self, drop, tombstones):
        columnar = merge_sstables(
            self.tables(tombstones), 99, drop_tombstones=drop, kernel="columnar"
        )
        heap = merge_sstables(
            self.tables(tombstones), 99, drop_tombstones=drop, kernel="heap"
        )
        assert columnar.records == heap.records
        assert columnar.size_bytes == heap.size_bytes
        assert columnar.table_id == heap.table_id == 99

    def test_columnar_all_tombstoned_keeps_marker(self):
        tables = [
            make_table(0, [1], seqno_start=1),
            make_table(1, [1], seqno_start=5, tombstones={1}),
        ]
        columnar = merge_sstables(tables, 7, drop_tombstones=True, kernel="columnar")
        heap = merge_sstables(tables, 7, drop_tombstones=True, kernel="heap")
        assert columnar.records == heap.records
        assert columnar.records[0].tombstone

    def test_same_key_same_seqno_tie_break(self):
        """Degenerate equal (key, seqno) inputs: earliest table wins in
        both kernels (heapq.merge stability)."""
        first = SSTable(0, [Record.put(1, 5, value_size=11)])
        second = SSTable(1, [Record.put(1, 5, value_size=22)])
        columnar = merge_sstables([first, second], 9, kernel="columnar")
        heap = merge_sstables([first, second], 9, kernel="heap")
        assert columnar.records == heap.records
        assert columnar.records[0].value_size == 11

    @given(inputs=merge_inputs(), drop=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_columnar_equals_heap_on_drawn_inputs(self, inputs, drop):
        """k = 1..6 overlapping runs, equal (key, seqno) pairs across
        inputs, tombstones (all of them, sometimes): both kernels keep
        the same records, tie-break and all-tombstoned marker included."""
        tables = [
            SSTable.from_columns(table_id, *columns)
            for table_id, columns in enumerate(inputs)
        ]
        columnar = merge_sstables(tables, 99, drop_tombstones=drop, kernel="columnar")
        heap = merge_sstables(tables, 99, drop_tombstones=drop, kernel="heap")
        assert columnar.records == heap.records
        assert columnar.size_bytes == heap.size_bytes
        assert columnar.table_id == heap.table_id

    @given(inputs=merge_inputs())
    @settings(max_examples=200, deadline=None)
    def test_newest_per_key_equals_a_dict_replay(self, inputs):
        """The survivor of each key is its highest seqno, and the
        earliest input among equal highest seqnos."""
        columns = [
            SSTable.from_columns(table_id, *columns).columns()
            for table_id, columns in enumerate(inputs)
        ]
        newest: dict[int, tuple[int, int]] = {}  # key -> (seqno, position)
        position = 0
        for keys, seqnos, _values, _tombstones in inputs:
            for key, seqno in zip(keys, seqnos):
                if key not in newest or seqno > newest[key][0]:
                    newest[key] = (seqno, position)
                position += 1
        *_, survivors = newest_per_key(columns)
        assert survivors.tolist() == [newest[key][1] for key in sorted(newest)]

    def test_columnar_kernel_requires_columns(self):
        table = SSTable(0, [Record.put("a", 1)])
        other = SSTable(1, [Record.put("b", 2)])
        with pytest.raises(StorageError):
            merge_sstables([table, other], 5, kernel="columnar")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(StorageError):
            merge_sstables([make_table(0, [1])], 5, kernel="vectorized")

    def test_auto_falls_back_to_heap_for_string_keys(self):
        a = SSTable(0, [Record.put("a", 1)])
        b = SSTable(1, [Record.put("b", 2)])
        merged = merge_sstables([a, b], 5)  # auto; must not raise
        assert merged.key_set == frozenset({"a", "b"})


class TestSingleInputShortcut:
    def test_returns_input_aliased_and_ignores_new_table_id(self):
        table = make_columnar(4, [1, 2, 3])
        merged = merge_sstables([table], new_table_id=123)
        assert merged is table
        assert merged.table_id == 4  # new_table_id ignored by design

    def test_shortcut_applies_even_with_tombstones_present(self):
        table = make_columnar(4, [1, 2, 3], tombstones={2})
        assert merge_sstables([table], new_table_id=9) is table

    def test_drop_tombstones_disables_shortcut(self):
        table = make_columnar(4, [1, 2, 3], tombstones={2})
        merged = merge_sstables([table], new_table_id=9, drop_tombstones=True)
        assert merged is not table
        assert merged.table_id == 9
        assert merged.key_set == frozenset({1, 3})

    def test_shortcut_preserves_cached_sketches(self):
        table = make_columnar(4, [1, 2, 3])
        sketch = table.sketch(precision=10)
        merged = merge_sstables([table], new_table_id=9)
        assert merged.cached_sketch(precision=10) is sketch


class TestColumnarSketchPropagation:
    """drop_tombstones x sketch persistence on the columnar kernel."""

    def execute(self, tables, drop_tombstones):
        from repro.core.schedule import MergeSchedule, MergeStep
        from repro.lsm import SimulatedDisk, execute_schedule

        schedule = MergeSchedule(
            n_initial=len(tables),
            steps=(
                MergeStep(inputs=tuple(range(len(tables))), output=len(tables)),
            ),
        )
        return execute_schedule(
            tables,
            schedule,
            SimulatedDisk(),
            next_table_id=100,
            drop_tombstones=drop_tombstones,
            merge_kernel="columnar",
        )

    def test_sketches_propagate_without_tombstones(self):
        tables = [make_columnar(0, [1, 2, 3]), make_columnar(1, [3, 4, 5], seqno_start=10)]
        for table in tables:
            table.sketch(precision=10)
        result = self.execute(tables, drop_tombstones=True)
        adopted = result.output_table.cached_sketch(precision=10)
        assert adopted is not None
        # Lossless adoption: identical to a sketch built from scratch.
        from repro.hll import HyperLogLog

        rebuilt = HyperLogLog.of([1, 2, 3, 4, 5], precision=10)
        assert adopted.cardinality() == rebuilt.cardinality()

    def test_gc_with_tombstones_rebuilds_live_key_sketch(self):
        """Tombstone GC may drop keys, so adopting input sketches would
        overcount; the output instead gets a sketch rebuilt from its
        surviving keys — bottommost tables keep their caches too."""
        from repro.hll import HyperLogLog

        tables = [
            make_columnar(0, [1, 2, 3]),
            make_columnar(1, [2, 6], seqno_start=10, tombstones={2}),
        ]
        for table in tables:
            table.sketch(precision=10)
        result = self.execute(tables, drop_tombstones=True)
        assert result.output_table.key_set == frozenset({1, 3, 6})
        rebuilt = result.output_table.cached_sketch(precision=10)
        assert rebuilt is not None
        fresh = HyperLogLog.of([1, 3, 6], precision=10)
        assert rebuilt._registers == fresh._registers

    def test_no_gc_propagates_despite_tombstones(self):
        """Without GC the output keys are exactly the input union, so
        adoption stays lossless even with tombstones present."""
        tables = [
            make_columnar(0, [1, 2, 3]),
            make_columnar(1, [2, 6], seqno_start=10, tombstones={2}),
        ]
        for table in tables:
            table.sketch(precision=10)
        result = self.execute(tables, drop_tombstones=False)
        assert result.output_table.cached_sketch(precision=10) is not None

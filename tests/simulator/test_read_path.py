"""Differential harness for the serving read path.

The batched read kernel (columnar gets + merged-view scans) must
produce **identical** counts to the scalar reference (the real engine's
``get``/``scan``) on every mix and distribution; collecting read ops
must not move the write stream by a byte; and the read metrics must surface through ``run_strategy``,
``run_comparison`` and the report renderer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.lsm.bloom import BloomFilter
from repro.lsm.record import ENTRY_OVERHEAD_BYTES, Record
from repro.lsm.sstable import SSTable
from repro.lsm import SimulatedDisk
from repro.simulator import (
    SimulationConfig,
    build_strategy,
    generate_sstables,
    generate_sstables_reference,
    run_comparison,
    run_strategy,
    serve_reads,
)
from repro.simulator.metrics import served_fields
from repro.scenarios.runner import render_comparison_table
from repro.ycsb.workload import ReadOpColumns

COUNTER_FIELDS = (
    "reads",
    "hits",
    "misses",
    "tables_probed",
    "bloom_skips",
    "bloom_false_positives",
    "read_bytes",
    "scans",
    "scan_tables_probed",
    "scan_tables_pruned",
    "scan_records_scanned",
    "scan_records_returned",
)

MIXES = {
    "read-heavy": {"read_fraction": 0.6, "update_fraction": 0.4},
    # The registered read-heavy preset's shape: point gets, no scans.
    "gets-only": {"read_fraction": 0.8, "scan_fraction": 0.0},
    "scan-heavy": {"scan_fraction": 0.4, "read_fraction": 0.1},
    "churny": {
        "read_fraction": 0.3,
        "scan_fraction": 0.2,
        "delete_fraction": 0.2,
        "update_fraction": 0.5,
    },
}


def read_config(**overrides) -> SimulationConfig:
    defaults = dict(
        recordcount=250,
        operationcount=2500,
        memtable_capacity=200,
        distribution="zipfian",
        update_fraction=0.5,
        read_fraction=0.4,
        scan_fraction=0.1,
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def assert_counts_identical(result_a, result_b):
    for field in COUNTER_FIELDS:
        assert getattr(result_a, field) == getattr(result_b, field), field


class TestKernelEquivalence:
    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize(
        "distribution", ("uniform", "zipfian", "latest")
    )
    def test_batched_matches_scalar(self, mix, distribution):
        config = read_config(distribution=distribution, **MIXES[mix])
        phase1 = generate_sstables(config)
        assert phase1.read_ops is not None and phase1.read_ops.has_ops
        batched = serve_reads(phase1.tables, phase1.read_ops, kernel="batched")
        scalar = serve_reads(phase1.tables, phase1.read_ops, kernel="scalar")
        assert batched.kernel_used == "batched"
        assert scalar.kernel_used == "scalar"
        assert_counts_identical(batched, scalar)

    def test_batched_matches_scalar_on_compacted_output(self):
        """Serving against a strategy's output tables, not just phase 1's."""
        from repro.simulator.phase2 import build_strategy
        from repro.lsm.disk import SimulatedDisk

        config = read_config(operationcount=4000, **MIXES["churny"])
        phase1 = generate_sstables(config)
        strategy = build_strategy("LEVELED", config)
        result = strategy.compact(
            phase1.tables, SimulatedDisk(config.timing_model()), 10_000_000
        )
        batched = serve_reads(
            result.output_tables, phase1.read_ops, kernel="batched"
        )
        scalar = serve_reads(
            result.output_tables, phase1.read_ops, kernel="scalar"
        )
        assert_counts_identical(batched, scalar)

    @staticmethod
    def str_keyed():
        """A table with no int64 column view, and ops in its key type."""
        table = SSTable(
            0, [Record.put(f"user{n:02d}", n + 1) for n in range(20)]
        )
        assert table.columns() is None
        ops = ReadOpColumns(
            read_keynums=["user03", "nobody"],
            scan_keynums=["user10"],
            scan_lengths=[5],
        )
        return [table], ops

    def test_auto_prefers_batched_and_falls_back(self):
        config = read_config()
        phase1 = generate_sstables(config)
        assert (
            serve_reads(phase1.tables, phase1.read_ops).kernel_used
            == "batched"
        )
        tables, ops = self.str_keyed()
        served = serve_reads(tables, ops, kernel="auto")
        assert served.kernel_used == "scalar"
        assert (served.hits, served.misses) == (1, 1)
        assert served.scan_records_returned == 5

    def test_batched_kernel_requires_numpy(self):
        """What the batched kernel still requires: a column view."""
        tables, ops = self.str_keyed()
        with pytest.raises(ConfigError, match="int64-representable"):
            serve_reads(tables, ops, kernel="batched")

    def test_unknown_kernel_rejected(self):
        config = read_config()
        phase1 = generate_sstables(config)
        with pytest.raises(ConfigError):
            serve_reads(phase1.tables, phase1.read_ops, kernel="simd")

    def test_tombstones_resolve_to_misses(self):
        """A read landing on a tombstone is a probe + a miss, not a hit."""
        old = SSTable(0, [Record.put(key, key + 1) for key in range(10)])
        new = SSTable(1, [Record.delete(3, 100), Record.put(7, 101)])
        ops = ReadOpColumns(
            read_keynums=[3, 7, 42], scan_keynums=[0], scan_lengths=[10]
        )
        for kernel in ("batched", "scalar"):
            served = serve_reads([old, new], ops, kernel=kernel)
            assert served.hits == 1  # key 7, from the newer table
            assert served.misses == 2  # tombstoned 3 + absent 42
            # The scan sees 9 live keys (3 is shadowed).
            assert served.scan_records_returned == 9


@st.composite
def duplicate_heavy(draw):
    """Tables over keys 0..59 and read ops that repeat themselves.

    Tables are oldest first with seqnos rising table by table, like a
    flush sequence; about a third of the entries are tombstones, so
    newer tables shadow older puts.  Each drawn read key (absent ones,
    keys outside every table's range and negative ones included) is
    read 1-50 times, and scans repeat ``(start, length)`` pairs, some of
    length < 1.
    """
    tables = []
    for table_id in range(draw(st.integers(1, 5))):
        entries = draw(
            st.dictionaries(
                st.integers(0, 59),
                st.tuples(st.booleans(), st.booleans(), st.integers(0, 300)),
                min_size=1,
                max_size=30,
            )
        )
        keys = sorted(entries)
        dead = [first and second for first, second, _ in map(entries.get, keys)]
        tables.append(
            SSTable.from_columns(
                table_id,
                keys,
                [table_id * 100 + row for row in range(len(keys))],
                [0 if gone else entries[key][2] for key, gone in zip(keys, dead)],
                dead,
            )
        )
    counted = draw(
        st.lists(
            st.tuples(st.integers(-10, 80), st.integers(1, 50)), max_size=20
        )
    )
    reads = [key for key, times in counted for _ in range(times)]
    reads = draw(st.permutations(reads))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(-10, 70), st.integers(-2, 12), st.integers(1, 5)),
            max_size=8,
        )
    )
    scans = draw(
        st.permutations(
            [(start, length) for start, length, times in pairs for _ in range(times)]
        )
    )
    read_ops = ReadOpColumns(
        read_keynums=reads,
        scan_keynums=[start for start, _ in scans],
        scan_lengths=[length for _, length in scans],
    )
    return tables, read_ops


class TestDuplicateHeavy:
    """The batched kernel serves each distinct key once and weights it."""

    @settings(max_examples=150)
    @given(duplicate_heavy())
    def test_batched_matches_scalar(self, case):
        tables, read_ops = case
        batched = serve_reads(tables, read_ops, kernel="batched")
        scalar = serve_reads(tables, read_ops, kernel="scalar")
        assert batched.kernel_used == "batched"
        assert_counts_identical(batched, scalar)
        assert batched.reads == len(read_ops.read_keynums)

    def test_per_table_work_is_per_distinct_key(self, monkeypatch):
        """Each table's bloom and binary search see a distinct key once.

        Counts the keys ``contains_batch`` and ``get_batch`` receive per
        table: a kernel doing per-op work on these zipfian reads (far
        more ops than distinct keys) passes the bound on neither.
        """
        config = read_config(operationcount=6000, **MIXES["read-heavy"])
        phase1 = generate_sstables(config)
        reads = phase1.read_ops.read_keynums
        distinct = len(set(reads))
        assert 2 * distinct < len(reads)  # the reads really repeat
        received: dict[tuple[str, int], int] = {}

        def counted(name, method):
            def wrapper(self, keys):
                slot = (name, id(self))
                received[slot] = received.get(slot, 0) + len(keys)
                return method(self, keys)

            return wrapper

        monkeypatch.setattr(
            BloomFilter,
            "contains_batch",
            counted("bloom", BloomFilter.contains_batch),
        )
        monkeypatch.setattr(
            SSTable, "get_batch", counted("table", SSTable.get_batch)
        )
        served = serve_reads(
            phase1.tables,
            ReadOpColumns(reads, [], []),
            kernel="batched",
        )
        assert served.tables_probed > len(phase1.tables)
        assert {name for name, _ in received} == {"bloom", "table"}
        assert max(received.values()) <= distinct, received


class TestByteSumsPastInt64:
    """Entry sizes near 2**62: every byte sum stays an exact int."""

    TABLE = dict(keys=[1, 2, 3], seqnos=[1, 2, 3], value_sizes=[2**62, 2**62, 5])

    @pytest.mark.parametrize("kernel", ("batched", "scalar"))
    def test_read_bytes_are_exact(self, kernel):
        table = SSTable.from_columns(1, **self.TABLE)
        ops = ReadOpColumns(read_keynums=[1, 2], scan_keynums=[1], scan_lengths=[3])
        served = serve_reads([table], ops, kernel=kernel)
        gets = 2 * (2**62 + ENTRY_OVERHEAD_BYTES)
        assert served.read_bytes == gets + table.size_bytes
        assert served.read_bytes == 4 * 2**62 + 5 + 5 * ENTRY_OVERHEAD_BYTES

    @pytest.mark.parametrize("kernel", ("batched", "scalar"))
    def test_repeated_reads_of_a_wide_entry(self, kernel):
        """Weights times sizes: 3 reads of one 2**61-byte entry pass int64."""
        table = SSTable.from_columns(0, [7, 8], [1, 2], [2**61, 1])
        ops = ReadOpColumns(read_keynums=[7, 7, 8, 7, 7], scan_keynums=[], scan_lengths=[])
        served = serve_reads([table], ops, kernel=kernel)
        assert served.read_bytes == 4 * 2**61 + 1 + 5 * ENTRY_OVERHEAD_BYTES

    @pytest.mark.parametrize("kernel", ("batched", "scalar"))
    def test_repeated_scans_of_a_wide_table(self, kernel):
        """Each scan's bytes fit int64; three scans' sum does not."""
        table = SSTable.from_columns(0, [1, 2], [1, 2], [2**61, 2**61])
        ops = ReadOpColumns([], scan_keynums=[0, 1, 0], scan_lengths=[2, 5, 9])
        served = serve_reads([table], ops, kernel=kernel)
        assert served.read_bytes == 3 * table.size_bytes > 2**63


class TestReadOpCollection:
    def test_planes_collect_identical_read_ops(self):
        config = read_config(**MIXES["churny"])
        fast = generate_sstables(config)
        reference = generate_sstables_reference(config)
        assert fast.read_ops.read_keynums == reference.read_ops.read_keynums
        assert fast.read_ops.scan_keynums == reference.read_ops.scan_keynums
        assert fast.read_ops.scan_lengths == reference.read_ops.scan_lengths

    def test_collection_does_not_move_the_write_stream(self):
        from repro.ycsb.workload import CoreWorkload

        config = read_config(**MIXES["scan-heavy"])
        workload_config = config.workload_config()
        dropped = CoreWorkload(workload_config).op_stream_columns()
        collected = CoreWorkload(workload_config).op_stream_columns(
            include_read_ops=True
        )
        assert dropped.read_ops is None
        assert collected.read_ops is not None and collected.read_ops.has_ops
        assert list(dropped.write_keynums) == list(collected.write_keynums)
        assert dropped.tombstone_positions == collected.tombstone_positions
        assert dropped.op_codes == collected.op_codes

    def test_write_only_mix_collects_nothing(self):
        config = read_config(read_fraction=0.0, scan_fraction=0.0)
        assert generate_sstables(config).read_ops is None
        assert generate_sstables_reference(config).read_ops is None


class TestStrategyMetrics:
    def test_run_strategy_serves_reads(self):
        config = read_config()
        phase1 = generate_sstables(config)
        result = run_strategy(
            phase1.tables, "SI", config, read_ops=phase1.read_ops
        )
        assert result.reads == phase1.read_ops.read_count
        assert result.scans > 0
        assert result.read_hits + result.read_misses == result.reads
        assert result.read_bytes > 0
        assert result.read_amplification > 0
        assert 0.0 <= result.bloom_fp_rate <= 1.0

    def test_run_strategy_without_read_ops_reports_zeros(self):
        config = read_config(read_fraction=0.0, scan_fraction=0.0)
        phase1 = generate_sstables(config)
        result = run_strategy(phase1.tables, "SI", config)
        assert result.reads == 0
        assert result.scans == 0
        assert result.read_amplification == 0.0

    def test_reference_plane_serves_identically(self):
        """The whole reference plane (engine-loop tables, the heap merge,
        the scalar read kernel) serves exactly what ``run_strategy``
        serves on the columnar plane."""
        config = read_config(**MIXES["read-heavy"])
        phase1 = generate_sstables(config)
        result = run_strategy(
            phase1.tables, "SI", config, read_ops=phase1.read_ops
        )
        reference = generate_sstables_reference(config)
        strategy = build_strategy("SI", config)
        strategy.merge_kernel = "heap"
        compacted = strategy.compact(
            reference.tables, SimulatedDisk(config.timing_model()), 10_000_000
        )
        served = served_fields(
            serve_reads(compacted.output_tables, reference.read_ops, "scalar")
        )
        assert served == {name: getattr(result, name) for name in served}
        assert result.reads > 0 and result.scans > 0

    def test_render_adds_read_columns_only_when_served(self):
        read_mix = read_config()
        served = run_comparison(read_mix, ("SI", "RANDOM"), runs=1)
        report = render_comparison_table(read_mix, served, ("SI", "RANDOM"))
        assert "read amp" in report and "bloom FP%" in report

        write_only = read_config(read_fraction=0.0, scan_fraction=0.0)
        unserved = run_comparison(write_only, ("SI",), runs=1)
        report = render_comparison_table(write_only, unserved, ("SI",))
        assert "read amp" not in report

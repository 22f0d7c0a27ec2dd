"""Tests for simulator phase 1 (sstable generation) and phase 2 (strategies).

These use reduced workload sizes; the full paper-scale settings run in
the benchmark suite.
"""

import pytest

from repro.errors import CompactionError
from repro.lsm import BloomFilter, SimulatedDisk
from repro.simulator import (
    PAPER_STRATEGIES,
    SimulationConfig,
    build_strategy,
    generate_sstables,
    known_strategy_labels,
    run_strategy,
    strategy_labels,
)


def small_config(**overrides) -> SimulationConfig:
    defaults = dict(
        recordcount=300,
        operationcount=3000,
        memtable_capacity=300,
        distribution="latest",
        update_fraction=0.5,
        seed=1,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestPhase1:
    def test_table_count_matches_flush_arithmetic(self):
        """(recordcount + operationcount) / memtable ops per flush."""
        config = small_config()
        result = generate_sstables(config)
        assert result.n_tables == (300 + 3000) // 300
        assert result.total_operations == 3300

    def test_append_mode_tables_vary_in_size(self):
        """§5.1: dedup at flush => tables smaller than capacity."""
        config = small_config(update_fraction=1.0)
        result = generate_sstables(config)
        sizes = {t.entry_count for t in result.tables}
        assert all(t.entry_count <= 300 for t in result.tables)
        assert any(t.entry_count < 300 for t in result.tables)

    def test_insert_only_tables_are_full(self):
        """With no updates every operation is a distinct key."""
        config = small_config(update_fraction=0.0)
        result = generate_sstables(config)
        assert all(t.entry_count == 300 for t in result.tables)

    def test_total_entries_is_lopt(self):
        config = small_config()
        result = generate_sstables(config)
        assert result.total_entries == sum(t.entry_count for t in result.tables)

    def test_reproducible(self):
        config = small_config()
        a = generate_sstables(config)
        b = generate_sstables(config)
        assert [t.key_set for t in a.tables] == [t.key_set for t in b.tables]

    def test_different_seeds_differ(self):
        a = generate_sstables(small_config(seed=1))
        b = generate_sstables(small_config(seed=2))
        assert [t.key_set for t in a.tables] != [t.key_set for t in b.tables]

    def test_map_mode_dedups_before_capacity(self):
        append = generate_sstables(small_config(update_fraction=1.0))
        mapped = generate_sstables(
            small_config(update_fraction=1.0, memtable_mode="map")
        )
        # map mode needs more ops to fill a memtable, so fewer tables
        assert mapped.n_tables <= append.n_tables


class TestPhase2:
    @pytest.fixture(scope="class")
    def phase1(self):
        return generate_sstables(small_config())

    def test_all_paper_strategies_run(self, phase1):
        config = small_config()
        for label in strategy_labels():
            result = run_strategy(phase1.tables, label, config)
            assert result.strategy == label
            assert result.n_merges == phase1.n_tables - 1
            assert result.cost_actual > result.lopt_entries

    def test_cost_ge_lopt(self, phase1):
        config = small_config()
        result = run_strategy(phase1.tables, "SI", config)
        assert result.cost_over_lopt >= 1.0

    def test_bt_parallel_beats_si_time(self, phase1):
        config = small_config()
        si = run_strategy(phase1.tables, "SI", config)
        bt = run_strategy(phase1.tables, "BT(I)", config)
        assert bt.total_simulated_seconds < si.total_simulated_seconds

    def test_so_overhead_exceeds_si(self, phase1):
        config = small_config()
        si = run_strategy(phase1.tables, "SI", config)
        so = run_strategy(phase1.tables, "SO", config)
        assert so.strategy_overhead_seconds > si.strategy_overhead_seconds

    def test_random_not_better_than_si(self, phase1):
        config = small_config()
        si = run_strategy(phase1.tables, "SI", config)
        rnd = run_strategy(phase1.tables, "RANDOM", config)
        assert rnd.cost_actual >= si.cost_actual

    def test_unknown_label(self, phase1):
        with pytest.raises(CompactionError):
            run_strategy(phase1.tables, "FASTEST", small_config())

    def test_empty_tables_rejected(self):
        with pytest.raises(CompactionError):
            run_strategy([], "SI", small_config())

    def test_build_strategy_lanes(self):
        config = small_config(parallel_lanes=4)
        assert build_strategy("BT(I)", config).lanes == 4
        assert build_strategy("SI", config).lanes == 1

    @pytest.mark.parametrize("label", known_strategy_labels())
    def test_output_filters_sized_for_the_configured_rate(self, label):
        """``bloom_fp_rate`` reaches every label's merge outputs, not
        only the phase-1 tables and the practical strategies."""
        config = small_config(bloom_fp_rate=0.3)
        tables = generate_sstables(config).tables
        result = build_strategy(label, config).compact(
            tables, SimulatedDisk(config.timing_model()), 10_000_000
        )
        merged = [t for t in result.output_tables if t not in tables]
        assert merged
        for table in merged:
            sized = BloomFilter(table.entry_count, 0.3)
            assert (table.bloom.m_bits, table.bloom.k_hashes) == (
                sized.m_bits,
                sized.k_hashes,
            )
            assert table.bloom.m_bits < BloomFilter(table.entry_count).m_bits

    def test_paper_strategy_table_complete(self):
        for label in strategy_labels():
            assert label in PAPER_STRATEGIES

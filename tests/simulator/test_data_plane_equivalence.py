"""Differential harness: the batched data plane equals its oracles.

The simulator's plane (columnar phase 1 + columnar merge kernel) must
produce **bit-identical** sstables, schedules and metrics to the
reference plane (operation-at-a-time engine loop,
:func:`generate_sstables_reference`, + the heap merge kernel, set on
the strategy ``build_strategy`` returns) on every key distribution, and
sweep results must not depend on the number of worker processes.  These
tests are the contract that lets the figure goldens stay byte-identical
while the pipeline gets faster.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.lsm.compaction.executor as executor_module
import repro.simulator.phase1 as phase1_module
from repro.errors import ConfigError
from repro.lsm import SimulatedDisk
from repro.lsm.engine import EngineConfig, LSMEngine
from repro.lsm.memtable import SortedMapMemtable
from repro.lsm.record import Record
from repro.simulator import (
    SimulationConfig,
    build_strategy,
    generate_sstables,
    generate_sstables_reference,
    sweep as run_sweep,
)
from repro.ycsb.workload import CoreWorkload, WorkloadConfig

DISTRIBUTIONS = ("uniform", "zipfian", "scrambled_zipfian", "latest")


def small_config(**overrides) -> SimulationConfig:
    defaults = dict(
        recordcount=250,
        operationcount=2500,
        memtable_capacity=200,
        distribution="latest",
        update_fraction=0.5,
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def assert_tables_identical(result_a, result_b):
    assert result_a.total_operations == result_b.total_operations
    assert result_a.total_entries == result_b.total_entries
    assert len(result_a.tables) == len(result_b.tables)
    for table_a, table_b in zip(result_a.tables, result_b.tables):
        assert table_a.table_id == table_b.table_id
        assert table_a.records == table_b.records
        assert table_a.size_bytes == table_b.size_bytes
        assert table_a.key_set == table_b.key_set
        assert (table_a.min_seqno, table_a.max_seqno) == (
            table_b.min_seqno,
            table_b.max_seqno,
        )


def map_memtable_boundaries(keys, capacity):
    """Flush epochs of a real ``SortedMapMemtable`` driven key by key,
    the way the engine drives it: flush before the first write that
    finds the memtable full."""
    memtable = SortedMapMemtable(capacity)
    boundaries, start = [], 0
    for index, key in enumerate(keys):
        if memtable.is_full:
            memtable.flush_records()
            boundaries.append((start, index))
            start = index
        memtable.add(Record(key=key, seqno=index + 1, value_size=0))
    if start < len(keys):
        boundaries.append((start, len(keys)))
    return boundaries


def compact(tables, label, config, merge_kernel="auto"):
    """Phase 2 of one plane: ``build_strategy``'s strategy, with the
    merge kernel the plane pins."""
    strategy = build_strategy(label, config)
    strategy.merge_kernel = merge_kernel
    return strategy.compact(
        tables, SimulatedDisk(config.timing_model()), next_table_id=10_000_000
    )


class TestPhase1Equivalence:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("update_fraction", (0.0, 0.6, 1.0))
    def test_fast_matches_reference(self, distribution, update_fraction):
        config = small_config(
            distribution=distribution, update_fraction=update_fraction
        )
        assert_tables_identical(
            generate_sstables_reference(config), generate_sstables(config)
        )

    def test_tables_stay_column_backed(self):
        config = small_config()
        fast = generate_sstables(config)
        # Column-backed tables never materialized records here.
        assert all(table.columns() is not None for table in fast.tables)
        assert all("records" not in vars(table) for table in fast.tables)
        assert_tables_identical(generate_sstables_reference(config), fast)

    MIXES = {
        "writes-only": {},
        "read-mix": {"read_fraction": 0.6, "update_fraction": 0.4},
        "scan-mix": {"scan_fraction": 0.3, "read_fraction": 0.1},
        "delete-mix": {"delete_fraction": 0.3, "update_fraction": 0.4},
    }

    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("memtable_mode", ("append", "map"))
    def test_mode_and_mix_grid_identical(self, memtable_mode, mix):
        """Map mode and read/scan/delete mixes all run columnar now."""
        config = small_config(memtable_mode=memtable_mode, **self.MIXES[mix])
        fast = generate_sstables(config)
        assert_tables_identical(generate_sstables_reference(config), fast)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_map_mode_matches_reference_per_distribution(self, distribution):
        config = small_config(memtable_mode="map", distribution=distribution)
        assert_tables_identical(
            generate_sstables_reference(config), generate_sstables(config)
        )

    def test_map_mode_slab_kernel_matches_pure_boundaries(self):
        """The chunked distinct-count kernel == the memtable reference."""
        rng = __import__("random").Random(3)
        for capacity in (1, 2, 7, 50, 200):
            for spread in (5, 40, 1000):
                keys = [rng.randrange(spread) for _ in range(3000)]
                assert phase1_module._map_mode_slabs_columnar(
                    np.asarray(keys, dtype=np.int64), capacity
                ) == map_memtable_boundaries(keys, capacity), (
                    capacity,
                    spread,
                )

    def test_fast_plane_requires_known_memtable_mode(self):
        with pytest.raises(ConfigError):
            small_config(memtable_mode="lsm")

    def test_reference_tables_are_record_backed(self):
        result = generate_sstables_reference(small_config())
        # Reference tables are record-backed from construction.
        assert all("records" in vars(table) for table in result.tables)

    def test_fast_plane_with_deletes(self):
        """Tombstone columns survive the slab pipeline bit-identically."""
        workload_config = WorkloadConfig(
            recordcount=150,
            operationcount=1800,
            insert_proportion=0.3,
            update_proportion=0.5,
            delete_proportion=0.2,
            distribution="zipfian",
            seed=11,
        )
        engine = LSMEngine(
            EngineConfig(
                memtable_capacity=200,
                memtable_mode="append",
                default_value_size=100,
                use_wal=False,
            )
        )
        for operation in CoreWorkload(workload_config).all_operations():
            engine.apply(operation)
        engine.flush()

        config = small_config(recordcount=150, operationcount=1800)
        stream = CoreWorkload(workload_config).op_stream_columns()
        keynums, tombstones = stream.write_keynums, stream.tombstone_positions
        tables = phase1_module.build_tables_from_columns(
            keynums, tombstones, replace(config, memtable_capacity=200)
        )
        assert len(tables) == len(engine.sstables)
        for fast_table, reference_table in zip(tables, engine.sstables):
            assert fast_table.records == reference_table.records
            assert fast_table.live_key_count == reference_table.live_key_count


class TestPhase2Equivalence:
    @pytest.fixture(scope="class")
    def planes(self):
        """Both planes' tables per memtable mode: map mode's flush
        boundaries come from the data-dependent slab cutter."""
        planes = []
        for memtable_mode in ("append", "map"):
            config = small_config(memtable_mode=memtable_mode)
            planes.append(
                (
                    config,
                    generate_sstables_reference(config),
                    generate_sstables(config),
                )
            )
        return planes

    @pytest.mark.parametrize("label", ("SI", "SO", "BT(I)", "RANDOM"))
    def test_strategy_metrics_identical(self, planes, label):
        for config, reference, fast in planes:
            result_reference = compact(
                reference.tables, label, config, merge_kernel="heap"
            )
            result_fast = compact(fast.tables, label, config)
            for field in (
                "cost_actual_entries",
                "cost_simplified_entries",
                "bytes_read",
                "bytes_written",
                "simulated_seconds",
                "n_merges",
            ):
                assert getattr(result_reference, field) == getattr(
                    result_fast, field
                ), field

    @pytest.mark.parametrize("label", ("SO", "STCS", "LEVELED"))
    def test_heap_kernel_seam_reaches_every_merge(
        self, planes, label, monkeypatch
    ):
        """Setting ``merge_kernel`` on a built strategy is the oracle's
        only seam, so it must reach the merge itself."""
        kernels = []
        merge = executor_module.merge_sstables

        def spy(*args, kernel="auto", **kwargs):
            kernels.append(kernel)
            return merge(*args, kernel=kernel, **kwargs)

        monkeypatch.setattr(executor_module, "merge_sstables", spy)
        config, reference, _ = planes[0]
        compact(reference.tables, label, config, merge_kernel="heap")
        assert kernels and set(kernels) == {"heap"}
        kernels.clear()
        compact(reference.tables, label, config)
        assert kernels and set(kernels) == {"auto"}

    def test_merge_kernels_identical_on_fast_tables(self, planes):
        from repro.lsm.sstable import merge_sstables

        for _, _, fast in planes:
            columnar = merge_sstables(
                fast.tables, 10_000, drop_tombstones=True, kernel="columnar"
            )
            heap = merge_sstables(
                fast.tables, 10_000, drop_tombstones=True, kernel="heap"
            )
            assert columnar.records == heap.records
            assert columnar.size_bytes == heap.size_bytes


class TestSweepJobsIndependence:
    @staticmethod
    def deterministic_fields(sweep):
        return [
            (
                point.x,
                label,
                agg.cost_actual_mean,
                agg.cost_actual_std,
                agg.cost_simplified_mean,
                agg.lopt_entries_mean,
                agg.runs,
            )
            for point in sweep.points
            for label, agg in point.per_strategy.items()
        ]

    def test_results_independent_of_jobs(self):
        config = small_config(operationcount=1500, recordcount=200)
        serial = run_sweep(
            config, "update_fraction", (0.0, 1.0), ("SI", "RANDOM"), runs=2, jobs=1
        )
        parallel = run_sweep(
            config, "update_fraction", (0.0, 1.0), ("SI", "RANDOM"), runs=2, jobs=3
        )
        assert self.deterministic_fields(serial) == self.deterministic_fields(
            parallel
        )

    def test_invalid_jobs_rejected(self):
        from repro.simulator import run_comparison

        with pytest.raises(ConfigError):
            run_comparison(small_config(), ("SI",), runs=1, jobs=0)

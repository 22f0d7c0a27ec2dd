"""MajorCompaction models a list of input tables once, not once per strategy.

The strategies of one comparison cell compact the same table objects, so
they share one ``MergeInstance`` (and its bitset encoding) through the
weak memo in ``lsm.compaction.major``.  Pinned here: the sharing
happens, it changes no result, and the memo keeps neither tables nor
instances alive once the caller drops the tables.  Encodings are counted
as one-pass column builds (``BitsetEncoder.from_columns``), the only way
an int-keyed instance is encoded.
"""

from __future__ import annotations

import gc
import weakref

from repro.core.keyset import BitsetEncoder
from repro.lsm import CompactionController, EngineConfig, LSMEngine, MajorCompaction
from repro.lsm.compaction import major
from repro.simulator import (
    SimulationConfig,
    generate_sstables,
    run_comparison,
    run_strategy,
)

LABELS = ("SI", "SO", "BT(I)", "BT(O)", "LM")


def _config() -> SimulationConfig:
    return SimulationConfig(
        recordcount=200,
        operationcount=3000,
        memtable_capacity=150,
        distribution="latest",
        update_fraction=0.5,
        seed=7,
    )


def _count_encoders(monkeypatch) -> list[int]:
    built = [0]
    build = BitsetEncoder.from_columns.__func__

    def counting_build(cls, columns):
        built[0] += 1
        return build(cls, columns)

    monkeypatch.setattr(BitsetEncoder, "from_columns", classmethod(counting_build))
    return built


def _forget() -> None:
    major._modelled.clear()


class TestSharedInstance:
    def test_one_encoding_per_cell_and_results_unchanged(self, monkeypatch):
        config = _config()
        _forget()
        built = _count_encoders(monkeypatch)
        shared = run_comparison(config, LABELS, runs=1).per_strategy
        assert built[0] == 1

        tables = generate_sstables(config).tables
        for label in LABELS:
            _forget()  # a fresh instance for every strategy
            fresh = run_strategy(tables, label, config, seed=config.seed)
            cell = shared[label]
            assert cell.cost_actual_mean == fresh.cost_actual, label
            assert cell.cost_simplified_mean == fresh.cost_simplified, label
            assert cell.lopt_entries_mean == fresh.lopt_entries, label
        assert built[0] == 1 + len(LABELS)

    def test_same_tables_in_a_new_list_share_the_instance(self, monkeypatch):
        _forget()
        built = _count_encoders(monkeypatch)
        config = _config()
        tables = generate_sstables(config).tables
        run_strategy(tables, "SI", config)
        run_strategy(list(tables), "BT(I)", config)
        assert built[0] == 1
        # Any other input — here a prefix — is a different instance.
        run_strategy(tables[:-1], "SI", config)
        assert built[0] == 2

    def test_equal_but_distinct_tables_do_not_share(self, monkeypatch):
        _forget()
        built = _count_encoders(monkeypatch)
        config = _config()
        run_strategy(generate_sstables(config).tables, "SI", config)
        run_strategy(generate_sstables(config).tables, "SI", config)
        assert built[0] == 2


def _flush_three_tables(engine: LSMEngine, first_key: int) -> None:
    for table in range(3):
        for key in range(first_key + 10 * table, first_key + 10 * table + 6):
            engine.put(key)
        engine.flush()


class TestRetention:
    def test_controller_compaction_inputs_die_with_the_engine_reference(self):
        engine = LSMEngine(EngineConfig(memtable_capacity=100, use_wal=False))
        controller = CompactionController(
            engine,
            strategy_factory=lambda: MajorCompaction("SO", backend="bitset"),
            table_threshold=3,
        )
        _flush_three_tables(engine, 0)
        inputs = [weakref.ref(table) for table in engine.sstables]
        assert controller.maybe_compact() is not None
        gc.collect()
        # The engine swapped its tables for the output; the memo holds
        # the inputs weakly, so they — and their instance — are gone.
        assert all(ref() is None for ref in inputs)
        assert len(major._modelled) == 0

        # The history keeps each output alive, and an output is the next
        # compaction's first input: still at most one instance is held.
        for first_key in (100, 200, 300):
            _flush_three_tables(engine, first_key)
            assert controller.maybe_compact() is not None
        assert len(major._modelled) == 1
        controller.history.clear()
        gc.collect()
        assert len(major._modelled) == 0

    def test_instance_dies_with_the_cell_tables(self):
        config = _config()
        tables = generate_sstables(config).tables
        run_strategy(tables, "SI", config)
        (_, instance), = major._modelled.values()
        instance_ref = weakref.ref(instance)
        del instance, tables
        gc.collect()
        assert instance_ref() is None
        assert len(major._modelled) == 0

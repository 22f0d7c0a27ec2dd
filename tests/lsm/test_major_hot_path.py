"""A bitset-backend major compaction never walks keys in Python to model
its inputs.

``MajorCompaction`` models fast-plane tables by their int64 key columns:
the instance's sizes read the columns and its bitset encoding is built
from them in one numpy pass.  Counted here, not timed: no table's
``key_set`` frozenset is computed, and the instance's lazy ``sets`` is
never built — a size read through ``len(instance.sets)`` would rebuild
every frozenset and undo the column path.  The frozenset backend, which
does iterate the sets, must pick the very same schedules.
"""

from __future__ import annotations

import pytest

from repro.lsm import SimulatedDisk
from repro.lsm.compaction import major
from repro.simulator import SimulationConfig, build_strategy, generate_sstables

LABELS = ("SI", "SO", "BT(I)", "BT(O)", "RANDOM", "LM", "SO(exact)")


def _config(backend: str) -> SimulationConfig:
    return SimulationConfig(
        recordcount=300,
        operationcount=3000,
        memtable_capacity=150,
        distribution="zipfian",
        update_fraction=0.5,
        seed=5,
        backend=backend,
        data_plane="fast",
    )


def _compact(label: str, backend: str):
    config = _config(backend)
    tables = generate_sstables(config).tables
    major._modelled.clear()
    strategy = build_strategy(label, config, seed=config.seed)
    result = strategy.compact(
        tables, SimulatedDisk(config.timing_model()), next_table_id=10_000
    )
    (_, instance), = major._modelled.values()
    steps = [(step.inputs, step.output) for step in result.schedule.steps]
    return tables, instance, steps, result.cost_actual_entries


@pytest.mark.parametrize("label", LABELS)
def test_bitset_compaction_builds_no_key_sets(label):
    tables, instance, steps, cost = _compact(label, "bitset")
    assert len(tables) > 2
    assert not any("key_set" in table.__dict__ for table in tables)
    assert "sets" not in instance.__dict__
    assert "bitset_encoding" in instance.__dict__

    _, reference, reference_steps, reference_cost = _compact(label, "frozenset")
    assert "sets" in reference.__dict__  # the frozenset backend iterates keys
    assert (steps, cost) == (reference_steps, reference_cost)

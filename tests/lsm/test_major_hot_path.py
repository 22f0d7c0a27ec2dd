"""A bitset-backend major compaction never walks keys in Python to model
its inputs.

``MajorCompaction`` models fast-plane tables by their int64 key columns:
the instance's sizes read the columns and its bitset encoding is built
from them in one numpy pass.  Counted here, not timed: no table's
``key_set`` frozenset is computed, and the instance's lazy ``sets`` is
never built — a size read through ``len(instance.sets)`` would rebuild
every frozenset and undo the column path.  The frozenset backend, which
does iterate the sets, must pick the very same schedules; it is reached
through ``MajorCompaction(backend="frozenset")``, since the simulator's
strategies always run the bitset backend.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.lsm import SimulatedDisk
from repro.lsm.compaction import MajorCompaction, major
from repro.scenarios import REGISTRY
from repro.simulator import SimulationConfig, build_strategy, generate_sstables

LABELS = ("SI", "SO", "BT(I)", "BT(O)", "RANDOM", "LM", "SO(exact)")

CONFIG = SimulationConfig(
    recordcount=300,
    operationcount=3000,
    memtable_capacity=150,
    distribution="zipfian",
    update_fraction=0.5,
    seed=5,
)


def _strategy(label: str, config: SimulationConfig, backend: str):
    """``build_strategy``'s major compaction for ``label``, on ``backend``."""
    built = build_strategy(label, config, seed=config.seed)
    assert built.backend == "bitset"
    if backend == "bitset":
        return built
    return MajorCompaction(
        built.policy_name,
        k=built.k,
        lanes=built.lanes,
        seed=built.seed,
        bloom_fp_rate=built.bloom_fp_rate,
        backend=backend,
        estimator=built.estimator,
        **built.policy_kwargs,
    )


def _compact(label: str, backend: str, config: SimulationConfig = CONFIG):
    tables = generate_sstables(config).tables
    major._modelled.clear()
    result = _strategy(label, config, backend).compact(
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


@pytest.mark.parametrize("label", ("SO", "LM"))
def test_fig7a_costs_identical_on_either_backend(label):
    """A tiny fig7a cost table, on every point of its fast sweep, is the
    same on the bitset and the frozenset backend."""
    scenario = REGISTRY.get("fig7a")
    base = scenario.config_for(fast=True).overridden(
        {"recordcount": 200, "operationcount": 2000, "memtable_capacity": 200}
    )
    for fraction in scenario.sweep.values_for(fast=True):
        config = replace(base, update_fraction=fraction)
        _, _, steps, cost = _compact(label, "bitset", config)
        _, _, reference_steps, reference_cost = _compact(
            label, "frozenset", config
        )
        assert (steps, cost) == (reference_steps, reference_cost), fraction

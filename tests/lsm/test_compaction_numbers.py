"""Every strategy's numbers, pinned from the commit before the ledger.

``fixtures/compaction_numbers.json`` was generated from the parent of
the PR that moved all cost arithmetic into ``CompactionResult.bill``
(``PYTHONPATH=<parent>/src python tests/lsm/test_compaction_numbers.py
> tests/lsm/fixtures/compaction_numbers.json``).  A refactor of the
strategy spine must reproduce it exactly; a deliberate behaviour change
re-records it the same way and says so.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lsm import SimulatedDisk
from repro.simulator import (
    SimulationConfig,
    build_strategy,
    generate_sstables,
    generate_sstables_reference,
)

FIXTURE = Path(__file__).parent / "fixtures" / "compaction_numbers.json"
SEEDS = (1, 2, 3)
PLANES = ("fast", "reference")
LABELS = (
    "SI", "SO", "BT(I)", "BT(O)", "RANDOM", "LM", "SO(exact)", "STCS", "LEVELED",
)


def _config(seed: int) -> SimulationConfig:
    """A tiny mix with deletes: 13 tables of 50 operations."""
    return SimulationConfig(
        recordcount=60,
        operationcount=600,
        memtable_capacity=50,
        update_fraction=0.5,
        delete_fraction=0.1,
        seed=seed,
    )


def _numbers(result) -> dict:
    return {
        "n_merges": result.n_merges,
        "cost_actual": result.cost_actual_entries,
        "cost_simplified": result.cost_simplified_entries,
        "bytes_read": result.bytes_read,
        "bytes_written": result.bytes_written,
        "simulated_seconds": repr(result.simulated_seconds),
        "outputs": [[t.table_id, t.entry_count] for t in result.output_tables],
    }


def compaction_numbers(seed: int, plane: str) -> dict[str, dict]:
    """``label -> numbers`` for one (seed, plane) table set.

    The reference plane is the engine-loop phase 1 with the heap merge
    kernel set on every strategy ``build_strategy`` returns.
    """
    config = _config(seed)
    reference = plane == "reference"
    generate = generate_sstables_reference if reference else generate_sstables
    tables = generate(config).tables
    strategies = {label: build_strategy(label, config) for label in LABELS}
    if reference:
        for strategy in strategies.values():
            strategy.merge_kernel = "heap"
    return {
        label: _numbers(
            strategy.compact(
                tables, SimulatedDisk(config.timing_model()), next_table_id=10_000_000
            )
        )
        for label, strategy in strategies.items()
    }


@pytest.mark.parametrize("plane", PLANES)
@pytest.mark.parametrize("seed", SEEDS)
def test_numbers_match_the_parent_commit(seed, plane):
    pinned = json.loads(FIXTURE.read_text())[f"seed={seed}/{plane}"]
    assert compaction_numbers(seed, plane) == pinned


def test_fixture_exercises_every_code_path():
    """The pin is only worth something if the tiny mix does real work:
    every strategy merges and LEVELED splits its output."""
    pinned = json.loads(FIXTURE.read_text())
    assert set(pinned) == {f"seed={s}/{p}" for s in SEEDS for p in PLANES}
    for cell in pinned.values():
        assert set(cell) == set(LABELS)
        assert all(numbers["n_merges"] > 0 for numbers in cell.values())
        assert len(cell["LEVELED"]["outputs"]) > 1


if __name__ == "__main__":
    print(
        json.dumps(
            {
                f"seed={seed}/{plane}": compaction_numbers(seed, plane)
                for seed in SEEDS
                for plane in PLANES
            },
            indent=1,
            sort_keys=True,
        )
    )

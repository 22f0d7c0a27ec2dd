"""``spill_tables_to_disk`` round-trips phase-1 tables through the
on-disk format.

Every table takes a full encode → file → decode round trip, so a spilled
run proves the durable format preserves exactly what the simulator
measures: keys, seqnos, bloom filters and HLL sketches.  Results must be
byte-identical to the in-memory run.
"""

import pytest

from repro.simulator import (
    SimulationConfig,
    generate_sstables,
    run_strategy,
    spill_tables_to_disk,
)


def config(**overrides):
    defaults = dict(
        recordcount=150,
        operationcount=900,
        memtable_capacity=100,
        distribution="zipfian",
        update_fraction=0.4,
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def planes():
    """``(memory tables, spilled tables)`` of one delete-bearing mix."""
    memory = generate_sstables(config(delete_fraction=0.1)).tables
    return memory, spill_tables_to_disk(memory)


class TestDiskStorageEquivalence:
    def test_phase1_tables_identical_after_disk_spill(self, planes):
        memory, disk = planes
        assert len(memory) == len(disk) > 2
        for a, b in zip(memory, disk):
            assert list(a) == list(b)
            assert a.table_id == b.table_id
            assert a.min_key == b.min_key and a.max_key == b.max_key
            assert a.size_bytes == b.size_bytes
            assert a.live_key_count == b.live_key_count

    def test_spilled_tables_answer_the_same_probes(self, planes):
        for a, b in zip(*planes):
            for key in range(-5, 200):
                assert (key in a.bloom) == (key in b.bloom), key

    @pytest.mark.parametrize("policy", ["SO", "BT(I)", "SI", "LM", "STCS"])
    def test_full_run_metrics_identical(self, planes, policy):
        memory, disk = planes
        cfg = config(delete_fraction=0.1)
        memory_result = run_strategy(memory, policy, cfg)
        disk_result = run_strategy(disk, policy, cfg)
        assert disk_result.cost_actual == memory_result.cost_actual
        assert disk_result.cost_simplified == memory_result.cost_simplified
        assert disk_result.simulated_seconds == memory_result.simulated_seconds
        assert disk_result.bytes_read == memory_result.bytes_read
        assert disk_result.n_tables == memory_result.n_tables

"""Partitioner semantics and the stream-conservation property.

The load-bearing guarantee of the scale-out tier: splitting an op
stream over shards loses nothing, duplicates nothing, reorders nothing
within a shard — for every distribution, both partitioners, any skew.
The oracle is the scalar ``shard_of``: every check walks the unsharded
stream key by key and asks it where the key belongs.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.partitioner import (
    PARTITIONER_NAMES,
    HashPartitioner,
    RangePartitioner,
    make_partitioner,
    shard_weights,
    split_stream,
    stream_key_space,
)
from repro.errors import ConfigError
from repro.simulator import SimulationConfig
from repro.ycsb.workload import CoreWorkload

DISTRIBUTIONS = ("uniform", "zipfian", "scrambled_zipfian", "latest")


def make_stream(
    distribution="latest",
    operationcount=1200,
    read_fraction=0.0,
    scan_fraction=0.0,
    delete_fraction=0.0,
    seed=7,
):
    config = SimulationConfig(
        recordcount=150,
        operationcount=operationcount,
        memtable_capacity=100,
        distribution=distribution,
        update_fraction=0.5,
        read_fraction=read_fraction,
        scan_fraction=scan_fraction,
        delete_fraction=delete_fraction,
        seed=seed,
    )
    workload = CoreWorkload(config.workload_config())
    return workload.op_stream_columns(
        include_read_ops=read_fraction > 0 or scan_fraction > 0
    )


def assert_stream_conserved(stream, shards, partitioner):
    """The disjoint union of shard streams is exactly the input stream."""
    key_space = stream_key_space(stream)
    # Writes: walking the original stream and popping from the owning
    # shard's column must consume every shard column exactly, in order —
    # this checks membership, multiplicity AND within-shard order.
    cursors = [0] * partitioner.num_shards
    tombstones = set(stream.tombstone_positions)
    shard_tombstones = [set(s.tombstone_positions) for s in shards]
    for position, key in enumerate(stream.write_keynums):
        key = int(key)
        shard = partitioner.shard_of(key, key_space)
        local = cursors[shard]
        assert int(shards[shard].write_keynums[local]) == key
        assert (position in tombstones) == (
            local in shard_tombstones[shard]
        )
        cursors[shard] += 1
    for shard, stream_slice in enumerate(shards):
        assert cursors[shard] == stream_slice.write_count
    # Reads and scans: same walk over the read columns.
    if stream.read_ops is None:
        assert all(s.read_ops is None for s in shards)
        return
    read_cursors = [0] * partitioner.num_shards
    for key in stream.read_ops.read_keynums:
        shard = partitioner.shard_of(int(key), key_space)
        ops = shards[shard].read_ops
        assert ops.read_keynums[read_cursors[shard]] == int(key)
        read_cursors[shard] += 1
    scan_cursors = [0] * partitioner.num_shards
    for key, length in zip(
        stream.read_ops.scan_keynums, stream.read_ops.scan_lengths
    ):
        shard = partitioner.shard_of(int(key), key_space)
        ops = shards[shard].read_ops
        assert ops.scan_keynums[scan_cursors[shard]] == int(key)
        assert ops.scan_lengths[scan_cursors[shard]] == int(length)
        scan_cursors[shard] += 1
    for shard, stream_slice in enumerate(shards):
        assert read_cursors[shard] == stream_slice.read_ops.read_count
        assert scan_cursors[shard] == stream_slice.read_ops.scan_count


class TestShardWeights:
    def test_zero_skew_is_uniform(self):
        assert shard_weights(4, 0.0) == [0.25] * 4

    def test_weights_normalized_and_decreasing(self):
        weights = shard_weights(6, 0.9)
        assert sum(weights) == pytest.approx(1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            shard_weights(0, 0.0)
        with pytest.raises(ConfigError):
            shard_weights(4, -1.0)
        with pytest.raises(ConfigError):
            shard_weights(4, float("nan"))

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(ConfigError):
            make_partitioner("modulo", 4)
        assert set(PARTITIONER_NAMES) == {"hash", "range"}


class TestShardAssignment:
    @pytest.mark.parametrize("name", PARTITIONER_NAMES)
    @pytest.mark.parametrize("skew", (0.0, 0.7))
    def test_batch_matches_scalar(self, name, skew):
        partitioner = make_partitioner(name, 5, skew)
        keys = list(range(0, 4000, 7))
        key_space = max(keys) + 1
        batch = [int(s) for s in partitioner.shard_of_batch(keys, key_space)]
        scalar = [partitioner.shard_of(key, key_space) for key in keys]
        assert batch == scalar
        assert set(batch) <= set(range(5))

    def test_single_shard_takes_everything(self):
        partitioner = HashPartitioner(1)
        assert [
            int(s) for s in partitioner.shard_of_batch(list(range(50)), 50)
        ] == [0] * 50

    def test_hash_ignores_locality_range_preserves_it(self):
        keys = list(range(1000))
        ranged = RangePartitioner(4)
        assignments = [ranged.shard_of(k, 1000) for k in keys]
        assert assignments == sorted(assignments)  # contiguous ranges
        hashed = HashPartitioner(4)
        first_quarter = {hashed.shard_of(k, 1000) for k in keys[:250]}
        assert len(first_quarter) == 4  # neighbours scatter

    def test_range_skew_moves_the_cuts(self):
        skewed = RangePartitioner(4, shard_skew=0.9)
        # Shard 0 owns the largest contiguous share under positive skew.
        boundary_even = sum(
            1 for k in range(1000) if RangePartitioner(4).shard_of(k, 1000) == 0
        )
        boundary_skewed = sum(
            1 for k in range(1000) if skewed.shard_of(k, 1000) == 0
        )
        assert boundary_skewed > boundary_even

    def test_range_rejects_empty_key_space(self):
        with pytest.raises(ConfigError):
            RangePartitioner(2).shard_of(0, 0)


class TestSplitStream:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("name", PARTITIONER_NAMES)
    def test_conservation_across_distributions(self, distribution, name):
        stream = make_stream(
            distribution=distribution,
            read_fraction=0.15,
            scan_fraction=0.1,
            delete_fraction=0.1,
        )
        partitioner = make_partitioner(name, 4, 0.5)
        assert_stream_conserved(
            stream, split_stream(stream, partitioner), partitioner
        )

    def test_single_shard_split_is_identity(self):
        stream = make_stream(read_fraction=0.2, delete_fraction=0.1)
        (only,) = split_stream(stream, HashPartitioner(1))
        # The stream's own columns, not a copy.
        assert only.write_keynums is stream.write_keynums
        assert only.read_ops is stream.read_ops
        assert [int(k) for k in only.write_keynums] == [
            int(k) for k in stream.write_keynums
        ]
        assert list(only.tombstone_positions) == list(stream.tombstone_positions)
        assert list(only.read_ops.read_keynums) == list(
            stream.read_ops.read_keynums
        )

    def test_op_count_accounts_reads_and_scans(self):
        stream = make_stream(read_fraction=0.2, scan_fraction=0.1)
        shards = split_stream(stream, HashPartitioner(3))
        total = sum(s.op_count for s in shards)
        assert total == (
            len(stream.write_keynums)
            + stream.read_ops.read_count
            + stream.read_ops.scan_count
        )


class TestConservationProperty:
    """The hypothesis satellite: conservation for arbitrary shapes."""

    @settings(max_examples=20, deadline=None)
    @given(
        distribution=st.sampled_from(DISTRIBUTIONS),
        name=st.sampled_from(PARTITIONER_NAMES),
        num_shards=st.integers(min_value=1, max_value=6),
        shard_skew=st.floats(
            min_value=0.0, max_value=1.5, allow_nan=False, allow_infinity=False
        ),
        read_fraction=st.sampled_from((0.0, 0.2)),
        scan_fraction=st.sampled_from((0.0, 0.1)),
        delete_fraction=st.sampled_from((0.0, 0.15)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_remerged_shards_reproduce_the_stream(
        self,
        distribution,
        name,
        num_shards,
        shard_skew,
        read_fraction,
        scan_fraction,
        delete_fraction,
        seed,
    ):
        stream = make_stream(
            distribution=distribution,
            operationcount=600,
            read_fraction=read_fraction,
            scan_fraction=scan_fraction,
            delete_fraction=delete_fraction,
            seed=seed,
        )
        partitioner = make_partitioner(name, num_shards, shard_skew)
        shards = split_stream(stream, partitioner)
        assert len(shards) == num_shards
        assert_stream_conserved(stream, shards, partitioner)
        # Multiset equality of the re-merged op-type populations.
        merged_writes = Counter(
            int(k) for s in shards for k in s.write_keynums
        )
        assert merged_writes == Counter(int(k) for k in stream.write_keynums)
        assert sum(len(s.tombstone_positions) for s in shards) == len(
            stream.tombstone_positions
        )

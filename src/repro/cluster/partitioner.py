"""Keyspace partitioners: split one YCSB op stream into per-shard streams.

A :class:`Partitioner` maps every key of a workload to one of
``num_shards`` shards, deterministically — the same key always lands on
the same shard, which is what makes a sharded run a faithful model of a
real deployment (a router cannot move a key per operation without
moving its data).  Two implementations mirror the two deployments seen
in practice:

* :class:`HashPartitioner` — ``splitmix64(key)`` mapped to the unit
  interval and cut by the shard-weight CDF.  Hashing destroys key
  locality, so *key-popularity* skew (zipfian keys) spreads evenly; only
  the explicit ``shard_skew`` weights make shards unequal.
* :class:`RangePartitioner` — contiguous key ranges: the key space
  ``[0, key_space)`` is cut by the same weight CDF.  Range sharding
  preserves locality, so latest/zipfian traffic concentrates on the
  shards owning the hot range *in addition to* any explicit skew.

Multi-tenant skew model
-----------------------
``shard_skew`` is a zipfian exponent over shards: shard ``s`` owns a
``(s + 1) ** -shard_skew`` share (normalized) of the hash/key space.
``0.0`` means equal shares; larger values concentrate traffic on the
low-numbered shards.  The within-shard key popularity still comes from
the workload's own chooser distribution — the skew layers *across*
shards on top of it.

Conservation guarantee
----------------------
:func:`split_stream` partitions an
:class:`~repro.ycsb.workload.OpStreamColumns` into per-shard
:class:`ShardStream` columns such that the disjoint union of the shard
streams is exactly the unsharded stream: every write (and its tombstone
flag), every read and every scan appears on exactly one shard, in its
original stream order.  With one shard the split is the identity.  The
property test in tests/cluster/test_partitioner.py enforces this for
every distribution and both partitioners.  The split is numpy end to
end; the scalar :meth:`Partitioner.shard_of` is its oracle (and the
router for one key), bit-identical through single-rounding float cuts
on both paths.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as _np

from ..errors import ConfigError
from ..hll.hashing import hash_key, hash_keys_u64
from ..ycsb.workload import OpStreamColumns, ReadOpColumns

#: Registered partitioner names (the ``SimulationConfig.partitioner``
#: vocabulary); :func:`make_partitioner` resolves them.
PARTITIONER_NAMES: tuple[str, ...] = ("hash", "range")

_U64_SCALE = 2.0 ** 64


def shard_weights(num_shards: int, shard_skew: float) -> list[float]:
    """Normalized zipfian weight of each shard: ``(s+1)**-skew / Z``.

    ``shard_skew == 0`` gives equal weights.  The weights say which
    fraction of the hash/key space each shard owns, and therefore
    (under uniform traffic) which fraction of the operations it serves.
    """
    if num_shards < 1:
        raise ConfigError(f"num_shards must be at least 1, got {num_shards}")
    if not shard_skew >= 0.0:
        raise ConfigError(f"shard_skew must be >= 0, got {shard_skew!r}")
    raw = [(s + 1) ** -shard_skew for s in range(num_shards)]
    total = sum(raw)
    return [w / total for w in raw]


def _weight_cuts(weights: Sequence[float]) -> list[float]:
    """The CDF of ``weights``, accumulated sequentially.

    Computed once in pure python and shared verbatim by the scalar and
    numpy assignment kernels, so the two paths classify against exactly
    the same float thresholds.
    """
    acc = 0.0
    cuts = []
    for weight in weights:
        acc += weight
        cuts.append(acc)
    return cuts


@dataclass(frozen=True)
class ShardStream:
    """One shard's slice of an op stream, in original stream order.

    ``write_keynums[i]`` is the key of the shard's ``i``-th write (the
    shard-local seqno is ``i + 1`` — each shard is an independent
    engine with its own WAL/seqno space); ``tombstone_positions``
    indexes into ``write_keynums``; ``read_ops`` carries the shard's
    READ/SCAN slice when the source stream collected one.
    """

    shard_id: int
    write_keynums: Sequence[int]
    tombstone_positions: list[int]
    read_ops: Optional[ReadOpColumns] = None

    @property
    def write_count(self) -> int:
        return len(self.write_keynums)

    @property
    def op_count(self) -> int:
        """Operations routed to this shard (writes + reads + scans)."""
        reads = scans = 0
        if self.read_ops is not None:
            reads = self.read_ops.read_count
            scans = self.read_ops.scan_count
        return self.write_count + reads + scans


class Partitioner(ABC):
    """Deterministic key -> shard assignment with a weighted-share model."""

    name: str = "abstract"

    def __init__(self, num_shards: int, shard_skew: float = 0.0) -> None:
        self.num_shards = num_shards
        self.shard_skew = shard_skew
        self.weights = shard_weights(num_shards, shard_skew)
        self._cuts = _weight_cuts(self.weights)

    # ------------------------------------------------------------------
    @abstractmethod
    def _position(self, key: int, key_space: int) -> float:
        """Map a key to the unit interval (scalar path)."""

    @abstractmethod
    def _position_batch(
        self, keys: "_np.ndarray", key_space: int
    ) -> "_np.ndarray":
        """Vectorized :meth:`_position` over an int64 key array."""

    # ------------------------------------------------------------------
    def shard_of(self, key: int, key_space: int) -> int:
        """The shard owning ``key`` (``key_space`` = max key + 1)."""
        if self.num_shards == 1:
            return 0
        u = self._position(key, key_space)
        for shard, cut in enumerate(self._cuts):
            if u < cut:
                return shard
        return self.num_shards - 1  # float edge: CDF summed below 1.0

    def shard_of_batch(
        self, keys: Sequence[int], key_space: int
    ) -> "_np.ndarray":
        """One shard id per key; bit-identical to :meth:`shard_of`."""
        array = _np.asarray(keys, dtype=_np.int64)
        if self.num_shards == 1:
            return _np.zeros(array.shape, dtype=_np.int64)
        # searchsorted(side="right") counts cuts <= u, exactly the
        # scalar loop's "first cut above u" (clamped at the last shard
        # for the same float edge).
        return _np.minimum(
            _np.searchsorted(
                _np.asarray(self._cuts),
                self._position_batch(array, key_space),
                side="right",
            ),
            self.num_shards - 1,
        ).astype(_np.int64)


class HashPartitioner(Partitioner):
    """Shards own slices of the splitmix64 hash space (locality-free)."""

    name = "hash"

    def _position(self, key: int, key_space: int) -> float:
        # Division by 2**64 scales the exponent only, so the single
        # rounding happens at the uint64 -> float conversion — the
        # batch path below rounds identically.
        return hash_key(key) / _U64_SCALE

    def _position_batch(self, keys, key_space):
        # An int64 array always takes hash_keys_u64's batch path.
        return hash_keys_u64(keys).astype(_np.float64) / _U64_SCALE


class RangePartitioner(Partitioner):
    """Shards own contiguous key ranges of ``[0, key_space)``."""

    name = "range"

    def _position(self, key: int, key_space: int) -> float:
        if key_space < 1:
            raise ConfigError("range partitioning needs key_space >= 1")
        return key / key_space

    def _position_batch(self, keys, key_space):
        if key_space < 1:
            raise ConfigError("range partitioning needs key_space >= 1")
        # int64 keys are < 2**53, so the float conversion is exact and
        # the single rounding happens in the division, like the scalar.
        return keys.astype(_np.float64) / float(key_space)


_PARTITIONERS = {cls.name: cls for cls in (HashPartitioner, RangePartitioner)}


def make_partitioner(
    name: str, num_shards: int, shard_skew: float = 0.0
) -> Partitioner:
    """Instantiate a registered partitioner by config name."""
    try:
        cls = _PARTITIONERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown partitioner {name!r}; known: {list(PARTITIONER_NAMES)}"
        ) from None
    return cls(num_shards, shard_skew)


def stream_key_space(stream: OpStreamColumns) -> int:
    """``max key + 1`` over every key column of the stream (>= 1).

    The range partitioner cuts this span; computing it from the stream
    itself keeps the split a pure function of (stream, partitioner).
    """
    top = 0
    if len(stream.write_keynums):
        # a numpy column from the Gray generator, a list from the scalar one
        top = int(_np.max(stream.write_keynums))
    if stream.read_ops is not None:
        if stream.read_ops.read_keynums:
            top = max(top, max(stream.read_ops.read_keynums))
        if stream.read_ops.scan_keynums:
            top = max(top, max(stream.read_ops.scan_keynums))
    return top + 1


def split_stream(
    stream: OpStreamColumns, partitioner: Partitioner
) -> list[ShardStream]:
    """Partition one op stream into per-shard streams (conserving it).

    Every write/read/scan of ``stream`` appears on exactly one shard in
    its original relative order; tombstone positions are re-indexed into
    the shard-local write column.  One shard gets the stream's own
    columns, uncopied.
    """
    if partitioner.num_shards == 1:
        return [
            ShardStream(
                0,
                stream.write_keynums,
                stream.tombstone_positions,
                stream.read_ops,
            )
        ]
    key_space = stream_key_space(stream)
    read_ops = stream.read_ops

    def routed(column: Sequence[int]) -> tuple["_np.ndarray", "_np.ndarray"]:
        array = _np.asarray(column, dtype=_np.int64)
        return array, partitioner.shard_of_batch(array, key_space)

    keys, shard_ids = routed(stream.write_keynums)
    tombstones = _np.zeros(keys.shape, dtype=bool)
    if stream.tombstone_positions:
        tombstones[
            _np.asarray(stream.tombstone_positions, dtype=_np.intp)
        ] = True
    if read_ops is not None:
        read_keys, read_shards = routed(read_ops.read_keynums)
        scan_keys, scan_shards = routed(read_ops.scan_keynums)
        scan_lengths = _np.asarray(read_ops.scan_lengths, dtype=_np.int64)
    shards: list[ShardStream] = []
    for shard in range(partitioner.num_shards):
        mask = shard_ids == shard
        shard_reads = None
        if read_ops is not None:
            scan_mask = scan_shards == shard
            shard_reads = ReadOpColumns(
                read_keynums=read_keys[read_shards == shard].tolist(),
                scan_keynums=scan_keys[scan_mask].tolist(),
                scan_lengths=scan_lengths[scan_mask].tolist(),
            )
        shards.append(
            ShardStream(
                shard_id=shard,
                write_keynums=keys[mask],
                tombstone_positions=_np.nonzero(tombstones[mask])[0].tolist(),
                read_ops=shard_reads,
            )
        )
    return shards

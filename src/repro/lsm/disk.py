"""Simulated disk: byte-accurate I/O accounting plus a timing model.

The paper measures compaction cost as the amount of data read from and
written to disk, and shows running time tracks it linearly (§5.4).  The
:class:`SimulatedDisk` substrate makes both observable without real
hardware:

* :class:`IoStats` counts bytes and operations.
* :class:`DiskTimingModel` converts an operation to seconds:
  ``seek + bytes / bandwidth`` — sequential-scan behaviour with a fixed
  per-operation positioning cost, which is how compaction I/O (large
  sequential reads/writes) behaves on the paper's spinning-disk testbed.

Defaults approximate the paper's cluster machine (a 2 TB SATA disk:
~120 MB/s sequential, ~8 ms seek).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

DEFAULT_BANDWIDTH_BYTES_PER_SEC = 120e6
DEFAULT_SEEK_SECONDS = 0.008


@dataclass
class IoStats:
    """Cumulative I/O counters."""

    bytes_read: int = 0
    bytes_written: int = 0
    read_ops: int = 0
    write_ops: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    def snapshot(self) -> "IoStats":
        """A copy of the current counters (for before/after diffs)."""
        return IoStats(self.bytes_read, self.bytes_written, self.read_ops, self.write_ops)

    def delta(self, earlier: "IoStats") -> "IoStats":
        """Counters accumulated since ``earlier``."""
        return IoStats(
            self.bytes_read - earlier.bytes_read,
            self.bytes_written - earlier.bytes_written,
            self.read_ops - earlier.read_ops,
            self.write_ops - earlier.write_ops,
        )

    def add(self, other: "IoStats") -> None:
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.read_ops += other.read_ops
        self.write_ops += other.write_ops


@dataclass(frozen=True)
class DiskTimingModel:
    """Seconds = seek + bytes / bandwidth, per read or write operation."""

    bandwidth_bytes_per_sec: float = DEFAULT_BANDWIDTH_BYTES_PER_SEC
    seek_seconds: float = DEFAULT_SEEK_SECONDS

    def __post_init__(self) -> None:
        # Negated so that NaN, which fails every comparison, is rejected.
        if not self.bandwidth_bytes_per_sec > 0:
            raise ConfigError("disk bandwidth must be positive")
        if not self.seek_seconds >= 0:
            raise ConfigError("seek time must be non-negative")

    def transfer_seconds(self, nbytes: int) -> float:
        return self.seek_seconds + nbytes / self.bandwidth_bytes_per_sec


@dataclass
class SimulatedDisk:
    """A disk that accounts I/O and reports simulated durations."""

    timing: DiskTimingModel = field(default_factory=DiskTimingModel)
    stats: IoStats = field(default_factory=IoStats)

    def read(self, nbytes: int) -> float:
        """Record a read of ``nbytes``; return its simulated duration."""
        if nbytes < 0:
            raise ConfigError("cannot read a negative number of bytes")
        self.stats.bytes_read += nbytes
        self.stats.read_ops += 1
        return self.timing.transfer_seconds(nbytes)

    def read_many(self, count: int, nbytes: int) -> None:
        """Record ``count`` reads totalling ``nbytes`` in one call.

        Leaves :attr:`stats` exactly as ``count`` :meth:`read` calls
        summing to ``nbytes`` would (a scan bills each table's consumed
        run this way).
        """
        if count < 0 or nbytes < 0:
            raise ConfigError("cannot read a negative number of records or bytes")
        self.stats.bytes_read += nbytes
        self.stats.read_ops += count

    def write(self, nbytes: int) -> float:
        """Record a write of ``nbytes``; return its simulated duration."""
        if nbytes < 0:
            raise ConfigError("cannot write a negative number of bytes")
        self.stats.bytes_written += nbytes
        self.stats.write_ops += 1
        return self.timing.transfer_seconds(nbytes)

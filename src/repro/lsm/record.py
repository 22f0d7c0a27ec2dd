"""Records: the key/value entries stored in memtables and sstables.

Deletes are handled as updates carrying a tombstone flag (paper §5.1:
"a tombstone flag is appended in the memtable which signifies the key
should be removed from sstables during compaction").  Values are
represented by their *size* rather than actual payload bytes — the
simulator only needs byte accounting — but real payloads can be attached
for engine correctness tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

#: Fixed per-entry overhead: 8B key hash + 8B seqno + 1B flags.
ENTRY_OVERHEAD_BYTES = 17


@dataclass(frozen=True, slots=True)
class Record:
    """One versioned key/value entry.

    ``seqno`` is a monotonically increasing sequence number assigned by
    the writer; between two records for the same key, the higher seqno
    wins (newest-wins conflict resolution, as in every LSM store).
    """

    key: Hashable
    seqno: int
    value_size: int = 0
    tombstone: bool = False
    value: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.value is not None and len(self.value) != self.value_size:
            object.__setattr__(self, "value_size", len(self.value))

    @classmethod
    def put(
        cls,
        key: Hashable,
        seqno: int,
        value_size: int = 0,
        value: Optional[bytes] = None,
    ) -> "Record":
        """A write (insert or update) record."""
        if value is not None:
            value_size = len(value)
        return cls(key=key, seqno=seqno, value_size=value_size, value=value)

    @classmethod
    def delete(cls, key: Hashable, seqno: int) -> "Record":
        """A tombstone record."""
        return cls(key=key, seqno=seqno, value_size=0, tombstone=True)

    @property
    def size_bytes(self) -> int:
        """On-disk footprint of this entry."""
        key_bytes = len(self.key) if isinstance(self.key, (str, bytes)) else 0
        return ENTRY_OVERHEAD_BYTES + key_bytes + self.value_size

"""CRUD operations emitted by the workload generator.

YCSB benchmarks a key-value store with a stream of create/read/update/
delete operations (paper §5.1).  An :class:`Operation` is one element of
that stream; the LSM engine and the simulator's phase 1 both consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Optional


class OperationType(Enum):
    """The CRUD operation kinds generated by YCSB core workloads."""

    INSERT = "insert"
    UPDATE = "update"
    READ = "read"
    DELETE = "delete"
    SCAN = "scan"

    @property
    def is_write(self) -> bool:
        """Writes reach the memtable; reads/scans do not (paper §5.1)."""
        return self in (OperationType.INSERT, OperationType.UPDATE, OperationType.DELETE)

    @property
    def code(self) -> int:
        """Compact integer code for columnar op-type streams."""
        return OP_TYPE_CODES[self]


#: OperationType -> small-int code used by the columnar data plane's
#: op-type column (one byte per operation); inverse in CODE_OP_TYPES.
OP_TYPE_CODES: dict[OperationType, int] = {
    op: index for index, op in enumerate(OperationType)
}
CODE_OP_TYPES: tuple[OperationType, ...] = tuple(OperationType)


@dataclass(frozen=True, slots=True)
class Operation:
    """One workload operation.

    ``value_size`` is the payload size in bytes for writes (YCSB's field
    length); ``scan_length`` is only set for scans.  Slotted: a stream
    holds hundreds of thousands of them, and an instance without a
    ``__dict__`` is about two thirds the size.
    """

    type: OperationType
    key: Hashable
    value_size: int = 0
    scan_length: Optional[int] = None

    @property
    def is_write(self) -> bool:
        return self.type.is_write

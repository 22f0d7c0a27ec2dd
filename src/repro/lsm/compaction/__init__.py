"""Compaction strategies over the LSM substrate.

* :class:`MajorCompaction` — the paper's strategies (SI/SO/BT/LM/RANDOM)
  executed against real sstables.
* :class:`SizeTieredCompaction` — Cassandra STCS (related-work baseline).
* :class:`LeveledCompaction` — LevelDB-style LCS (related-work baseline).
"""

from .base import CompactionResult, CompactionStrategy
from .controller import CompactionController, ControllerStats
from .executor import execute_schedule, execute_schedules
from .leveled import LeveledCompaction
from .major import MajorCompaction, compact_majors
from .size_tiered import SizeTieredCompaction

__all__ = [
    "CompactionController",
    "CompactionResult",
    "CompactionStrategy",
    "ControllerStats",
    "compact_majors",
    "execute_schedule",
    "execute_schedules",
    "LeveledCompaction",
    "MajorCompaction",
    "SizeTieredCompaction",
]

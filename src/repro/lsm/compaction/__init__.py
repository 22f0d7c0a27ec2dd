"""Compaction strategies over the LSM substrate.

* :class:`MajorCompaction` — the paper's strategies (SI/SO/BT/LM/RANDOM)
  executed against real sstables.
* :class:`SizeTieredCompaction` — Cassandra STCS (related-work baseline).
* :class:`LeveledCompaction` — LevelDB-style LCS (related-work baseline).
"""

from .base import CompactionResult, CompactionStrategy
from .controller import CompactionController, ControllerStats
from .date_tiered import DateTieredCompaction
from .executor import execute_schedule
from .leveled import LeveledCompaction
from .major import MajorCompaction
from .size_tiered import SizeTieredCompaction

__all__ = [
    "CompactionController",
    "CompactionResult",
    "CompactionStrategy",
    "ControllerStats",
    "DateTieredCompaction",
    "execute_schedule",
    "LeveledCompaction",
    "MajorCompaction",
    "SizeTieredCompaction",
]

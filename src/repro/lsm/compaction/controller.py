"""Background compaction controller: the paper's §1 deployment model.

"each server in a NoSQL system periodically runs a compaction protocol
in the background" — this controller models that loop: drive a write
workload against an engine, and whenever the on-disk table count
crosses a threshold, run the configured strategy.  The loop is about
*when* compaction runs and what it costs, not about threads: the
compaction runs inside the call that crossed the threshold.  It
accumulates the compaction history so write amplification over an
engine's lifetime is measurable (see :mod:`repro.lsm.metrics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ...errors import ConfigError
from ...ycsb.operations import Operation
from ..engine import LSMEngine
from .base import CompactionResult, CompactionStrategy
from .major import MajorCompaction


def _default_strategy() -> CompactionStrategy:
    return MajorCompaction("balance_tree_input")


@dataclass
class ControllerStats:
    """Aggregate view of a controller's compaction activity."""

    compactions: int = 0
    total_cost_actual: int = 0
    total_bytes_read: int = 0
    total_bytes_written: int = 0
    total_simulated_seconds: float = 0.0

    def observe(self, result: CompactionResult) -> None:
        self.compactions += 1
        self.total_cost_actual += result.cost_actual_entries
        self.total_bytes_read += result.bytes_read
        self.total_bytes_written += result.bytes_written
        self.total_simulated_seconds += result.total_simulated_seconds


class CompactionController:
    """Run a strategy whenever the engine's table count crosses a threshold."""

    def __init__(
        self,
        engine: LSMEngine,
        strategy_factory: Optional[Callable[[], CompactionStrategy]] = None,
        table_threshold: int = 8,
    ) -> None:
        if table_threshold < 2:
            raise ConfigError("table_threshold must be at least 2")
        self.engine = engine
        self.strategy_factory = strategy_factory or _default_strategy
        self.table_threshold = table_threshold
        self.history: list[CompactionResult] = []
        self.stats = ControllerStats()

    def maybe_compact(self) -> Optional[CompactionResult]:
        """Compact if the table count reached the threshold."""
        if self.engine.table_count < self.table_threshold:
            return None
        result = self.engine.compact(self.strategy_factory())
        self.history.append(result)
        self.stats.observe(result)
        return result

    def apply(self, operation: Operation) -> object:
        """Apply one operation, then check the compaction trigger."""
        outcome = self.engine.apply(operation)
        self.maybe_compact()
        return outcome

    def run(self, operations: Iterable[Operation]) -> ControllerStats:
        """Drive a whole operation stream, compacting as the threshold trips."""
        for operation in operations:
            self.apply(operation)
        return self.stats

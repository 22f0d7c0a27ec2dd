"""Background compaction controller: the paper's §1 deployment model.

"each server in a NoSQL system periodically runs a compaction protocol
in the background" — this controller models that loop: drive a write
workload against an engine, and whenever the on-disk table count
crosses a threshold, run the configured strategy.  It accumulates the
compaction history so write amplification over an engine's lifetime is
measurable (see :mod:`repro.lsm.metrics`).
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
        background: bool = False,
    ) -> None:
        if table_threshold < 2:
            raise ConfigError("table_threshold must be at least 2")
        self.engine = engine
        self.strategy_factory = strategy_factory or _default_strategy
        self.table_threshold = table_threshold
        self.background = background
        self.history: list[CompactionResult] = []
        self.stats = ControllerStats()

    def maybe_compact(self) -> Optional[CompactionResult]:
        """Compact if the table count reached the threshold.

        In background mode the compaction is *started* (on a snapshot of
        the current tables; its strategy may fan merges over the
        thread execution backend) and ingest continues; the
        result lands in the history when :meth:`finish` or a later
        trigger collects it, so this returns ``None`` for background
        starts.
        """
        self._collect_background()
        if self.engine.table_count < self.table_threshold:
            return None
        if self.background:
            if not self.engine.compaction_in_flight:
                self.engine.compact_async(self.strategy_factory())
            return None
        result = self.engine.compact(self.strategy_factory())
        self.history.append(result)
        self.stats.observe(result)
        return result

    def _collect_background(self) -> None:
        if self.background:
            for result in self.engine.take_compaction_results():
                self.history.append(result)
                self.stats.observe(result)

    def finish(self) -> None:
        """Join any in-flight background compaction and collect its result."""
        if self.background:
            self.engine.wait_for_compaction()
            self._collect_background()

    def apply(self, operation: Operation) -> object:
        """Apply one operation, then check the compaction trigger."""
        outcome = self.engine.apply(operation)
        self.maybe_compact()
        return outcome

    def run(self, operations: Iterable[Operation]) -> ControllerStats:
        """Drive a whole operation stream with background compaction."""
        for operation in operations:
            self.apply(operation)
        self.finish()
        return self.stats

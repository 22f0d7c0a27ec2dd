"""Compaction strategy interface and result type.

A :class:`CompactionStrategy` consumes a list of sstables and produces
new sstables plus a :class:`CompactionResult` carrying every metric the
paper's evaluation reports: ``costactual`` in entries and bytes, the
simulated time (I/O time under the disk model, critical-path scheduled
over ``lanes`` parallel merge workers), the wall-clock time, and the
strategy's own decision overhead (the HLL estimation cost that dominates
SMALLESTOUTPUT in Figure 7b).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ...core.schedule import MergeSchedule
from ..disk import SimulatedDisk
from ..sstable import SSTable


@dataclass
class CompactionResult:
    """Outcome of one compaction run, and the ledger its merges bill to.

    Every strategy starts one with :meth:`start`, charges each merge
    step through :meth:`bill` — the only code that moves the six ledger
    fields ``n_merges``, ``cost_actual_entries``,
    ``cost_simplified_entries``, ``bytes_read``, ``bytes_written`` and
    ``io_seconds`` — and fills in its outputs, times and extras.
    """

    strategy_name: str
    input_count: int
    output_tables: list[SSTable]
    schedule: Optional[MergeSchedule] = None
    n_merges: int = 0
    cost_actual_entries: int = 0
    cost_simplified_entries: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    io_seconds: float = 0.0
    simulated_seconds: float = 0.0
    wall_seconds: float = 0.0
    strategy_overhead_seconds: float = 0.0
    # Real merge execution (see executor.py): the measured wall clock of
    # the merges (with, for a scheduled execution, the settling
    # interleaved with them) and — for a scheduled execution — the
    # fraction of it spent merging.  ``merge_executor`` and
    # ``merge_workers`` are constants the benchmark's traced mirror
    # (bench/simulator.py) still reads; they leave with the next
    # benchmark change (ROADMAP item 1).
    merge_executor: str = "serial"
    merge_workers: int = 1
    merge_wall_seconds: float = 0.0
    merge_utilization: float = 0.0
    extras: dict = field(default_factory=dict)

    @classmethod
    def start(
        cls, strategy_name: str, tables: Sequence[SSTable]
    ) -> "CompactionResult":
        """An open ledger over ``tables``: nothing merged yet, and the
        leaves of ``costsimplified`` (every input's size) charged."""
        return cls(
            strategy_name,
            len(tables),
            list(tables),
            cost_simplified_entries=sum(table.entry_count for table in tables),
        )

    def bill(
        self,
        inputs: Sequence[SSTable],
        outputs: Sequence[SSTable],
        disk: SimulatedDisk,
    ) -> float:
        """Charge one merge step; return its disk-model duration.

        The paper's cost function (§2), in one place: ``costactual``
        pays for every entry read and every entry written,
        ``costsimplified`` for the entries written (the leaves were
        charged by :meth:`start`); bytes and seconds follow the same
        reads and writes through ``disk``.  ``io_seconds`` grows one
        operation at a time while the returned duration is the step's
        own sum, which is what the lane model schedules.
        """
        duration = 0.0
        for transfer, tables in ((disk.read, inputs), (disk.write, outputs)):
            for table in tables:
                seconds = transfer(table.size_bytes)
                duration += seconds
                self.io_seconds += seconds
        self.bytes_read += sum(table.size_bytes for table in inputs)
        self.bytes_written += sum(table.size_bytes for table in outputs)
        written = sum(table.entry_count for table in outputs)
        self.cost_actual_entries += (
            sum(table.entry_count for table in inputs) + written
        )
        self.cost_simplified_entries += written
        self.n_merges += 1
        return duration

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def output_table(self) -> SSTable:
        """The single output of a major compaction."""
        if len(self.output_tables) != 1:
            raise ValueError(
                f"compaction produced {len(self.output_tables)} tables, not 1"
            )
        return self.output_tables[0]

    @property
    def total_simulated_seconds(self) -> float:
        """Simulated I/O time plus measured strategy overhead."""
        return self.simulated_seconds + self.strategy_overhead_seconds


class CompactionStrategy(ABC):
    """Turns a collection of sstables into fewer (or restructured) ones."""

    name: str = "abstract"

    @abstractmethod
    def compact(
        self,
        tables: Sequence[SSTable],
        disk: SimulatedDisk,
        next_table_id: int,
    ) -> CompactionResult:
        """Run the strategy.

        ``next_table_id`` is the first free table id; implementations
        must number their outputs ``next_table_id, next_table_id+1, ...``.
        """

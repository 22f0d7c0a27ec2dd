"""The paper's two-phase evaluation simulator (§5.1).

Phase 1 (:mod:`repro.simulator.phase1`) turns a YCSB workload into
sstables through a fixed-capacity memtable; phase 2
(:mod:`repro.simulator.phase2`) compacts them with a named strategy and
reports ``costactual`` plus simulated/wall time.  The runner
(:mod:`repro.simulator.runner`) repeats runs and sweeps parameters to
regenerate the paper's figures.
"""

from .config import SimulationConfig
from .metrics import AggregateResult, StrategyResult, aggregate
from .phase1 import (
    Phase1Result,
    generate_sstables,
    generate_sstables_reference,
    spill_tables_to_disk,
)
from .phase2 import (
    PAPER_STRATEGIES,
    PRACTICAL_STRATEGIES,
    build_strategy,
    known_strategy_labels,
    run_strategies,
    run_strategy,
    strategy_labels,
)
from .read_path import READ_KERNELS, ReadPhaseResult, serve_reads
from .runner import (
    ComparisonResult,
    SWEEP_AXES,
    SweepPoint,
    SweepResult,
    run_comparison,
    sweep,
)

__all__ = [
    "AggregateResult",
    "ComparisonResult",
    "PAPER_STRATEGIES",
    "PRACTICAL_STRATEGIES",
    "Phase1Result",
    "READ_KERNELS",
    "ReadPhaseResult",
    "SWEEP_AXES",
    "SimulationConfig",
    "StrategyResult",
    "SweepPoint",
    "SweepResult",
    "aggregate",
    "build_strategy",
    "generate_sstables",
    "generate_sstables_reference",
    "known_strategy_labels",
    "run_comparison",
    "run_strategies",
    "run_strategy",
    "serve_reads",
    "spill_tables_to_disk",
    "strategy_labels",
    "sweep",
]

"""Phase 2 of the simulator: compact the sstables, measure cost and time.

"In the second phase, we merge the generated sstables using some of the
compaction strategies proposed in Section 4. ...  We measure the cost
and time at the end of compaction for comparison.  The cost represents
costactual defined in Section 2.  The running time measures both the
strategy overhead and the actual merge time." (paper §5.1)

The five evaluated strategies are exposed by label exactly as the paper
names them — ``SI``, ``SO``, ``BT(I)``, ``BT(O)``, ``RANDOM`` — plus
everything else the policy registry knows (``LM``, exact-estimator SO,
...).  BT strategies execute their per-level merges on
``config.parallel_lanes`` lanes of the simulated disk's timing model;
the single-threaded strategies use one lane (§5.1).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import CompactionError
from ..lsm.compaction.base import CompactionStrategy
from ..lsm.compaction.leveled import LeveledCompaction
from ..lsm.compaction.major import MajorCompaction, compact_majors
from ..lsm.compaction.size_tiered import SizeTieredCompaction
from ..lsm.disk import SimulatedDisk
from ..lsm.sstable import SSTable
from ..ycsb.workload import ReadOpColumns
from .config import SimulationConfig
from .metrics import StrategyResult, compacted_fields, served_fields
from .read_path import serve_reads

#: Third column of :data:`PAPER_STRATEGIES`: the label's estimator is
#: whatever ``config.estimator`` says.
FROM_CONFIG = "config"

#: label -> (policy name, parallel?, estimator) for the paper's §5.1
#: strategy set.  The estimator is ``None`` for a policy that consults
#: none, a name that pins it, or :data:`FROM_CONFIG`.
PAPER_STRATEGIES: dict[str, tuple[str, bool, Optional[str]]] = {
    "SI": ("smallest_input", False, None),
    "SO": ("smallest_output", False, FROM_CONFIG),
    "BT(I)": ("balance_tree_input", True, None),
    "BT(O)": ("balance_tree_output", True, FROM_CONFIG),
    "RANDOM": ("random", False, None),
    # extras beyond the paper's figure, available to benches/ablations
    "LM": ("largest_match", False, None),
    "SO(exact)": ("smallest_output", False, "exact"),
}

#: Related-work baselines shipped in real systems (Cassandra's
#: size-tiered, LevelDB's leveled).  They are not major compactions —
#: they emit several output tables — but share the strategy interface
#: and metrics, so scenarios can grid them against the paper's policies.
PRACTICAL_STRATEGIES: tuple[str, ...] = ("STCS", "LEVELED")


def strategy_labels() -> tuple[str, ...]:
    """The five §5.1 labels, in the paper's order."""
    return ("SI", "SO", "BT(I)", "BT(O)", "RANDOM")


def known_strategy_labels() -> tuple[str, ...]:
    """Every label :func:`build_strategy` accepts (paper + practical)."""
    return tuple(PAPER_STRATEGIES) + PRACTICAL_STRATEGIES


def build_strategy(
    label: str,
    config: SimulationConfig,
    seed: Optional[int] = None,
) -> CompactionStrategy:
    """Instantiate the compaction strategy behind a label.

    Every strategy merges with the ``"auto"`` kernel and a major
    compaction models its inputs with the bitset backend; both are
    exact, and their oracles are set on the returned strategy
    (``strategy.merge_kernel = "heap"``) or built directly
    (``MajorCompaction(backend="frozenset")``).
    """
    if label == "STCS":
        return SizeTieredCompaction(bloom_fp_rate=config.bloom_fp_rate)
    if label == "LEVELED":
        # Size the level targets off the memtable so the shape scales
        # with the workload (matches the related-work bench settings at
        # the Figure 7 scale: target 1000, base level 4000).
        return LeveledCompaction(
            table_target_entries=config.memtable_capacity,
            base_level_entries=4 * config.memtable_capacity,
            bloom_fp_rate=config.bloom_fp_rate,
        )
    try:
        policy, parallel, estimator = PAPER_STRATEGIES[label]
    except KeyError:
        raise CompactionError(
            f"unknown strategy label {label!r}; "
            f"known: {sorted(known_strategy_labels())}"
        ) from None
    estimator_kwargs: dict = {}
    if estimator is not None:
        estimator_kwargs = {
            "estimator": config.estimator if estimator == FROM_CONFIG else estimator,
            "hll_precision": config.hll_precision,
        }
    return MajorCompaction(
        policy,
        k=config.k,
        lanes=config.parallel_lanes if parallel else 1,
        seed=seed if seed is not None else config.seed,
        backend="bitset",
        bloom_fp_rate=config.bloom_fp_rate,
        **estimator_kwargs,
    )


#: First table id of a cell's compaction outputs (above any phase-1 id).
NEXT_TABLE_ID = 10_000_000


def run_strategies(
    tables: Sequence[SSTable],
    labels: Sequence[str],
    config: SimulationConfig,
    seed: Optional[int] = None,
    read_ops: Optional[ReadOpColumns] = None,
) -> dict[str, StrategyResult]:
    """Compact ``tables`` with every labelled strategy; return their metrics.

    A comparison cell's phase 2: every major-compaction label is planned
    first and their schedules run jointly
    (:func:`~repro.lsm.compaction.major.compact_majors`), so a merge two
    of them share is computed once and billed to both; STCS and LEVELED
    compact on their own.  With ``read_ops``, the workload's READ/SCAN
    operations are replayed against each strategy's *output* tables
    afterwards (the serving phase), so each result also carries
    per-policy read amplification, bloom false-positive and read-byte
    metrics.  Labels are taken in order and a label's output tables are
    dropped once it is served; the joint run happens at the first major
    label, so no major output is held while a practical strategy ahead
    of it compacts and serves.
    """
    if not tables:
        raise CompactionError("phase 2 needs at least one sstable")
    strategies = {label: build_strategy(label, config, seed=seed) for label in labels}
    majors = {
        label: strategy
        for label, strategy in strategies.items()
        if isinstance(strategy, MajorCompaction)
    }
    compacted: dict = {}  # the majors' results not yet served
    results = {}
    for label, strategy in strategies.items():
        if label not in majors:
            result = strategy.compact(
                tables, SimulatedDisk(config.timing_model()), NEXT_TABLE_ID
            )
        else:
            if not compacted:  # the first major label runs them all
                disks = [SimulatedDisk(config.timing_model()) for _ in majors]
                joint = compact_majors(
                    list(majors.values()), tables, disks, NEXT_TABLE_ID
                )
                compacted = dict(zip(majors, joint))
            result = compacted.pop(label)
        read_metrics: dict = {}
        if read_ops is not None and read_ops.has_ops:
            read_metrics = served_fields(serve_reads(result.output_tables, read_ops))
        results[label] = StrategyResult(
            strategy=label,
            lopt_entries=sum(table.entry_count for table in tables),
            **compacted_fields(result),
            **read_metrics,
        )
    return results


def run_strategy(
    tables: Sequence[SSTable],
    label: str,
    config: SimulationConfig,
    seed: Optional[int] = None,
    read_ops: Optional[ReadOpColumns] = None,
) -> StrategyResult:
    """:func:`run_strategies` for one label."""
    return run_strategies(tables, [label], config, seed=seed, read_ops=read_ops)[label]

"""repro — reproduction of "Fast Compaction Algorithms for NoSQL Databases".

Ghosh, Gupta, Gupta, Kumar — ICDCS 2015.

The package is organized as one subpackage per subsystem:

* :mod:`repro.core` — compaction as merge-schedule optimization (the
  paper's contribution): problem instances, merge trees/schedules, the
  greedy framework with the BT/SI/SO/LM/RANDOM policies, the
  f-approximation, an exact solver and the NP-hardness apparatus.
* :mod:`repro.hll` — HyperLogLog cardinality estimation (used by the
  SMALLESTOUTPUT policy).
* :mod:`repro.ycsb` — a YCSB-compatible workload generator.
* :mod:`repro.lsm` — the LSM storage substrate: memtables, sstables,
  bloom filters, a simulated disk and compaction strategies.
* :mod:`repro.simulator` — the paper's two-phase evaluation simulator.
* :mod:`repro.analysis` — statistics, tables, ASCII plots and the
  figure-regeneration functions.
* :mod:`repro.scenarios` — the declarative experiment layer: frozen
  ``Scenario`` specs, the scenario registry, the ``ExperimentRunner``
  and the schema-versioned ``ResultsStore`` (docs/scenarios.md).

Everything is driven from one CLI: ``python -m repro`` (``run``,
``sweep``, ``list-scenarios``, ``figures``).

Quickstart::

    from repro import MergeInstance, merge_with

    instance = MergeInstance.from_iterables(
        [{1, 2, 3, 5}, {1, 2, 3, 4}, {3, 4, 5}, {6, 7, 8}, {7, 8, 9}]
    )
    result = merge_with("BT(I)", instance)
    print(result.replay(instance).simplified_cost)
"""

from .core import (
    GreedyMerger,
    GreedyResult,
    MergeInstance,
    MergeSchedule,
    MergeTree,
    actual_cost,
    freq_binary_merging,
    lopt,
    make_policy,
    merge_with,
    optimal_merge,
    simplified_cost,
)
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "GreedyMerger",
    "GreedyResult",
    "MergeInstance",
    "MergeSchedule",
    "MergeTree",
    "ReproError",
    "actual_cost",
    "freq_binary_merging",
    "lopt",
    "make_policy",
    "merge_with",
    "optimal_merge",
    "simplified_cost",
    "__version__",
]

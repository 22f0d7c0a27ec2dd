"""Estimator ablation: vectorized HLL kernels vs the pre-layer baseline.

Reproduces the acceptance bar of the estimator PR: at figure-7 scale
(~100 sstables from the paper's workload) SMALLESTOUTPUT with the HLL
estimator must spend at least 3x less *strategy overhead* (sketch
building + union estimation, the policy_seconds the paper's Figure 7b
time includes) than the pre-vectorization baseline, while producing an
identical schedule.

The baseline is reconstructed in-bench: per-key scalar hashing in
``prepare`` and a merged RegisterArray allocated per candidate estimate
— exactly how the policy behaved before the estimator layer.  The pure
``bytearray`` fallback is measured as a third row for context.  Each
timed run rebuilds the :class:`MergeInstance` so no variant hides its
hashing in the instance-level sketch cache.

Writes ``results/ablation_estimator_speedup.txt``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import format_table
from repro.core import MergeInstance, merge_with
from repro.core.estimator import HllEstimator
from repro.hll import HyperLogLog
from repro.hll.registers import RegisterArray
from repro.simulator import SimulationConfig
from repro.simulator.phase1 import generate_sstables

from conftest import write_artifact, write_bench_json

REPEATS = 3  # best-of timing to damp scheduler noise

#: The seed implementation's register kernel: 2**-r table indexed by the
#: raw registers, reduced with numpy's float sum.
_POW2_NEG_NP = np.array([2.0**-r for r in range(70)], dtype=np.float64)


class LegacyHllEstimator(HllEstimator):
    """The estimator's cost profile before this PR's kernels.

    Scalar per-key hashing to build every sketch, one estimate at a
    time, and a merged RegisterArray allocated per candidate estimate
    with the seed code's float register kernel.  Estimate values agree
    with the exact kernel to the last few ulps — far below any
    inter-candidate gap — so the schedules must match; only the
    overhead differs.
    """

    name = "hll-legacy"

    def prepare(self, state) -> None:
        self._sketches = {}
        for table_id in state.live:
            sketch = HyperLogLog(precision=self.precision, seed=self.seed)
            for key in state.keys(table_id):
                sketch.add(key)
            self._sketches[table_id] = sketch

    def union_cardinality(self, state, combo) -> float:
        sketches = self._sketches
        first = sketches[combo[0]]
        merged = RegisterArray.merged(
            [sketches[table_id]._registers for table_id in combo]
        )
        harmonic_sum = float(_POW2_NEG_NP[merged._regs].sum())
        zeros = merged.m - int(np.count_nonzero(merged._regs))
        return first._estimate_from_stats(harmonic_sum, zeros)

    def union_cardinalities(self, state, combos) -> list:
        # No batching existed: every candidate was estimated one by one.
        return [self.union_cardinality(state, combo) for combo in combos]


@pytest.fixture(scope="module")
def fig7_tables(bench_fast):
    config = SimulationConfig.figure7(0.5)
    if bench_fast:
        from dataclasses import replace

        config = replace(config, operationcount=20_000)
    return [table.key_set for table in generate_sstables(config).tables]


#: label -> policy kwargs factory (fresh estimator object per run).
VARIANTS = {
    "legacy": lambda: {"estimator": LegacyHllEstimator()},
    "vectorized": lambda: {"estimator": "hll"},
    "pure-python": lambda: {"estimator": HllEstimator(force_pure=True)},
}


def timed_run(key_sets, variant: str):
    """Best-of-``REPEATS`` strategy overhead; fresh instance per run."""
    best_seconds, result = float("inf"), None
    for _ in range(REPEATS):
        instance = MergeInstance(tuple(key_sets))
        outcome = merge_with(
            "smallest_output", instance, **VARIANTS[variant]()
        )
        if outcome.policy_seconds < best_seconds:
            best_seconds, result = outcome.policy_seconds, outcome
    return best_seconds, result


def test_vectorized_overhead_at_least_3x_lower(fig7_tables, bench_fast, results_dir):
    min_speedup = 2.0 if bench_fast else 3.0
    seconds, results = {}, {}
    for variant in VARIANTS:
        seconds[variant], results[variant] = timed_run(fig7_tables, variant)

    # Identical estimates => identical schedules and tie-breaks.
    assert results["legacy"].schedule == results["vectorized"].schedule
    assert results["pure-python"].schedule == results["vectorized"].schedule

    speedup = seconds["legacy"] / seconds["vectorized"]
    rows = [
        [
            variant,
            len(fig7_tables),
            seconds[variant],
            seconds["legacy"] / seconds[variant],
            results[variant].extras["estimate_calls"],
        ]
        for variant in VARIANTS
    ]
    table = format_table(
        ["estimator", "tables", "overhead s", "vs legacy", "estimates"],
        rows,
        float_digits=3,
        title=(
            "SO(hll) strategy overhead: vectorized vs pre-layer kernels "
            f"(fig7 workload, update%=50, fast={bench_fast})"
        ),
    )

    class _Artifact:
        title = "HLL estimator kernels: legacy vs vectorized vs pure (SO at fig7 scale)"
        text = table

    write_artifact(results_dir, "ablation_estimator_speedup", _Artifact())
    write_bench_json(
        results_dir,
        "estimator_speedup",
        {
            "min_speedup_bar": min_speedup,
            "n_tables": len(fig7_tables),
            "variants": {
                variant: {
                    "overhead_seconds": seconds[variant],
                    "speedup_vs_legacy": seconds["legacy"] / seconds[variant],
                }
                for variant in VARIANTS
            },
        },
    )

    assert speedup >= min_speedup, (
        f"vectorized estimator speedup {speedup:.2f}x below the "
        f"{min_speedup}x bar ({seconds})"
    )

"""Policy-choice scaling: SO / BT(O) / LM overhead at 1x / 4x / 10x Figure-7 scale.

The three output-sensitive policies share one lazy candidate index
(:class:`repro.core.policies.CandidateIndex`): each batch of candidates
is one sorted run and a heap holds one head per run, so every candidate
is sorted once and skipped at most once, and policy choice is
O(n^2 log n) in the number of tables, not O(n^3).  SO and BT(O) score
their batches with the HLL term kernel (uint16 terms plus exact spill
columns).  This bench records, at the Figure 7 mid-point (update 50 %,
``latest``) scaled to ~101 / ~401 / ~1001 tables, each policy's
``policy_seconds`` and its index counts — ``index_pushes`` candidates
indexed, ``index_pops`` stale ones skipped — into
``results/BENCH_policy_scaling.json`` so ``bench-trends`` shows a
relapse.

Asserted (counts and one ordering, no absolute timing):

* the push counts are exactly the closed forms — SO and LM estimate the
  initial pairs plus one pair per survivor per merge, BT(O) each level's
  pairs once — and no entry is skipped twice;
* BT(O)'s overhead stays below SO's at every scale (§5.1: BT(O)
  amortizes its estimation, SO is the slow strategy).
"""

from __future__ import annotations

from dataclasses import replace
from math import comb

from repro.core import GreedyMerger, MergeInstance
from repro.core.policies import make_policy
from repro.simulator import SimulationConfig
from repro.simulator.phase1 import generate_sstables

from conftest import write_bench_json

POLICIES = {
    "SO": lambda: make_policy("SO", estimator="hll"),
    "BT(O)": lambda: make_policy("BT(O)"),
    "LM": lambda: make_policy("LM"),
}


def _bto_level_pairs(n: int) -> int:
    pairs = 0
    while n > 1:
        pairs += comb(n, 2)
        n = (n + 1) // 2
    return pairs


def test_policy_overhead_scaling(bench_fast, results_dir):
    scales = (1, 4) if bench_fast else (1, 4, 10)
    base = SimulationConfig.figure7(0.5)
    curve = {}
    for scale in scales:
        config = replace(base, operationcount=base.operationcount * scale)
        tables = generate_sstables(config).tables
        instance = MergeInstance(tuple(table.key_set for table in tables))
        n = instance.n
        instance.hll_sketches()  # hash the keys once, outside every policy's clock
        point = {"n_tables": n}
        for label, build in POLICIES.items():
            policy = build()
            result = GreedyMerger(policy, backend="bitset").run(instance)
            index = policy.index
            expected = (
                _bto_level_pairs(n)
                if label == "BT(O)"
                else comb(n, 2) + comb(n - 1, 2)
            )
            assert index.pushes == expected, (label, scale)
            assert index.pops <= index.pushes, (label, scale)
            point[label] = {
                "policy_seconds": result.policy_seconds,
                "index_pushes": index.pushes,
                "index_pops": index.pops,
            }
        assert (
            point["BT(O)"]["policy_seconds"] < point["SO"]["policy_seconds"]
        ), point
        curve[f"{scale}x"] = point

    write_bench_json(
        results_dir,
        "policy_scaling",
        {
            "backend": "bitset",
            "estimator": "hll",
            "update_fraction": 0.5,
            "scales": curve,
        },
    )

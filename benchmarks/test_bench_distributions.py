"""Distribution ablation: the paper's 'observations are similar' claim.

§5.2 presents Figure 7 for the latest distribution only, stating "the
observations are similar for zipfian and uniform and thus, excluded".
This bench runs the mid-spectrum point (50 % updates) for all three
distributions and asserts the similarity:

* the strategy cost ordering is identical (heuristics < RANDOM),
* the Figure 7b time ordering, each part on the time that decides it:
  on the disk model (exact) both BALANCETREE variants finish ahead of
  SI, SO and RANDOM; SO pays the most strategy overhead of the
  scheduling heuristics (its estimation; with the vectorized estimator
  that overhead no longer dwarfs RANDOM's extra merge I/O, so RANDOM
  and SO trade places at the top depending on distribution); and on
  the total BT(I) finishes first, up to its tie with BT(O)
  (``repro.analysis.bt_i_finishes_first``),
* power-law distributions (zipfian, latest) produce more sstable
  overlap than uniform, hence cheaper compaction.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import is_fast, write_bench_json

from repro.analysis import bt_i_finishes_first, format_table
from repro.simulator import SimulationConfig, generate_sstables, run_strategy

DISTRIBUTIONS = ("uniform", "zipfian", "latest")
STRATEGIES = ("SI", "SO", "BT(I)", "BT(O)", "RANDOM")


def test_all_distributions_show_same_picture(benchmark, results_dir):
    def measure():
        out = {}
        for distribution in DISTRIBUTIONS:
            config = SimulationConfig.figure7(
                update_fraction=0.5, distribution=distribution, seed=21
            )
            if is_fast():
                config = replace(config, operationcount=20_000)
            tables = generate_sstables(config).tables
            out[distribution] = {
                label: run_strategy(tables, label, config) for label in STRATEGIES
            }
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    rows = []
    for distribution, per_strategy in results.items():
        for label, result in per_strategy.items():
            rows.append(
                [
                    distribution,
                    label,
                    result.cost_actual,
                    round(result.total_simulated_seconds, 3),
                ]
            )
    (results_dir / "ablation_distributions.txt").write_text(
        format_table(["distribution", "strategy", "costactual", "sim s"], rows)
        + "\n"
    )
    write_bench_json(
        results_dir,
        "distributions",
        {
            "cost_actual": {
                distribution: {
                    label: result.cost_actual
                    for label, result in per_strategy.items()
                }
                for distribution, per_strategy in results.items()
            }
        },
    )

    for distribution, per_strategy in results.items():
        costs = {label: r.cost_actual for label, r in per_strategy.items()}
        times = {label: r.total_simulated_seconds for label, r in per_strategy.items()}
        disk = {label: r.simulated_seconds for label, r in per_strategy.items()}
        overhead = {
            label: r.strategy_overhead_seconds for label, r in per_strategy.items()
        }
        # heuristics beat RANDOM under every distribution
        for label in ("SI", "SO", "BT(I)", "BT(O)"):
            assert costs[label] < costs["RANDOM"], (distribution, label)
        # The Figure 7b ordering.  Disk model: both BALANCETREE variants
        # ahead of the rest.  Overhead: SO's estimation costs the most
        # of the scheduling heuristics.  Total: BT(I) first, up to the
        # BT(O) tie band.
        assert max(disk["BT(I)"], disk["BT(O)"]) < min(
            disk["SI"], disk["SO"], disk["RANDOM"]
        ), distribution
        assert overhead["SO"] == max(
            overhead[label] for label in ("SI", "SO", "BT(I)", "BT(O)")
        ), distribution
        assert bt_i_finishes_first(times), (distribution, times)

    # power-law key popularity => more overlap => cheaper compaction
    si_costs = {d: results[d]["SI"].cost_actual for d in DISTRIBUTIONS}
    assert si_costs["zipfian"] < si_costs["uniform"]
    assert si_costs["latest"] < si_costs["uniform"]

"""Figure registry: regenerate every figure of the paper's evaluation.

Each ``figure*`` function runs the corresponding experiment and returns
:class:`ExperimentResult` objects holding the numeric series, a text
table and an ASCII rendering of the figure.  ``python -m repro figures``
is the CLI over it::

    python -m repro figures fig7a          # paper scale
    python -m repro figures all --fast     # quick pass
    python -m repro figures fig8 --out results/

Mapping to the paper:

========  ==========================================================
fig7a     costactual vs update %% for SI/SO/BT(I)/BT(O)/RANDOM (latest)
fig7b     compaction time vs update %% for the same strategies
fig8      BT(I) cost vs the LOPT lower bound, memtable sweep, log-log
fig9a     cost-vs-time linearity for SI while the update %% varies
fig9b     cost-vs-time linearity for SI while operationcount varies
========  ==========================================================
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..core.backend import available_backends
from ..core.estimator import available_estimators
from ..scenarios.registry import (
    FIG8_CAPACITIES,
    FIG8_CAPACITIES_FAST,
    FIG9_DISTRIBUTIONS,
    FIG9B_OPERATION_COUNTS,
    REGISTRY,
    UPDATE_FRACTIONS,
)
from ..scenarios.runner import execute_sweep
from ..scenarios.spec import SweepSpec
from ..simulator import SimulationConfig
from .ascii_plot import scatter_plot
from .stats import linear_fit, log_log_fit
from .tables import format_table

FIG7_STRATEGIES = ("SI", "SO", "BT(I)", "BT(O)", "RANDOM")


@dataclass
class ExperimentResult:
    """One regenerated figure panel."""

    experiment_id: str
    title: str
    text: str
    series: dict[str, list[tuple[float, float]]]
    metadata: dict = field(default_factory=dict)

    def print(self, file=None) -> None:
        # Resolve sys.stdout at call time (a definition-time default
        # would pin the stream object and bypass later redirection).
        file = file if file is not None else sys.stdout
        print(f"== {self.experiment_id}: {self.title} ==", file=file)
        print(self.text, file=file)


def _scenario_base(
    scenario_name: str, fast: bool, distribution: Optional[str] = None
) -> SimulationConfig:
    """The registered scenario's base config, fast variant applied.

    Every figure function derives its configuration from the scenario
    registry, so a figure and ``ExperimentRunner.run(<scenario>)`` are
    the same declarative spec executed by the same machinery.
    """
    scenario = REGISTRY.get(scenario_name)
    base = scenario.config_for(fast)
    if distribution is not None and distribution != base.distribution:
        base = replace(base, distribution=distribution)
    return base


def _apply_overrides(
    base: SimulationConfig,
    backend: Optional[str],
    estimator: Optional[str],
    hll_precision: Optional[int],
) -> SimulationConfig:
    """Override the kernel/estimator knobs of a sweep's base config."""
    updates = {}
    if backend is not None:
        updates["backend"] = backend
    if estimator is not None:
        updates["estimator"] = estimator
    if hll_precision is not None:
        updates["hll_precision"] = hll_precision
    return replace(base, **updates) if updates else base


# ----------------------------------------------------------------------
# Figure 7 — strategy comparison (cost and time vs update %)
# ----------------------------------------------------------------------
def figure7(
    fast: bool = False,
    runs: Optional[int] = None,
    distribution: str = "latest",
    base: Optional[SimulationConfig] = None,
    fractions: Sequence[float] = UPDATE_FRACTIONS,
    backend: Optional[str] = None,
    estimator: Optional[str] = None,
    hll_precision: Optional[int] = None,
    jobs: int = 1,
) -> tuple[ExperimentResult, ExperimentResult]:
    """Both panels of Figure 7 from a single sweep.

    ``base`` and ``fractions`` override the paper's settings (used by
    tests to exercise the full pipeline at a tiny scale).  ``backend``
    selects the set kernel the merge policies run on and ``estimator`` /
    ``hll_precision`` the union-cardinality oracle of the SO and BT(O)
    strategies (``None`` keeps ``base``'s choice); the cost panel is
    kernel-independent, the time panel's strategy overhead shrinks under
    ``"bitset"`` and the vectorized HLL estimator.
    """
    scenario = REGISTRY.get("fig7a")
    runs = runs if runs is not None else scenario.runs_for(fast)
    if base is None:
        base = _scenario_base("fig7a", fast, distribution)
    base = _apply_overrides(base, backend, estimator, hll_precision)
    sweep = execute_sweep(
        base,
        SweepSpec("update_fraction", tuple(fractions)),
        FIG7_STRATEGIES,
        runs,
        jobs=jobs,
    )

    cost_rows, time_rows = [], []
    cost_series: dict[str, list[tuple[float, float]]] = {s: [] for s in FIG7_STRATEGIES}
    time_series: dict[str, list[tuple[float, float]]] = {s: [] for s in FIG7_STRATEGIES}
    for point in sweep.points:
        cost_row: list[object] = [point.x]
        time_row: list[object] = [point.x]
        for label in FIG7_STRATEGIES:
            agg = point.per_strategy[label]
            cost_row.append(agg.cost_actual_mean)
            cost_row.append(agg.cost_actual_std)
            time_row.append(agg.simulated_seconds_mean)
            time_row.append(agg.simulated_seconds_std)
            cost_series[label].append((point.x, agg.cost_actual_mean))
            time_series[label].append((point.x, agg.simulated_seconds_mean))
        cost_rows.append(cost_row)
        time_rows.append(time_row)

    headers = ["update %"]
    for label in FIG7_STRATEGIES:
        headers += [f"{label} mean", f"{label} std"]

    cost_text = format_table(
        headers, cost_rows, float_digits=0,
        title=f"costactual (entries), distribution={distribution}, runs={runs}",
    )
    cost_plot = scatter_plot(
        cost_series, title="Figure 7a", xlabel="update %", ylabel="costactual"
    )
    time_text = format_table(
        headers, time_rows, float_digits=3,
        title=f"compaction time (simulated s), distribution={distribution}, runs={runs}",
    )
    time_plot = scatter_plot(
        time_series, title="Figure 7b", xlabel="update %", ylabel="seconds"
    )
    meta = {"runs": runs, "fast": fast, "distribution": distribution}
    return (
        ExperimentResult(
            "fig7a",
            "compaction cost vs update percentage (latest distribution)",
            cost_text + "\n\n" + cost_plot,
            cost_series,
            meta,
        ),
        ExperimentResult(
            "fig7b",
            "compaction time vs update percentage (latest distribution)",
            time_text + "\n\n" + time_plot,
            time_series,
            meta,
        ),
    )


def figure7a(
    fast: bool = False,
    runs: Optional[int] = None,
    backend: Optional[str] = None,
    estimator: Optional[str] = None,
    hll_precision: Optional[int] = None,
    jobs: int = 1,
) -> ExperimentResult:
    return figure7(
        fast,
        runs,
        backend=backend,
        estimator=estimator,
        hll_precision=hll_precision,
        jobs=jobs,
    )[0]


def figure7b(
    fast: bool = False,
    runs: Optional[int] = None,
    backend: Optional[str] = None,
    estimator: Optional[str] = None,
    hll_precision: Optional[int] = None,
    jobs: int = 1,
) -> ExperimentResult:
    return figure7(
        fast,
        runs,
        backend=backend,
        estimator=estimator,
        hll_precision=hll_precision,
        jobs=jobs,
    )[1]


# ----------------------------------------------------------------------
# Figure 8 — BT(I) vs the LOPT lower bound (log-log)
# ----------------------------------------------------------------------
def figure8(
    fast: bool = False,
    runs: Optional[int] = None,
    distribution: str = "latest",
    capacities: Optional[Sequence[int]] = None,
    backend: Optional[str] = None,
    estimator: Optional[str] = None,
    hll_precision: Optional[int] = None,
    jobs: int = 1,
) -> ExperimentResult:
    # BT(I) never consults an estimator, so only the backend override
    # can change anything here; accepted for CLI uniformity.
    del estimator, hll_precision
    scenario = REGISTRY.get("fig8")
    runs = runs if runs is not None else scenario.runs_for(fast)
    if capacities is None:
        capacities = scenario.sweep.values_for(fast)
    base = _scenario_base("fig8", fast, distribution)
    base = _apply_overrides(base, backend, None, None)
    sweep = execute_sweep(
        base,
        replace(scenario.sweep, values=tuple(capacities), fast_values=None),
        scenario.strategies,
        runs,
        jobs=jobs,
    )
    rows = []
    bt_series: list[tuple[float, float]] = []
    lopt_series: list[tuple[float, float]] = []
    for point in sweep.points:
        agg = point.per_strategy["BT(I)"]
        rows.append(
            [
                int(point.x),
                agg.cost_actual_mean,
                agg.lopt_entries_mean,
                agg.cost_over_lopt,
            ]
        )
        bt_series.append((point.x, agg.cost_actual_mean))
        lopt_series.append((point.x, agg.lopt_entries_mean))

    bt_fit = log_log_fit([x for x, _ in bt_series], [y for _, y in bt_series])
    lopt_fit = log_log_fit([x for x, _ in lopt_series], [y for _, y in lopt_series])
    table = format_table(
        ["memtable", "BT(I) cost", "LOPT (sum sizes)", "cost/LOPT"],
        rows,
        float_digits=1,
        title=f"distribution={distribution}, 100 sstables, update:insert=60:40, runs={runs}",
    )
    plot = scatter_plot(
        {"BT(I)": bt_series, "LOPT": lopt_series},
        logx=True,
        logy=True,
        title="Figure 8",
        xlabel="memtable size",
        ylabel="cost (entries)",
    )
    summary = (
        f"log-log slopes: BT(I)={bt_fit.slope:.3f}, LOPT={lopt_fit.slope:.3f} "
        f"(parallel lines => constant factor; paper reports the same)"
    )
    return ExperimentResult(
        "fig8",
        "BT(I) cost vs optimal lower bound (log-log memtable sweep)",
        table + "\n\n" + plot + "\n" + summary,
        {"BT(I)": bt_series, "LOPT": lopt_series},
        {
            "runs": runs,
            "fast": fast,
            "bt_slope": bt_fit.slope,
            "lopt_slope": lopt_fit.slope,
            "ratios": [row[3] for row in rows],
        },
    )


# ----------------------------------------------------------------------
# Figure 9 — cost-function effectiveness (cost vs time for SI)
# ----------------------------------------------------------------------
def _cost_time_points(sweep, label: str = "SI") -> list[tuple[float, float]]:
    return [
        (
            point.per_strategy[label].cost_actual_mean,
            point.per_strategy[label].simulated_seconds_mean,
        )
        for point in sweep.points
    ]


def figure9a(
    fast: bool = False,
    runs: Optional[int] = None,
    backend: Optional[str] = None,
    estimator: Optional[str] = None,
    hll_precision: Optional[int] = None,
    jobs: int = 1,
) -> ExperimentResult:
    scenario = REGISTRY.get("fig9a")
    runs = runs if runs is not None else scenario.runs_for(fast)
    series: dict[str, list[tuple[float, float]]] = {}
    fits = {}
    for distribution in scenario.distributions_for():
        base = _scenario_base("fig9a", fast, distribution)
        base = _apply_overrides(base, backend, estimator, hll_precision)
        sweep = execute_sweep(
            base, scenario.sweep, scenario.strategies, runs, jobs=jobs
        )
        points = _cost_time_points(sweep)
        series[distribution] = points
        fits[distribution] = linear_fit(
            [c for c, _ in points], [t for _, t in points]
        )
    rows = [
        [dist, fit.slope, fit.intercept, fit.r]
        for dist, fit in fits.items()
    ]
    table = format_table(
        ["distribution", "slope (s/entry)", "intercept", "pearson r"],
        rows,
        float_digits=6,
        title=f"SI cost vs time while update %% varies, runs={runs}",
    )
    plot = scatter_plot(
        series, title="Figure 9a", xlabel="costactual", ylabel="seconds"
    )
    return ExperimentResult(
        "fig9a",
        "cost vs completion time for SI (update percentage varied)",
        table + "\n\n" + plot,
        series,
        {"runs": runs, "fast": fast, "r": {d: f.r for d, f in fits.items()}},
    )


def figure9b(
    fast: bool = False,
    runs: Optional[int] = None,
    backend: Optional[str] = None,
    estimator: Optional[str] = None,
    hll_precision: Optional[int] = None,
    jobs: int = 1,
) -> ExperimentResult:
    scenario = REGISTRY.get("fig9b")
    runs = runs if runs is not None else scenario.runs_for(fast)
    series: dict[str, list[tuple[float, float]]] = {}
    fits = {}
    for distribution in scenario.distributions_for():
        base = _scenario_base("fig9b", fast, distribution)
        base = _apply_overrides(base, backend, estimator, hll_precision)
        sweep = execute_sweep(
            base, scenario.sweep, scenario.strategies, runs, jobs=jobs, fast=fast
        )
        points = _cost_time_points(sweep)
        series[distribution] = points
        fits[distribution] = linear_fit(
            [c for c, _ in points], [t for _, t in points]
        )
    rows = [[dist, fit.slope, fit.intercept, fit.r] for dist, fit in fits.items()]
    table = format_table(
        ["distribution", "slope (s/entry)", "intercept", "pearson r"],
        rows,
        float_digits=6,
        title=f"SI cost vs time while operationcount varies, runs={runs}",
    )
    plot = scatter_plot(
        series, title="Figure 9b", xlabel="costactual", ylabel="seconds"
    )
    return ExperimentResult(
        "fig9b",
        "cost vs completion time for SI (operationcount varied)",
        table + "\n\n" + plot,
        series,
        {"runs": runs, "fast": fast, "r": {d: f.r for d, f in fits.items()}},
    )


# ----------------------------------------------------------------------
# Registry + CLI
# ----------------------------------------------------------------------
EXPERIMENTS: dict[str, Callable[..., object]] = {
    "fig7a": figure7a,
    "fig7b": figure7b,
    "fig8": figure8,
    "fig9a": figure9a,
    "fig9b": figure9b,
}


def run_experiment(
    experiment_id: str,
    fast: bool = False,
    runs: Optional[int] = None,
    backend: Optional[str] = None,
    estimator: Optional[str] = None,
    hll_precision: Optional[int] = None,
    jobs: int = 1,
) -> list[ExperimentResult]:
    """Run one experiment id (``fig7`` expands to both panels)."""
    if experiment_id == "fig7":
        return list(
            figure7(
                fast,
                runs,
                backend=backend,
                estimator=estimator,
                hll_precision=hll_precision,
                jobs=jobs,
            )
        )
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)} + ['fig7', 'all']"
        )
    result = EXPERIMENTS[experiment_id](
        fast=fast,
        runs=runs,
        backend=backend,
        estimator=estimator,
        hll_precision=hll_precision,
        jobs=jobs,
    )
    return [result]  # type: ignore[list-item]


def add_figures_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of ``repro figures``."""
    parser.add_argument(
        "experiment",
        help="fig7 | fig7a | fig7b | fig8 | fig9a | fig9b | all",
    )
    parser.add_argument("--fast", action="store_true", help="reduced scale")
    parser.add_argument("--runs", type=int, default=None, help="independent runs")
    parser.add_argument("--out", type=Path, default=None, help="directory for .txt dumps")
    parser.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help="set kernel for the merge policies (default: bitset at "
        "paper scale; see docs/backends.md)",
    )
    parser.add_argument(
        "--estimator",
        default=None,
        choices=available_estimators(),
        help="union-cardinality oracle for the SO/BT(O) strategies "
        "(default: hll; see docs/estimators.md)",
    )
    parser.add_argument(
        "--hll-precision",
        type=int,
        default=None,
        help="HyperLogLog precision p (registers = 2**p; default: 12)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sweep's (point x run) cells; "
        "results are byte-identical for any value (default: 1)",
    )


def run_figures(args: argparse.Namespace) -> int:
    """Execute the parsed ``repro figures`` request."""
    if args.experiment == "all":
        ids = ["fig7", "fig8", "fig9a", "fig9b"]
    else:
        ids = [args.experiment]
    for experiment_id in ids:
        for result in run_experiment(
            experiment_id,
            fast=args.fast,
            runs=args.runs,
            backend=args.backend,
            estimator=args.estimator,
            hll_precision=args.hll_precision,
            jobs=args.jobs,
        ):
            result.print()
            print()
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                path = args.out / f"{result.experiment_id}.txt"
                path.write_text(f"{result.title}\n\n{result.text}\n")
                print(f"[written to {path}]")
    return 0

"""Figure panels: a paper figure is a pure function of an executed scenario.

Each renderer here turns the ``ScenarioRun`` of a sweep scenario (see
:mod:`repro.scenarios.runner`) into an :class:`ExperimentResult` — the
numeric series, a text table and an ASCII plot.  Which renderer draws
which registered scenario is declared once, in
:data:`repro.scenarios.registry.PANELS`; ``ScenarioRun.panel()`` is the
one entry point, so ``python -m repro run fig8`` and ``python -m repro
figures fig8`` print the same panel.

Mapping to the paper:

========  ==========================================================
fig7a     costactual vs update % for SI/SO/BT(I)/BT(O)/RANDOM (latest)
fig7b     compaction time vs update % for the same strategies
fig8      BT(I) cost vs the LOPT lower bound, memtable sweep, log-log
fig9a     cost-vs-time linearity for SI while the update % varies
fig9b     cost-vs-time linearity for SI while operationcount varies
========  ==========================================================

This module imports nothing from :mod:`repro.scenarios` (the scenario
layer imports it); a run is read through its ``scenario``, ``runs``,
``fast``, ``config`` and ``results`` (distribution -> ``SweepResult``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from ..simulator.runner import SweepResult
from .ascii_plot import scatter_plot
from .stats import linear_fit, log_log_fit
from .tables import format_table

Series = dict[str, list[tuple[float, float]]]

#: How a swept ``CATALOGUE`` metric (its ``_mean`` / ``_std`` pair) is
#: headed, rounded and named on the y axis.
SWEPT_METRICS: dict[str, tuple[str, int, str]] = {
    "cost_actual": ("costactual (entries)", 0, "costactual"),
    "simulated_seconds": ("compaction time (simulated s)", 3, "seconds"),
}


#: Figure 7b's BT(I)-vs-BT(O) tie band, as a share of BT(O)'s total time.
#: BT(I) finishes first only through BT(O)'s measured estimation time:
#: on the disk model alone BT(O)'s schedules are up to 3 % quicker at
#: 25-100 % updates (paper scale, latest), and the two totals land
#: within ~1 % of each other, so their exact order is the clock's.
BT_TIE_BAND = 0.05


def bt_i_finishes_first(seconds: Mapping[str, float]) -> bool:
    """Figure 7b's headline at one point, on total (disk model plus
    measured overhead) seconds per strategy label: BT(I) is strictly
    ahead of SI, SO and RANDOM, and at most :data:`BT_TIE_BAND` behind
    BT(O)."""
    bt_i = seconds["BT(I)"]
    return (
        bt_i < min(seconds["SI"], seconds["SO"], seconds["RANDOM"])
        and bt_i <= (1 + BT_TIE_BAND) * seconds["BT(O)"]
    )


@dataclass
class ExperimentResult:
    """One regenerated figure panel."""

    experiment_id: str
    title: str
    text: str
    series: Series
    metadata: dict = field(default_factory=dict)


def _result(run, text: str, series: Series, **metadata) -> ExperimentResult:
    return ExperimentResult(
        run.scenario.name,
        run.scenario.title,
        text,
        series,
        {"runs": run.runs, "fast": run.fast, **metadata},
    )


def _legs(run) -> Iterator[tuple[str, SweepResult, str]]:
    """``(distribution, sweep, series prefix)`` of every executed leg;
    the prefix tells the legs' series apart when the run has several."""
    for distribution, sweep in run.results.items():
        yield distribution, sweep, (
            f"{distribution} " if len(run.results) > 1 else ""
        )


def _join_legs(bodies: dict[str, str]) -> str:
    """One body per distribution leg, headed when there are several."""
    if len(bodies) == 1:
        return next(iter(bodies.values()))
    return "\n\n".join(
        f"-- distribution: {distribution} --\n{body}"
        for distribution, body in bodies.items()
    )


def series_panel(
    run,
    metrics: Sequence[str] = ("cost_actual", "simulated_seconds"),
    figure: Optional[str] = None,
    xlabel: Optional[str] = None,
) -> ExperimentResult:
    """Per-strategy series of swept metrics: one mean/std table per
    metric, then a plot of the first.  Figure 7a is ``cost_actual``,
    7b ``simulated_seconds``; the default pair is the generic report of
    every sweep scenario without a declared panel."""
    bodies: dict[str, str] = {}
    series: Series = {}
    for distribution, sweep, prefix in _legs(run):
        x_name = xlabel or sweep.parameter
        columns = [
            (label, stat) for label in sweep.labels for stat in ("mean", "std")
        ]
        blocks = []
        for metric in metrics:
            heading, digits, _ = SWEPT_METRICS[metric]
            blocks.append(
                format_table(
                    [x_name] + [f"{label} {stat}" for label, stat in columns],
                    [
                        [point.x] + [
                            getattr(point.per_strategy[label], f"{metric}_{stat}")
                            for label, stat in columns
                        ]
                        for point in sweep.points
                    ],
                    float_digits=digits,
                    title=f"{heading}, distribution={distribution}, "
                    f"runs={run.runs}",
                )
            )
        plotted = {
            prefix + label: sweep.series(label, f"{metrics[0]}_mean")
            for label in sweep.labels
        }
        *_, ylabel = SWEPT_METRICS[metrics[0]]
        blocks.append(
            scatter_plot(plotted, title=figure, xlabel=x_name, ylabel=ylabel)
        )
        bodies[distribution] = "\n\n".join(blocks)
        series.update(plotted)
    return _result(run, _join_legs(bodies), series)


def bound_gap_panel(run, figure: str, column: str, xlabel: str) -> ExperimentResult:
    """Cost against the LOPT lower bound (the sum of the sstable sizes)
    with log-log fits: parallel lines mean a constant factor (Figure 8)."""
    bodies: dict[str, str] = {}
    series: Series = {}
    ratios: dict[str, list[float]] = {}
    update = run.config.update_fraction * 100
    for distribution, sweep, prefix in _legs(run):
        labels = sweep.labels
        plotted = {
            prefix + label: sweep.series(label, "cost_actual_mean")
            for label in labels
        }
        # The bound depends on the tables alone: every strategy of a
        # point reports the same one.
        plotted[prefix + "LOPT"] = sweep.series(labels[0], "lopt_entries_mean")
        for label in labels:
            ratios[prefix + label] = [
                point.per_strategy[label].cost_over_lopt for point in sweep.points
            ]
        table = format_table(
            [column]
            + [f"{label} cost" for label in labels]
            + ["LOPT (sum sizes)"]
            + (["cost/LOPT"] if len(labels) == 1 else [f"{l}/LOPT" for l in labels]),
            [
                [int(point.x)]
                + [ys[i][1] for ys in plotted.values()]
                + [ratios[prefix + label][i] for label in labels]
                for i, point in enumerate(sweep.points)
            ],
            float_digits=1,
            title=f"distribution={distribution}, "
            f"{run.scenario.sweep.n_sstables} sstables, "
            f"update:insert={update:.0f}:{100 - update:.0f}, runs={run.runs}",
        )
        plot = scatter_plot(
            plotted, logx=True, logy=True, title=figure, xlabel=xlabel,
            ylabel="cost (entries)",
        )
        bodies[distribution] = f"{table}\n\n{plot}"
        series.update(plotted)
    slopes = {
        name: log_log_fit(*zip(*points)).slope for name, points in series.items()
    }
    fitted = ", ".join(f"{name}={slope:.3f}" for name, slope in slopes.items())
    return _result(
        run,
        f"{_join_legs(bodies)}\nlog-log slopes: {fitted} "
        "(parallel lines => constant factor; paper reports the same)",
        series,
        slopes=slopes,
        ratios=ratios,
    )


def cost_time_panel(run, figure: str, varied: str) -> ExperimentResult:
    """Cost against completion time with one linear fit per
    distribution: the paper's check that costactual predicts time
    (Figure 9)."""
    series: Series = {}
    for distribution, sweep, _ in _legs(run):
        for label in sweep.labels:
            name = distribution + (f" {label}" if len(sweep.labels) > 1 else "")
            series[name] = [
                (
                    point.per_strategy[label].cost_actual_mean,
                    point.per_strategy[label].simulated_seconds_mean,
                )
                for point in sweep.points
            ]
    fits = {name: linear_fit(*zip(*points)) for name, points in series.items()}
    table = format_table(
        ["distribution", "slope (s/entry)", "intercept", "pearson r"],
        [
            [name, f"{fit.slope:.3g}", fit.intercept, fit.r]
            for name, fit in fits.items()
        ],
        float_digits=6,
        title=f"{'/'.join(run.scenario.strategies)} cost vs time while "
        f"{varied} varies, runs={run.runs}",
    )
    note = (
        "time = the simulated disk model (seek + bytes / bandwidth) applied to "
        "the bytes costactual counts, so r = 1 holds by construction"
    )
    plot = scatter_plot(series, title=figure, xlabel="costactual", ylabel="seconds")
    return _result(
        run,
        f"{table}\n{note}\n\n{plot}",
        series,
        r={name: fit.r for name, fit in fits.items()},
    )

"""Execute any :class:`Scenario` through the existing sweep machinery.

:func:`execute_sweep` hands a :class:`SweepSpec` to the simulator's
:func:`~repro.simulator.runner.sweep` (the same code path the figure
goldens certify); :class:`ExperimentRunner` resolves a scenario (fast
variant, CLI overrides, per-distribution axis), runs it, and optionally
records a schema-versioned manifest through
:class:`~repro.scenarios.store.ResultsStore`.  The resulting
:class:`ScenarioRun` renders itself: a sweep as the figure panel
:data:`~repro.scenarios.registry.PANELS` declares for it (the generic
cost + time series otherwise), a comparison as the catalogue's table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence, Union

from ..analysis.experiments import ExperimentResult, series_panel
from ..analysis.tables import format_table
from ..errors import ScenarioError
from ..simulator.config import SimulationConfig
from ..simulator.metrics import cell_metrics, report_table, shown_groups
from ..simulator.runner import (
    SWEEP_AXES,
    ComparisonResult,
    SweepResult,
    run_comparison,
    sweep as run_sweep,
)
from .registry import PANELS, REGISTRY, ScenarioRegistry
from .spec import Scenario, SweepSpec
from .store import ResultsStore


def execute_sweep(
    config: SimulationConfig,
    sweep: SweepSpec,
    strategies: Sequence[str],
    runs: int,
    jobs: int = 1,
    fast: bool = False,
) -> SweepResult:
    """Run one declared sweep on ``config`` via the simulator machinery."""
    options = {
        name: getattr(sweep, name)
        for name in SWEEP_AXES[sweep.parameter].options
    }
    return run_sweep(
        config,
        sweep.parameter,
        sweep.values_for(fast),
        tuple(strategies),
        runs,
        jobs,
        **options,
    )


def render_comparison_table(
    config: SimulationConfig,
    comparison: ComparisonResult,
    labels: Sequence[str],
) -> str:
    """The classic single-run comparison table.

    The unified CLI renders every comparison scenario through it; the
    columns (and which optional groups appear) come from the metric
    catalogue.
    """
    headers, rows = report_table(
        [comparison.per_strategy[label] for label in labels]
    )
    return format_table(
        headers,
        rows,
        float_digits=3,
        title=(
            f"distribution={config.distribution}, "
            f"update={config.update_fraction:.0%}, k={config.k}, "
            f"ops={config.operationcount}, runs={comparison.runs}"
        ),
    )


@dataclass(frozen=True)
class ScenarioRun:
    """One executed scenario: the resolved inputs and every result."""

    scenario: Scenario
    config: SimulationConfig  # base config after fast/CLI overrides
    runs: int
    jobs: int
    fast: bool
    #: distribution -> SweepResult or ComparisonResult
    results: dict[str, Union[SweepResult, ComparisonResult]]

    #: The phase-1 plane every run uses.  Schema-v1 manifests and their
    #: cells carry it, so it is still recorded.
    plane_used = "fast"

    def _points(self):
        """``(cell header, per-strategy aggregates)`` of every executed
        point: the points of a sweep, or a comparison's single one."""
        for distribution, result in self.results.items():
            if isinstance(result, SweepResult):
                for point in result.points:
                    yield {
                        "distribution": distribution,
                        # The executed sweep's own axis name (e.g.
                        # "update_percentage"), which is the unit
                        # point.x is expressed in — the spec's
                        # "update_fraction" values are fractions.
                        "parameter": result.parameter,
                        "x": point.x,
                        "plane_used": self.plane_used,
                    }, point.per_strategy
            else:
                yield {
                    "distribution": distribution,
                    "parameter": None,
                    "x": None,
                    "plane_used": self.plane_used,
                }, result.per_strategy

    @property
    def read_phase_served(self) -> bool:
        """True when at least one cell replayed reads/scans (serving phase)."""
        return "served" in shown_groups(
            [agg for _, aggs in self._points() for agg in aggs.values()]
        )

    def cells(self) -> list[dict[str, Any]]:
        """Flat per-(distribution, x, strategy) metric rows for the store."""
        return [
            {**header, **cell_metrics(agg)}
            for header, aggs in self._points()
            for agg in aggs.values()
        ]

    def panel(self) -> ExperimentResult:
        """The figure panel of a sweep run: the one ``PANELS`` declares
        for the scenario's name, else the generic cost + time series."""
        return PANELS.get(self.scenario.name, series_panel)(self)

    def render(self) -> str:
        """A terminal report: header, then the sweep's panel or one
        comparison table per distribution."""
        scenario = self.scenario
        lines = [
            f"== {scenario.name}: {scenario.title} ==",
            f"spec {scenario.spec_hash()}  runs={self.runs} jobs={self.jobs}"
            + ("  [fast]" if self.fast else ""),
            f"config: {self.config.describe()}",
            "",
        ]
        if scenario.sweep is not None:
            lines.append(self.panel().text)
        else:
            for distribution, result in self.results.items():
                if len(self.results) > 1:
                    lines.append(f"-- distribution: {distribution} --")
                config = replace(self.config, distribution=distribution)
                lines += [
                    render_comparison_table(config, result, scenario.strategies),
                    "",
                ]
        return "\n".join(lines).rstrip() + "\n"


class ExperimentRunner:
    """Resolves and executes scenarios; optionally records manifests."""

    def __init__(
        self,
        registry: ScenarioRegistry = REGISTRY,
        store: Optional[ResultsStore] = None,
        jobs: int = 1,
    ) -> None:
        self.registry = registry
        self.store = store
        self.jobs = jobs

    def run(
        self,
        scenario: Union[str, Scenario],
        fast: bool = False,
        runs: Optional[int] = None,
        overrides: Optional[Mapping[str, Any]] = None,
        strategies: Optional[Sequence[str]] = None,
    ) -> ScenarioRun:
        """Execute one scenario end to end.

        ``overrides`` are config-field replacements applied after the
        fast variant (the CLI's ``--set``/``--estimator``/... flags);
        ``strategies`` overrides the spec's grid.  ``run`` only
        executes — use :meth:`run_and_record` to also persist a
        manifest through the runner's store.
        """
        if isinstance(scenario, str):
            scenario = self.registry.get(scenario)
        config = scenario.config_for(fast)
        if overrides:
            if scenario.sweep is not None:
                # The sweep overwrites its parameter (and, for Figure-8
                # style capacity sweeps, the derived operationcount) at
                # every point; accepting an override for those fields
                # would silently discard it while the manifest recorded
                # it as applied.
                clashing = {scenario.sweep.parameter}
                if scenario.sweep.parameter == "memtable_capacity":
                    clashing.add("operationcount")
                clash = sorted(clashing & set(overrides))
                if clash:
                    raise ScenarioError(
                        f"cannot override {clash} on scenario "
                        f"{scenario.name!r}: the sweep sets "
                        f"{sorted(clashing)} at every point (edit the "
                        "spec's sweep values instead)"
                    )
            config = config.overridden(overrides)
        if strategies is not None:
            scenario = replace(scenario, strategies=tuple(strategies))
        resolved_runs = scenario.runs_for(fast, runs)
        if resolved_runs < 1:
            raise ScenarioError(f"runs must be at least 1, got {resolved_runs}")
        # The distribution axis follows the *resolved* config: an
        # explicit `distribution` override replaces the spec's axis
        # entirely (otherwise the override would be silently reverted
        # while the manifest recorded it as applied).
        if overrides and "distribution" in dict(overrides):
            distributions: tuple[str, ...] = (config.distribution,)
        else:
            distributions = scenario.distributions or (config.distribution,)
        results: dict[str, Union[SweepResult, ComparisonResult]] = {}
        for distribution in distributions:
            dist_config = (
                config
                if distribution == config.distribution
                else replace(config, distribution=distribution)
            )
            if scenario.sweep is not None:
                results[distribution] = execute_sweep(
                    dist_config,
                    scenario.sweep,
                    scenario.strategies,
                    resolved_runs,
                    jobs=self.jobs,
                    fast=fast,
                )
            else:
                results[distribution] = run_comparison(
                    dist_config,
                    scenario.strategies,
                    runs=resolved_runs,
                    jobs=self.jobs,
                )
        return ScenarioRun(
            scenario=scenario,
            config=config,
            runs=resolved_runs,
            jobs=self.jobs,
            fast=fast,
            results=results,
        )

    def run_and_record(self, *args, **kwargs):
        """:meth:`run`, then persist; returns ``(run, manifest_path)``."""
        run = self.run(*args, **kwargs)
        path = self.store.write(run) if self.store is not None else None
        return run, path

"""Execute any :class:`Scenario` through the existing sweep machinery.

:func:`execute_sweep` maps a :class:`SweepSpec` onto the simulator's
``sweep_*`` functions (the same code path the figure goldens certify);
:class:`ExperimentRunner` resolves a scenario (fast variant, CLI
overrides, per-distribution axis), runs it, renders a generic
table-plus-plot report, and optionally records a schema-versioned
manifest through :class:`~repro.scenarios.store.ResultsStore`.

The legacy figure functions in :mod:`repro.analysis.experiments` run
their sweeps through :func:`execute_sweep` too, so "through the
ExperimentRunner path" and "through ``figure7()``" are the same
computation — the byte goldens certify both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence, Union

from ..errors import ScenarioError
from ..simulator.config import SimulationConfig
from ..simulator.metrics import AggregateResult
from ..simulator.phase1 import resolve_plane
from ..simulator.runner import (
    ComparisonResult,
    SweepResult,
    run_comparison,
    sweep_hll_precision,
    sweep_k,
    sweep_memtable_capacity,
    sweep_num_shards,
    sweep_operationcount,
    sweep_shard_skew,
    sweep_update_fraction,
)
from .registry import REGISTRY, ScenarioRegistry
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
    values = sweep.values_for(fast)
    labels = tuple(strategies)
    if sweep.parameter == "update_fraction":
        return sweep_update_fraction(config, values, labels, runs, jobs=jobs)
    if sweep.parameter == "operationcount":
        return sweep_operationcount(
            config, [int(v) for v in values], labels, runs, jobs=jobs
        )
    if sweep.parameter == "memtable_capacity":
        return sweep_memtable_capacity(
            [int(v) for v in values],
            labels,
            runs=runs,
            n_sstables=sweep.n_sstables,
            jobs=jobs,
            base=config,
        )
    if sweep.parameter == "k":
        return sweep_k(config, [int(v) for v in values], labels, runs, jobs=jobs)
    if sweep.parameter == "hll_precision":
        return sweep_hll_precision(
            config, [int(v) for v in values], labels, runs, jobs=jobs
        )
    if sweep.parameter == "num_shards":
        return sweep_num_shards(
            config, [int(v) for v in values], labels, runs, jobs=jobs
        )
    if sweep.parameter == "shard_skew":
        return sweep_shard_skew(
            config, [float(v) for v in values], labels, runs, jobs=jobs
        )
    raise ScenarioError(f"unknown sweep parameter {sweep.parameter!r}")


def render_comparison_table(
    config: SimulationConfig,
    comparison: ComparisonResult,
    labels: Sequence[str],
) -> str:
    """The classic single-run comparison table.

    The unified CLI renders every comparison scenario through it.
    """
    # Imported lazily: repro.analysis's package init pulls in the figure
    # registry, which itself imports this module (render-only cycle).
    from ..analysis.tables import format_table

    # Read columns appear only when the serving phase ran (the mix had
    # reads/scans), so write-only reports stay byte-identical.
    served = any(
        comparison.per_strategy[label].reads_mean
        or comparison.per_strategy[label].scans_mean
        for label in labels
    )
    # Merge-execution columns appear only when a non-serial backend ran,
    # so historical (serial) reports stay byte-identical.
    parallel = any(
        comparison.per_strategy[label].merge_executor != "serial"
        for label in labels
    )
    # Cluster columns appear only for sharded runs (num_shards > 1), so
    # unsharded reports stay byte-identical.
    sharded = any(
        comparison.per_strategy[label].num_shards > 1 for label in labels
    )
    # Ingest columns appear only when the concurrent write pipeline ran,
    # so serial reports stay byte-identical.
    pipelined = any(
        comparison.per_strategy[label].write_pipeline for label in labels
    )
    headers = [
        "strategy",
        "costactual mean",
        "std",
        "cost/LOPT",
        "sim seconds",
        "overhead s",
    ]
    if parallel:
        headers += ["merge wall s", "workers", "util%"]
    if sharded:
        headers += ["shards", "makespan s", "imbalance"]
    if pipelined:
        headers += ["ingest s", "stalls", "overlap%"]
    if served:
        headers += ["read amp", "bloom FP%", "read MB"]
    rows = []
    for label in labels:
        agg = comparison.per_strategy[label]
        row = [
            label,
            agg.cost_actual_mean,
            agg.cost_actual_std,
            agg.cost_over_lopt,
            agg.simulated_seconds_mean + agg.strategy_overhead_mean,
            agg.strategy_overhead_mean,
        ]
        if parallel:
            row += [
                agg.merge_wall_seconds_mean,
                f"{agg.merge_executor} x{agg.merge_workers}",
                agg.merge_utilization_mean * 100.0,
            ]
        if sharded:
            row += [
                agg.num_shards,
                agg.cluster_makespan_mean,
                agg.shard_imbalance_mean,
            ]
        if pipelined:
            row += [
                agg.ingest_wall_seconds_mean,
                agg.write_stall_count_mean,
                agg.flush_overlap_fraction_mean * 100.0,
            ]
        if served:
            row += [
                agg.read_amplification_mean,
                agg.bloom_fp_rate_mean * 100.0,
                agg.read_bytes_mean / 1e6,
            ]
        rows.append(row)
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


def _render_sweep_tables(
    sweep: SweepResult, parameter: str, runs: int
) -> str:
    """Cost and time tables plus a cost plot for one executed sweep."""
    from ..analysis.ascii_plot import scatter_plot
    from ..analysis.tables import format_table

    labels = sweep.labels
    cost_rows, time_rows = [], []
    cost_series: dict[str, list[tuple[float, float]]] = {l: [] for l in labels}
    for point in sweep.points:
        cost_row: list[object] = [point.x]
        time_row: list[object] = [point.x]
        for label in labels:
            agg = point.per_strategy[label]
            cost_row += [agg.cost_actual_mean, agg.cost_actual_std]
            time_row += [
                agg.simulated_seconds_mean + agg.strategy_overhead_mean,
                agg.simulated_seconds_std,
            ]
            cost_series[label].append((point.x, agg.cost_actual_mean))
        cost_rows.append(cost_row)
        time_rows.append(time_row)
    headers = [parameter]
    for label in labels:
        headers += [f"{label} mean", f"{label} std"]
    cost_text = format_table(
        headers, cost_rows, float_digits=0,
        title=f"costactual (entries), runs={runs}",
    )
    time_text = format_table(
        headers, time_rows, float_digits=3,
        title=f"compaction time (simulated s), runs={runs}",
    )
    plot = scatter_plot(
        cost_series, xlabel=parameter, ylabel="costactual"
    )
    return f"{cost_text}\n\n{time_text}\n\n{plot}"


def _cell_metrics(agg: AggregateResult) -> dict[str, Any]:
    return {
        "strategy": agg.strategy,
        "runs": agg.runs,
        "cost_actual_mean": agg.cost_actual_mean,
        "cost_actual_std": agg.cost_actual_std,
        "cost_simplified_mean": agg.cost_simplified_mean,
        "cost_over_lopt": agg.cost_over_lopt,
        "lopt_entries_mean": agg.lopt_entries_mean,
        "simulated_seconds_mean": agg.simulated_seconds_mean,
        "simulated_seconds_std": agg.simulated_seconds_std,
        "strategy_overhead_mean": agg.strategy_overhead_mean,
        "wall_seconds_mean": agg.wall_seconds_mean,
        # Real merge-execution accounting (additive keys; serial
        # defaults for strategies that never ran a parallel backend).
        "merge_executor": agg.merge_executor,
        "merge_workers": agg.merge_workers,
        "merge_wall_seconds_mean": agg.merge_wall_seconds_mean,
        "merge_utilization_mean": agg.merge_utilization_mean,
        # Serving-phase read metrics (additive keys; all zero for
        # write-only mixes — see store.py's schema policy).
        "reads_mean": agg.reads_mean,
        "scans_mean": agg.scans_mean,
        "read_amplification_mean": agg.read_amplification_mean,
        "bloom_fp_rate_mean": agg.bloom_fp_rate_mean,
        "read_bytes_mean": agg.read_bytes_mean,
        "scan_records_scanned_mean": agg.scan_records_scanned_mean,
        # Cluster-level metrics (additive keys; num_shards == 1 with
        # empty per-shard vectors for unsharded runs).
        "num_shards": agg.num_shards,
        "cluster_makespan_mean": agg.cluster_makespan_mean,
        "shard_imbalance_mean": agg.shard_imbalance_mean,
        "shard_ops_mean": list(agg.shard_ops_mean),
        "shard_costs_mean": list(agg.shard_costs_mean),
        "shard_read_amps_mean": list(agg.shard_read_amps_mean),
        # Phase-1 ingest accounting (additive keys; serial defaults for
        # runs without the concurrent write pipeline).
        "write_pipeline": agg.write_pipeline,
        "ingest_wall_seconds_mean": agg.ingest_wall_seconds_mean,
        "write_stall_count_mean": agg.write_stall_count_mean,
        "flush_overlap_fraction_mean": agg.flush_overlap_fraction_mean,
    }


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

    @property
    def plane_used(self) -> str:
        """The data plane phase 1 ran on ("fast" or "reference").

        Resolved from the run's base config; per-point resolution lives
        on each :meth:`cells` row, so a plane flip inside a sweep (none
        of the registered parameters can cause one today) would still be
        recorded faithfully.
        """
        return resolve_plane(self.config)

    @property
    def read_phase_served(self) -> bool:
        """True when at least one cell replayed reads/scans (serving phase)."""
        return any(
            agg.reads_mean or agg.scans_mean
            for result in self.results.values()
            for per_strategy in (
                [point.per_strategy for point in result.points]
                if isinstance(result, SweepResult)
                else [result.per_strategy]
            )
            for agg in per_strategy.values()
        )

    def cells(self) -> list[dict[str, Any]]:
        """Flat per-(distribution, x, strategy) metric rows for the store."""
        rows: list[dict[str, Any]] = []
        for distribution, result in self.results.items():
            if isinstance(result, SweepResult):
                for point in result.points:
                    plane = resolve_plane(point.config)
                    for label in result.labels:
                        rows.append(
                            {
                                "distribution": distribution,
                                # The executed sweep's own axis name
                                # (e.g. "update_percentage"), which is
                                # the unit point.x is expressed in — the
                                # spec's "update_fraction" values are
                                # fractions, not percentages.
                                "parameter": result.parameter,
                                "x": point.x,
                                "plane_used": plane,
                                **_cell_metrics(point.per_strategy[label]),
                            }
                        )
            else:
                # Plane eligibility never depends on the distribution,
                # so the base config's resolution covers every leg.
                plane = self.plane_used
                for label, agg in result.per_strategy.items():
                    rows.append(
                        {
                            "distribution": distribution,
                            "parameter": None,
                            "x": None,
                            "plane_used": plane,
                            **_cell_metrics(agg),
                        }
                    )
        return rows

    def render(self) -> str:
        """A terminal report: header plus tables/plots per distribution."""
        scenario = self.scenario
        lines = [
            f"== {scenario.name}: {scenario.title} ==",
            f"spec {scenario.spec_hash()}  runs={self.runs} jobs={self.jobs} "
            f"plane={self.plane_used}" + ("  [fast]" if self.fast else ""),
            f"config: {self.config.describe()}",
            "",
        ]
        for distribution, result in self.results.items():
            if len(self.results) > 1:
                lines.append(f"-- distribution: {distribution} --")
            if isinstance(result, SweepResult):
                lines.append(
                    _render_sweep_tables(
                        result, result.parameter, self.runs
                    )
                )
            else:
                config = replace(self.config, distribution=distribution)
                lines.append(
                    render_comparison_table(
                        config, result, scenario.strategies
                    )
                )
            lines.append("")
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
        fast variant (the CLI's ``--set``/``--backend``/... flags);
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

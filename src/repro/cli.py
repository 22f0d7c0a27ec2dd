"""``python -m repro`` — the unified experiment CLI.

One entry point for everything the repo can run::

    python -m repro list-scenarios                 # what exists
    python -m repro run fig7a --fast               # run a registered scenario
    python -m repro run read-heavy --runs 1 --set operationcount=2000
    python -m repro run --spec my_scenario.json    # run a JSON spec
    python -m repro sweep --parameter update_fraction --values 0,0.5,1
    python -m repro figures fig8 --out results/    # regenerate paper figures

``run``, ``sweep`` and ``figures`` share one execution path and record a
schema-versioned manifest under ``results/runs/`` (disable with
``--no-store``); ``figures <id>`` is ``run <id>`` plus the ``fig7`` /
``all`` groups and ``--out DIR`` for the ``<id>.txt`` artefacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional, Sequence

from .analysis.tables import format_table
from .core.estimator import available_estimators
from .errors import ReproError, ScenarioError
from .scenarios import (
    PANELS,
    REGISTRY,
    ExperimentRunner,
    ResultsStore,
    Scenario,
    ScenarioRun,
    SweepSpec,
)
from .scenarios.spec import SWEEP_PARAMETERS
from .scenarios.store import DEFAULT_STORE_ROOT
from .simulator.config import SimulationConfig


def _parse_set_value(text: str) -> Any:
    """``--set`` values: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_overrides(pairs: Optional[Sequence[str]]) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for pair in pairs or ():
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise argparse.ArgumentTypeError(
                f"--set expects KEY=VALUE, got {pair!r}"
            )
        overrides[key] = _parse_set_value(value)
    return overrides


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--values expects comma-separated numbers, got {text!r}"
        ) from None


def _add_common_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fast", action="store_true", help="reduced scale")
    parser.add_argument("--runs", type=int, default=None, help="independent runs")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the (point x run) cells; results are "
        "byte-identical for any value",
    )
    parser.add_argument(
        "--strategies",
        default=None,
        help="comma-separated strategy labels overriding the spec's grid",
    )
    parser.add_argument(
        "--estimator", default=None, choices=available_estimators(),
        help="union-cardinality oracle override (see docs/estimators.md)",
    )
    parser.add_argument(
        "--hll-precision", type=int, default=None,
        help="HyperLogLog precision p (registers = 2**p)",
    )
    parser.add_argument(
        "--num-shards", type=int, default=None,
        help="shard the keyspace over N independent engines "
        "(1 = unsharded; see docs/sharding.md)",
    )
    parser.add_argument(
        "--shard-skew", type=float, default=None,
        help="zipfian shard-weight exponent of the multi-tenant skew "
        "model (0 = equal shares)",
    )
    parser.add_argument(
        "--partitioner", default=None, choices=["hash", "range"],
        help="key -> shard routing for sharded runs",
    )
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        dest="overrides",
        help="override any SimulationConfig field (repeatable), e.g. "
        "--set operationcount=2000 --set k=4",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=DEFAULT_STORE_ROOT,
        help=f"results-store root for run manifests (default: {DEFAULT_STORE_ROOT})",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="do not write a run manifest",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print execution details (resolved runs/jobs, whether reads "
        "were served) after the report",
    )


def _collect_overrides(args: argparse.Namespace) -> dict[str, Any]:
    overrides = _parse_overrides(args.overrides)
    for key in (
        "estimator", "hll_precision", "num_shards", "shard_skew",
        "partitioner", "seed",
    ):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    return overrides


def _execute(
    args: argparse.Namespace,
    scenario: Scenario | str,
    executed: Optional[ScenarioRun] = None,
) -> ScenarioRun:
    """Run ``scenario`` (unless it comes in ``executed``), record the
    manifest and print the report."""
    strategies = None
    if args.strategies:
        strategies = tuple(
            label.strip() for label in args.strategies.split(",") if label.strip()
        )
    run = executed or ExperimentRunner(jobs=args.jobs).run(
        scenario,
        fast=args.fast,
        runs=args.runs,
        overrides=_collect_overrides(args),
        strategies=strategies,
    )
    path = None if args.no_store else ResultsStore(args.store).write(run)
    print(run.render(), end="")
    if args.verbose:
        read_phase = "; read phase: served" if run.read_phase_served else ""
        print(
            f"\n[runs={run.runs} jobs={run.jobs}{read_phase}]"
        )
    if path is not None:
        print(f"\n[manifest written to {path}]")
    return run


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    if args.spec is not None:
        try:
            document = json.loads(Path(args.spec).read_text())
        except OSError as exc:
            raise SystemExit(f"repro run: cannot read --spec: {exc}")
        except json.JSONDecodeError as exc:
            raise SystemExit(f"repro run: --spec is not valid JSON: {exc}")
        scenario: Scenario | str = Scenario.from_dict(document)
    elif args.scenario is not None:
        scenario = args.scenario
    else:
        raise SystemExit("repro run: give a scenario name or --spec FILE")
    _execute(args, scenario)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        recordcount=args.recordcount,
        operationcount=args.operationcount,
        memtable_capacity=args.memtable,
        distribution=args.distribution,
        update_fraction=args.update_fraction,
        k=args.k,
    )
    kwargs: dict[str, Any] = {}
    if args.strategies:
        kwargs["strategies"] = tuple(
            label.strip() for label in args.strategies.split(",") if label.strip()
        )
        args.strategies = None  # consumed; don't re-override in _execute
    scenario = Scenario(
        name="adhoc-sweep",
        title=f"ad-hoc {args.parameter} sweep",
        config=config,
        sweep=SweepSpec(
            args.parameter, _parse_values(args.values), n_sstables=args.n_sstables
        ),
        runs=args.runs if args.runs is not None else 3,
        tags=("adhoc",),
        **kwargs,
    )
    _execute(args, scenario)
    return 0


def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    scenarios = REGISTRY.scenarios(args.tag)
    if args.json:
        print(
            json.dumps(
                [scenario.to_dict() for scenario in scenarios],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    rows = []
    for scenario in scenarios:
        if scenario.sweep is not None:
            shape = f"{scenario.sweep.parameter} x{len(scenario.sweep.values)}"
        else:
            shape = "comparison"
        rows.append(
            [
                scenario.name,
                shape,
                ",".join(scenario.strategies),
                ",".join(scenario.distributions_for()),
                scenario.runs,
                ",".join(scenario.tags),
            ]
        )
    print(
        format_table(
            ["name", "shape", "strategies", "distributions", "runs", "tags"],
            rows,
            title=f"{len(rows)} registered scenarios "
            "(run one with `python -m repro run <name>`)",
        )
    )
    return 0


#: ``repro figures`` ids that stand for several panels.
_FIGURE_GROUPS = {"fig7": ("fig7a", "fig7b"), "all": tuple(PANELS)}
#: What a scenario is called, as opposed to what it executes.
_NAMING = ("name", "title", "description", "tags")


def _as_twin(run: ScenarioRun, twin: Scenario) -> Optional[ScenarioRun]:
    """``run`` under ``twin``'s name when the two registered specs
    execute the same experiment (fig7a / fig7b: one sweep read on two
    metrics), else ``None``."""
    naming = {key: getattr(twin, key) for key in _NAMING}
    if replace(REGISTRY.get(run.scenario.name), **naming) != twin:
        return None
    return replace(run, scenario=replace(run.scenario, **naming))


def _cmd_figures(args: argparse.Namespace) -> int:
    names = _FIGURE_GROUPS.get(args.experiment, (args.experiment,))
    if not set(names) <= set(PANELS):
        raise ScenarioError(
            f"unknown figure {args.experiment!r}; "
            f"known: {[*PANELS, *_FIGURE_GROUPS]}"
        )
    run = None
    for name in names:
        scenario = REGISTRY.get(name)
        run = _execute(args, scenario, run and _as_twin(run, scenario))
        if args.out is not None:
            panel = run.panel()
            args.out.mkdir(parents=True, exist_ok=True)
            path = args.out / f"{name}.txt"
            path.write_text(f"{panel.title}\n\n{panel.text}\n")
            print(f"[written to {path}]")
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Declarative experiment CLI for the compaction repro "
        "(scenarios, sweeps, paper figures).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a registered scenario (or a JSON spec) end to end"
    )
    run.add_argument(
        "scenario",
        nargs="?",
        default=None,
        help="registered scenario name (see list-scenarios)",
    )
    run.add_argument(
        "--spec", type=Path, default=None, help="JSON Scenario spec file"
    )
    _add_common_run_arguments(run)
    run.set_defaults(handler=_cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run an ad-hoc parameter sweep without registering it"
    )
    sweep.add_argument(
        "--parameter",
        required=True,
        choices=list(SWEEP_PARAMETERS),
    )
    sweep.add_argument(
        "--values", required=True, help="comma-separated sweep values"
    )
    sweep.add_argument("--recordcount", type=int, default=1000)
    sweep.add_argument("--operationcount", type=int, default=100_000)
    sweep.add_argument("--memtable", type=int, default=1000)
    sweep.add_argument(
        "--distribution",
        default="latest",
        choices=["uniform", "zipfian", "latest", "scrambled_zipfian"],
    )
    sweep.add_argument("--update-fraction", type=float, default=1.0)
    sweep.add_argument("--k", type=int, default=2, help="merge fan-in")
    sweep.add_argument(
        "--n-sstables",
        type=int,
        default=100,
        help="sstable count for memtable_capacity sweeps (Figure 8 style)",
    )
    _add_common_run_arguments(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    list_scenarios = sub.add_parser(
        "list-scenarios", help="show every registered scenario"
    )
    list_scenarios.add_argument("--tag", default=None, help="filter by tag")
    list_scenarios.add_argument(
        "--json", action="store_true", help="dump full specs as JSON"
    )
    list_scenarios.set_defaults(handler=_cmd_list_scenarios)

    figures = sub.add_parser(
        "figures", help="regenerate the paper's evaluation figures"
    )
    figures.add_argument(
        "experiment", help=" | ".join([*_FIGURE_GROUPS, *PANELS])
    )
    figures.add_argument(
        "--out", type=Path, default=None, help="directory for <id>.txt dumps"
    )
    _add_common_run_arguments(figures)
    figures.set_defaults(handler=_cmd_figures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

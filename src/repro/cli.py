"""``python -m repro`` — the unified experiment CLI.

One entry point for everything the repo can run::

    python -m repro list-scenarios                 # what exists
    python -m repro run fig7a --fast               # run a registered scenario
    python -m repro run read-heavy --runs 1 --set operationcount=2000
    python -m repro run --spec my_scenario.json    # run a JSON spec
    python -m repro sweep --parameter k --values 2,4 --set distribution=zipfian
    python -m repro figures fig8 --out results/    # regenerate paper figures

``run``, ``sweep`` and ``figures`` share one execution path and record a
schema-versioned manifest under ``results/runs/`` (disable with
``--no-store``); ``figures <id>`` is ``run <id>`` plus the ``fig7`` /
``all`` groups and ``--out DIR`` for the ``<id>.txt`` artefacts.
``--set KEY=VALUE`` is the one way to change a
:class:`~repro.simulator.config.SimulationConfig` field: no option
duplicates one.  ``sweep`` starts from ``SimulationConfig()``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional, Sequence

from .analysis.tables import format_table
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


def _parse_set(text: str) -> tuple[str, Any]:
    """One ``--set KEY=VALUE``; the value is an int, then a float, then
    the bare string."""
    key, separator, value = text.partition("=")
    if not separator or not key:
        raise argparse.ArgumentTypeError(f"expects KEY=VALUE, got {text!r}")
    for cast in (int, float):
        try:
            return key, cast(value)
        except ValueError:
            continue
    return key, value


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated numbers, got {text!r}"
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
        "--set",
        action="append",
        type=_parse_set,
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a SimulationConfig field (repeatable; the only way "
        "to change one), e.g. --set operationcount=2000 --set k=4",
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
        overrides=dict(args.overrides or ()),
        strategies=strategies,
    )
    path = None if args.no_store else ResultsStore(args.store).write(run)
    print(run.render(), end="")
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
    scenario = Scenario(
        name="adhoc-sweep",
        title=f"ad-hoc {args.parameter} sweep",
        config=SimulationConfig(),
        sweep=SweepSpec(
            args.parameter, args.values, n_sstables=args.n_sstables
        ),
        tags=("adhoc",),
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
        "--values",
        required=True,
        type=_parse_values,
        help="comma-separated sweep values",
    )
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

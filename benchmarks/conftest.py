"""Shared fixtures for the benchmark suite.

Scale control
-------------
Benches default to the paper's full settings (operationcount 100 000,
3 independent runs).  Set ``REPRO_BENCH_FAST=1`` to run a reduced pass
(20 000 operations, 1 run) while keeping every shape assertion intact.

Artifacts
---------
Every figure bench writes its rendered table + ASCII plot to
``results/<figure>.txt`` so the regenerated evaluation survives the
pytest run.  Expensive sweeps are computed once per session and shared
between the cost and time panels.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Mark every benchmark in this directory ``slow``.

    The tier-1 test command deselects ``slow`` (see pytest.ini), so the
    paper-scale sweeps only run when asked for with ``-m slow``.
    """
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)


def is_fast() -> bool:
    return os.environ.get("REPRO_BENCH_FAST", "0") not in ("0", "", "false")


@pytest.fixture(scope="session")
def bench_fast() -> bool:
    return is_fast()


@pytest.fixture(scope="session")
def bench_runs() -> int:
    return 1 if is_fast() else 3


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def figure_panel(name: str):
    """One paper figure through the path ``repro figures`` prints."""
    from repro.scenarios import ExperimentRunner

    return ExperimentRunner().run(name, fast=is_fast()).panel()


@pytest.fixture(scope="session")
def figure7_run():
    """The Figure 7 sweep (latest distribution) behind both panels."""
    from repro.scenarios import ExperimentRunner

    return ExperimentRunner().run("fig7a", fast=is_fast())


@pytest.fixture(scope="session")
def figure7_results(figure7_run):
    """Figure 7 panels shared by the cost (7a) and time (7b) benches:
    fig7b is the same spec under another name, read on another metric."""
    from repro.scenarios import REGISTRY

    fig7b = replace(figure7_run, scenario=REGISTRY.get("fig7b"))
    return figure7_run.panel(), fig7b.panel()


def write_artifact(results_dir: Path, name: str, result) -> Path:
    path = results_dir / f"{name}.txt"
    path.write_text(f"{result.title}\n\n{result.text}\n")
    return path


def series_payload(result) -> dict:
    """An ExperimentResult's series as JSON-friendly [x, y] pair lists."""
    return {
        label: [[float(x), float(y)] for x, y in points]
        for label, points in result.series.items()
    }


def write_bench_json(results_dir: Path, name: str, payload: dict) -> Path:
    """Machine-readable companion to the rendered ``results/*.txt``.

    Every bench writes a ``BENCH_<name>.json`` capturing its headline
    numbers (speedups, timed seconds, scale parameters) so the perf
    trajectory is diffable across PRs and uploadable as a CI artifact.
    Values must be JSON-serializable; keep them primitive.
    """
    path = results_dir / f"BENCH_{name}.json"
    machine = {"cpu_count": os.cpu_count() or 1}
    document = {"bench": name, "fast_mode": is_fast(), "machine": machine, **payload}
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path

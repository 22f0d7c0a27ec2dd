"""Declarative scenario/experiment API.

Scenarios are *data*: a frozen :class:`Scenario` spec (workload mix, key
distribution, config overrides, strategy grid, optional parameter
sweep), registered by name in :data:`REGISTRY`, executed by
:class:`ExperimentRunner` through the same sweep machinery the figure
goldens certify, drawn as the figure panel :data:`PANELS` declares for
them, and recorded as schema-versioned JSON manifests by
:class:`ResultsStore`.  See ``docs/scenarios.md`` and the unified CLI
(``python -m repro``).
"""

from .registry import PANELS, REGISTRY, ScenarioRegistry
from .runner import (
    ExperimentRunner,
    ScenarioRun,
    execute_sweep,
    render_comparison_table,
)
from .spec import SPEC_VERSION, SWEEP_PARAMETERS, Scenario, SweepSpec
from .store import SCHEMA_VERSION, ResultsStore, RunManifest

__all__ = [
    "PANELS",
    "REGISTRY",
    "SCHEMA_VERSION",
    "SPEC_VERSION",
    "SWEEP_PARAMETERS",
    "ExperimentRunner",
    "ResultsStore",
    "RunManifest",
    "Scenario",
    "ScenarioRegistry",
    "ScenarioRun",
    "SweepSpec",
    "execute_sweep",
    "render_comparison_table",
]

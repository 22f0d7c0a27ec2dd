"""The declarative scenario spec: experiments as data, not functions.

A :class:`Scenario` is a frozen, hashable description of one experiment:
the base :class:`~repro.simulator.SimulationConfig` (workload mix, key
distribution, kernels), the strategy grid, an optional parameter
:class:`SweepSpec`, an optional key-distribution axis, and the paper's
``runs`` repetition count.  Specs round-trip losslessly through
``to_dict``/``from_dict`` so they can live as JSON files or inline
dicts, and ``spec_hash`` fingerprints a spec for results-store
manifests.

Every figure of the paper's evaluation is a registered Scenario (see
:mod:`repro.scenarios.registry`); adding a new experiment means
registering a spec, not writing another ``figureN`` function.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional, Sequence

from ..errors import ScenarioError
from ..simulator.config import SimulationConfig
from ..simulator.phase2 import known_strategy_labels, strategy_labels
from ..simulator.runner import SWEEP_AXES
from ..ycsb.distributions import available_distributions

#: Sweepable SimulationConfig parameters (the simulator's axis table).
SWEEP_PARAMETERS: tuple[str, ...] = tuple(SWEEP_AXES)

#: Version of the ``to_dict`` wire format (bumped on breaking changes).
SPEC_VERSION = 1


def _as_tuple(value: Sequence) -> tuple:
    return value if isinstance(value, tuple) else tuple(value)


def _reject_duplicates(axis: str, values: tuple) -> None:
    """A repeated label would run twice but key one result: refuse it."""
    repeated = sorted({value for value in values if values.count(value) > 1})
    if repeated:
        raise ScenarioError(f"duplicate {axis} {repeated} in {list(values)}")


def _reject_unknown_fields(cls, data: Mapping[str, Any]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ScenarioError(
            f"unknown {cls.__name__} field(s) {unknown}; known: {sorted(known)}"
        )


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter and its grid of values.

    ``fast_values`` (optional) replaces ``values`` under ``--fast``;
    ``n_sstables`` only matters for ``memtable_capacity`` sweeps, where
    each point's ``operationcount`` is derived as
    ``capacity * n_sstables - recordcount`` (the Figure 8 construction).
    """

    parameter: str
    values: tuple[float, ...]
    fast_values: Optional[tuple[float, ...]] = None
    n_sstables: int = 100

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ScenarioError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"known: {list(SWEEP_PARAMETERS)}"
            )
        object.__setattr__(self, "values", _as_tuple(self.values))
        if not self.values:
            raise ScenarioError("sweep needs at least one value")
        if self.fast_values is not None:
            object.__setattr__(self, "fast_values", _as_tuple(self.fast_values))
        if self.n_sstables < 1:
            raise ScenarioError("n_sstables must be at least 1")

    def values_for(self, fast: bool) -> tuple[float, ...]:
        if fast and self.fast_values is not None:
            return self.fast_values
        return self.values

    def to_dict(self) -> dict[str, Any]:
        return {
            "parameter": self.parameter,
            "values": list(self.values),
            "fast_values": (
                None if self.fast_values is None else list(self.fast_values)
            ),
            "n_sstables": self.n_sstables,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        _reject_unknown_fields(cls, data)
        payload = dict(data)
        if payload.get("fast_values") is not None:
            payload["fast_values"] = tuple(payload["fast_values"])
        payload["values"] = tuple(payload.get("values", ()))
        return cls(**payload)


@dataclass(frozen=True)
class Scenario:
    """A complete, declarative experiment description."""

    name: str
    title: str
    config: SimulationConfig
    strategies: tuple[str, ...] = field(default_factory=strategy_labels)
    sweep: Optional[SweepSpec] = None
    #: Extra key-distribution axis (Figure 9 runs its sweep per
    #: distribution); empty means "just ``config.distribution``".
    distributions: tuple[str, ...] = ()
    runs: int = 3
    fast_runs: int = 1
    #: Config-field overrides applied under ``--fast`` (e.g. a reduced
    #: ``operationcount``); stored as sorted pairs so the spec stays
    #: hashable.  Constructors may pass a plain dict.
    fast_overrides: tuple[tuple[str, Any], ...] = ()
    description: str = ""
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        object.__setattr__(self, "strategies", _as_tuple(self.strategies))
        object.__setattr__(self, "distributions", _as_tuple(self.distributions))
        object.__setattr__(self, "tags", _as_tuple(self.tags))
        overrides = (
            self.fast_overrides.items()
            if isinstance(self.fast_overrides, Mapping)
            else map(tuple, self.fast_overrides)
        )
        # Sorted in both branches so pair-tuple input and dict input
        # normalize identically and to_dict round-trips compare equal.
        object.__setattr__(self, "fast_overrides", tuple(sorted(overrides)))
        if not self.strategies:
            raise ScenarioError("scenario needs at least one strategy label")
        _reject_duplicates("strategies", self.strategies)
        _reject_duplicates("distributions", self.distributions)
        known = set(known_strategy_labels())
        unknown = [label for label in self.strategies if label not in known]
        if unknown:
            raise ScenarioError(
                f"unknown strategy label(s) {unknown}; known: {sorted(known)}"
            )
        valid_distributions = set(available_distributions())
        bad = [d for d in self.distributions if d not in valid_distributions]
        if bad:
            raise ScenarioError(
                f"unknown distribution(s) {bad}; "
                f"known: {sorted(valid_distributions)}"
            )
        if self.runs < 1 or self.fast_runs < 1:
            raise ScenarioError("runs and fast_runs must be at least 1")
        # Fail on a bad override at registration, not n sweeps into a run.
        self.config.overridden(dict(self.fast_overrides))

    # ------------------------------------------------------------------
    # Variant resolution
    # ------------------------------------------------------------------
    def config_for(self, fast: bool = False) -> SimulationConfig:
        """The base config, with ``fast_overrides`` applied when asked."""
        if fast and self.fast_overrides:
            return self.config.overridden(dict(self.fast_overrides))
        return self.config

    def runs_for(self, fast: bool = False, runs: Optional[int] = None) -> int:
        if runs is not None:
            return runs
        return self.fast_runs if fast else self.runs

    def distributions_for(self) -> tuple[str, ...]:
        return self.distributions or (self.config.distribution,)

    # ------------------------------------------------------------------
    # Round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-serializable spec (inverse of :meth:`from_dict`)."""
        return {
            "spec_version": SPEC_VERSION,
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "config": self.config.to_dict(),
            "strategies": list(self.strategies),
            "sweep": None if self.sweep is None else self.sweep.to_dict(),
            "distributions": list(self.distributions),
            "runs": self.runs,
            "fast_runs": self.fast_runs,
            "fast_overrides": dict(self.fast_overrides),
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        payload = dict(data)
        version = payload.pop("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ScenarioError(
                f"unsupported spec_version {version!r} (this build reads "
                f"version {SPEC_VERSION})"
            )
        _reject_unknown_fields(cls, payload)
        if "config" in payload:
            config = payload["config"]
            if isinstance(config, Mapping):
                payload["config"] = SimulationConfig.from_dict(config)
        sweep = payload.get("sweep")
        if isinstance(sweep, Mapping):
            payload["sweep"] = SweepSpec.from_dict(sweep)
        try:
            return cls(**payload)
        except TypeError as exc:
            # e.g. a JSON spec missing required name/title/config keys
            raise ScenarioError(f"invalid scenario spec: {exc}") from None

    def spec_hash(self) -> str:
        """A stable fingerprint of the full spec (12 hex chars)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def describe(self) -> str:
        """One line for ``repro list-scenarios``."""
        if self.sweep is not None:
            shape = (
                f"sweep {self.sweep.parameter} x{len(self.sweep.values)}"
            )
        else:
            shape = "comparison"
        axes = [shape, f"{len(self.strategies)} strategies"]
        if self.distributions:
            axes.append(f"{len(self.distributions)} distributions")
        return f"{self.name}: {self.title} ({', '.join(axes)})"

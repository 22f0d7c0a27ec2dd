"""The scenario registry: every experiment this repo can run, by name.

The built-in entries re-express the paper's figures (fig7a/fig7b/fig8/
fig9a/fig9b), the distribution and related-work ablations, workload
presets the legacy drivers could not express at all (read-heavy,
scan-heavy time-series, shrinking-key-space churn), the six canonical
YCSB core workloads A-F, and kernel-knob sweeps (merge fan-in k, HLL
precision).  Every entry runs the fast columnar data plane under
``data_plane="auto"`` (asserted registry-wide by
tests/scenarios/test_registry.py; a scenario that genuinely needs the
operation-at-a-time loop must carry the ``reference-only`` tag).
User code registers additional scenarios with
``REGISTRY.register(Scenario(...))`` or loads them from JSON specs via
``Scenario.from_dict``.

:data:`PANELS` declares, by scenario name, how each paper figure is
drawn from its executed run; it is a table beside the registry rather
than a ``Scenario`` field so that specs, their wire format and their
hashes know nothing about rendering.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, Iterator, Optional

from ..analysis.experiments import (
    ExperimentResult,
    bound_gap_panel,
    cost_time_panel,
    series_panel,
)
from ..errors import ScenarioError
from ..simulator.config import SimulationConfig
from .spec import Scenario, SweepSpec

#: Figure 7 / 9a x-axis (update percentage of the write mix).
UPDATE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
#: Figure 8 x-axis (memtable capacity; fast drops the 10k point).
FIG8_CAPACITIES = (10, 100, 1000, 10_000)
FIG8_CAPACITIES_FAST = (10, 100, 1000)
#: Figure 9 distribution axis.
FIG9_DISTRIBUTIONS = ("uniform", "zipfian", "latest")
#: Figure 9b x-axis (run-phase operation count; fast divides by 5).
FIG9B_OPERATION_COUNTS = (20_000, 40_000, 60_000, 80_000, 100_000)

#: ``--fast`` reduction used by the figure-7-shaped scenarios.
_FAST_OPS = {"operationcount": 20_000}


class ScenarioRegistry:
    """Name -> :class:`Scenario` mapping with tag-based filtering."""

    def __init__(self) -> None:
        self._scenarios: dict[str, Scenario] = {}

    def register(self, scenario: Scenario, replace: bool = False) -> Scenario:
        if scenario.name in self._scenarios and not replace:
            raise ScenarioError(
                f"scenario {scenario.name!r} is already registered "
                "(pass replace=True to override)"
            )
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise ScenarioError(
                f"unknown scenario {name!r}; known: {self.names()}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._scenarios)

    def scenarios(self, tag: Optional[str] = None) -> tuple[Scenario, ...]:
        if tag is None:
            return tuple(self._scenarios.values())
        return tuple(
            scenario
            for scenario in self._scenarios.values()
            if tag in scenario.tags
        )

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)


def _figure_scenarios() -> list[Scenario]:
    fig7_base = SimulationConfig.figure7(0.0, "latest")
    fig7_sweep = SweepSpec("update_fraction", UPDATE_FRACTIONS)
    fig7a = Scenario(
        name="fig7a",
        title="compaction cost vs update percentage (latest distribution)",
        config=fig7_base,
        sweep=fig7_sweep,
        fast_overrides=_FAST_OPS,
        description="Paper Figure 7a: costactual for SI/SO/BT(I)/BT(O)/RANDOM "
        "across the insert/update spectrum.",
        tags=("figure", "paper"),
    )
    fig7b = replace(
        fig7a,
        name="fig7b",
        title="compaction time vs update percentage (latest distribution)",
        description="Paper Figure 7b: simulated compaction time (I/O + "
        "strategy overhead) for the same sweep as fig7a.",
    )
    fig8 = Scenario(
        name="fig8",
        title="BT(I) cost vs optimal lower bound (log-log memtable sweep)",
        config=SimulationConfig.figure8(memtable_capacity=1000),
        strategies=("BT(I)",),
        sweep=SweepSpec(
            "memtable_capacity",
            FIG8_CAPACITIES,
            fast_values=FIG8_CAPACITIES_FAST,
            n_sstables=100,
        ),
        description="Paper Figure 8: BT(I) against the LOPT bound while the "
        "memtable grows, 100 sstables, 60:40 update:insert.",
        tags=("figure", "paper"),
    )
    fig9a = Scenario(
        name="fig9a",
        title="cost vs completion time for SI (update percentage varied)",
        config=fig7_base,
        strategies=("SI",),
        sweep=fig7_sweep,
        distributions=FIG9_DISTRIBUTIONS,
        fast_overrides=_FAST_OPS,
        description="Paper Figure 9a: costactual predicts compaction time "
        "linearly while the update mix varies, per distribution.",
        tags=("figure", "paper"),
    )
    fig9b = Scenario(
        name="fig9b",
        title="cost vs completion time for SI (operationcount varied)",
        config=replace(fig7_base, update_fraction=0.6),
        strategies=("SI",),
        sweep=SweepSpec(
            "operationcount",
            FIG9B_OPERATION_COUNTS,
            fast_values=tuple(c // 5 for c in FIG9B_OPERATION_COUNTS),
        ),
        distributions=FIG9_DISTRIBUTIONS,
        description="Paper Figure 9b: the same linearity while the data size "
        "varies at a fixed 60% update mix.",
        tags=("figure", "paper"),
    )
    return [fig7a, fig7b, fig8, fig9a, fig9b]


#: Scenario name -> the renderer of its figure panel (``ScenarioRun ->
#: ExperimentResult``).  A sweep scenario without a row gets the generic
#: ``series_panel`` (cost and time tables); see ``ScenarioRun.panel``.
PANELS: dict[str, Callable[..., ExperimentResult]] = {
    "fig7a": partial(
        series_panel, metrics=("cost_actual",), figure="Figure 7a",
        xlabel="update %",
    ),
    "fig7b": partial(
        series_panel, metrics=("simulated_seconds",), figure="Figure 7b",
        xlabel="update %",
    ),
    "fig8": partial(
        bound_gap_panel, figure="Figure 8", column="memtable",
        xlabel="memtable size",
    ),
    "fig9a": partial(cost_time_panel, figure="Figure 9a", varied="update %"),
    "fig9b": partial(cost_time_panel, figure="Figure 9b", varied="operationcount"),
}


def _ablation_scenarios() -> list[Scenario]:
    distributions = Scenario(
        name="distributions",
        title="strategy comparison across key distributions (50% updates)",
        config=SimulationConfig.figure7(0.5, "latest", seed=21),
        distributions=("uniform", "zipfian", "latest"),
        fast_overrides=_FAST_OPS,
        description="The §5.2 'observations are similar' claim: the full "
        "strategy grid at the mid-spectrum mix under every distribution.",
        tags=("ablation",),
    )
    practical = Scenario(
        name="practical",
        title="paper policies vs practical strategies (STCS, Leveled)",
        config=SimulationConfig.figure7(0.25, "latest", seed=3),
        strategies=("SI", "BT(I)", "STCS", "LEVELED"),
        fast_overrides=_FAST_OPS,
        description="Related-work baseline: Cassandra's size-tiered and "
        "LevelDB's leveled compaction against the paper's major policies.",
        tags=("ablation", "related-work"),
    )
    return [distributions, practical]


def _preset_scenarios() -> list[Scenario]:
    """Workloads the legacy figure drivers could not express."""
    read_heavy = Scenario(
        name="read-heavy",
        title="read-heavy zipfian mix (80% reads)",
        config=SimulationConfig(
            recordcount=1000,
            operationcount=100_000,
            memtable_capacity=1000,
            distribution="zipfian",
            update_fraction=0.5,
            read_fraction=0.8,
        ),
        fast_overrides=_FAST_OPS,
        description="YCSB-B-shaped mix: 80% reads over a zipfian key space; "
        "the 20% write slice splits evenly into inserts and updates, so "
        "compaction works on a much sparser sstable stream.",
        tags=("preset", "workload"),
    )
    timeseries = Scenario(
        name="timeseries-scan",
        title="time-series append stream with recent-window scans",
        config=SimulationConfig(
            recordcount=1000,
            operationcount=100_000,
            memtable_capacity=1000,
            distribution="latest",
            update_fraction=0.2,
            read_fraction=0.1,
            scan_fraction=0.2,
        ),
        fast_overrides=_FAST_OPS,
        description="Append-mostly time-series shape: 56% inserts, 14% "
        "updates, 20% scans and 10% reads over the latest distribution — "
        "sstables barely overlap, the worst case for output-sensitive "
        "policies' estimation overhead.",
        tags=("preset", "workload"),
    )
    churn = Scenario(
        name="churn",
        title="shrinking-key-space churn (deletes outpace inserts)",
        config=SimulationConfig(
            recordcount=2000,
            operationcount=100_000,
            memtable_capacity=1000,
            distribution="uniform",
            update_fraction=0.5,
            delete_fraction=0.5,
        ),
        fast_overrides=_FAST_OPS,
        description="Churn shape: 50% deletes vs 25% inserts shrink the live "
        "key space over time, so tombstone GC dominates the final merges.",
        tags=("preset", "workload"),
    )
    return [read_heavy, timeseries, churn]


def _ycsb_scenarios() -> list[Scenario]:
    """The canonical YCSB core workloads A-F as scenarios.

    The operation mixes mirror :mod:`repro.ycsb.presets` expressed in
    ``SimulationConfig``'s mix fields (``update_fraction`` is the update
    share of the *write* slice, so a pure read/update mix sets it to
    1.0).  Workload F's read-modify-write is modeled as an update — the
    write half is what reaches the storage engine.  All six run the
    columnar fast plane; reads and scans consume the rng stream and are
    dropped before the memtable, exactly like the reference loop.
    """
    base = dict(
        recordcount=1000,
        operationcount=100_000,
        memtable_capacity=1000,
    )
    mixes = {
        "a": dict(
            title="YCSB A: 50% read / 50% update (zipfian)",
            config=SimulationConfig(
                distribution="zipfian", update_fraction=1.0,
                read_fraction=0.5, **base,
            ),
        ),
        "b": dict(
            title="YCSB B: 95% read / 5% update (zipfian)",
            config=SimulationConfig(
                distribution="zipfian", update_fraction=1.0,
                read_fraction=0.95, **base,
            ),
        ),
        "c": dict(
            title="YCSB C: 100% read (zipfian)",
            # Reads-only run phase: every sstable comes from the load
            # phase, so a 10x recordcount keeps phase 2 non-trivial.
            config=SimulationConfig(
                distribution="zipfian", update_fraction=1.0,
                read_fraction=1.0, **{**base, "recordcount": 10_000},
            ),
        ),
        "d": dict(
            title="YCSB D: 95% read / 5% insert (latest)",
            config=SimulationConfig(
                distribution="latest", update_fraction=0.0,
                read_fraction=0.95, **base,
            ),
        ),
        "e": dict(
            title="YCSB E: 95% scan / 5% insert (zipfian)",
            config=SimulationConfig(
                distribution="zipfian", update_fraction=0.0,
                scan_fraction=0.95, **base,
            ),
        ),
        "f": dict(
            title="YCSB F: 50% read / 50% read-modify-write (zipfian)",
            config=SimulationConfig(
                distribution="zipfian", update_fraction=1.0,
                read_fraction=0.5, seed=1, **base,
            ),
        ),
    }
    return [
        Scenario(
            name=f"ycsb-{letter}",
            title=entry["title"],
            config=entry["config"],
            fast_overrides=_FAST_OPS,
            description="Canonical YCSB core workload "
            f"{letter.upper()} (see repro.ycsb.presets) over the paper's "
            "two-phase simulator.",
            tags=("preset", "ycsb"),
        )
        for letter, entry in mixes.items()
    ]


def _sweep_scenarios() -> list[Scenario]:
    """Kernel-knob grids (the scenario layer's newest sweep axes)."""
    k_sweep = Scenario(
        name="k-sweep",
        title="merge fan-in ablation (k = 2..8, 50% updates)",
        config=SimulationConfig.figure7(0.5, "latest", seed=5),
        strategies=("SI", "BT(I)"),
        sweep=SweepSpec("k", (2, 3, 4, 6, 8)),
        fast_overrides=_FAST_OPS,
        description="How the merge fan-in bound k trades re-merge cost "
        "against tree depth for the input-sensitive policies.",
        tags=("preset", "sweep"),
    )
    hll_sweep = Scenario(
        name="hll-sweep",
        title="HLL precision ablation (output-sensitive strategies)",
        config=SimulationConfig.figure7(0.5, "latest", seed=13),
        strategies=("SO", "BT(O)"),
        sweep=SweepSpec("hll_precision", (8, 10, 12, 14)),
        fast_overrides=_FAST_OPS,
        description="Estimation resolution vs schedule quality: sweep "
        "the HyperLogLog register count under the strategies that "
        "consult it.",
        tags=("preset", "sweep"),
    )
    return [k_sweep, hll_sweep]


def _cluster_scenarios() -> list[Scenario]:
    """The scale-out tier's presets (see docs/sharding.md)."""
    shard_sweep = Scenario(
        name="shard-sweep",
        title="scale-out ablation (1..8 hash shards, 50% updates)",
        config=SimulationConfig.figure7(0.5, "latest", seed=17),
        strategies=("SI", "SO", "BT(I)", "LM"),
        sweep=SweepSpec("num_shards", (1, 2, 4, 8)),
        fast_overrides=_FAST_OPS,
        description="Shard the keyspace over 1..8 independent engines "
        "(hash partitioner, equal weights): does the cluster makespan "
        "under the shared lane budget shrink faster than the summed "
        "compaction cost grows?",
        tags=("preset", "cluster"),
    )
    multi_tenant = Scenario(
        name="multi-tenant",
        title="multi-tenant shard skew (8 shards, zipfian weights)",
        config=replace(
            SimulationConfig.figure7(0.5, "zipfian", seed=23),
            num_shards=8,
        ),
        strategies=("SI", "SO", "BT(I)", "LM"),
        sweep=SweepSpec("shard_skew", (0.0, 0.5, 0.9, 0.99)),
        fast_overrides=_FAST_OPS,
        description="Hot-tenant model: zipfian weights concentrate "
        "traffic on a few of 8 shards while zipfian keys skew within "
        "each — the ROADMAP's 'does SO's estimation overhead amortize "
        "better than LM's under skewed shards?' experiment.",
        tags=("preset", "cluster"),
    )
    return [shard_sweep, multi_tenant]


#: The process-wide registry, pre-populated with the built-ins.
REGISTRY = ScenarioRegistry()
for _scenario in (
    _figure_scenarios()
    + _ablation_scenarios()
    + _preset_scenarios()
    + _ycsb_scenarios()
    + _sweep_scenarios()
    + _cluster_scenarios()
):
    REGISTRY.register(_scenario)
del _scenario

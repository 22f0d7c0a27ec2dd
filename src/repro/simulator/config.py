"""Configuration of the two-phase evaluation simulator (paper §5.1).

One :class:`SimulationConfig` captures everything a run needs: the YCSB
workload parameters (recordcount, operationcount, distribution, the
insert/update mix), the memtable capacity that determines sstable
boundaries, the merge fan-in ``k`` and the disk timing model.  The
paper's defaults are the §5.2 settings: recordcount 1000, operationcount
100 000, memtable size 1000, latest distribution, k = 2.

A config holds the experiment, not the implementation that computes
it: the set backend, the merge and read kernels and the phase-1 plane
are fixed by the simulator (bitset, the columnar kernels, the fast
plane), and their oracles are reached through the seams the tests call
(``MajorCompaction(backend=...)``, ``merge_kernel``,
``serve_reads(kernel=...)``,
:func:`~repro.simulator.phase1.generate_sstables_reference`,
:func:`~repro.simulator.phase1.spill_tables_to_disk`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping

from ..errors import ConfigError
from ..lsm.disk import (
    DEFAULT_BANDWIDTH_BYTES_PER_SEC,
    DEFAULT_SEEK_SECONDS,
    DiskTimingModel,
)
from ..ycsb.distributions import available_distributions
from ..ycsb.workload import WorkloadConfig

#: Removed fields that a stored spec may still hold: manifests written
#: while they existed record them.  Each chose an implementation, never
#: an outcome (none of their values ever changed a deterministic
#: output), so :meth:`SimulationConfig.from_dict` drops them.
_RETIRED_FIELDS = frozenset(
    {
        "merge_executor",
        "merge_workers",
        "write_pipeline",
        "max_immutable_memtables",
        "flush_workers",
        "backend",
        "data_plane",
        "storage",
        "wal_sync_every",
    }
)


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulator run."""

    recordcount: int = 1000
    operationcount: int = 100_000
    memtable_capacity: int = 1000
    distribution: str = "latest"
    update_fraction: float = 1.0
    k: int = 2
    # Optional non-write proportions of the operation mix, as absolute
    # fractions of all run-phase operations.  The paper's experiments use
    # insert/update mixes only (all three default to 0.0, which keeps
    # the historical mix semantics bit-for-bit); scenario presets layer
    # reads, scans and deletes on top.  ``update_fraction`` keeps its
    # paper meaning — the update share of the remaining *insert/update*
    # slice — so ``insert = w * (1 - u)`` and ``update = w * u`` where
    # ``w = 1 - read - scan - delete``.
    read_fraction: float = 0.0
    scan_fraction: float = 0.0
    delete_fraction: float = 0.0
    value_size: int = 100
    memtable_mode: str = "append"  # paper semantics: capacity counts ops
    bloom_fp_rate: float = 0.01
    hll_precision: int = 12
    parallel_lanes: int = 8
    disk_bandwidth: float = DEFAULT_BANDWIDTH_BYTES_PER_SEC
    disk_seek_seconds: float = DEFAULT_SEEK_SECONDS
    seed: int = 0
    # Union-cardinality oracle for the output-sensitive strategies (the
    # "SO" and "BT(O)" labels): "hll" is the paper's practical scheme,
    # "exact" the reference.  "SO(exact)" ignores this and stays exact.
    estimator: str = "hll"
    # Scale-out tier (see docs/sharding.md).  Every cell is a cluster:
    # ``partitioner`` ("hash" or "range") routes the op stream over
    # ``num_shards`` independent engine/strategy instances (one by
    # default, where the split is the identity); ``shard_skew`` is the
    # zipfian exponent of the multi-tenant shard-weight model (0.0 =
    # equal shares).
    num_shards: int = 1
    shard_skew: float = 0.0
    partitioner: str = "hash"

    def __post_init__(self) -> None:
        # Normalize + validate the estimator name eagerly so a typo
        # fails at configuration time, not n sweeps into an experiment.
        from ..core.estimator import canonical_estimator_name
        from ..errors import EstimatorError
        from ..hll.hyperloglog import MAX_PRECISION, MIN_PRECISION

        # Types first: the checks below compare numbers and lower-case
        # names, and a string fraction or an int estimator otherwise dies
        # as a bare TypeError naming no field.  A bool is an int to
        # Python (a JSON ``true`` would run as 1), so no numeric field
        # takes one.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type in ("int", "float") and isinstance(value, bool):
                raise ConfigError(f"{spec.name} must be a number, got {value!r}")
            if spec.type == "int" and not isinstance(value, int):
                raise ConfigError(
                    f"{spec.name} must be an integer, got {value!r}"
                )
            if spec.type == "float" and not isinstance(value, (int, float)):
                raise ConfigError(f"{spec.name} must be a number, got {value!r}")
            if spec.type == "str" and not isinstance(value, str):
                raise ConfigError(f"{spec.name} must be a string, got {value!r}")
        try:
            object.__setattr__(
                self, "estimator", canonical_estimator_name(self.estimator)
            )
        except EstimatorError as exc:
            raise ConfigError(str(exc)) from None
        if not MIN_PRECISION <= self.hll_precision <= MAX_PRECISION:
            raise ConfigError(
                f"hll_precision must be in [{MIN_PRECISION}, {MAX_PRECISION}], "
                f"got {self.hll_precision}"
            )
        if self.memtable_mode not in ("append", "map"):
            raise ConfigError(
                f"memtable_mode must be 'append' or 'map', "
                f"got {self.memtable_mode!r}"
            )
        if not 0.0 < self.bloom_fp_rate < 1.0:
            raise ConfigError(
                f"bloom_fp_rate must be in (0, 1), got {self.bloom_fp_rate!r}"
            )
        distribution = self.distribution.lower()
        if distribution not in available_distributions():
            raise ConfigError(
                f"distribution must be one of {available_distributions()}, "
                f"got {self.distribution!r}"
            )
        object.__setattr__(self, "distribution", distribution)
        if not 0.0 <= self.update_fraction <= 1.0:
            raise ConfigError("update_fraction must be in [0, 1]")
        for name in ("read_fraction", "scan_fraction", "delete_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        # Tolerance matches workload_config's clamp: an exactly-100%
        # non-write mix must neither be rejected here (float sum can
        # land at 1.0 + 2e-16) nor produce a negative write share later.
        non_write = self.read_fraction + self.scan_fraction + self.delete_fraction
        if non_write > 1.0 + 1e-9:
            raise ConfigError(
                "read_fraction + scan_fraction + delete_fraction must not "
                "exceed 1.0"
            )
        if self.k < 2:
            raise ConfigError("merge fan-in k must be at least 2")
        if self.memtable_capacity < 1:
            raise ConfigError("memtable_capacity must be at least 1")
        if self.parallel_lanes < 1:
            raise ConfigError("parallel_lanes must be at least 1")
        from ..cluster.partitioner import PARTITIONER_NAMES

        if self.partitioner not in PARTITIONER_NAMES:
            raise ConfigError(
                f"partitioner must be one of {PARTITIONER_NAMES}, "
                f"got {self.partitioner!r}"
            )
        if self.num_shards < 1:
            raise ConfigError(
                f"num_shards must be at least 1, got {self.num_shards}"
            )
        if not self.shard_skew >= 0.0:
            raise ConfigError(
                f"shard_skew must be >= 0, got {self.shard_skew!r}"
            )
        # Build both derived objects once so their own validators
        # (recordcount, operationcount, value_size; bandwidth, seek) run
        # at configuration time, not inside the first cell or a worker.
        self.workload_config()
        try:
            self.timing_model()
        except ConfigError as exc:
            raise ConfigError(
                f"disk_bandwidth / disk_seek_seconds: {exc}"
            ) from None

    def workload_config(self) -> WorkloadConfig:
        """The YCSB workload this simulation drives.

        With the non-write fractions at their 0.0 defaults this is the
        paper's pure insert/update mix, with proportions identical to
        the historical :meth:`WorkloadConfig.insert_update_mix` call —
        the write stream (and therefore every figure) is bit-for-bit
        unchanged.
        """
        write_share = max(
            0.0,
            1.0 - self.read_fraction - self.scan_fraction - self.delete_fraction,
        )
        return WorkloadConfig(
            recordcount=self.recordcount,
            operationcount=self.operationcount,
            insert_proportion=write_share * (1.0 - self.update_fraction),
            update_proportion=write_share * self.update_fraction,
            read_proportion=self.read_fraction,
            scan_proportion=self.scan_fraction,
            delete_proportion=self.delete_fraction,
            distribution=self.distribution,
            seed=self.seed,
            value_size=self.value_size,
        )

    def timing_model(self) -> DiskTimingModel:
        return DiskTimingModel(
            bandwidth_bytes_per_sec=self.disk_bandwidth,
            seek_seconds=self.disk_seek_seconds,
        )

    def with_seed(self, seed: int) -> "SimulationConfig":
        """The same configuration with a different RNG seed."""
        return replace(self, seed=seed)

    # ------------------------------------------------------------------
    # Round-tripping (the declarative scenario layer stores configs as
    # plain dicts so specs can live as JSON).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """All fields as a JSON-serializable dict (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def _reject_unknown_fields(cls, data: Mapping[str, Any]) -> None:
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown SimulationConfig field(s) {unknown}; "
                f"known: {sorted(known)}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`~repro.errors.ConfigError` so a typo
        in a JSON spec fails loudly instead of silently using a default;
        omitted keys take the field defaults, which lets specs stay
        minimal.  Removed fields (``_RETIRED_FIELDS``) are dropped, whatever
        their value.
        """
        data = {
            key: value for key, value in data.items() if key not in _RETIRED_FIELDS
        }
        cls._reject_unknown_fields(data)
        return cls(**data)

    def overridden(self, overrides: Mapping[str, Any]) -> "SimulationConfig":
        """``replace`` with field-name validation (used by CLI ``--set``)."""
        self._reject_unknown_fields(overrides)
        if not overrides:
            return self
        return replace(self, **dict(overrides))

    def describe(self) -> str:
        """One line summarizing the run-defining knobs (for CLI/manifests)."""
        parts = [
            f"{self.distribution}",
            f"update={self.update_fraction:.0%}",
            f"ops={self.operationcount}",
            f"records={self.recordcount}",
            f"memtable={self.memtable_capacity}",
            f"k={self.k}",
            f"estimator={self.estimator}",
            f"seed={self.seed}",
        ]
        for name in ("read_fraction", "scan_fraction", "delete_fraction"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name.split('_')[0]}={value:.0%}")
        if self.num_shards > 1:
            parts.append(f"shards={self.num_shards}x{self.partitioner}")
            if self.shard_skew:
                parts.append(f"shard_skew={self.shard_skew:g}")
        return " ".join(parts)

    @classmethod
    def figure7(
        cls, update_fraction: float, distribution: str = "latest", seed: int = 0
    ) -> "SimulationConfig":
        """The §5.2 settings behind Figure 7."""
        return cls(
            recordcount=1000,
            operationcount=100_000,
            memtable_capacity=1000,
            distribution=distribution,
            update_fraction=update_fraction,
            seed=seed,
        )

    @classmethod
    def figure8(
        cls,
        memtable_capacity: int,
        n_sstables: int = 100,
        distribution: str = "latest",
        seed: int = 0,
    ) -> "SimulationConfig":
        """The §5.3 settings behind Figure 8.

        ``operationcount = memtable_capacity * n_sstables - recordcount``
        so the workload produces exactly ``n_sstables`` memtable flushes.
        """
        recordcount = 1000
        operationcount = memtable_capacity * n_sstables - recordcount
        if operationcount < 0:
            raise ConfigError(
                "memtable_capacity * n_sstables must cover the recordcount"
            )
        return cls(
            recordcount=recordcount,
            operationcount=operationcount,
            memtable_capacity=memtable_capacity,
            distribution=distribution,
            update_fraction=0.6,  # the paper's 60:40 update:insert ratio
            seed=seed,
        )

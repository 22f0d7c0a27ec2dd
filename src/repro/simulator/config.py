"""Configuration of the two-phase evaluation simulator (paper §5.1).

One :class:`SimulationConfig` captures everything a run needs: the YCSB
workload parameters (recordcount, operationcount, distribution, the
insert/update mix), the memtable capacity that determines sstable
boundaries, the merge fan-in ``k`` and the disk timing model.  The
paper's defaults are the §5.2 settings: recordcount 1000, operationcount
100 000, memtable size 1000, latest distribution, k = 2.
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
    # Set kernel for the merge policies.  The bitset kernel is exact
    # (schedules are bit-identical to frozenset; the differential
    # harness in tests/core/test_backend_equivalence.py enforces it) and
    # several times faster at paper scale, so the experiment drivers
    # default to it; the core library default stays "frozenset".
    backend: str = "bitset"
    # Union-cardinality oracle for the output-sensitive strategies (the
    # "SO" and "BT(O)" labels): "hll" is the paper's practical scheme,
    # "exact" the reference.  "SO(exact)" ignores this and stays exact.
    estimator: str = "hll"
    # Simulator data plane.  "auto" runs phase 1 through the batched
    # columnar pipeline and compaction merges through the columnar
    # kernel — every expressible configuration is eligible (map mode and
    # read/scan/delete mixes included; bit-identical to the reference,
    # see docs/simulator.md) — "fast" requires it (raising on the
    # exceptional ineligible shapes), "reference" forces the
    # operation-at-a-time engine loop and the heap merge kernel
    # (unsharded only: shards ingest on the columnar plane).
    data_plane: str = "auto"
    # Real merge-execution backend for phase-2 schedules: "serial" (the
    # reference loop — the default, so all goldens stay byte-identical)
    # or "thread" (workers drive the GIL-releasing columnar kernel).
    # Outputs and cost metrics are byte-identical for both and for every
    # worker count; only measured wall clock differs (see
    # docs/concurrency.md).
    merge_executor: str = "serial"
    # Real workers for the thread executor; 0 = one per CPU.
    merge_workers: int = 0
    # Phase-1 sstable storage: "memory" (the default — tables live as
    # Python objects, all goldens byte-identical) or "disk" (every
    # flushed table is spilled through the on-disk sstable format and
    # reloaded before phase 2; results are byte-identical by the format
    # round-trip guarantee, see docs/durability.md).
    storage: str = "memory"
    # Scale-out tier (see docs/sharding.md).  ``num_shards > 1`` routes
    # the op stream over that many independent engine/strategy instances
    # via ``partitioner`` ("hash" or "range"); ``shard_skew`` is the
    # zipfian exponent of the multi-tenant shard-weight model (0.0 =
    # equal shares).  The defaults keep every historical run on the
    # unsharded path, byte-identical.
    num_shards: int = 1
    shard_skew: float = 0.0
    partitioner: str = "hash"
    # Concurrent write pipeline (see docs/concurrency.md, part 2).
    # ``write_pipeline=True`` runs phase-1 ingest through the freeze/
    # immutable-queue/background-flush pipeline: flush slabs build on
    # ``flush_workers`` threads (0 = one per CPU) while ingest proceeds,
    # bounded by ``max_immutable_memtables`` in-flight flushes
    # (backpressure stalls are counted).  Tables are byte-identical to
    # the serial path for any worker count; the default stays serial so
    # every golden is unchanged.
    write_pipeline: bool = False
    max_immutable_memtables: int = 2
    flush_workers: int = 0
    # Group-commit knob of the file WAL used by ``storage="disk"`` runs:
    # sync after every Nth framed append (1 = sync each record).
    wal_sync_every: int = 1

    def __post_init__(self) -> None:
        # Normalize + validate the backend/estimator names eagerly so a
        # typo fails at configuration time, not n sweeps into an
        # experiment.
        from ..core.backend import canonical_backend_name
        from ..core.estimator import canonical_estimator_name
        from ..errors import BackendError, EstimatorError
        from ..hll.hyperloglog import MAX_PRECISION, MIN_PRECISION

        # Integer fields first: the comparisons below assume numbers,
        # and a float capacity or a string seed otherwise dies as a bare
        # TypeError inside the first cell.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type == "int" and not isinstance(value, int):
                raise ConfigError(
                    f"{spec.name} must be an integer, got {value!r}"
                )
        try:
            object.__setattr__(
                self, "backend", canonical_backend_name(self.backend)
            )
            object.__setattr__(
                self, "estimator", canonical_estimator_name(self.estimator)
            )
        except (BackendError, EstimatorError) as exc:
            raise ConfigError(str(exc)) from None
        if not MIN_PRECISION <= self.hll_precision <= MAX_PRECISION:
            raise ConfigError(
                f"hll_precision must be in [{MIN_PRECISION}, {MAX_PRECISION}], "
                f"got {self.hll_precision}"
            )
        if self.data_plane not in ("auto", "fast", "reference"):
            raise ConfigError(
                f"data_plane must be 'auto', 'fast' or 'reference', "
                f"got {self.data_plane!r}"
            )
        if self.storage not in ("memory", "disk"):
            raise ConfigError(
                f"storage must be 'memory' or 'disk', got {self.storage!r}"
            )
        from ..lsm.compaction.executor import MERGE_EXECUTORS

        if self.merge_executor not in MERGE_EXECUTORS:
            raise ConfigError(
                f"merge_executor must be one of {MERGE_EXECUTORS}, "
                f"got {self.merge_executor!r}"
            )
        if self.merge_workers < 0:
            raise ConfigError(
                f"merge_workers must be >= 0 (0 = one per CPU), "
                f"got {self.merge_workers}"
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
        if str(self.distribution).lower() not in available_distributions():
            raise ConfigError(
                f"distribution must be one of {available_distributions()}, "
                f"got {self.distribution!r}"
            )
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
        if self.num_shards > 1 and self.data_plane == "reference":
            # Shards ingest through phase1_from_columns only; accepting
            # the pair would record "reference" for a fast-plane run.
            raise ConfigError(
                "data_plane='reference' is unsharded only: there is no "
                f"sharded reference plane (num_shards={self.num_shards})"
            )
        if not self.shard_skew >= 0.0:
            raise ConfigError(
                f"shard_skew must be >= 0, got {self.shard_skew!r}"
            )
        # Accept truthy ints from --set write_pipeline=1 and JSON specs.
        object.__setattr__(self, "write_pipeline", bool(self.write_pipeline))
        if self.max_immutable_memtables < 1:
            raise ConfigError(
                f"max_immutable_memtables must be at least 1, "
                f"got {self.max_immutable_memtables}"
            )
        if self.flush_workers < 0:
            raise ConfigError(
                f"flush_workers must be >= 0 (0 = one per CPU), "
                f"got {self.flush_workers}"
            )
        if self.wal_sync_every < 1:
            raise ConfigError(
                f"wal_sync_every must be at least 1, got {self.wal_sync_every}"
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
        minimal.
        """
        cls._reject_unknown_fields(data)
        try:
            return cls(**dict(data))
        except TypeError as exc:
            raise ConfigError(f"invalid SimulationConfig value: {exc}") from None

    def overridden(self, overrides: Mapping[str, Any]) -> "SimulationConfig":
        """``replace`` with field-name validation (used by CLI ``--set``)."""
        self._reject_unknown_fields(overrides)
        if not overrides:
            return self
        try:
            return replace(self, **dict(overrides))
        except TypeError as exc:
            # e.g. --set k=two: the validation comparison in
            # __post_init__ raises TypeError on a non-numeric value.
            raise ConfigError(f"invalid SimulationConfig value: {exc}") from None

    def describe(self) -> str:
        """One line summarizing the run-defining knobs (for CLI/manifests)."""
        parts = [
            f"{self.distribution}",
            f"update={self.update_fraction:.0%}",
            f"ops={self.operationcount}",
            f"records={self.recordcount}",
            f"memtable={self.memtable_capacity}",
            f"k={self.k}",
            f"backend={self.backend}",
            f"estimator={self.estimator}",
            f"seed={self.seed}",
        ]
        for name in ("read_fraction", "scan_fraction", "delete_fraction"):
            value = getattr(self, name)
            if value:
                parts.append(f"{name.split('_')[0]}={value:.0%}")
        if self.data_plane != "auto":
            parts.append(f"data_plane={self.data_plane}")
        if self.storage != "memory":
            parts.append(f"storage={self.storage}")
        if self.merge_executor != "serial":
            workers = self.merge_workers or "auto"
            parts.append(f"merge={self.merge_executor}x{workers}")
        if self.num_shards > 1:
            parts.append(f"shards={self.num_shards}x{self.partitioner}")
            if self.shard_skew:
                parts.append(f"shard_skew={self.shard_skew:g}")
        if self.write_pipeline:
            workers = self.flush_workers or "auto"
            parts.append(
                f"pipeline=imm{self.max_immutable_memtables}x{workers}"
            )
        if self.wal_sync_every != 1:
            parts.append(f"wal_sync_every={self.wal_sync_every}")
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

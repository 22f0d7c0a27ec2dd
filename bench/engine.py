"""The two engine workloads: an op-at-a-time closed loop with one client.

The untraced pass drives ``CompactionController.apply`` — what a user of
the engine calls — and times each operation.  The traced pass drives
``engine.apply`` and ``controller.maybe_compact`` apart, so compaction
has its own spans, watches ``flush_count`` for the writes that stalled
on a flush, and (durable engine only) hands ``DurableLSMEngine.open`` a
counting ``fs=`` wrapper: the one public seam through which the
``lsm.format`` layer can be observed from outside.
"""

from __future__ import annotations

import copy
import gc
import math
import random
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.lsm import (
    CompactionController,
    CrashPoint,
    DurableLSMEngine,
    EngineConfig,
    FaultInjectedFileSystem,
    FaultPlan,
    LeveledCompaction,
    LocalFileSystem,
    LSMEngine,
    MemoryFileSystem,
    SizeTieredCompaction,
    measure_amplification,
)
from repro.ycsb.operations import OperationType
from repro.ycsb.workload import CoreWorkload, WorkloadConfig

from . import WARMUP_SCALE, oracle
from .metrics import Sample, percentile
from .tracing import END, START, Tracer

STRATEGIES = {"STCS": SizeTieredCompaction, "LEVELED": LeveledCompaction}

PUT, GET, SCAN, DELETE = range(4)
_KIND = {
    OperationType.INSERT: PUT,
    OperationType.UPDATE: PUT,
    OperationType.READ: GET,
    OperationType.SCAN: SCAN,
    OperationType.DELETE: DELETE,
}
_SPAN_NAMES = (
    "lsm.engine.put", "lsm.engine.get", "lsm.engine.scan", "lsm.engine.delete"
)

#: The crash check's own shape: a 20k-op run of the workload's mix on a
#: memtable small enough that flushes, manifest commits and compactions
#: all fall inside the window a crash can land in.
CRASH_CHECK_OPS = 20_000
CRASH_CHECK_MEMTABLE = 500
CRASH_POINTS = 3


@dataclass
class FormatCounters:
    """What the durable engine asked of its filesystem, and for how long."""

    appends: int = 0
    append_bytes: int = 0
    syncs: int = 0
    renames: int = 0
    removed_files: int = 0
    append_s: float = 0.0
    sync_s: float = 0.0
    busy_s: float = 0.0  # every timed call, metadata operations included


class _CountingFile:
    def __init__(self, handle, counters: FormatCounters) -> None:
        self._handle = handle
        self._counters = counters

    def append(self, data: bytes) -> None:
        counters = self._counters
        started = perf_counter()
        self._handle.append(data)
        elapsed = perf_counter() - started
        counters.appends += 1
        counters.append_bytes += len(data)
        counters.append_s += elapsed
        counters.busy_s += elapsed

    def sync(self) -> None:
        counters = self._counters
        started = perf_counter()
        self._handle.sync()
        elapsed = perf_counter() - started
        counters.syncs += 1
        counters.sync_s += elapsed
        counters.busy_s += elapsed

    def close(self) -> None:
        self._handle.close()


class CountingFileSystem:
    """A ``repro.lsm.faults`` filesystem that counts and times what it is asked."""

    def __init__(self, base, counters: FormatCounters) -> None:
        self.base = base
        self.counters = counters

    def open_write(self, name: str) -> _CountingFile:
        return _CountingFile(self._timed(self.base.open_write, name), self.counters)

    def open_append(self, name: str) -> _CountingFile:
        return _CountingFile(self._timed(self.base.open_append, name), self.counters)

    def rename(self, src: str, dst: str) -> None:
        self.counters.renames += 1
        self._timed(self.base.rename, src, dst)

    def remove(self, name: str) -> None:
        self.counters.removed_files += 1
        self._timed(self.base.remove, name)

    def truncate(self, name: str, length: int = 0) -> None:
        self._timed(self.base.truncate, name, length)

    def read_bytes(self, name: str) -> bytes:
        return self._timed(self.base.read_bytes, name)

    def exists(self, name: str) -> bool:
        return self.base.exists(name)

    def listdir(self) -> list[str]:
        return self.base.listdir()

    def size(self, name: str) -> int:
        return self.base.size(name)

    def _timed(self, call, *args):
        started = perf_counter()
        try:
            return call(*args)
        finally:
            self.counters.busy_s += perf_counter() - started


class EngineWorkload:
    def __init__(self, spec: dict, seed: int, out_dir: Path) -> None:
        self.name = spec["name"]
        self.spec = spec
        self.seed = seed
        self.out_dir = out_dir
        self.durable = bool(spec["engine"]["durable"])
        self.operations: list = []
        self.kinds: list[int] = []
        self.config: Optional[EngineConfig] = None
        self.gen_s = 0.0

    # ------------------------------------------------------------------
    def prepare(self, scale: float = 1.0) -> None:
        """Pre-generate the operations, then warm up at 1/20 of the scale."""
        started = perf_counter()
        self.operations = self._generate(scale)
        self.gen_s = perf_counter() - started
        self.kinds = _kinds(self.operations)
        self.config = self._engine_config(scale)
        warmup = self._generate(scale * WARMUP_SCALE)
        self._untraced(
            warmup, _kinds(warmup), self._engine_config(scale * WARMUP_SCALE)
        )

    def run(self) -> Sample:
        return self._untraced(self.operations, self.kinds, self.config)

    def run_traced(self, tracer: Tracer) -> Sample:
        return self._traced(tracer)

    def verify(self, sample: Sample) -> oracle.Checks:
        """``get`` of every key and sampled scans against the dict oracle.

        For the durable engine the store checked is the *reopened* one,
        and three injected crashes are recovered and checked as well.
        """
        checks = self._oracle(sample.keep)
        if self.durable:
            checks.merge(self.durability_check())
        return checks

    def _oracle(self, engine) -> oracle.Checks:
        live = oracle.replay_operations(self.operations)
        keys = {op.key for op in self.operations if op.is_write}
        return oracle.check_engine(engine, live, keys, self.seed, self.name)

    # ------------------------------------------------------------------
    def _generate(self, scale: float, **overrides) -> list:
        document = copy.deepcopy(self.spec["workload"])
        for count in ("operationcount", "recordcount"):
            document[count] = max(1, round(document[count] * scale))
        document.update(overrides)
        workload = CoreWorkload(WorkloadConfig(seed=self.seed, **document))
        return list(workload.all_operations())

    def _engine_config(self, scale: float = 1.0, **overrides) -> EngineConfig:
        """The spec's engine; the memtable shrinks by ``sqrt(scale)`` only, so
        a scaled-down run still flushes and compacts."""
        engine = self.spec["engine"]
        settings = dict(
            memtable_capacity=max(
                2, round(engine["memtable_capacity"] * math.sqrt(scale))
            ),
            use_wal=engine["use_wal"],
        )
        settings.update(overrides)
        return EngineConfig(**settings)

    def _open(self, config: EngineConfig, directory: Optional[str] = None, fs=None):
        if not self.durable:
            return LSMEngine(config)
        return DurableLSMEngine.open(
            directory,
            config,
            fs=fs,
            wal_sync_every=self.spec["engine"]["wal_sync_every"],
        )

    def _controller(self, engine) -> CompactionController:
        controller = self.spec["controller"]
        return CompactionController(
            engine,
            STRATEGIES[controller["strategy"]],
            table_threshold=controller["table_threshold"],
        )

    def _reopen(self, engine, config, directory=None, fs=None):
        """Stop without a final flush, sync the WAL, reopen from the files alone."""
        engine.wal.sync()
        engine.wal.close()
        started = perf_counter()
        reopened = self._open(config, directory, fs=fs)
        return reopened, perf_counter() - started

    # ------------------------------------------------------------------
    def _untraced(
        self, operations: list, kinds: list[int], config: EngineConfig
    ) -> Sample:
        directory = tempfile.mkdtemp(dir=self.out_dir) if self.durable else None
        engine = self._open(config, directory)
        controller = self._controller(engine)
        apply = controller.apply
        latencies: list[list[float]] = [[], [], [], []]
        failed = 0
        note = None
        clock = perf_counter
        gc.collect()
        started = clock()
        for operation, kind in zip(operations, kinds):
            before = clock()
            try:
                apply(operation)
            except Exception as exc:  # counted, reported, and the run goes on
                failed += 1
                note = note or f"{self.name}: {operation.type.value} raised {exc!r}"
            latencies[kind].append(clock() - before)
        wall = clock() - started
        metrics, outputs = _amplification(engine, controller)
        metrics.update(
            wall_s=wall,
            ops_per_s=len(operations) / wall,
            put_p50_us=_median_us(latencies[PUT] + latencies[DELETE]),
            get_p50_us=_median_us(latencies[GET]),
            scan_p50_us=_median_us(latencies[SCAN]),
        )
        if self.durable:
            engine, metrics["recovery_s"] = self._reopen(engine, config, directory)
        sample = Sample(
            metrics=metrics, outputs=outputs, ops=len(operations),
            failed=failed, keep=engine,
        )
        if note:
            sample.checks.notes.append(note)
        return sample

    def _traced(self, tracer: Tracer) -> Sample:
        operations, kinds = self.operations, self.kinds
        counters = FormatCounters()  # stay zero without files
        fs = None
        if self.durable:
            directory = tempfile.mkdtemp(dir=self.out_dir)
            fs = CountingFileSystem(LocalFileSystem(directory), counters)
        engine = self._open(self.config, fs=fs)
        controller = self._controller(engine)
        apply = engine.apply
        maybe_compact = controller.maybe_compact
        rows: list[tuple[int, float, float]] = []
        compactions: list[tuple[float, float, float, int]] = []
        stall_s = 0.0
        flushes = engine.flush_count
        failed = 0
        note = None
        clock = perf_counter
        gc.collect()
        with tracer.span("workload", cell=self.name) as root:
            for operation, kind in zip(operations, kinds):
                before = clock()
                try:
                    apply(operation)
                except Exception as exc:
                    failed += 1
                    note = note or f"{self.name}: {operation.type.value} raised {exc!r}"
                after = clock()
                rows.append((kind, before, after))
                if engine.flush_count != flushes:
                    flushes = engine.flush_count
                    stall_s += after - before
                fs_busy = counters.busy_s
                result = maybe_compact()
                if result is not None:
                    compactions.append(
                        (after, clock(), counters.busy_s - fs_busy,
                         result.bytes_written)
                    )
        wall = root[END] - root[START]
        fs_loop_s = counters.busy_s
        dir_bytes = (
            sum(fs.size(name) for name in fs.listdir()) if self.durable else 0
        )
        metrics, outputs = _amplification(engine, controller)
        read_stats = engine.read_stats

        latencies: list[list[float]] = [[], [], [], []]
        for kind, before, after in rows:
            tracer.add(_SPAN_NAMES[kind], before, after, root)
            latencies[kind].append(after - before)
        for before, after, _, bytes_written in compactions:
            tracer.add(
                "lsm.compaction.maybe_compact", before, after, root,
                {"bytes_written": bytes_written},
            )
        ops_s = sum(sum(values) for values in latencies)
        compact_s = sum(after - before for before, after, _, _ in compactions)
        fs_compact_s = sum(fs_s for _, _, fs_s, _ in compactions)
        writes = sorted(latencies[PUT] + latencies[DELETE])
        gets = sorted(latencies[GET])
        scans = sorted(latencies[SCAN])
        metrics.update({
            "traced_wall_s": wall,
            "ycsb.gen_s": self.gen_s,
            "ycsb.ops": len(operations),
            "controller.compact_s": compact_s,
            "controller.compactions": controller.stats.compactions,
            "controller.bytes_rewritten": controller.stats.total_bytes_written,
            "engine.put_s": sum(latencies[PUT]),
            "engine.get_s": sum(latencies[GET]),
            "engine.scan_s": sum(latencies[SCAN]),
            "engine.delete_s": sum(latencies[DELETE]),
            "engine.flush_stall_s": stall_s,
            "engine.flushes": flushes,
            "engine.put_p99_us": percentile(writes, 0.99) * 1e6,
            "engine.put_p999_us": percentile(writes, 0.999) * 1e6,
            "engine.get_p99_us": percentile(gets, 0.99) * 1e6,
            "engine.scan_p99_us": percentile(scans, 0.99) * 1e6,
            "engine.op_max_ms": max(max(v, default=0.0) for v in latencies) * 1e3,
            "engine.memtable_hit_ratio": (
                read_stats.memtable_hits / read_stats.reads
                if read_stats.reads else 0.0
            ),
            "engine.tables_per_read": read_stats.tables_probed_per_read,
            "engine.bloom_fp_rate": read_stats.bloom_fp_rate,
            "share.ycsb": 0.0,  # generation is set-up on the engine workloads
            "share.engine": (ops_s - (fs_loop_s - fs_compact_s)) / wall,
            "share.controller": (compact_s - fs_compact_s) / wall,
            "share.harness": (wall - ops_s - compact_s) / wall,
        })
        if self.durable:
            with tracer.span("lsm.format.recover", cell=self.name) as span:
                engine, _ = self._reopen(engine, self.config, fs=fs)
            metrics.update({
                "format.appends": counters.appends,
                "format.append_bytes": counters.append_bytes,
                "format.append_s": counters.append_s,
                "format.syncs": counters.syncs,
                "format.sync_s": counters.sync_s,
                "format.renames": counters.renames,
                "format.removed_files": counters.removed_files,
                "format.dir_bytes": dir_bytes,
                "format.recover_s": span[END] - span[START],
                "format.replayed_records": len(engine.wal),
                "share.format": fs_loop_s / wall,
            })
        sample = Sample(
            metrics=metrics, outputs=outputs, ops=len(operations),
            failed=failed, checks=self._oracle(engine),
        )
        if note:
            sample.checks.notes.append(note)
        return sample

    # ------------------------------------------------------------------
    def durability_check(self) -> oracle.Checks:
        """Crash at three seeded writes; each recovery must equal an acked prefix.

        The filesystem, not the OS, discards what was never synced:
        ``FaultInjectedFileSystem`` rolls every file back to its synced
        length and tears the crashing append after 7 bytes.
        """
        checks = oracle.Checks()
        load = round(CRASH_CHECK_OPS * 0.1)
        operations = self._generate(
            1.0, recordcount=load, operationcount=CRASH_CHECK_OPS - load
        )
        config = self._engine_config(memtable_capacity=CRASH_CHECK_MEMTABLE)
        sync_every = self.spec["engine"]["wal_sync_every"]

        def drive(fs) -> int:
            engine = self._open(config, fs=fs)
            controller = self._controller(engine)
            acked = 0
            try:
                for operation in operations:
                    engine.apply(operation)
                    acked += 1
                    controller.maybe_compact()
            except CrashPoint:
                pass
            return acked

        clean = FaultInjectedFileSystem(MemoryFileSystem())
        checks.expect(
            drive(clean) == len(operations), f"{self.name}: clean run did not finish"
        )
        rng = random.Random(self.seed)
        for _ in range(CRASH_POINTS):
            crash_at = rng.randrange(clean.writes_done // 10, clean.writes_done)
            fs = FaultInjectedFileSystem(
                MemoryFileSystem(),
                FaultPlan(crash_at_write=crash_at, torn_write_bytes=7),
            )
            acked = drive(fs)
            what = f"{self.name}: crash at write {crash_at} ({acked} ops acked)"
            checks.expect(acked < len(operations), f"{what}: no crash fired")
            recovered = self._open(config, fs=fs)
            checks.merge(
                oracle.check_recovered_prefix(
                    recovered, operations, acked, sync_every - 1, what
                )
            )
        return checks


def _kinds(operations: list) -> list[int]:
    return [_KIND[operation.type] for operation in operations]


def _median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def _amplification(engine, controller) -> tuple[dict, dict]:
    """The count metrics, read before any oracle traffic touches the engine."""
    report = measure_amplification(engine)
    metrics = {
        "cost_actual": controller.stats.total_cost_actual,
        "read_amp": report.read_amplification,
        "write_amp": report.write_amplification,
        "space_amp": report.space_amplification,
    }
    outputs = dict(
        metrics,
        flushes=engine.flush_count,
        compactions=controller.stats.compactions,
        entries_on_disk=report.entries_on_disk,
        live_keys=report.live_keys,
    )
    return metrics, outputs

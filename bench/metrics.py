"""The benchmark's metric catalogue: names, units, directions, bounds.

One table drives everything that names a metric — the result printer,
``--compare``, ``BENCHMARK.json`` and the smoke test — so a metric
cannot be emitted under one name and gated under another.

A layer is a repo module (plus ``host`` and ``trace``, the harness's own
readings).  An end-to-end metric carries the bound by
which its median may worsen before ``--compare`` calls it a regression
(``0.0`` = exact: the count repeats bit for bit on one seed).  Metrics
are defined per workload: a metric a workload bypasses is *absent* from
that workload's report, not zero.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .oracle import Checks

SIMULATOR_WORKLOADS = ("policy-sweep", "bulk-merge", "mixed-serving")
ENGINE_WORKLOADS = ("engine-kv", "engine-durable")
WORKLOADS = SIMULATOR_WORKLOADS + ENGINE_WORKLOADS
_SERVING = ("mixed-serving",) + ENGINE_WORKLOADS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    layer: str  # "end_to_end" or the repo module measured
    workloads: tuple[str, ...]
    doc: str
    #: End-to-end only.  Allowed worsening of the median on one seed.
    bound: Optional[float] = None
    #: Bound used when every run has its own seed and the two sides are
    #: measured an hour apart (BENCHMARK.json): an exact count still moves
    #: with the inputs, and a time with what the host correction leaves
    #: (measured: spread up to 9 %, medians up to 9 % apart; see README).
    seed_bound: Optional[float] = None

    @property
    def exact(self) -> bool:
        return self.bound == 0.0


def _e2e(name, unit, better, bound, workloads, doc, seed_bound=None) -> Metric:
    return Metric(
        name, unit, better, "end_to_end", tuple(workloads), doc,
        bound=bound, seed_bound=bound if seed_bound is None else seed_bound,
    )


END_TO_END: tuple[Metric, ...] = (
    _e2e("setup_s", "s", "lower", 0.25, WORKLOADS,
         "imports + median of 3 set-ups (spec load, 1/20-scale warm-up, "
         "op pre-generation on the engine workloads)"),
    _e2e("wall_s", "s", "lower", 0.10, WORKLOADS,
         "timed region, tracing off: run_and_record + render (simulator) "
         "or the whole op loop (engine)", seed_bound=0.25),
    _e2e("ops_per_s", "ops/s", "higher", 0.10, WORKLOADS,
         "user operations issued / wall_s", seed_bound=0.25),
    _e2e("peak_rss_mb", "MB", "lower", 0.10, WORKLOADS,
         "ru_maxrss of the workload's own process after the timed region"),
    _e2e("cost_actual", "entries", "lower", 0.0, WORKLOADS,
         "the paper's section-2 cost: entries read + written by every "
         "merge, summed over strategies and runs (engine: over the "
         "controller's compactions)", seed_bound=0.05),
    _e2e("read_amp", "tables/read", "lower", 0.0, _SERVING,
         "sstables probed per point read (simulator: mean over strategies)"),
    _e2e("write_amp", "bytes/byte", "lower", 0.0, ENGINE_WORKLOADS,
         "disk bytes written / user bytes accepted (measure_amplification)"),
    _e2e("space_amp", "entries/key", "lower", 0.0, ENGINE_WORKLOADS,
         "on-disk entries / live keys (measure_amplification)"),
    _e2e("put_p50_us", "us", "lower", 0.10, ENGINE_WORKLOADS,
         "median latency of insert + update + delete"),
    _e2e("get_p50_us", "us", "lower", 0.10, ENGINE_WORKLOADS,
         "median latency of a point read"),
    _e2e("scan_p50_us", "us", "lower", 0.10, ENGINE_WORKLOADS,
         "median latency of a range scan"),
    _e2e("recovery_s", "s", "lower", 0.25, ("engine-durable",),
         "reopen from the directory: manifest + sstable load + WAL replay"),
)


def _layer(layer, workloads, *rows) -> tuple[Metric, ...]:
    return tuple(
        Metric(name, unit, better, layer, tuple(workloads), doc)
        for name, unit, better, doc in rows
    )


PER_LAYER: tuple[Metric, ...] = (
    _layer(
        "host", WORKLOADS,
        ("host.speed", "ratio", "lower",
         "the speed probe's time around the timed repeats / its reference "
         "time: above 1, the host ran slower than the reference box"),
        ("host.wall_raw_s", "s", "lower",
         "the timed region as the clock read it: wall_s * host.speed"),
    )
    + _layer(
        "ycsb", WORKLOADS,
        ("ycsb.gen_s", "s", "lower",
         "op generation (simulator: op_stream_columns inside the timed "
         "region; engine: all_operations during set-up)"),
        ("ycsb.ops", "ops", "higher", "operations generated"),
    )
    + _layer(
        "simulator.phase1", SIMULATOR_WORKLOADS,
        ("phase1.flush_s", "s", "lower", "build_tables_from_columns"),
        ("phase1.tables", "count", "lower", "sstables flushed"),
        ("phase1.entries", "entries", "lower", "entries flushed (LOPT)"),
    )
    + _layer(
        "core", SIMULATOR_WORKLOADS,
        ("core.policy_s", "s", "lower",
         "strategy_overhead_seconds - sketch_seconds: the policies' choices"),
        ("core.merge_steps", "count", "lower", "steps of the merge schedules"),
        ("core.prep_s", "s", "lower",
         "compact() span - CompactionResult.wall_seconds: key sets, "
         "MergeInstance, result assembly"),
    )
    + _layer(
        "hll", SIMULATOR_WORKLOADS,
        ("hll.sketch_s", "s", "lower", "building the input tables' sketches"),
        ("hll.sketches", "count", "lower",
         "sketches requested by estimator-driven strategies"),
    )
    + _layer(
        "lsm.compaction", SIMULATOR_WORKLOADS,
        ("compaction.execute_s", "s", "lower",
         "merge_wall_seconds: executing the schedules' merges"),
        ("compaction.merges", "count", "lower", "merges executed"),
        ("compaction.entries_merged", "entries", "lower",
         "entries read + written by merges (equals cost_actual)"),
        ("compaction.bytes_read", "bytes", "lower", "bytes read by merges"),
        ("compaction.bytes_written", "bytes", "lower", "bytes written by merges"),
        ("compaction.entries_per_s", "entries/s", "higher",
         "entries merged by scheduled merges / compaction.execute_s"),
        ("compaction.practical_s", "s", "lower", "STCS/LEVELED compact() spans"),
    )
    + _layer(
        "lsm.compaction", ENGINE_WORKLOADS,
        ("controller.compact_s", "s", "lower",
         "maybe_compact calls that compacted, timed apart from engine.apply"),
        ("controller.compactions", "count", "lower", "compactions triggered"),
        ("controller.bytes_rewritten", "bytes", "lower",
         "bytes written by the controller's compactions"),
    )
    + _layer(
        "simulator.read_path", ("mixed-serving",),
        ("read_path.get_s", "s", "lower", "serve_reads over the point reads"),
        ("read_path.scan_s", "s", "lower", "serve_reads over the scans"),
        ("read_path.reads", "ops", "higher", "point reads served"),
        ("read_path.scans", "ops", "higher", "scans served"),
        ("read_path.tables_per_read", "tables/read", "lower", "read amplification"),
        ("read_path.tables_per_scan", "tables/scan", "lower", "tables a scan opens"),
        ("read_path.bloom_fp_rate", "ratio", "lower",
         "probes the bloom let through in vain / probes"),
        ("read_path.scan_returned_ratio", "ratio", "higher",
         "records returned / records scanned: useful over attempted"),
    )
    + _layer(
        "scenarios", SIMULATOR_WORKLOADS,
        ("scenarios.report_s", "s", "lower", "aggregate + render + ResultsStore.write"),
        ("scenarios.manifest_bytes", "bytes", "lower", "size of the stored manifest"),
    )
    + _layer(
        "lsm.engine", ENGINE_WORKLOADS,
        ("engine.put_s", "s", "lower", "busy time in inserts + updates"),
        ("engine.get_s", "s", "lower", "busy time in point reads"),
        ("engine.scan_s", "s", "lower", "busy time in scans"),
        ("engine.delete_s", "s", "lower", "busy time in deletes"),
        ("engine.flush_stall_s", "s", "lower",
         "latency of the writes during which flush_count advanced"),
        ("engine.flushes", "count", "lower", "memtable flushes"),
        ("engine.put_p99_us", "us", "lower", "p99 write latency"),
        ("engine.put_p999_us", "us", "lower", "p99.9 write latency"),
        ("engine.get_p99_us", "us", "lower", "p99 point-read latency"),
        ("engine.scan_p99_us", "us", "lower", "p99 scan latency"),
        ("engine.op_max_ms", "ms", "lower", "slowest single operation"),
        ("engine.memtable_hit_ratio", "ratio", "higher",
         "point reads answered by the memtable / point reads"),
        ("engine.tables_per_read", "tables/read", "lower", "sstables probed per read"),
        ("engine.bloom_fp_rate", "ratio", "lower", "false-positive probes / probes"),
    )
    + _layer(
        "lsm.format", ("engine-durable",),
        ("format.appends", "count", "lower", "file appends (WAL frames, sstables, manifests)"),
        ("format.append_bytes", "bytes", "lower", "bytes appended"),
        ("format.append_s", "s", "lower", "time inside append"),
        ("format.syncs", "count", "lower", "fsyncs (group commit: every 32 appends)"),
        ("format.sync_s", "s", "lower", "time inside fsync"),
        ("format.renames", "count", "lower", "manifest commits"),
        ("format.removed_files", "count", "lower", "sstable files deleted after compaction"),
        ("format.dir_bytes", "bytes", "lower", "store directory size at the end"),
        ("format.recover_s", "s", "lower", "reopen in the traced pass"),
        ("format.replayed_records", "count", "lower", "WAL records replayed on reopen"),
    )
    + _layer(
        "trace", WORKLOADS,
        ("traced_wall_s", "s", "lower", "timed region with spans recorded"),
        ("trace_overhead_share", "ratio", "lower",
         "(traced - untraced) / untraced wall"),
        ("share.ycsb", "ratio", "lower", "ycsb self time / traced wall"),
        ("share.harness", "ratio", "lower",
         "traced wall no layer span covers (loop, timers, bookkeeping)"),
    )
    + _layer(
        "trace", SIMULATOR_WORKLOADS,
        ("share.phase1", "ratio", "lower", "simulator.phase1 / traced wall"),
        ("share.core", "ratio", "lower", "core (policy + prep) / traced wall"),
        ("share.hll", "ratio", "lower", "hll / traced wall"),
        ("share.compaction", "ratio", "lower", "lsm.compaction / traced wall"),
        ("share.scenarios", "ratio", "lower", "scenarios / traced wall"),
    )
    + _layer(
        "trace", ("mixed-serving",),
        ("share.read_path", "ratio", "lower", "simulator.read_path / traced wall"),
    )
    + _layer(
        "trace", ENGINE_WORKLOADS,
        ("share.engine", "ratio", "lower", "lsm.engine self time / traced wall"),
        ("share.controller", "ratio", "lower",
         "lsm.compaction (controller) self time / traced wall"),
    )
    + _layer(
        "trace", ("engine-durable",),
        ("share.format", "ratio", "lower", "lsm.format / traced wall"),
    )
)

BY_NAME: dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def metrics_for(workload: str, metrics: Sequence[Metric]) -> list[Metric]:
    return [metric for metric in metrics if workload in metric.workloads]


def contract_end_to_end() -> list[Metric]:
    """End-to-end metrics every workload defines (BENCHMARK.json's list).

    The driver wants every end-to-end metric from every workload and
    none of them zero, so the workload-specific ones (latencies,
    amplifications, recovery) are listed with the per-layer metrics
    there; ``--compare`` still gates all twelve by their bounds.
    """
    return [m for m in END_TO_END if set(m.workloads) == set(WORKLOADS)]


def contract_per_layer() -> list[Metric]:
    universal = {m.name for m in contract_end_to_end()}
    return [m for m in END_TO_END if m.name not in universal] + list(PER_LAYER)


@dataclass
class Sample:
    """One pass over a workload: its metrics and what to check them against."""

    metrics: dict[str, float]
    #: Deterministic outputs, compared for equality between passes.
    outputs: Any
    ops: int  # user operations issued
    failed: int = 0  # operations that raised
    checks: Checks = field(default_factory=Checks)
    keep: Any = None  # what verify() needs from the pass


def host_corrected(metric: Metric, value: float, speed: float) -> float:
    """An end-to-end time or rate as it would read at the reference host speed.

    The reference box is a shared VM whose speed swings by a third
    within the hour; a probe of fixed work times the host around every
    timed repeat (``host.speed``) and the time-based end-to-end metrics
    are divided by it, so that they measure the program, not the
    neighbours.  Counts, ratios and per-layer times stay as measured.
    """
    if metric.layer != "end_to_end":
        return value
    if metric.unit in ("s", "us"):
        return value / speed
    if metric.unit == "ops/s":
        return value * speed
    return value


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(samples: Sequence[float]) -> dict:
    """Median with min/max and the sample count (what a report prints)."""
    return {
        "value": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }

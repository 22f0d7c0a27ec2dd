"""The three simulator workloads: the program's run, and its traced mirror.

The untraced pass is the program as a user drives it:
``Scenario.from_dict`` -> ``ExperimentRunner.run_and_record`` ->
``ScenarioRun.render``.  The traced pass cannot see inside that call, so
it *mirrors* ``simulator.runner._comparison_cell`` + ``phase2.run_strategy``
call for call from here, with a span around every call into a layer, and
takes the sub-layer numbers from the ``CompactionResult`` each strategy
returns.  The mirror's deterministic outputs must equal the program's:
drift between the two is a failure, not a silent mis-attribution.
"""

from __future__ import annotations

import copy
import gc
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.lsm import SimulatedDisk
from repro.scenarios import ExperimentRunner, ResultsStore, Scenario
from repro.scenarios.runner import ScenarioRun
from repro.simulator import (
    ComparisonResult,
    StrategyResult,
    aggregate,
    build_strategy,
    serve_reads,
)
from repro.simulator.phase1 import build_tables_from_columns
from repro.ycsb.workload import CoreWorkload, ReadOpColumns

from . import WARMUP_SCALE, oracle
from .metrics import Sample
from .tracing import ATTRS, END, START, Tracer

#: Cell fields that must repeat bit for bit: across repeats, and between
#: the program and its mirror.  Times and anything derived from them
#: (simulated seconds include the measured policy overhead) are left out.
DETERMINISTIC_CELL_FIELDS = (
    "strategy", "runs", "plane_used",
    "cost_actual_mean", "cost_actual_std", "cost_simplified_mean",
    "lopt_entries_mean", "reads_mean", "scans_mean",
    "read_amplification_mean", "bloom_fp_rate_mean", "read_bytes_mean",
    "scan_records_scanned_mean",
)


def scaled_scenario(spec: dict, seed: int, scale: float = 1.0) -> Scenario:
    """The workload's scenario at ``scale`` of its record and operation counts.

    The memtable shrinks by ``sqrt(scale)`` only, so a scaled-down run
    still flushes a fair number of tables (``sqrt(scale)`` of them) and
    takes every path the full-size run takes.
    """
    document = copy.deepcopy(spec["scenario"])
    config = document["config"]
    config["seed"] = seed
    for count in ("operationcount", "recordcount"):
        config[count] = max(1, round(config[count] * scale))
    config["memtable_capacity"] = max(
        2, round(config["memtable_capacity"] * math.sqrt(scale))
    )
    return Scenario.from_dict(document)


def deterministic(cells: list[dict]) -> list[dict]:
    return [{name: cell[name] for name in DETERMINISTIC_CELL_FIELDS} for cell in cells]


def _require_fast_plane(cells: list[dict]) -> None:
    slow = [cell["strategy"] for cell in cells if cell["plane_used"] != "fast"]
    if slow:
        raise RuntimeError(
            f"cells {slow} did not run on the fast plane; the benchmark "
            "measures the default data plane and refuses a silent fallback"
        )


def _user_ops(scenario: Scenario) -> int:
    config = scenario.config
    return (config.recordcount + config.operationcount) * scenario.runs


def _count_metrics(cells: list[dict]) -> dict:
    """The end-to-end counts, from the cells either pass produces."""
    metrics = {
        "cost_actual": sum(round(c["cost_actual_mean"] * c["runs"]) for c in cells),
    }
    if any(cell["reads_mean"] for cell in cells):
        metrics["read_amp"] = sum(
            cell["read_amplification_mean"] for cell in cells
        ) / len(cells)
    return metrics


class SimulatorWorkload:
    def __init__(self, spec: dict, seed: int, out_dir: Path) -> None:
        self.name = spec["name"]
        self.spec = spec
        self.seed = seed
        self.out_dir = out_dir
        self.scenario: Optional[Scenario] = None
        self._small: Optional[Scenario] = None  # the warm-up scale
        self.warmup_cells: list[dict] = []

    # ------------------------------------------------------------------
    def prepare(self, scale: float = 1.0) -> None:
        """Load the spec and run the 1/20-scale warm-up through the program."""
        self.scenario = scaled_scenario(self.spec, self.seed, scale)
        self._small = scaled_scenario(self.spec, self.seed, scale * WARMUP_SCALE)
        self.warmup_cells = self._program(self._small).outputs

    def run(self) -> Sample:
        return self._program(self.scenario)

    def run_traced(self, tracer: Tracer) -> Sample:
        return self._mirror(self.scenario, tracer)

    def verify(self, sample: Sample) -> oracle.Checks:
        """Oracle-check the warm-up scale through the mirror; sanity-check full scale.

        The program returns aggregates, not tables, so its outputs are
        proven in two steps on the seeded 1/20-scale input: the mirror's
        tables and served reads equal the dict oracle, and the program's
        cells equal the mirror's.  The traced pass repeats both at full
        scale.
        """
        mirror = self._mirror(self._small, Tracer())
        checks = mirror.checks
        checks.expect(
            mirror.outputs == self.warmup_cells,
            f"{self.name}: program and mirror disagree at warm-up scale",
        )
        labels = [cell["strategy"] for cell in sample.outputs]
        checks.expect(
            labels == list(self.scenario.strategies),
            f"{self.name}: cells {labels} are not the spec's strategies",
        )
        for cell in sample.outputs:
            checks.expect(
                cell["cost_actual_mean"] >= cell["lopt_entries_mean"] > 0,
                f"{self.name}/{cell['strategy']}: cost below the input size",
            )
        return checks

    # ------------------------------------------------------------------
    def _program(self, scenario: Scenario) -> Sample:
        """The untraced pass: exactly what ``repro run`` does."""
        with tempfile.TemporaryDirectory(dir=self.out_dir) as store_root:
            runner = ExperimentRunner(store=ResultsStore(store_root))
            gc.collect()
            started = perf_counter()
            run, _ = runner.run_and_record(scenario)
            run.render()
            wall = perf_counter() - started
        cells = run.cells()
        _require_fast_plane(cells)
        ops = _user_ops(scenario)
        return Sample(
            metrics=dict(_count_metrics(cells), wall_s=wall, ops_per_s=ops / wall),
            outputs=deterministic(cells),
            ops=ops,
        )

    def _mirror(self, scenario: Scenario, tracer: Tracer) -> Sample:
        config = scenario.config
        labels = scenario.strategies
        results: dict[str, list[StrategyResult]] = {label: [] for label in labels}
        layer = dict.fromkeys(
            ("ops", "tables", "entries", "policy_s", "prep_s", "merge_steps",
             "sketch_s", "sketches", "execute_s", "scheduled_entries",
             "compaction_s", "practical_s", "merges", "entries_merged",
             "bytes_read", "bytes_written"), 0,
        )
        to_check = []  # per run: (stream, [(label, output tables, served)])
        with tempfile.TemporaryDirectory(dir=self.out_dir) as store_root:
            gc.collect()
            with tracer.span("workload", cell=self.name) as root:
                for run_index in range(scenario.runs):
                    with tracer.span("cell", cell=f"run{run_index}"):
                        run_config = config.with_seed(config.seed + run_index)
                        wants_reads = (
                            run_config.read_fraction > 0.0
                            or run_config.scan_fraction > 0.0
                        )
                        workload = CoreWorkload(run_config.workload_config())
                        with tracer.span("ycsb.op_stream_columns") as span:
                            stream = workload.op_stream_columns(
                                include_read_ops=wants_reads
                            )
                        span[ATTRS] = {"ops": stream.total_operations}
                        layer["ops"] += stream.total_operations
                        with tracer.span("simulator.phase1.build_tables") as span:
                            tables = build_tables_from_columns(
                                stream.write_keynums,
                                stream.tombstone_positions,
                                run_config,
                            )
                        ingest_wall = span[END] - span[START]
                        entries = sum(table.entry_count for table in tables)
                        span[ATTRS] = {"tables": len(tables), "entries": entries}
                        layer["tables"] += len(tables)
                        layer["entries"] += entries
                        outputs = []
                        to_check.append((stream, outputs))
                        for label in labels:
                            result, served = self._compact_and_serve(
                                tracer, label, run_config, tables,
                                stream.read_ops, layer,
                            )
                            results[label].append(
                                _strategy_result(
                                    label, tables, result, served, ingest_wall
                                )
                            )
                            outputs.append((label, result.output_tables, served))
                with tracer.span("scenarios.report"):
                    comparison = ComparisonResult(
                        config=config,
                        per_strategy={
                            label: aggregate(results[label]) for label in labels
                        },
                        runs=scenario.runs,
                    )
                    run = ScenarioRun(
                        scenario=scenario, config=config, runs=scenario.runs,
                        jobs=1, fast=False,
                        results={config.distribution: comparison},
                    )
                    run.render()
                    manifest = ResultsStore(store_root).write(run)
            manifest_bytes = manifest.stat().st_size
        cells = run.cells()
        _require_fast_plane(cells)

        wall = root[END] - root[START]
        gen_s = tracer.total("ycsb.op_stream_columns")
        flush_s = tracer.total("simulator.phase1.build_tables")
        get_s = tracer.total("simulator.read_path.get")
        scan_s = tracer.total("simulator.read_path.scan")
        report_s = tracer.total("scenarios.report")
        self_times = tracer.self_times()
        metrics = _count_metrics(cells)
        metrics.update({
            "traced_wall_s": wall,
            "ycsb.gen_s": gen_s,
            "ycsb.ops": layer["ops"],
            "phase1.flush_s": flush_s,
            "phase1.tables": layer["tables"],
            "phase1.entries": layer["entries"],
            "core.policy_s": layer["policy_s"],
            "core.merge_steps": layer["merge_steps"],
            "core.prep_s": layer["prep_s"],
            "hll.sketch_s": layer["sketch_s"],
            "hll.sketches": layer["sketches"],
            "compaction.execute_s": layer["execute_s"],
            "compaction.merges": layer["merges"],
            "compaction.entries_merged": layer["entries_merged"],
            "compaction.bytes_read": layer["bytes_read"],
            "compaction.bytes_written": layer["bytes_written"],
            "compaction.entries_per_s": (
                layer["scheduled_entries"] / layer["execute_s"]
                if layer["execute_s"] else 0.0
            ),
            "compaction.practical_s": layer["practical_s"],
            "scenarios.report_s": report_s,
            "scenarios.manifest_bytes": manifest_bytes,
            "share.ycsb": gen_s / wall,
            "share.phase1": flush_s / wall,
            "share.core": (layer["policy_s"] + layer["prep_s"]) / wall,
            "share.hll": layer["sketch_s"] / wall,
            "share.compaction": (layer["compaction_s"] + layer["practical_s"]) / wall,
            "share.scenarios": report_s / wall,
            "share.harness": (self_times["workload"] + self_times["cell"]) / wall,
        })
        all_served = [
            served
            for _, outputs in to_check
            for _, _, served in outputs
            if served is not None
        ]
        if all_served:
            def total(field: str) -> int:
                return sum(getattr(served, field) for served in all_served)

            metrics.update({
                "read_path.get_s": get_s,
                "read_path.scan_s": scan_s,
                "read_path.reads": total("reads"),
                "read_path.scans": total("scans"),
                "read_path.tables_per_read": _ratio(
                    total("tables_probed"), total("reads")),
                "read_path.tables_per_scan": _ratio(
                    total("scan_tables_probed"), total("scans")),
                "read_path.bloom_fp_rate": _ratio(
                    total("bloom_false_positives"), total("tables_probed")),
                "read_path.scan_returned_ratio": _ratio(
                    total("scan_records_returned"), total("scan_records_scanned")),
                "share.read_path": (get_s + scan_s) / wall,
            })

        checks = oracle.Checks()
        checks.expect(
            layer["entries_merged"] == metrics["cost_actual"],
            f"{self.name}: compaction.entries_merged {layer['entries_merged']} "
            f"!= cost_actual {metrics['cost_actual']}",
        )
        for run_index, (stream, outputs) in enumerate(to_check):
            live = oracle.replay_writes(
                stream.write_keynums, stream.tombstone_positions
            )
            for label, output_tables, served in outputs:
                what = f"{self.name}/run{run_index}/{label}"
                checks.merge(oracle.check_tables(output_tables, live, what))
                if served is not None:
                    checks.merge(
                        oracle.check_served_reads(
                            live, stream.read_ops, served, what
                        )
                    )
        return Sample(
            metrics=metrics,
            outputs=deterministic(cells),
            ops=layer["ops"],
            checks=checks,
        )

    def _compact_and_serve(self, tracer, label, run_config, tables, read_ops, layer):
        """``run_strategy``'s body, with spans; accumulates the layer counters."""
        strategy = build_strategy(label, run_config, seed=run_config.seed)
        disk = SimulatedDisk(run_config.timing_model())
        with tracer.span(f"compact[{label}]") as span:
            result = strategy.compact(tables, disk, next_table_id=10_000_000)
        span_s = span[END] - span[START]
        overhead = result.strategy_overhead_seconds
        sketch_s = result.extras.get("sketch_seconds", 0.0)
        attrs = {
            "merges": result.n_merges,
            "entries_merged": result.cost_actual_entries,
            "bytes_read": result.bytes_read,
            "bytes_written": result.bytes_written,
        }
        if result.schedule is not None:
            # A scheduled (major) compaction: the result splits its own
            # wall into policy choice, sketch building and merge
            # execution; what the span adds on top is preparation.
            attrs.update(
                policy_s=overhead - sketch_s,
                sketch_s=sketch_s,
                execute_s=result.merge_wall_seconds,
                prep_s=span_s - result.wall_seconds,
            )
            layer["policy_s"] += overhead - sketch_s
            layer["sketch_s"] += sketch_s
            layer["prep_s"] += span_s - result.wall_seconds
            layer["execute_s"] += result.merge_wall_seconds
            layer["compaction_s"] += result.wall_seconds - overhead
            layer["merge_steps"] += result.schedule.n_steps
            layer["scheduled_entries"] += result.cost_actual_entries
            if sketch_s > 0.0:
                layer["sketches"] += result.input_count
        else:
            layer["practical_s"] += span_s
        span[ATTRS] = attrs
        layer["merges"] += result.n_merges
        layer["entries_merged"] += result.cost_actual_entries
        layer["bytes_read"] += result.bytes_read
        layer["bytes_written"] += result.bytes_written

        if read_ops is None or not read_ops.has_ops:
            return result, None
        # Two calls on split columns so gets and scans are timed apart;
        # their counters add up to the single call the program makes.
        with tracer.span("simulator.read_path.get"):
            gets = serve_reads(
                result.output_tables,
                ReadOpColumns(read_ops.read_keynums, [], []),
            )
        with tracer.span("simulator.read_path.scan"):
            scans = serve_reads(
                result.output_tables,
                ReadOpColumns([], read_ops.scan_keynums, read_ops.scan_lengths),
            )
        for part in (gets, scans):
            if part.kernel_used != "batched":
                raise RuntimeError(
                    f"{label}: reads were served by the {part.kernel_used!r} "
                    "kernel; the benchmark refuses a silent fallback"
                )
        served = replace(
            gets,
            read_bytes=gets.read_bytes + scans.read_bytes,
            scans=scans.scans,
            scan_tables_probed=scans.scan_tables_probed,
            scan_tables_pruned=scans.scan_tables_pruned,
            scan_records_scanned=scans.scan_records_scanned,
            scan_records_returned=scans.scan_records_returned,
        )
        return result, served


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _strategy_result(label, tables, result, served, ingest_wall) -> StrategyResult:
    """The ``StrategyResult`` ``run_strategy`` + ``_comparison_cell`` assemble."""
    read_metrics = {}
    if served is not None:
        read_metrics = dict(
            reads=served.reads,
            scans=served.scans,
            read_hits=served.hits,
            read_misses=served.misses,
            read_tables_probed=served.tables_probed,
            read_bloom_skips=served.bloom_skips,
            read_bloom_false_positives=served.bloom_false_positives,
            read_bytes=served.read_bytes,
            scan_tables_probed=served.scan_tables_probed,
            scan_tables_pruned=served.scan_tables_pruned,
            scan_records_scanned=served.scan_records_scanned,
            scan_records_returned=served.scan_records_returned,
        )
    return StrategyResult(
        strategy=label,
        n_tables=len(tables),
        n_merges=result.n_merges,
        cost_actual=result.cost_actual_entries,
        cost_simplified=result.cost_simplified_entries,
        lopt_entries=sum(table.entry_count for table in tables),
        bytes_read=result.bytes_read,
        bytes_written=result.bytes_written,
        io_seconds=result.io_seconds,
        simulated_seconds=result.simulated_seconds,
        strategy_overhead_seconds=result.strategy_overhead_seconds,
        wall_seconds=result.wall_seconds,
        merge_executor=result.merge_executor,
        merge_workers=result.merge_workers,
        merge_wall_seconds=result.merge_wall_seconds,
        merge_utilization=result.merge_utilization,
        ingest_wall_seconds=ingest_wall,
        **read_metrics,
    )

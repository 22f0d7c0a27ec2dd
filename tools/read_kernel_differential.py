"""Three read kernels agree on ``mixed-serving``'s own tables.

Builds the ``bench/workloads/mixed-serving.json`` workload at full scale,
seed 11 (phase 1, then each of its strategies' compaction), serves every
strategy's output tables with both ``serve_reads`` kernels and a third
side, the scalar kernel with every scan walked by the engine's cursor
merge (``cursor_merge_scan``, the oracle of the engine's live-view
scan, which the scalar kernel runs), and exits non-zero unless all twelve counters
agree across the three.  The tier-1 tests certify the kernels on
2.5 k-op configs; ``mixed-serving`` is what the benchmark times: a
41-table LEVELED set and zipfian reads repeating each distinct key
about nine times, which the batched kernel serves once per key.

    PYTHONPATH=src python tools/read_kernel_differential.py

The scalar sides run the engine's ``get`` per op: ~40 s on one core.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from pathlib import Path

from repro.lsm.disk import SimulatedDisk
from repro.lsm.engine import EngineConfig, LSMEngine, cursor_merge_scan
from repro.simulator import SimulationConfig, build_strategy, generate_sstables
from repro.simulator.read_path import ReadPhaseResult, serve_reads

WORKLOAD = (
    Path(__file__).resolve().parent.parent / "bench" / "workloads" / "mixed-serving.json"
)
SEED = 11
COUNTERS = [f.name for f in fields(ReadPhaseResult) if f.name != "kernel_used"]


def serve_cursor_merge(tables, read_ops) -> ReadPhaseResult:
    """The scalar kernel with every scan walked by the cursor merge."""
    engine = LSMEngine(EngineConfig(use_wal=False), disk=SimulatedDisk())
    engine.sstables = list(tables)
    for key in read_ops.read_keynums:
        engine.get(key)
    for start, length in zip(read_ops.scan_keynums, read_ops.scan_lengths):
        cursor_merge_scan(
            engine.sstables, engine.memtable, start, length,
            engine.read_stats, engine.disk,
        )
    return ReadPhaseResult(
        **{name: getattr(engine.read_stats, name) for name in COUNTERS}
    )


def main() -> int:
    scenario = json.loads(WORKLOAD.read_text())["scenario"]
    config = SimulationConfig(**dict(scenario["config"], seed=SEED))
    phase1 = generate_sstables(config)
    read_ops = phase1.read_ops
    print(
        f"mixed-serving seed {SEED}: "
        f"{len(read_ops.read_keynums)} reads of "
        f"{len(set(read_ops.read_keynums))} distinct keys, "
        f"{len(read_ops.scan_keynums)} scans"
    )
    failed = False
    for label in scenario["strategies"]:
        strategy = build_strategy(label, config, seed=config.seed)
        tables = strategy.compact(
            phase1.tables, SimulatedDisk(config.timing_model()), 10_000_000
        ).output_tables
        batched = serve_reads(tables, read_ops, kernel="batched")
        scalar = serve_reads(tables, read_ops, kernel="scalar")
        merge = serve_cursor_merge(tables, read_ops)
        differ = [
            name
            for name in COUNTERS
            if len({getattr(side, name) for side in (batched, scalar, merge)}) > 1
        ]
        failed |= bool(differ) or batched.kernel_used != "batched"
        print(
            f"  {label}: {len(tables)} tables, "
            + (f"counters differ: {differ}" if differ else "12 counters equal, 3 sides")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

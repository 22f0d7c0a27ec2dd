"""Measure one workload in this process: set-up, timed repeats, checks, trace.

``run.py`` starts one fresh interpreter per workload and calls
:func:`measure_workload` there, so ``peak_rss_mb`` and the import cost
inside ``setup_s`` belong to that workload alone.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Optional

from . import BENCH_DIR, OUT_DIR
from .metrics import (
    BY_NAME,
    END_TO_END,
    PER_LAYER,
    host_corrected,
    metrics_for,
    summarize,
)
from .tracing import Tracer

#: Set-ups per run; ``setup_s`` reports their median (plus the imports,
#: which a process can only pay once).
SETUP_REPEATS = 3

#: What :func:`host_probe` takes on the 2-core reference box when quiet.
PROBE_REFERENCE_S = 0.200
PROBE_KEYS = 600_000


def host_probe() -> float:
    """Seconds the host needs now for a fixed piece of numpy work.

    Sorts and gathers over 600k keys: memory-bound like the program's
    kernels, and none of the program's code, so only the host moves it.
    The first round pays for cold caches and fresh pages and is dropped;
    the fastest of the next four is the host's speed without the bursts
    a 0.2 s round can catch and a 12 s region averages out.
    """
    import numpy as np

    keys = np.random.default_rng(0).integers(0, 1 << 40, PROBE_KEYS)
    rounds = []
    for _ in range(5):
        started = perf_counter()
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        np.lexsort((order, ordered >> 4))
        np.concatenate((keys, ordered)).sum()
        rounds.append(perf_counter() - started)
    return min(rounds[1:])


def load_spec(name: str) -> dict:
    path = BENCH_DIR / "workloads" / f"{name}.json"
    spec = json.loads(path.read_text())
    if spec["name"] != name:
        raise ValueError(f"{path} names workload {spec['name']!r}")
    return spec


def measure_workload(
    name: str,
    seed: int,
    seconds: float,
    repeats: Optional[int] = None,
    trace: bool = False,
    scale: float = 1.0,
    out_dir: Path = OUT_DIR,
) -> dict:
    """Run ``name`` and return its result entry (see bench/README.md).

    ``repeats=None`` sizes the run from ``seconds``: the workloads are
    fixed-size (their count metrics must repeat exactly), so the first
    timed repeat tells how many of them come closest to ``seconds``.
    """
    spec = load_spec(name)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = perf_counter()
    if spec["kind"] == "simulator":
        from .simulator import SimulatorWorkload as workload_class
    else:
        from .engine import EngineWorkload as workload_class
    import_s = perf_counter() - started

    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{name}-") as scratch:
        workload = workload_class(spec, seed, Path(scratch))
        setups = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            started = perf_counter()
            workload.prepare(scale)
            setups.append(import_s + perf_counter() - started)

        # The host is probed between the timed repeats; each repeat is
        # corrected by the mean of the probes on either side of it.
        probes = [host_probe()]
        samples = []
        while repeats is None or len(samples) < repeats:
            samples.append(workload.run())
            probes.append(host_probe())
            if repeats is None:
                repeats = max(1, round(seconds / samples[0].metrics["wall_s"]))
        speeds = [
            (before + after) / 2 / PROBE_REFERENCE_S
            for before, after in zip(probes, probes[1:])
        ]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        checks = workload.verify(samples[-1])
        for sample in samples:
            checks.merge(sample.checks)
            checks.expect(
                sample.outputs == samples[0].outputs,
                f"{name}: count metrics differ between repeats",
            )
        values = {
            metric: [
                host_corrected(BY_NAME[metric], sample.metrics[metric], speed)
                for sample, speed in zip(samples, speeds)
            ]
            for metric in samples[0].metrics
        }
        values["setup_s"] = [
            host_corrected(BY_NAME["setup_s"], setup, speeds[0]) for setup in setups
        ]
        values["peak_rss_mb"] = [peak_rss_mb]
        values["host.speed"] = speeds
        values["host.wall_raw_s"] = [sample.metrics["wall_s"] for sample in samples]
        ops = sum(sample.ops for sample in samples)
        failed = sum(sample.failed for sample in samples)

        expected = [
            metric
            for metric in metrics_for(name, END_TO_END + PER_LAYER)
            if trace or metric.layer in ("end_to_end", "host")
        ]
        if trace:
            tracer = Tracer()
            traced = workload.run_traced(tracer)
            checks.merge(traced.checks)
            checks.expect(
                traced.outputs == samples[0].outputs,
                f"{name}: traced pass disagrees with the untraced run: "
                f"{traced.outputs} != {samples[0].outputs}",
            )
            ops += traced.ops
            failed += traced.failed
            # Both walls at reference speed: the two passes run a
            # quarter of a minute apart on a host that does not hold still.
            probes.append(host_probe())
            traced_speed = (probes[-2] + probes[-1]) / 2 / PROBE_REFERENCE_S
            untraced_wall = statistics.median(values["wall_s"])
            traced.metrics["trace_overhead_share"] = (
                traced.metrics["traced_wall_s"] / traced_speed - untraced_wall
            ) / untraced_wall
            for metric, value in traced.metrics.items():
                # The traced pass recomputes the count metrics; the
                # report keeps the untraced pass's (they are equal).
                values.setdefault(metric, [value])
            tracer.write(
                out_dir / f"trace-{name}.json",
                {"workload": name, "seed": seed, "scale": scale,
                 "untraced_wall_s": statistics.median(values["host.wall_raw_s"]),
                 "traced_wall_s": traced.metrics["traced_wall_s"]},
            )

    mismatch = {metric.name for metric in expected} ^ set(values)
    if mismatch:
        raise RuntimeError(f"{name}: metrics emitted and catalogued differ: {mismatch}")
    return {
        "workload": name,
        "why": spec["why"],
        "seed": seed,
        "scale": scale,
        "repeats": len(samples),
        "traced": trace,
        "metrics": {
            metric.name: dict(
                summarize(values[metric.name]), unit=metric.unit, layer=metric.layer
            )
            for metric in expected
        },
        "ops_attempted": ops + checks.attempted,
        "ops_failed": failed + checks.failed,
        "notes": checks.notes,
    }

#!/usr/bin/env python3
"""The repo's benchmark: one command, five workloads, every metric by name.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--repeats N] [--trace [0|1]] [--out FILE]
    python3 bench/run.py --compare BASE.json NEW.json

Each workload runs in a fresh interpreter.  With one ``--workload`` the
last line of standard output is the driver's JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for the metrics, the workloads and the trace files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import OUT_DIR, REPO_ROOT, ensure_program_importable  # noqa: E402
from bench.metrics import (  # noqa: E402
    BY_NAME,
    WORKLOADS,
    contract_end_to_end,
    contract_per_layer,
)

#: One timed repeat of every workload takes about this long on the
#: 2-core reference box; BENCHMARK.json's run_seconds.
DEFAULT_SECONDS = 12
DEFAULT_SEED = 11
_THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="the only source of randomness (default 11)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long to measure: sets the number of "
                             "fixed-size timed repeats (default 12 = one)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats, overriding --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced pass and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default bench/out/result-<time>.json)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"),
                        help="compare two result files; exit 1 on a regression")
    parser.add_argument("--worker-result", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# ----------------------------------------------------------------------
def worker(args: argparse.Namespace) -> int:
    """Measure one workload here and leave the entry in ``--worker-result``."""
    from bench.measure import measure_workload

    entry = measure_workload(
        args.workload[0], args.seed, args.seconds,
        repeats=args.repeats, trace=bool(args.trace),
    )
    args.worker_result.write_text(json.dumps(entry))
    return 0


def run_workload(name: str, args: argparse.Namespace, scratch: Path) -> dict:
    """One workload in a fresh interpreter, single-threaded numpy."""
    result_path = scratch / f"{name}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--worker-result", str(result_path),
    ]
    if args.repeats is not None:
        command += ["--repeats", str(args.repeats)]
    env = dict(os.environ, **dict.fromkeys(_THREAD_PINS, "1"))
    completed = subprocess.run(command, env=env)
    if completed.returncode != 0:
        sys.exit(f"bench: workload {name} failed (exit {completed.returncode})")
    return json.loads(result_path.read_text())


def report(entry: dict) -> str:
    lines = [
        f"== {entry['workload']}  (seed {entry['seed']}, "
        f"{entry['repeats']} timed repeat(s)) ==",
        f"   {entry['why']}",
        f"{'layer':<20} {'metric':<30} {'median':>14} {'unit':<12} "
        f"{'min':>12} {'max':>12} {'n':>2}  bound",
    ]
    for name, value in entry["metrics"].items():
        metric = BY_NAME[name]
        bound = ""
        if metric.bound is not None:
            bound = "exact" if metric.exact else f"{metric.bound:.0%}"
        lines.append(
            f"{value['layer']:<20} {name:<30} {value['value']:>14.6g} "
            f"{value['unit']:<12} {value['min']:>12.6g} {value['max']:>12.6g} "
            f"{value['n']:>2}  {bound}"
        )
    lines.append(
        f"ops_attempted={entry['ops_attempted']} ops_failed={entry['ops_failed']}"
    )
    lines += [f"   ! {note}" for note in entry["notes"]]
    return "\n".join(lines)


def contract_line(entry: dict, trace: int) -> str:
    """The driver's JSON object; a metric the workload bypasses reads 0."""
    listed = contract_per_layer() if trace else contract_end_to_end()
    metrics = {}
    for metric in listed:
        value = entry["metrics"].get(metric.name, {"value": 0})["value"]
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps({
        "correct": entry["ops_failed"] == 0,
        "attempted": entry["ops_attempted"],
        "failed": entry["ops_failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        from bench.compare import compare

        table, counts = compare(*args.compare)
        print(table)
        return 1 if counts["regressed"] else 0

    ensure_program_importable()
    try:
        import numpy  # noqa: F401
    except ImportError:
        sys.exit("bench: numpy is required (the benchmark measures the fast plane)")
    if args.worker_result is not None:
        return worker(args)

    names = args.workload or list(WORKLOADS)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    document = {
        "machine": machine(),
        "git": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as scratch:
        for name in names:
            entry = run_workload(name, args, Path(scratch))
            document["workloads"][name] = entry
            print(report(entry), end="\n\n", flush=True)
    out = args.out or OUT_DIR / f"result-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"results: {out}")
    failed = sum(entry["ops_failed"] for entry in document["workloads"].values())
    if len(names) == 1:
        print(contract_line(document["workloads"][names[0]], args.trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

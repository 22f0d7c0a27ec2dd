"""``--compare A.json B.json``: one verdict per (metric, workload).

Every end-to-end metric is judged against the bound the catalogue fixed
for it, each workload in its own row, every ratio with its base.  When
the repeats of either side spread wider than the bound the row is
*unresolved*, not unchanged — unless every repeat of the new side beats
every repeat of the base — and so is a timing beyond its bound that rests
on fewer than three repeats a side.  A regression makes the command exit
non-zero.
"""

from __future__ import annotations

import json
from pathlib import Path

from .metrics import END_TO_END, WORKLOADS, Metric

VERDICTS = ("improved", "unchanged", "regressed", "unresolved")

#: Repeats a side needs before a timing beyond its bound gets a verdict.
MIN_REPEATS = 3


def worsening(metric: Metric, base: float, new: float) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    if base == 0:
        if new == 0:
            return 0.0
        return float("inf") if _worse(metric, new, base) else float("-inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def _worse(metric: Metric, value: float, than: float) -> bool:
    return value > than if metric.better == "lower" else value < than


def _spread(entry: dict) -> float:
    value = entry["value"]
    return (entry["max"] - entry["min"]) / abs(value) if value else 0.0


def verdict(metric: Metric, base: dict, new: dict) -> str:
    """``base``/``new`` are result entries: value (median), min, max, n."""
    worse_by = worsening(metric, base["value"], new["value"])
    if metric.exact:
        if worse_by > 0:
            return "regressed"
        return "improved" if worse_by < 0 else "unchanged"
    if max(_spread(base), _spread(new)) > metric.bound:
        best_base = base["min"] if metric.better == "lower" else base["max"]
        worst_new = new["max"] if metric.better == "lower" else new["min"]
        if _worse(metric, best_base, worst_new):
            return "improved"  # every new repeat beats every base repeat
        return "unresolved"
    if abs(worse_by) <= metric.bound:
        return "unchanged"
    if min(base["n"], new["n"]) < MIN_REPEATS:
        return "unresolved"  # the spread of a timing is unknown from one or two repeats
    return "regressed" if worse_by > 0 else "improved"


def compare(base_path: Path, new_path: Path) -> tuple[str, dict[str, int]]:
    """The comparison table and the count of rows per verdict."""
    base_doc = json.loads(Path(base_path).read_text())
    new_doc = json.loads(Path(new_path).read_text())
    counts = dict.fromkeys(VERDICTS, 0)
    lines = [
        f"base: {base_path}  (git {base_doc.get('git')}, seed {base_doc.get('seed')})",
        f"new:  {new_path}  (git {new_doc.get('git')}, seed {new_doc.get('seed')})",
    ]
    if base_doc.get("machine") != new_doc.get("machine"):
        lines.append("note: the two files were measured on different machines")
    header = (
        f"{'workload':<15} {'metric':<12} {'base':>14} {'new':>14} "
        f"{'new/base':>9} {'bound':>6}  verdict"
    )
    lines += ["", header, "-" * len(header)]
    for workload in WORKLOADS:
        base_run = base_doc["workloads"].get(workload)
        new_run = new_doc["workloads"].get(workload)
        if base_run is None or new_run is None:
            continue
        for metric in END_TO_END:
            base = base_run["metrics"].get(metric.name)
            new = new_run["metrics"].get(metric.name)
            if base is None or new is None:
                continue
            result = verdict(metric, base, new)
            counts[result] += 1
            ratio = new["value"] / base["value"] if base["value"] else float("nan")
            bound = "exact" if metric.exact else f"{metric.bound:.0%}"
            lines.append(
                f"{workload:<15} {metric.name:<12} {base['value']:>14.6g} "
                f"{new['value']:>14.6g} {ratio:>8.3f}x {bound:>6}  {result}"
                f" (base {base['value']:.6g} {metric.unit}, n={base['n']}/{new['n']})"
            )
        lines.append(
            f"{workload:<15} failed ops   "
            f"{_failed_share(base_run):>14} {_failed_share(new_run):>14}"
        )
    lines.append("")
    lines.append(", ".join(f"{count} {name}" for name, count in counts.items()))
    return "\n".join(lines), counts


def _failed_share(run: dict) -> str:
    attempted = run["ops_attempted"]
    share = run["ops_failed"] / attempted if attempted else 0.0
    return f"{run['ops_failed']}/{attempted} ({share:.2%})"

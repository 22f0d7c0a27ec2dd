"""Tier-1 smoke test of the benchmark harness (every workload at ~1/100 scale).

Checks the harness, not the program's speed: every catalogued metric is
emitted exactly once with a unit, BENCHMARK.json says what the harness
says, the oracle catches a corrupted table, and ``--compare`` tells a
regression from noise.  No timing is asserted.
"""

import json
import re

import pytest

pytest.importorskip("numpy")  # the benchmark measures the fast plane only

from bench import REPO_ROOT, measure, oracle  # noqa: E402
from bench.compare import verdict
from bench.metrics import (
    BY_NAME,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    contract_end_to_end,
    contract_per_layer,
    metrics_for,
)
from bench.run import DEFAULT_SECONDS, contract_line
from bench.tracing import Tracer

SMOKE_SCALE = 0.01


@pytest.fixture(scope="module")
def entries(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bench-out")
    patch = pytest.MonkeyPatch()
    patch.setattr(measure, "SETUP_REPEATS", 1)
    patch.setattr(measure, "PROBE_KEYS", 5_000)  # a token probe: nothing is timed here
    try:
        yield {
            name: measure.measure_workload(
                name, seed=5, seconds=1, repeats=1, trace=True,
                scale=SMOKE_SCALE, out_dir=out_dir,
            )
            for name in WORKLOADS
        }, out_dir
    finally:
        patch.undo()


def test_every_metric_is_emitted_once_with_a_unit(entries):
    results, _ = entries
    for name in WORKLOADS:
        entry = results[name]
        expected = [m.name for m in metrics_for(name, END_TO_END + PER_LAYER)]
        assert list(entry["metrics"]) == expected
        assert len(set(expected)) == len(expected)
        for metric, value in entry["metrics"].items():
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
            assert value["unit"] == BY_NAME[metric].unit != ""
            assert value["n"] >= 1
        assert entry["ops_attempted"] > 0
        assert entry["ops_failed"] == 0, entry["notes"]


def test_layers_show_where_they_should(entries):
    results, _ = entries
    durable = results["engine-durable"]["metrics"]
    assert durable["format.appends"]["value"] > 0
    assert durable["format.syncs"]["value"] > 0
    assert "format.appends" not in results["engine-kv"]["metrics"]
    assert "read_path.reads" not in results["policy-sweep"]["metrics"]
    assert results["mixed-serving"]["metrics"]["read_path.reads"]["value"] > 0
    assert results["policy-sweep"]["metrics"]["hll.sketches"]["value"] > 0
    assert results["bulk-merge"]["metrics"]["hll.sketches"]["value"] == 0
    for name in WORKLOADS:
        metrics = results[name]["metrics"]
        if "compaction.entries_merged" in metrics:
            assert (
                metrics["compaction.entries_merged"]["value"]
                == metrics["cost_actual"]["value"]
            )


def test_trace_files_hold_the_spans(entries):
    _, out_dir = entries
    for name in WORKLOADS:
        trace = json.loads((out_dir / f"trace-{name}.json").read_text())
        assert trace["columns"][:5] == ["name", "start", "end", "parent", "cell"]
        assert trace["spans"], name
        root = trace["spans"][0]
        assert trace["names"][root[0]] == "workload" and root[3] is None
        for span in trace["spans"][1:50]:
            assert span[1] <= span[2]
            assert span[3] is not None or trace["names"][span[0]].startswith("lsm.format")


def test_benchmark_json_matches_the_harness():
    document = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["bench"]
    assert document["command"] == ["python3", "bench/run.py"]
    assert document["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    for workload in document["workloads"]:
        assert workload["why"] == measure.load_spec(workload["name"])["why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert document["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.seed_bound}
        for m in contract_end_to_end()
    ]
    assert document["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in contract_per_layer()
    ]
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names[: len(document["end_to_end"])]
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
    assert all(len(m["unit"]) <= 16 for m in document["end_to_end"] + document["per_layer"])


def test_contract_line_lists_exactly_the_declared_metrics(entries):
    results, _ = entries
    for trace, listed in ((0, contract_end_to_end()), (1, contract_per_layer())):
        line = json.loads(contract_line(results["engine-kv"], trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m.name for m in listed]
        assert line["correct"] is True and line["failed"] == 0


def test_oracle_catches_a_corrupted_output_table():
    from repro.lsm import SSTable

    keys = [5, 1, 5, 9, 1, 7]  # writes 1..6; key 9 (write 4) is deleted
    live = oracle.replay_writes(keys, [3])
    assert live == {5: 3, 1: 5, 7: 6}
    good = SSTable.from_columns(0, [1, 5, 7], [5, 3, 6], 100)
    assert oracle.check_tables([good], live, "good").failed == 0
    stale = SSTable.from_columns(1, [1, 5, 7], [2, 3, 6], 100)  # old version of key 1
    dropped = SSTable.from_columns(2, [1, 5], [5, 3], 100)  # key 7 lost
    undead = SSTable.from_columns(3, [1, 5, 7, 9], [5, 3, 6, 4], 100)
    for corrupted in (stale, dropped, undead):
        checks = oracle.check_tables([corrupted], live, "corrupted")
        assert checks.failed == 1 and checks.notes


def test_compare_verdicts():
    wall = BY_NAME["wall_s"]
    cost = BY_NAME["cost_actual"]
    steady = {"value": 10.0, "min": 9.9, "max": 10.1, "n": 3}
    assert verdict(wall, steady, {"value": 10.5, "min": 10.4, "max": 10.6, "n": 3}) == "unchanged"
    assert verdict(wall, steady, {"value": 11.5, "min": 11.4, "max": 11.6, "n": 3}) == "regressed"
    assert verdict(wall, steady, {"value": 8.0, "min": 7.9, "max": 8.1, "n": 3}) == "improved"
    noisy = {"value": 10.0, "min": 9.0, "max": 11.5, "n": 3}
    assert verdict(wall, steady, noisy) == "unresolved"
    assert verdict(wall, noisy, {"value": 8.0, "min": 7.9, "max": 8.1, "n": 3}) == "improved"
    once = {"value": 10.0, "min": 10.0, "max": 10.0, "n": 1}
    assert verdict(wall, once, {"value": 12.0, "min": 12.0, "max": 12.0, "n": 1}) == "unresolved"
    assert verdict(wall, once, {"value": 10.5, "min": 10.5, "max": 10.5, "n": 1}) == "unchanged"
    exact = {"value": 100, "min": 100, "max": 100, "n": 1}
    assert verdict(cost, exact, exact) == "unchanged"
    assert verdict(cost, exact, {"value": 101, "min": 101, "max": 101, "n": 1}) == "regressed"
    higher = BY_NAME["ops_per_s"]
    assert verdict(higher, steady, {"value": 8.0, "min": 7.9, "max": 8.1, "n": 3}) == "regressed"


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    with tracer.span("outer", cell="c") as outer:
        tracer.add("inner", 1.0, 3.0, outer)
    outer[1], outer[2] = 0.0, 10.0
    assert tracer.self_times() == {"outer": 8.0, "inner": 2.0}
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == "c"

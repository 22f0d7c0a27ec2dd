"""Phase-1 ingest plumbing: the ingest wall clock.

Phase 1 times table generation on either plane, and the aggregate
carries that wall clock into manifest cells without a report column.
"""

import pytest

from repro.cli import main
from repro.scenarios import ResultsStore
from repro.simulator.config import SimulationConfig
from repro.simulator.metrics import StrategyResult, aggregate
from repro.simulator.phase1 import generate_sstables, generate_sstables_reference

TINY = dict(recordcount=120, operationcount=1500, memtable_capacity=100, seed=3)


def _result(**kwargs):
    base = dict(
        strategy="SI", n_tables=4, n_merges=1, cost_actual=10,
        cost_simplified=10, lopt_entries=10, bytes_read=0, bytes_written=0,
        io_seconds=0.0, simulated_seconds=0.0,
        strategy_overhead_seconds=0.0, wall_seconds=0.0,
    )
    base.update(kwargs)
    return StrategyResult(**base)


class TestIngestWall:
    @pytest.mark.parametrize(
        "plane", [generate_sstables, generate_sstables_reference]
    )
    def test_measured_on_either_plane(self, plane):
        assert plane(SimulationConfig(**TINY)).ingest_wall_seconds > 0.0

    def test_aggregate_carries_the_mean(self):
        agg = aggregate(
            [_result(ingest_wall_seconds=1.0), _result(ingest_wall_seconds=3.0)]
        )
        assert agg.ingest_wall_seconds_mean == 2.0


TINY_SETS = [
    "--set", "recordcount=120",
    "--set", "operationcount=1500",
    "--set", "memtable_capacity=100",
]


class TestCli:
    def test_ingest_wall_reaches_the_manifest_not_the_report(
        self, capsys, tmp_path
    ):
        store = tmp_path / "runs"
        code = main(
            ["run", "churn", "--runs", "1", "--store", str(store)] + TINY_SETS
        )
        assert code == 0
        assert "ingest s" not in capsys.readouterr().out
        manifest = next(iter(ResultsStore(store).manifests("churn")))
        cells = _manifest_cells(manifest)
        assert cells, "manifest has no strategy cells"
        for cell in cells:
            assert cell["ingest_wall_seconds_mean"] > 0.0


def _manifest_cells(manifest):
    """Every per-strategy metrics dict in a manifest document."""
    found = []

    def walk(node):
        if isinstance(node, dict):
            if "cost_actual_mean" in node:
                found.append(node)
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    walk(manifest.document if hasattr(manifest, "document") else manifest.__dict__)
    return found

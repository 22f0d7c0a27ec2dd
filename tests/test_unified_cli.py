"""Tests for the unified ``python -m repro`` CLI (repro.cli)."""

import json

import pytest

from repro.cli import main
from repro.scenarios import REGISTRY, ResultsStore, Scenario

TINY_SETS = [
    "--set", "recordcount=150",
    "--set", "operationcount=1500",
    "--set", "memtable_capacity=150",
]


class TestListScenarios:
    def test_lists_every_registered_scenario(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.names():
            assert name in out
        # legacy figures and >=3 presets visible (acceptance criterion)
        for name in ("fig7a", "fig7b", "fig8", "fig9a", "fig9b"):
            assert name in out
        assert len([s for s in REGISTRY.scenarios("preset")]) >= 3

    def test_tag_filter(self, capsys):
        assert main(["list-scenarios", "--tag", "preset"]) == 0
        out = capsys.readouterr().out
        assert "read-heavy" in out
        assert "fig7a" not in out

    def test_json_dump_roundtrips(self, capsys):
        assert main(["list-scenarios", "--json"]) == 0
        specs = json.loads(capsys.readouterr().out)
        assert len(specs) == len(REGISTRY)
        for spec in specs:
            assert Scenario.from_dict(spec) == REGISTRY.get(spec["name"])


class TestRun:
    def test_run_writes_manifest(self, capsys, tmp_path):
        store_dir = tmp_path / "runs"
        code = main(
            ["run", "churn", "--runs", "1", "--store", str(store_dir)] + TINY_SETS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "churn" in out and "costactual" in out
        assert "[manifest written to" in out
        manifests = list(ResultsStore(store_dir).manifests("churn"))
        assert len(manifests) == 1
        assert manifests[0].config["operationcount"] == 1500

    def test_no_store(self, capsys, tmp_path):
        code = main(["run", "churn", "--runs", "1", "--no-store"] + TINY_SETS)
        assert code == 0
        assert "[manifest" not in capsys.readouterr().out

    def test_verbose_surfaces_the_data_plane(self, capsys):
        code = main(
            ["run", "churn", "--runs", "1", "--no-store", "--verbose"]
            + TINY_SETS
        )
        assert code == 0
        assert "[data plane: fast" in capsys.readouterr().out
        code = main(
            ["run", "churn", "--runs", "1", "--no-store", "--verbose",
             "--data-plane", "reference"] + TINY_SETS
        )
        assert code == 0
        assert "[data plane: reference" in capsys.readouterr().out

    def test_header_always_shows_the_plane(self, capsys):
        code = main(["run", "churn", "--runs", "1", "--no-store"] + TINY_SETS)
        assert code == 0
        assert "plane=fast" in capsys.readouterr().out

    def test_storage_disk_smoke(self, capsys):
        """--storage disk spills phase-1 tables through the on-disk
        sstable format; the run completes with the same output shape."""
        code = main(
            ["run", "churn", "--runs", "1", "--no-store", "--storage", "disk"]
            + TINY_SETS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "costactual" in out
        assert "storage=disk" in out

    def test_kernel_sweep_parameter(self, capsys):
        code = main(
            ["sweep", "--parameter", "k", "--values", "2,4",
             "--recordcount", "150", "--operationcount", "1500",
             "--memtable", "150", "--strategies", "SI", "--runs", "1",
             "--no-store"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adhoc-sweep" in out and "k" in out

    def test_run_spec_file(self, capsys, tmp_path):
        spec = REGISTRY.get("read-heavy").to_dict()
        spec["config"].update(
            recordcount=150, operationcount=1000, memtable_capacity=150
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["run", "--spec", str(path), "--runs", "1", "--no-store"])
        assert code == 0
        assert "read-heavy" in capsys.readouterr().out

    def test_missing_scenario_and_spec_errors(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_unknown_scenario_is_clean_error(self, capsys):
        assert main(["run", "nope", "--no-store"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_strategy_and_seed_overrides(self, capsys):
        code = main(
            ["run", "churn", "--runs", "1", "--no-store", "--strategies",
             "SI,RANDOM", "--seed", "9"] + TINY_SETS
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "seed=9" in out
        assert "SO" not in out.split("config:")[1]  # only SI/RANDOM rows

    def test_bad_set_value_is_clean_error(self, capsys):
        assert (
            main(["run", "churn", "--no-store", "--set", "k=1"] + TINY_SETS) == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_set_value_is_clean_error(self, capsys):
        """--set k=two reaches a validation comparison; no raw traceback."""
        assert (
            main(["run", "churn", "--no-store", "--set", "k=two"] + TINY_SETS)
            == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_sharded_reference_plane_is_clean_error(self, capsys):
        """There is no sharded reference plane; ``--set`` cannot ask for
        one and get a fast-plane run recorded as ``reference``."""
        sets = ["--set", "data_plane=reference", "--set", "num_shards=2"]
        assert main(["run", "churn", "--no-store"] + sets + TINY_SETS) == 2
        err = capsys.readouterr().err
        assert "data_plane" in err and "num_shards" in err

    def test_zero_runs_is_clean_error(self, capsys):
        assert main(["run", "churn", "--no-store", "--runs", "0"] + TINY_SETS) == 2
        assert "error:" in capsys.readouterr().err

    def test_incomplete_spec_file_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"name": "x"}))  # missing title/config
        assert main(["run", "--spec", str(path), "--no-store"]) == 2
        assert "invalid scenario spec" in capsys.readouterr().err

    def test_unreadable_or_corrupt_spec_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["run", "--spec", str(tmp_path / "missing.json")])
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            main(["run", "--spec", str(bad)])


class TestSweep:
    def test_adhoc_sweep(self, capsys, tmp_path):
        code = main(
            [
                "sweep",
                "--parameter", "update_fraction",
                "--values", "0,1",
                "--recordcount", "150",
                "--operationcount", "1000",
                "--memtable", "150",
                "--runs", "1",
                "--strategies", "SI,RANDOM",
                "--store", str(tmp_path / "runs"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adhoc-sweep" in out
        assert "update_percentage" in out
        manifest = next(ResultsStore(tmp_path / "runs").manifests("adhoc-sweep"))
        assert {cell["x"] for cell in manifest.cells} == {0.0, 100.0}


#: Tiny scale per figure id: a sweep's own parameter (and the
#: operationcount a capacity sweep derives) cannot be ``--set``.
FIGURE_SETS = {
    "fig7a": TINY_SETS,
    "fig7b": TINY_SETS,
    "fig8": ["--set", "recordcount=150"],
    "fig9a": TINY_SETS,
    "fig9b": ["--set", "recordcount=150", "--set", "memtable_capacity=150"],
}


def panel_section(out: str) -> str:
    """A report minus its header block and bracketed trailer lines."""
    return out.split("\n\n", 1)[1].split("\n[", 1)[0].rstrip("\n")


class TestFigures:
    @pytest.fixture()
    def sweeps(self, monkeypatch):
        """The ``execute_sweep`` calls made, each distinct sweep executed
        once: time panels fold measured strategy overhead in, so two
        commands compare byte for byte only over the same execution."""
        import repro.scenarios.runner as runner

        real, executed, calls = runner.execute_sweep, {}, []

        def execute_once(*args, **kwargs):
            key = (args, tuple(sorted(kwargs.items())))
            calls.append(key)
            if key not in executed:
                executed[key] = real(*args, **kwargs)
            return executed[key]

        monkeypatch.setattr(runner, "execute_sweep", execute_once)
        return calls

    @pytest.mark.parametrize("name", list(FIGURE_SETS))
    def test_figures_is_run_plus_the_artefact(self, name, sweeps, capsys, tmp_path):
        scale = ["--fast", "--runs", "1"] + FIGURE_SETS[name]
        out_dir, store = tmp_path / "figs", tmp_path / "runs"
        assert main(
            ["figures", name, "--out", str(out_dir), "--store", str(store)] + scale
        ) == 0
        figures_out = capsys.readouterr().out
        assert main(["run", name, "--store", str(store)] + scale) == 0
        run_out = capsys.readouterr().out

        panel = panel_section(figures_out)
        assert panel == panel_section(run_out)
        assert figures_out.splitlines()[:3] == run_out.splitlines()[:3]
        title = REGISTRY.get(name).title
        assert (out_dir / f"{name}.txt").read_text() == f"{title}\n\n{panel}\n"
        assert [path.name for path in out_dir.iterdir()] == [f"{name}.txt"]
        by_figures, by_run = ResultsStore(store).manifests(name)
        assert by_figures.cells == by_run.cells
        assert by_figures.spec_hash == by_run.spec_hash

    def test_each_figure_prints_its_own_panel(self, capsys):
        marks = {
            "fig7a": "costactual (entries)",
            "fig7b": "compaction time (simulated s)",
            "fig8": "LOPT (sum sizes)",
            "fig9a": "while update % varies",
            "fig9b": "while operationcount varies",
        }
        for name, mark in marks.items():
            scale = ["--fast", "--runs", "1", "--no-store"] + FIGURE_SETS[name]
            assert main(["run", name] + scale) == 0
            out = capsys.readouterr().out
            assert [m for m in marks.values() if m in out] == [mark]

    def test_fig7_executes_one_sweep_for_both_panels(
        self, sweeps, capsys, tmp_path
    ):
        out_dir, store = tmp_path / "figs", tmp_path / "runs"
        assert main(
            ["figures", "fig7", "--fast", "--runs", "1", "--strategies", "SI,SO",
             "--out", str(out_dir), "--store", str(store)] + TINY_SETS
        ) == 0
        assert len(sweeps) == 1
        out = capsys.readouterr().out
        assert out.index("== fig7a:") < out.index("== fig7b:")
        assert sorted(p.name for p in out_dir.iterdir()) == ["fig7a.txt", "fig7b.txt"]
        for name in ("fig7a", "fig7b"):
            (manifest,) = ResultsStore(store).manifests(name)
            assert manifest.scenario["name"] == name
            assert manifest.scenario["strategies"] == ["SI", "SO"]
            assert manifest.spec_hash != REGISTRY.get(name).spec_hash()

    def test_all_draws_the_five_panels(self, sweeps, capsys, tmp_path):
        assert main(
            ["figures", "all", "--fast", "--runs", "1", "--no-store",
             "--out", str(tmp_path), "--set", "recordcount=150"]
        ) == 0
        assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(FIGURE_SETS)
        # fig7 once, fig8 once, fig9a / fig9b once per distribution
        assert len(sweeps) == len(set(sweeps)) == 1 + 1 + 3 + 3
        assert "[manifest" not in capsys.readouterr().out

    def test_unknown_figure_and_removed_executor_are_clean_errors(self, capsys):
        assert main(["figures", "churn"]) == 2
        assert "unknown figure 'churn'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["figures", "fig8", "--merge-executor", "process"])
        assert "choose from 'serial', 'thread'" in capsys.readouterr().err


class TestBenchTrends:
    @staticmethod
    def _write_snapshot(directory, speedup, seconds, cpu_count=None):
        directory.mkdir(parents=True, exist_ok=True)
        document = {
            "bench": "demo",
            "fast_mode": False,
            "speedup": speedup,
            "optimized_seconds": seconds,
        }
        if cpu_count is not None:
            document["machine"] = {"cpu_count": cpu_count}
        (directory / "BENCH_demo.json").write_text(json.dumps(document))

    def test_single_snapshot_table(self, capsys, tmp_path):
        self._write_snapshot(tmp_path / "a", 8.0, 0.1)
        assert main(["bench-trends", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "bench: demo" in out and "speedup" in out
        assert "single snapshot" in out

    def test_regression_flagged_and_fails(self, capsys, tmp_path):
        self._write_snapshot(tmp_path / "old", 8.0, 0.1)
        self._write_snapshot(tmp_path / "new", 4.0, 0.1)  # speedup halved
        code = main(
            [
                "bench-trends",
                str(tmp_path / "old"),
                str(tmp_path / "new"),
                "--fail-on-regression",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out
        assert "demo:speedup" in out

    def test_improvement_not_flagged(self, capsys, tmp_path):
        self._write_snapshot(tmp_path / "old", 4.0, 0.2)
        self._write_snapshot(tmp_path / "new", 8.0, 0.1)
        code = main(
            ["bench-trends", str(tmp_path / "old"), str(tmp_path / "new"),
             "--fail-on-regression"]
        )
        assert code == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_cross_machine_movement_does_not_fail(self, capsys, tmp_path):
        """A worse number on a different machine is not a regression."""
        self._write_snapshot(tmp_path / "old", 8.0, 0.1, cpu_count=8)
        self._write_snapshot(tmp_path / "new", 2.0, 0.4, cpu_count=1)
        code = main(
            ["bench-trends", str(tmp_path / "old"), str(tmp_path / "new"),
             "--fail-on-regression"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CROSS-MACHINE" in out
        assert "0 regression(s)" in out

    def test_same_machine_movement_still_fails(self, capsys, tmp_path):
        self._write_snapshot(tmp_path / "old", 8.0, 0.1, cpu_count=4)
        self._write_snapshot(tmp_path / "new", 2.0, 0.4, cpu_count=4)
        code = main(
            ["bench-trends", str(tmp_path / "old"), str(tmp_path / "new"),
             "--fail-on-regression"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_reads_committed_results_dir(self, capsys):
        """The repo's own results/ snapshots render without error."""
        from pathlib import Path

        results = Path(__file__).resolve().parent.parent / "results"
        assert main(["bench-trends", str(results)]) == 0
        out = capsys.readouterr().out
        assert "bench:" in out

    def test_missing_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench-trends", str(tmp_path / "missing")])

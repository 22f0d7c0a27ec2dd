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

    def test_verbose_surfaces_runs_and_jobs(self, capsys):
        code = main(
            ["run", "churn", "--runs", "1", "--no-store", "--verbose"]
            + TINY_SETS
        )
        assert code == 0
        assert "[runs=1 jobs=1" in capsys.readouterr().out

    def test_header_shows_the_spec_not_the_implementation(self, capsys):
        code = main(["run", "churn", "--runs", "1", "--no-store"] + TINY_SETS)
        assert code == 0
        out = capsys.readouterr().out
        spec_hash = REGISTRY.get("churn").spec_hash()
        assert f"spec {spec_hash}  runs=1 jobs=1" in out
        for word in ("plane=", "backend=", "storage="):
            assert word not in out

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

    @pytest.mark.parametrize(
        "field",
        [
            "merge_executor",
            "merge_workers",
            "write_pipeline",
            "max_immutable_memtables",
            "flush_workers",
        ],
    )
    def test_removed_thread_knob_flags_are_argparse_errors(self, capsys, field):
        flag = "--" + field.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["run", "churn", "--no-store", flag, "2"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--backend", "frozenset"),
            ("--data-plane", "reference"),
            ("--storage", "disk"),
            ("--wal-sync-every", "16"),
        ],
    )
    def test_removed_implementation_flags_are_argparse_errors(
        self, capsys, flag, value
    ):
        """The set backend, data plane, storage and WAL cadence are not
        part of an experiment: their flags are gone."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "churn", "--no-store", flag, value] + TINY_SETS)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and flag in err

    @pytest.mark.parametrize(
        "setting",
        [
            "backend=frozenset",
            "data_plane=reference",
            "storage=disk",
            "wal_sync_every=16",
        ],
    )
    def test_removed_implementation_keys_are_clean_errors(self, capsys, setting):
        sets = ["--set", setting]
        assert main(["run", "churn", "--no-store"] + sets + TINY_SETS) == 2
        err = capsys.readouterr().err
        assert "error:" in err and setting.split("=")[0] in err

    def test_duplicate_strategies_are_clean_error(self, capsys):
        """Each label would run twice but key one row and one cell."""
        code = main(
            ["run", "churn", "--no-store", "--strategies", "SI,SI,STCS"]
            + TINY_SETS
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "duplicate strategies ['SI']" in err

    def test_removed_merge_executor_is_clean_error(self, capsys):
        """The thread executor and its knobs are gone: ``--set`` names
        the unknown field."""
        sets = ["--set", "merge_executor=thread"]
        assert main(["run", "churn", "--no-store"] + sets + TINY_SETS) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "merge_executor" in err

    def test_nan_disk_model_is_clean_error(self, capsys):
        sets = ["--set", "disk_seek_seconds=nan"]
        assert main(["run", "churn", "--no-store"] + sets + TINY_SETS) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "disk_seek_seconds" in err

    def test_bool_in_spec_file_is_clean_error(self, capsys, tmp_path):
        spec = REGISTRY.get("churn").to_dict()
        spec["config"]["memtable_capacity"] = True
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(path), "--no-store"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "memtable_capacity" in err

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

    def test_unknown_figure_is_clean_error(self, capsys):
        assert main(["figures", "churn"]) == 2
        assert "unknown figure 'churn'" in capsys.readouterr().err

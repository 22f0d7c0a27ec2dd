"""End-to-end ExperimentRunner + ResultsStore at tiny scale."""

import json
from pathlib import Path

import pytest

from repro.errors import ResultsStoreError, ScenarioError
from repro.scenarios import (
    REGISTRY,
    ExperimentRunner,
    ResultsStore,
    Scenario,
    SweepSpec,
)
from repro.scenarios.store import SCHEMA_VERSION
from repro.simulator import SimulationConfig
from repro.simulator.runner import ComparisonResult, SweepResult

TINY = {"recordcount": 150, "operationcount": 1500, "memtable_capacity": 150}
COMMITTED_MANIFESTS = sorted(
    (Path(__file__).parents[2] / "results" / "runs").glob("*/*.json")
)


@pytest.fixture()
def store(tmp_path):
    return ResultsStore(tmp_path / "runs")


@pytest.fixture()
def runner(store):
    return ExperimentRunner(store=store)


class TestRunner:
    def test_comparison_scenario(self, runner):
        run = runner.run("churn", runs=1, overrides=TINY)
        assert set(run.results) == {"uniform"}
        comparison = run.results["uniform"]
        assert isinstance(comparison, ComparisonResult)
        assert set(comparison.per_strategy) == set(run.scenario.strategies)
        assert run.config.operationcount == 1500
        assert "churn" in run.render()

    def test_sweep_scenario(self, runner):
        run = runner.run(
            "fig7a",
            runs=1,
            overrides={**TINY, "operationcount": 1000},
        )
        sweep = run.results["latest"]
        assert isinstance(sweep, SweepResult)
        assert [point.x for point in sweep.points] == [0.0, 25.0, 50.0, 75.0, 100.0]

    def test_distribution_axis(self, runner):
        scenario = REGISTRY.get("distributions")
        run = runner.run(scenario, runs=1, overrides=TINY)
        assert set(run.results) == {"uniform", "zipfian", "latest"}

    @pytest.mark.parametrize("name", ("read-heavy", "timeseries-scan"))
    def test_new_mix_presets_execute(self, runner, name):
        """Read/scan mixes run end to end (on the fast plane)."""
        run = runner.run(name, runs=1, overrides=TINY)
        assert run.plane_used == "fast"
        (comparison,) = run.results.values()
        for agg in comparison.per_strategy.values():
            assert agg.cost_actual_mean > 0

    def test_practical_strategies_execute(self, runner):
        run = runner.run("practical", runs=1, overrides=TINY)
        (comparison,) = run.results.values()
        assert set(comparison.per_strategy) == {"SI", "BT(I)", "STCS", "LEVELED"}

    def test_practical_strategies_identical_under_heap_kernel(self):
        """STCS/LEVELED merge with the auto kernel; the heap kernel, set
        on the built strategy, writes the very same output tables."""
        from repro.lsm import SimulatedDisk
        from repro.simulator import build_strategy, generate_sstables

        config = REGISTRY.get("practical").config.overridden(TINY)
        tables = generate_sstables(config).tables
        for label in ("STCS", "LEVELED"):
            outputs = []
            for kernel in ("auto", "heap"):
                strategy = build_strategy(label, config)
                assert strategy.merge_kernel == "auto"
                strategy.merge_kernel = kernel
                result = strategy.compact(
                    tables, SimulatedDisk(config.timing_model()), 10_000
                )
                outputs.append(
                    (
                        result.cost_actual_entries,
                        [t.records for t in result.output_tables],
                    )
                )
            assert outputs[0] == outputs[1], label

    def test_distribution_override_wins_and_is_recorded(self, runner):
        """A --set distribution=X override must actually run X."""
        run = runner.run(
            "fig7a",
            runs=1,
            overrides={**TINY, "operationcount": 1000, "distribution": "uniform"},
        )
        assert run.config.distribution == "uniform"
        assert set(run.results) == {"uniform"}
        # and it replaces a spec's whole distribution axis, not one leg
        run = runner.run(
            "distributions",
            runs=1,
            overrides={**TINY, "distribution": "zipfian"},
        )
        assert set(run.results) == {"zipfian"}

    def test_strategy_override(self, runner):
        run = runner.run("churn", runs=1, overrides=TINY, strategies=("SI",))
        (comparison,) = run.results.values()
        assert set(comparison.per_strategy) == {"SI"}

    def test_unknown_scenario_raises(self, runner):
        with pytest.raises(ScenarioError):
            runner.run("not-a-scenario")

    def test_bad_override_raises(self, runner):
        with pytest.raises(Exception):
            runner.run("churn", runs=1, overrides={"not_a_field": 1})

    def test_override_of_swept_parameter_rejected(self, runner):
        """The sweep would silently discard it while the manifest
        recorded it as applied — refuse instead."""
        with pytest.raises(ScenarioError, match="update_fraction"):
            runner.run("fig7a", runs=1, overrides={"update_fraction": 0.3})
        # Figure-8 style sweeps also derive operationcount per point
        with pytest.raises(ScenarioError, match="operationcount"):
            runner.run("fig8", runs=1, overrides={"operationcount": 1000})
        with pytest.raises(ScenarioError, match="memtable_capacity"):
            runner.run("fig8", runs=1, overrides={"memtable_capacity": 10})

    def test_churn_mix_identical_across_data_planes(self):
        """Delete mixes batch on the fast plane; planes stay bit-identical."""
        from repro.simulator import generate_sstables, generate_sstables_reference

        base = REGISTRY.get("churn").config.overridden(TINY)
        fast = generate_sstables(base)
        reference = generate_sstables_reference(base)
        assert [t.records for t in fast.tables] == [
            t.records for t in reference.tables
        ]

    def test_read_scan_mixes_identical_across_data_planes(self):
        """Read/scan mixes batch on the fast plane bit-identically."""
        from repro.simulator import generate_sstables, generate_sstables_reference

        for name in ("read-heavy", "timeseries-scan"):
            base = REGISTRY.get(name).config.overridden(TINY)
            fast = generate_sstables(base)
            reference = generate_sstables_reference(base)
            assert [t.records for t in fast.tables] == [
                t.records for t in reference.tables
            ]
            assert fast.read_ops == reference.read_ops

    def test_jobs_do_not_change_results(self, store):
        serial = ExperimentRunner(store=None, jobs=1).run(
            "churn", runs=2, overrides=TINY
        )
        parallel = ExperimentRunner(store=None, jobs=2).run(
            "churn", runs=2, overrides=TINY
        )
        for label in serial.scenario.strategies:
            a = serial.results["uniform"].per_strategy[label]
            b = parallel.results["uniform"].per_strategy[label]
            # Deterministic outputs only: the aggregate seconds fold in
            # measured wall-clock strategy overhead, which varies.
            assert a.cost_actual_mean == b.cost_actual_mean
            assert a.cost_actual_std == b.cost_actual_std
            assert a.lopt_entries_mean == b.lopt_entries_mean


class TestStore:
    def test_manifest_written_and_loaded(self, runner, store):
        run, path = runner.run_and_record("churn", runs=1, overrides=TINY)
        manifest = store.load(path)
        assert manifest.schema_version == SCHEMA_VERSION
        assert manifest.spec_hash == run.scenario.spec_hash()
        assert manifest.config["operationcount"] == 1500
        assert manifest.runs == 1
        assert manifest.plane_used == "fast"
        assert len(manifest.cells) == len(run.scenario.strategies)
        for cell in manifest.cells:
            assert cell["distribution"] == "uniform"
            assert cell["plane_used"] == "fast"
            assert cell["cost_actual_mean"] > 0

    @pytest.mark.parametrize(
        "path", COMMITTED_MANIFESTS, ids=lambda path: path.parent.name
    )
    def test_committed_manifest_rebuilds(self, path):
        """Manifests written before any knob retired still rebuild to
        the registered spec."""
        manifest = ResultsStore(path.parents[1]).load(path)
        rebuilt = Scenario.from_dict(manifest.scenario)
        assert rebuilt == REGISTRY.get(rebuilt.name)

    def test_manifest_spec_is_rerunnable(self, runner, store):
        _, path = runner.run_and_record("read-heavy", runs=1, overrides=TINY)
        manifest = store.load(path)
        rebuilt = Scenario.from_dict(manifest.scenario)
        assert rebuilt == REGISTRY.get("read-heavy")

    def test_manifest_holding_retired_knobs_is_rerunnable(self, runner, store):
        """Manifests written while the thread merge executor, the
        pipelined ingest and the four implementation knobs (set backend,
        data plane, storage, WAL sync cadence) existed record them, at
        any value; none ever changed an output, so the spec rebuilds
        without them."""
        _, path = runner.run_and_record("read-heavy", runs=1, overrides=TINY)
        document = json.loads(path.read_text())
        retired = dict(
            merge_executor="thread",
            merge_workers=4,
            write_pipeline=True,
            max_immutable_memtables=3,
            flush_workers=2,
            backend="frozenset",
            data_plane="reference",
            storage="disk",
            wal_sync_every=16,
        )
        for section in (document["scenario"]["config"], document["config"]):
            section.update(retired)
        # Such manifests predate the checksum: schema 1 carries none.
        document["schema_version"] = 1
        del document["checksum"]
        path.write_text(json.dumps(document))
        rebuilt = Scenario.from_dict(store.load(path).scenario)
        assert rebuilt == REGISTRY.get("read-heavy")

    def test_sweep_cells_carry_x_and_parameter(self, runner, store):
        _, path = runner.run_and_record(
            "fig7a", runs=1, overrides={**TINY, "operationcount": 1000}
        )
        cells = store.load(path).cells
        assert len(cells) == 5 * 5  # 5 fractions x 5 strategies
        # the executed axis name matches the unit x is expressed in
        # (percent), not the spec's fraction-valued parameter name
        assert {cell["parameter"] for cell in cells} == {"update_percentage"}
        assert {cell["x"] for cell in cells} == {0.0, 25.0, 50.0, 75.0, 100.0}

    def test_manifests_iteration_and_latest(self, runner, store):
        runner.run_and_record("churn", runs=1, overrides=TINY)
        runner.run_and_record("churn", runs=1, overrides=TINY)
        manifests = list(store.manifests("churn"))
        assert len(manifests) == 2
        assert store.latest("churn").run_id == manifests[-1].run_id
        assert store.latest("fig8") is None

    def test_collision_suffix(self, runner, store):
        """Two runs in the same second get distinct run ids."""
        run = runner.run("churn", runs=1, overrides=TINY)
        first = store.write(run)
        second = store.write(run)
        assert first != second

    def test_same_second_collisions_stay_oldest_first(self, runner, store):
        """'base-1.json' sorts before 'base.json' on filenames ('-' <
        '.'), so ordering must come from manifest content instead."""
        run = runner.run("churn", runs=1, overrides=TINY)
        ids = [store.load(store.write(run)).run_id for _ in range(3)]
        listed = [m.run_id for m in store.manifests("churn")]
        assert listed == ids
        assert store.latest("churn").run_id == ids[-1]

    def test_newer_schema_rejected(self, runner, store, tmp_path):
        _, path = runner.run_and_record("churn", runs=1, overrides=TINY)
        document = json.loads(path.read_text())
        document["schema_version"] = SCHEMA_VERSION + 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        with pytest.raises(ResultsStoreError):
            store.load(bad)

    def test_corrupt_manifest_rejected(self, store, tmp_path):
        bad = tmp_path / "corrupt.json"
        bad.write_text("{not json")
        with pytest.raises(ResultsStoreError):
            store.load(bad)

    def test_write_killed_before_the_rename_leaves_no_manifest(
        self, runner, store, monkeypatch
    ):
        """The manifest appears under its final name only by rename, so
        a run killed mid-write cannot poison later listings."""
        run, first = runner.run_and_record("churn", runs=1, overrides=TINY)
        directory = first.parent
        assert not list(directory.glob("*.tmp"))  # a good write leaves none

        def killed(source, target):
            raise OSError("killed before the rename")

        monkeypatch.setattr("repro.scenarios.store.os.replace", killed)
        with pytest.raises(OSError, match="killed"):
            store.write(run)
        monkeypatch.undo()
        assert [path.name for path in directory.glob("*.json")] == [first.name]
        assert len(list(directory.glob("*.json.tmp"))) == 1
        assert store.latest("churn").run_id == store.load(first).run_id
        # The next write is not confused by the leftover either.
        second = store.write(run)
        assert [m.path for m in store.manifests("churn")] == [first, second]

    def test_stale_temporary_is_ignored(self, runner, store):
        _, path = runner.run_and_record("churn", runs=1, overrides=TINY)
        (path.parent / "2020-01-01T000000Z-deadbeef.json.tmp").write_text('{"ha')
        assert [m.path for m in store.manifests("churn")] == [path]
        assert store.latest("churn").path == path

    @pytest.mark.parametrize(
        "text, complaint",
        [
            ("[]", "expected a JSON object, got list"),
            ('"fig8"', "expected a JSON object, got str"),
            ("{not json", "corrupt manifest"),
        ],
    )
    def test_load_rejects_a_document_that_is_not_an_object(
        self, store, tmp_path, text, complaint
    ):
        bad = tmp_path / "x.json"
        bad.write_text(text)
        with pytest.raises(ResultsStoreError, match=complaint):
            store.load(bad)

    def test_load_rejects_cells_that_are_not_a_list(self, runner, store, tmp_path):
        _, path = runner.run_and_record("churn", runs=1, overrides=TINY)
        document = json.loads(path.read_text())
        document["cells"] = {"SI": {}}
        bad = tmp_path / "cells.json"
        bad.write_text(json.dumps(document))
        with pytest.raises(ResultsStoreError, match="cells is not a list"):
            store.load(bad)

    @pytest.mark.parametrize("text", ["[]", "{not json", '{"schema_version": 1}'])
    def test_unreadable_sibling_is_skipped_with_a_warning(
        self, runner, store, text
    ):
        """One bad file must not take the whole listing down (it used to:
        ``[]`` died with AttributeError, the others with the store's own
        error); the warning names the path so it can be cleaned up."""
        _, path = runner.run_and_record("churn", runs=1, overrides=TINY)
        bad = path.parent / "x.json"
        bad.write_text(text)
        with pytest.warns(UserWarning, match=r"skipping unreadable manifest.*x\.json"):
            assert [m.path for m in store.manifests("churn")] == [path]
        with pytest.warns(UserWarning, match=r"x\.json"):
            assert store.latest("churn").path == path
        with pytest.warns(UserWarning, match=r"x\.json"):
            assert [m.path for m in store.manifests()] == [path]

    @pytest.mark.parametrize(
        "field, value, complaint",
        [
            ("schema_version", True, "schema_version True"),
            ("schema_version", 0, "schema_version 0"),
            ("run_id", 12, "run_id is not a string"),
            ("created_at", 1700000000, "created_at is not a string"),
            ("spec_hash", None, "spec_hash is not a string"),
            ("runs", True, "runs is not an integer"),
            ("fast", 1, "fast is not a boolean"),
            ("scenario", [], "scenario is not an object"),
            ("git", 7, "git is not a string"),
        ],
    )
    def test_load_checks_field_types(
        self, runner, store, tmp_path, field, value, complaint
    ):
        _, path = runner.run_and_record("churn", runs=1, overrides=TINY)
        document = json.loads(path.read_text())
        document[field] = value
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(document))
        with pytest.raises(ResultsStoreError, match=complaint):
            store.load(bad)

    def test_hostile_siblings_are_skipped_and_the_good_ones_listed(
        self, runner, store
    ):
        """Each of these used to crash the whole listing: a non-UTF-8 byte
        with UnicodeDecodeError, an int run_id or created_at with a
        TypeError in the sort (a bool schema_version loaded as version
        1).  Each is now skipped with a warning naming its file."""
        good = [runner.run_and_record("churn", runs=1, overrides=TINY)[1]]
        good.append(store.write(runner.run("churn", runs=1, overrides=TINY)))
        text = good[0].read_text()
        document = json.loads(text)
        hostile = {
            "latin1.json": text.encode().replace(b'"churn"', b'"churn\xe9"', 1),
        }
        for field, value in [
            ("schema_version", True),
            ("run_id", 12),
            ("created_at", 1700000000),
        ]:
            hostile[f"{field}.json"] = json.dumps({**document, field: value}).encode()
        for name, data in hostile.items():
            (good[0].parent / name).write_bytes(data)
        with pytest.warns(UserWarning) as caught:
            assert [m.path for m in store.manifests("churn")] == good
        skipped = sorted(
            name for name in hostile for w in caught if name in str(w.message)
        )
        assert skipped == sorted(hostile)
        with pytest.warns(UserWarning):
            assert store.latest("churn").path == good[1]


class TestKernelSweeps:
    def test_k_sweep_preset_executes(self, runner):
        run = runner.run("k-sweep", runs=1, overrides=TINY)
        sweep = run.results["latest"]
        assert sweep.parameter == "k"
        assert [point.x for point in sweep.points] == [2.0, 3.0, 4.0, 6.0, 8.0]
        assert set(sweep.labels) == {"SI", "BT(I)"}

    def test_hll_sweep_preset_executes(self, runner):
        run = runner.run("hll-sweep", runs=1, overrides=TINY)
        sweep = run.results["latest"]
        assert sweep.parameter == "hll_precision"
        assert [point.config.hll_precision for point in sweep.points] == [
            8, 10, 12, 14,
        ]


class TestAdhocScenario:
    def test_unregistered_spec_runs(self, runner):
        scenario = Scenario(
            name="adhoc",
            title="tiny ad-hoc sweep",
            config=SimulationConfig(**TINY, update_fraction=0.5),
            strategies=("SI", "RANDOM"),
            sweep=SweepSpec("operationcount", (500, 1000)),
        )
        run = runner.run(scenario, runs=1)
        sweep = run.results["latest"]
        assert [point.x for point in sweep.points] == [500.0, 1000.0]

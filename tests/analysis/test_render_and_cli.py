"""Tests for the schedule renderer and one-off simulator runs via the CLI."""

from repro.analysis import render_schedule
from repro.core import MergeInstance, merge_with
from repro.cli import main as cli_main
from tests.helpers import worked_example


class TestRenderSchedule:
    def test_renders_paper_example(self):
        inst = worked_example()
        schedule = merge_with("SO", inst).schedule
        text = render_schedule(schedule, inst)
        lines = text.splitlines()
        # root first, then indented children; all 5 inputs labelled
        assert lines[0].startswith("merge ->")
        for index in range(1, 6):
            assert any(f"A{index} " in line for line in lines)
        assert "{1, 2, 3, 4, 5, 6, 7, 8, 9}" in lines[0]

    def test_elides_large_sets(self):
        inst = MergeInstance.from_iterables([set(range(50)), {100}])
        schedule = merge_with("SI", inst).schedule
        text = render_schedule(schedule, inst, max_keys_shown=5)
        assert "..." in text
        assert "(51 keys)" in text

    def test_single_table_schedule(self):
        from repro.core import MergeSchedule

        inst = MergeInstance.from_iterables([{1, 2}])
        text = render_schedule(MergeSchedule(1, []), inst)
        assert text == "A1 {1, 2}"


class TestSimulatorCli:
    def test_tiny_run(self, capsys):
        code = cli_main(
            [
                "run", "ycsb-a", "--no-store",
                "--set", "recordcount=100",
                "--set", "operationcount=500",
                "--set", "memtable_capacity=100",
                "--runs", "1",
                "--strategies", "SI,RANDOM",
                "--set", "update_fraction=0.5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SI" in output and "RANDOM" in output
        assert "cost/LOPT" in output

    def test_kway_flag(self, capsys):
        code = cli_main(
            [
                "run", "ycsb-a", "--no-store",
                "--set", "recordcount=100",
                "--set", "operationcount=300",
                "--set", "memtable_capacity=50",
                "--runs", "1",
                "--set", "k=4",
                "--strategies", "SI",
            ]
        )
        assert code == 0
        assert "k=4" in capsys.readouterr().out

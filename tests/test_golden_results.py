"""Golden regression tests against the committed ``results/*.txt`` tables.

The figure scenarios are re-run at the committed seed scale through
``ExperimentRunner.run(<id>).panel()`` — the one path ``repro run`` and
``repro figures`` print — and compared against the artifacts checked
into ``results/``:

* ``fig7a`` and ``fig8`` are fully deterministic (costs, LOPT, ratios
  derive only from seeded workloads and the simulated disk), so the
  regenerated files must match the committed ones byte for byte.
* ``fig7b``'s time columns mix the deterministic simulated I/O seconds
  with *wall-clock* strategy overhead, so its values are compared
  structurally and within a generous tolerance instead.

These run the paper-scale sweeps (minutes, not seconds) and are marked
``slow``; select them with ``pytest -m slow tests/test_golden_results.py``.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.scenarios import REGISTRY, ExperimentRunner

pytestmark = pytest.mark.slow

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

_NUMBER = re.compile(r"-?[\d,]+(?:\.\d+)?")


def committed(name: str) -> str:
    path = RESULTS_DIR / f"{name}.txt"
    assert path.exists(), f"golden file {path} is missing"
    return path.read_text()


def rendered(result) -> str:
    """The exact file content the benches write for an ExperimentResult."""
    return f"{result.title}\n\n{result.text}\n"


def table_rows(text: str) -> list[list[float]]:
    """Numeric rows of the first table in a rendered figure panel.

    Rows are the lines after the ``---`` header rule and before the
    blank line that separates the table from the ASCII plot.
    """
    lines = text.splitlines()
    start = next(
        index for index, line in enumerate(lines) if set(line) <= {"-", " "} and "-" in line
    )
    rows = []
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        cells = _NUMBER.findall(line)
        if cells:
            rows.append([float(cell.replace(",", "")) for cell in cells])
    return rows


@pytest.fixture(scope="module")
def fig7_panels():
    """One full-scale figure-7 sweep shared by the 7a and 7b goldens.

    Serial on purpose: 7b's tolerance band compares *measured* strategy
    overhead, and running ``jobs`` workers on fewer cores inflates
    wall-clock readings through scheduler contention.  The parallel
    runner is certified by the jobs=4 byte goldens below, whose panels
    contain only deterministic values.  fig7b is the same spec under
    another name, so its panel is read off the one sweep.
    """
    run = ExperimentRunner().run("fig7a")
    return run.panel(), replace(run, scenario=REGISTRY.get("fig7b")).panel()


class TestFigure7aGolden:
    def test_costs_match_committed_bytes(self, fig7_panels):
        """The (default) fast data plane reproduces the committed bytes."""
        fig7a, _ = fig7_panels
        assert rendered(fig7a) == committed("fig7a")

    def test_costs_match_committed_bytes_under_jobs4(self):
        """The parallel sweep runner cannot perturb the cost panel."""
        fig7a = ExperimentRunner(jobs=4).run("fig7a").panel()
        assert rendered(fig7a) == committed("fig7a")


class TestFigure7bGolden:
    """fig7b mixes wall clock in; compare structure, not bytes."""

    def test_row_shape_matches(self, fig7_panels):
        _, fig7b = fig7_panels
        golden_rows = table_rows(committed("fig7b"))
        fresh_rows = table_rows(rendered(fig7b))
        assert len(fresh_rows) == len(golden_rows)
        assert [row[0] for row in fresh_rows] == [row[0] for row in golden_rows]
        assert all(len(f) == len(g) for f, g in zip(fresh_rows, golden_rows))

    def test_times_within_tolerance(self, fig7_panels):
        _, fig7b = fig7_panels
        golden_rows = table_rows(committed("fig7b"))
        fresh_rows = table_rows(rendered(fig7b))
        for fresh, golden in zip(fresh_rows, golden_rows):
            # columns: update%, then (mean, std) x 5 strategies; compare
            # the means (odd indices 1,3,..) with wall-clock headroom.
            for column in range(1, len(golden), 2):
                assert fresh[column] == pytest.approx(
                    golden[column], rel=0.5, abs=0.05
                ), f"fig7b x={golden[0]} column {column} drifted"

    # Update %s where BT(O)'s schedule costs 4-9 % less I/O than BT(I)'s
    # (fig7a) and its estimation overhead no longer makes up the gap, so
    # BT(O) finishes first.  The paper's ordering there is open as the
    # fig7b claim row of ROADMAP item 3(a).
    BT_O_CHEAPER = {50.0, 75.0}

    def test_strategy_ordering_preserved(self, fig7_panels):
        """BT(I) is the fastest strategy at every update %% (Figure 7b),
        outside ``BT_O_CHEAPER``, where it is still strictly ahead of SI,
        SO and RANDOM.  Both BALANCETREE variants beat those three by 3x."""
        _, fig7b = fig7_panels
        for row in table_rows(rendered(fig7b)):
            means = row[1::2]
            si, so, bt_i, bt_o, random_ = means
            if row[0] in self.BT_O_CHEAPER:
                assert bt_i < min(si, so, random_)
            else:
                assert bt_i == min(means)
            assert 3 * max(bt_i, bt_o) < min(si, so, random_)


class TestFigure8Golden:
    def test_matches_committed_bytes_under_jobs4(self):
        """Fig8's table holds only deterministic values (costs, LOPT,
        ratios, slopes), so one jobs=4 fast-plane run certifies both the
        columnar pipeline and the parallel runner byte-for-byte."""
        result = ExperimentRunner(jobs=4).run("fig8").panel()
        assert rendered(result) == committed("fig8")

"""Tests for table formatting and ASCII plotting."""

import pytest

from repro.analysis import format_table, scatter_plot


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].endswith("value")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title(self):
        text = format_table(["x"], [[1]], title="hello")
        assert text.splitlines()[0] == "hello"

    def test_float_formatting(self):
        text = format_table(["v"], [[1234.5678]], float_digits=2)
        assert "1,234.57" in text

    def test_int_thousands_separator(self):
        text = format_table(["v"], [[1_000_000]])
        assert "1,000,000" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestScatterPlot:
    def test_contains_markers_and_legend(self):
        text = scatter_plot({"SI": [(0, 1), (1, 2)], "SO": [(0, 2), (1, 3)]})
        assert "o" in text and "x" in text
        assert "legend: o = SI   x = SO" in text

    def test_log_axes(self):
        text = scatter_plot(
            {"a": [(1, 10), (100, 1000)]}, logx=True, logy=True
        )
        assert "[log x, log y]" in text

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scatter_plot({"a": [(0, 1)]}, logx=True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scatter_plot({"a": []})

    def test_title_and_labels(self):
        text = scatter_plot(
            {"a": [(0, 0), (1, 1)]}, title="T", xlabel="cost", ylabel="time"
        )
        assert text.splitlines()[0] == "T"
        assert "time vs cost" in text

    def test_single_point(self):
        text = scatter_plot({"a": [(5, 5)]})
        assert "o" in text


class TestExperimentRegistry:
    def test_known_ids(self):
        from repro.scenarios.registry import PANELS

        assert set(PANELS) == {"fig7a", "fig7b", "fig8", "fig9a", "fig9b"}

    def test_unknown_id_raises(self, capsys):
        from repro.cli import main

        assert main(["figures", "fig99"]) == 2
        assert "unknown figure 'fig99'" in capsys.readouterr().err

"""Analysis utilities: statistics, tables, ASCII plots, figure panels."""

from .ascii_plot import scatter_plot
from .experiments import (
    BT_TIE_BAND,
    ExperimentResult,
    bound_gap_panel,
    bt_i_finishes_first,
    cost_time_panel,
    series_panel,
)
from .render import render_schedule
from .stats import LinearFit, linear_fit, log_log_fit, mean, pearson_r, stdev
from .tables import format_table

__all__ = [
    "BT_TIE_BAND",
    "ExperimentResult",
    "LinearFit",
    "bound_gap_panel",
    "bt_i_finishes_first",
    "cost_time_panel",
    "format_table",
    "linear_fit",
    "log_log_fit",
    "mean",
    "pearson_r",
    "render_schedule",
    "scatter_plot",
    "series_panel",
    "stdev",
]

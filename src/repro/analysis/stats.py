"""Small statistics helpers used by the figure harness.

Scalar implementations over a handful of points: means, sample
standard deviations, Pearson correlation and ordinary least squares —
enough to quantify Figure 9's "almost linear increase" claim and the
parallel log-log lines of Figure 8.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return statistics.fmean(values)


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation; 0.0 for fewer than two values."""
    return statistics.stdev(values) if len(values) > 1 else 0.0


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient; 0.0 if either side is constant."""
    if len(xs) != len(ys):
        raise ValueError("series must have equal length")
    if len(xs) < 2:
        raise ValueError("correlation needs at least two points")
    mx, my = mean(xs), mean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return 0.0
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares fit ``y = slope * x + intercept``."""

    slope: float
    intercept: float
    r: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Least-squares line through (xs, ys)."""
    if len(xs) != len(ys):
        raise ValueError("series must have equal length")
    if len(xs) < 2:
        raise ValueError("fit needs at least two points")
    mx, my = mean(xs), mean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all x values identical; vertical fit undefined")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return LinearFit(slope=slope, intercept=my - slope * mx, r=pearson_r(xs, ys))


def log_log_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """OLS fit in log10-log10 space (Figure 8's 'similar slope' check)."""
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit requires positive values")
    return linear_fit(
        [math.log10(x) for x in xs], [math.log10(y) for y in ys]
    )

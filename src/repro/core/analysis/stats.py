"""Statistics helpers used across the analyses.

Self-contained implementations (no external dependencies) of the handful
of statistics the paper reports: Pearson and Spearman correlation,
quartiles with linear interpolation, Tukey box-plot summaries, and a
skewness estimate for the distribution-shape remarks of section 6.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "mean",
    "stdev",
    "pearson",
    "spearman",
    "correlation_or_none",
    "quantile",
    "BoxplotStats",
    "boxplot_stats",
    "skewness",
]


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation."""
    if not values:
        raise ValueError("stdev of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    mx, my = mean(xs), mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    sy = math.sqrt(sum((y - my) ** 2 for y in ys))
    if sx == 0 or sy == 0:
        raise ValueError("correlation undefined for constant sequences")
    return cov / (sx * sy)


def _ranks(values: Sequence[float]) -> List[float]:
    """Fractional ranks (ties get the average rank)."""
    indexed = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(indexed):
        j = i
        while j + 1 < len(indexed) and values[indexed[j + 1]] == values[indexed[i]]:
            j += 1
        avg_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[indexed[k]] = avg_rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (Pearson over fractional ranks)."""
    return pearson(_ranks(xs), _ranks(ys))


def correlation_or_none(compute: Callable[[], float]) -> Optional[float]:
    """*compute*'s coefficient, or None where it is undefined (fewer
    than two points, or a constant sequence)."""
    try:
        return compute()
    except ValueError:
        return None


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return float(ordered[low])
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class BoxplotStats:
    """Tukey box-plot summary of one distribution."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float
    stdev: float
    whisker_low: float
    whisker_high: float
    outliers: Tuple[float, ...]

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def boxplot_stats(values: Sequence[float]) -> BoxplotStats:
    """Five-number summary with 1.5-IQR whiskers and outliers."""
    if not values:
        raise ValueError("boxplot of empty sequence")
    q1 = quantile(values, 0.25)
    q3 = quantile(values, 0.75)
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inliers = [v for v in values if low_fence <= v <= high_fence]
    outliers = tuple(sorted(v for v in values if v < low_fence or v > high_fence))
    whisker_low = min(inliers) if inliers else q1
    whisker_high = max(inliers) if inliers else q3
    return BoxplotStats(
        count=len(values),
        minimum=min(values),
        q1=q1,
        median=quantile(values, 0.5),
        q3=q3,
        maximum=max(values),
        mean=mean(values),
        stdev=stdev(values),
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
    )


def skewness(values: Sequence[float]) -> Optional[float]:
    """Fisher-Pearson moment skewness; ``None`` for degenerate input."""
    if len(values) < 3:
        return None
    sigma = stdev(values)
    if sigma == 0:
        return None
    mu = mean(values)
    return sum(((v - mu) / sigma) ** 3 for v in values) / len(values)

"""Evaluation metrics: Pearson on levels, alpha/beta/Jensen on monthly returns.

Correlation is computed on raw level series (indexes compared as m-day
vectors); the risk metrics work on calendar-month simple returns, taken
from the last trading day of each month.  Sample (n-1) covariance and
variance are used throughout.  The default monthly risk-free rate is 0.2%.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import PipelineError, write_rows
from .indexcalc import IndexSeries

DEFAULT_RISK_FREE = 0.002

# Each reported metric, in report column order, and its ideal value.
BASELINES = {"pearson": 1.0, "alpha": 0.0, "beta": 1.0, "jensen_alpha": 0.0}


def monthly_returns(series: IndexSeries) -> np.ndarray:
    """Month-over-month returns from last-trading-day-of-month levels; the
    first month is the baseline, not a return.  Every return must be finite
    and > -1."""
    months = np.array([date.year * 12 + date.month for date in series.dates], dtype=np.int64)
    # dates ascend, so a month's last row is the one before the month changes
    month_ends = np.append(np.flatnonzero(months[1:] != months[:-1]), len(months) - 1)
    if len(month_ends) < 2:
        raise PipelineError("need at least 2 calendar months of levels")
    closes = series.values[month_ends]
    with np.errstate(over="ignore"):  # an overflow is the inf rejected below
        rets = (closes[1:] - closes[:-1]) / closes[:-1]
    if not np.all(np.isfinite(rets)) or np.any(rets <= -1.0):
        raise PipelineError("returns must be finite and > -1")
    return rets


def pearson(x, y) -> float:
    """Linear correlation of two equal-length level vectors."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    dx = xv - xv.mean()
    dy = yv - yv.mean()
    sx = float(np.sqrt(dx @ dx))
    sy = float(np.sqrt(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        raise PipelineError("pearson undefined for a constant series")
    return float((dx @ dy) / (sx * sy))


def alpha(index_returns, market_returns) -> float:
    """Mean excess monthly return over the market."""
    ri = np.asarray(index_returns, dtype=float)
    rm = np.asarray(market_returns, dtype=float)
    return float(ri.mean() - rm.mean())


def beta(index_returns, market_returns) -> float:
    """Regression slope of index returns on market returns
    (sample covariance over sample variance)."""
    ri = np.asarray(index_returns, dtype=float)
    rm = np.asarray(market_returns, dtype=float)
    if ri.size < 2:
        raise PipelineError("beta needs at least 2 samples")
    dm = rm - rm.mean()
    var_m = float(dm @ dm) / (rm.size - 1)
    if var_m == 0.0:
        raise PipelineError("beta undefined: market variance is zero")
    cov = float((ri - ri.mean()) @ dm) / (ri.size - 1)
    return cov / var_m


def jensen_alpha(index_returns, market_returns, risk_free: float = DEFAULT_RISK_FREE) -> float:
    """Mean index return minus the beta-adjusted benchmark return."""
    b = beta(index_returns, market_returns)
    ri = np.asarray(index_returns, dtype=float).mean()
    rm = np.asarray(market_returns, dtype=float).mean()
    return float(ri - (risk_free + b * (rm - risk_free)))


def stability_std(values: Sequence[float]) -> float:
    """Sample standard deviation of 2 or more values of a metric, across
    years or across series; closer to 0 means more stable."""
    return float(np.asarray(values, dtype=float).std(ddof=1))


def mean_baseline_distance(values: Sequence[float], baseline: float) -> float:
    """Mean absolute distance of a metric from its ideal baseline
    (1.0 for pearson and beta, 0.0 for the alphas)."""
    return float(np.abs(np.asarray(values, dtype=float) - baseline).mean())


def evaluate(series: IndexSeries, benchmark: IndexSeries) -> dict[str, float]:
    """Report of one index against a benchmark over identical dates: each
    metric of BASELINES by name, in that order."""
    if series.dates != benchmark.dates:
        raise PipelineError("series and benchmark are not on the same trading dates")
    ri = monthly_returns(series)
    rm = monthly_returns(benchmark)
    return {
        "pearson": pearson(series.values, benchmark.values),
        "alpha": alpha(ri, rm),
        "beta": beta(ri, rm),
        "jensen_alpha": jensen_alpha(ri, rm),
    }


def write_reports_csv(path, rows: Sequence[tuple[str, int, dict[str, float]]]) -> None:
    """Export ``index_name,year`` and each metric of BASELINES, one row per
    report."""
    write_rows(path, ["index_name", "year", *BASELINES],
               ([name, year] + [repr(report[m]) for m in BASELINES]
                for name, year, report in rows))


def stability_rows(rows: Sequence[tuple[str, int, dict[str, float]]]) -> list[tuple]:
    """Stability of each metric of BASELINES over ``(name, year, report)``
    rows, as ``(scope, name, metric, std, mean_baseline_distance)`` tuples.

    scope=index rows come first, one per metric of each index across its
    years: the sample std (None below 2 years) and the mean distance to the
    metric's baseline.  An index is a series name less a trailing
    ``_<report year>``, so ``index_050_2021`` and ``index_050_2022`` are
    the years of ``index_050``.  scope=year rows follow, one per metric of
    each year with at least 2 series: the std across those series, distance
    None.
    """
    by_name: dict[str, list[dict[str, float]]] = {}
    by_year: dict[int, list[dict[str, float]]] = {}
    for name, year, report in rows:
        by_name.setdefault(name.removesuffix(f"_{year}"), []).append(report)
        by_year.setdefault(year, []).append(report)
    out = []
    for name in sorted(by_name):
        for metric, baseline in BASELINES.items():
            values = [r[metric] for r in by_name[name]]
            std = stability_std(values) if len(values) >= 2 else None
            out.append(("index", name, metric, std, mean_baseline_distance(values, baseline)))
    for year in sorted(by_year):
        if len(by_year[year]) >= 2:
            for metric in BASELINES:
                values = [r[metric] for r in by_year[year]]
                out.append(("year", str(year), metric, stability_std(values), None))
    return out


def write_stability_csv(path, rows: Sequence[tuple]) -> None:
    """Export stability_rows' tuples as ``scope,name,metric,std,
    mean_baseline_distance`` (std across years for scope=index and across
    series for scope=year; the mean distance to baseline is reported per
    index).  None is written as an empty field."""
    write_rows(path, ["scope", "name", "metric", "std", "mean_baseline_distance"],
               ([scope, name, metric] + ["" if v is None else repr(v) for v in values]
                for scope, name, metric, *values in rows))

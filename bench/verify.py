"""Output checks for one benchmark CLI run.

Two kinds of check:

* golden digests: SHA-256 of every constituent CSV and index-series CSV,
  captured for the default seed (``golden.json``).  These files must stay
  byte-identical while the program changes.
* invariants that hold for every seed: N unique tickers per list, all quoted
  in the study year; every series on the target year's trading dates, its
  first level the base level and its divisor constant (no corporate actions
  are given); ``metrics.csv`` with one row per series and each ``pearson``
  in [-1, 1].

The first level is checked to within BASE_LEVEL_RTOL, not for equality.
The program computes it as cap / (cap / B), which can round to one unit in
the last place off B, and the golden files of the default seed hold such a
level (``rolling_backtest``: ``index_040_2021.csv``).  An exact check would
contradict the goldens, so the run reports the series whose first level is
not exactly B (``inexact_base_levels``) and does not fail them.

The checks read the files as plain text, never through the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

BASE_LEVEL = 1000.0
# Two roundings (the divisor, then the level) move the level by at most
# about two units in the last place.
BASE_LEVEL_RTOL = 4 * 2.0**-52

CONSTITUENT_HEADER = ["rank", "ticker", "source_eigenvector", "extremum_kind", "market_cap"]
SERIES_HEADER = ["date", "level", "divisor"]
METRICS_HEADER = ["index_name", "year", "pearson", "alpha", "beta", "jensen_alpha"]


class QuoteFacts:
    """What the checks need to know about the input quote file."""

    def __init__(self, path):
        self.rows = 0
        self.tickers: dict[int, set[str]] = {}
        dates: dict[int, set[str]] = {}
        with open(path) as fh:
            next(fh)
            for line in fh:
                date, ticker, _ = line.split(",", 2)
                year = int(date[:4])
                self.rows += 1
                self.tickers.setdefault(year, set()).add(ticker)
                dates.setdefault(year, set()).add(date)
        self.dates = {year: sorted(d) for year, d in dates.items()}
        self.universe = len(set().union(*self.tickers.values()))


def expected_files(workload) -> tuple[list[tuple[str, int, int]], list[tuple[str, int]]]:
    """The constituent CSVs a run writes, as (relative path, N, study year),
    and the index-series CSVs, as (relative path, target year)."""
    constituents, series = [], []
    for year in workload.study_years:
        prefix = f"{year}/" if workload.command == "backtest" else ""
        for n in workload.n_list:
            constituents.append((f"{prefix}constituents_{n:03d}.csv", n, year))
            if workload.command == "backtest":
                series.append((f"{prefix}index_{n:03d}_{year + 1}.csv", year + 1))
    return constituents, series


def digests(outdir: Path, workload) -> dict[str, str]:
    constituents, series = expected_files(workload)
    rels = [c[0] for c in constituents] + [s[0] for s in series]
    return {
        rel: hashlib.sha256((outdir / rel).read_bytes()).hexdigest()
        for rel in rels
        if (outdir / rel).is_file()
    }


def load_golden(workload_name: str) -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())[workload_name]


def _rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[:1]} != {header}")
    return rows[1:]


def _check_constituents(path: Path, n: int, quoted: set[str]) -> None:
    rows = _rows(path, CONSTITUENT_HEADER)
    tickers = [row[1] for row in rows]
    if len(rows) != n or len(set(tickers)) != n:
        raise ValueError(f"{path.name}: {len(set(tickers))} unique of {len(rows)} rows, want {n}")
    if [row[0] for row in rows] != [str(r) for r in range(1, n + 1)]:
        raise ValueError(f"{path.name}: ranks are not 1..{n}")
    unquoted = sorted(set(tickers) - quoted)
    if unquoted:
        raise ValueError(f"{path.name}: tickers not quoted in the study year: {unquoted[:5]}")


def _check_series(path: Path, dates: list[str]) -> None:
    rows = _rows(path, SERIES_HEADER)
    if [row[0] for row in rows] != dates:
        raise ValueError(f"{path.name}: dates differ from the target year's {len(dates)} days")
    levels = [float(row[1]) for row in rows]
    if not abs(levels[0] - BASE_LEVEL) <= BASE_LEVEL_RTOL * BASE_LEVEL:
        raise ValueError(f"{path.name}: first level {levels[0]!r} is not {BASE_LEVEL!r}")
    if not all(math.isfinite(v) and v > 0 for v in levels):
        raise ValueError(f"{path.name}: non-positive or non-finite level")
    if len({row[2] for row in rows}) != 1:
        raise ValueError(f"{path.name}: divisor changes without corporate actions")


def _check_metrics(path: Path, series_names: list[str]) -> None:
    rows = _rows(path, METRICS_HEADER)
    names = sorted(row[0] for row in rows)
    if names != sorted(series_names):
        raise ValueError(f"{path.name}: {len(rows)} rows, want one per series ({len(series_names)})")
    for row in rows:
        pearson = float(row[2])
        if not -1.0 <= pearson <= 1.0:
            raise ValueError(f"{path.name}: {row[0]} pearson {pearson!r} outside [-1, 1]")


def check_outputs(outdir: Path, workload, facts: QuoteFacts, golden: dict[str, str] | None) -> list[str]:
    """Every problem found with one run's outputs; empty when all is well.
    ``golden`` (relative path -> SHA-256) is compared when given."""
    errors = []
    constituents, series = expected_files(workload)

    def attempt(check, *args):
        try:
            check(*args)
        except (OSError, ValueError, IndexError) as exc:
            errors.append(str(exc))

    for rel, n, year in constituents:
        attempt(_check_constituents, outdir / rel, n, facts.tickers.get(year, set()))
    for rel, target in series:
        attempt(_check_series, outdir / rel, facts.dates.get(target, []))
    if workload.command == "backtest":
        attempt(_check_metrics, outdir / "metrics.csv", [Path(rel).stem for rel, _ in series])
    if golden is not None:
        got = digests(outdir, workload)
        for rel in sorted(set(golden) | set(got)):
            if golden.get(rel) != got.get(rel):
                errors.append(f"{rel}: digest {got.get(rel)} != golden {golden.get(rel)}")
    return errors


def inexact_base_levels(outdir: Path, workload) -> list[str]:
    """Series whose first level passes the check but is not exactly B."""
    out = []
    for rel, _ in expected_files(workload)[1]:
        try:
            rows = _rows(outdir / rel, SERIES_HEADER)
        except (OSError, ValueError):
            continue
        if rows and float(rows[0][1]) != BASE_LEVEL:
            out.append(rel)
    return out

"""Quote ingestion and preprocessing.

Raw daily quotes arrive as CSV rows ``date,ticker,close,shares_issued``
(ISO-8601 dates; an absent value is an empty field or ``NA``).  The loader
parses the file once into a :class:`QuotePanel`: the sorted quoted dates x
the sorted tickers, with one ``close`` and one ``shares`` float array of
that shape, in which NaN marks a value that is absent (its row is missing
or its field is empty).  Three steps turn one study year of the panel into
an aligned frame of unit-norm price vectors:

1. completion      - forward-fill absent closes from the previous trading day
2. screening       - keep only tickers quoted on the first and last calendar
                     date (stocks listing or delisting mid-year are dropped)
3. transformation  - scale each dense close series to unit Euclidean norm,
                     so distances between stocks reflect price shape, not
                     price magnitude

Market caps (close x shares_issued on the selection date) ride along for
constituent trimming and index weighting downstream.
"""

from __future__ import annotations

import csv
import datetime as dt
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateQuoteError,
    EmptyUniverseError,
    MissingPriceError,
    NormalizationError,
    NotCompletableError,
    ParameterError,
    ParseError,
)

MISSING_TOKENS = {"", "NA"}

NORM_TOL = 1e-12


@dataclass(frozen=True)
class QuotePanel:
    """Every quote of a file as one dates x tickers table.

    ``close[i, j]`` and ``shares[i, j]`` are ticker j's close and shares
    issued on date i; NaN marks an absent value.  Dates and tickers are
    strictly increasing; the dates are every date some row is quoted on.
    """

    dates: tuple[dt.date, ...]
    tickers: tuple[str, ...]
    close: np.ndarray
    shares: np.ndarray

    def __post_init__(self):
        shape = (len(self.dates), len(self.tickers))
        if self.close.shape != shape or self.shares.shape != shape:
            raise ParameterError(f"close and shares must both have shape {shape}")
        for name in ("dates", "tickers"):
            keys = getattr(self, name)
            if any(a >= b for a, b in zip(keys, keys[1:])):
                raise ParameterError(f"panel {name} must be strictly increasing")

    def rows(self, dates: Sequence[dt.date]) -> np.ndarray:
        """Row index of each of ``dates``."""
        position = {d: i for i, d in enumerate(self.dates)}
        try:
            return np.array([position[d] for d in dates], dtype=np.intp)
        except KeyError as exc:
            raise ParameterError(f"{exc.args[0]} is not a date of this quote panel") from None


@dataclass(frozen=True)
class TradingCalendar:
    """Strictly increasing trading dates for one study window."""

    dates: tuple[dt.date, ...]

    def __post_init__(self):
        if len(self.dates) < 2:
            raise ParameterError("calendar needs at least 2 trading dates")
        for a, b in zip(self.dates, self.dates[1:]):
            if not a < b:
                raise ParameterError(f"calendar dates not strictly increasing at {b}")

    @property
    def m(self) -> int:
        return len(self.dates)

    def index_of(self, date: dt.date) -> int:
        try:
            return self.dates.index(date)
        except ValueError:
            raise ParameterError(f"{date} is not a trading date of this calendar") from None


@dataclass
class MarketFrame:
    """Aligned universe: row i of ``vectors`` is the unit-norm price curve
    of ``tickers[i]`` and ``caps[i]`` its selection-date market cap."""

    calendar: TradingCalendar
    tickers: list[str]
    vectors: np.ndarray
    caps: np.ndarray

    def __post_init__(self):
        n = len(self.tickers)
        if self.vectors.shape != (n, self.calendar.m) or self.caps.shape != (n,):
            raise ParameterError(
                f"{n} tickers x {self.calendar.m} days do not match vectors "
                f"{self.vectors.shape} and caps {self.caps.shape}"
            )
        if len(set(self.tickers)) != n:
            raise ParameterError("duplicate ticker in frame")
        norms = np.linalg.norm(self.vectors, axis=1)
        bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
        if len(bad):
            i = bad[0]
            raise NormalizationError(f"{self.tickers[i]}: vector norm {norms[i]} is not 1")

    @property
    def n(self) -> int:
        return len(self.tickers)


def _value(token: str, column: str, positive: bool, path, line_no: int) -> float:
    """One close or shares field: NaN when absent, else a finite number that
    is > 0 (``positive``) or >= 0."""
    try:
        value = float(token)
    except ValueError:
        if token.strip() in MISSING_TOKENS:
            return np.nan
        raise ParseError(path, line_no, f"bad {column} value {token.strip()!r}") from None
    if not (0.0 < value if positive else 0.0 <= value) or value == np.inf:
        bound = "> 0" if positive else ">= 0"
        raise ParseError(path, line_no, f"{column} must be finite and {bound}, got {value}")
    return value


def _ranked(ids: dict, row_ids: array) -> tuple[list, np.ndarray]:
    """The keys of ``ids`` (key -> id) sorted, and each row's id replaced by
    the rank of its key."""
    keys = sorted(ids)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[[ids[k] for k in keys]] = np.arange(len(keys))
    return keys, rank[np.frombuffer(row_ids, dtype=np.int64)]


def load_quotes(source) -> QuotePanel:
    """Read a quote CSV into a QuotePanel.

    The file must carry a header with at least ``date,ticker,close,
    shares_issued``; unknown columns are ignored and blank rows skipped.
    A close must be finite and > 0 and shares finite and >= 0; ``NA`` or an
    empty field is absent.  A malformed row raises ParseError with its line
    number; a second quote for the same (ticker, date) raises
    DuplicateQuoteError once the rest of the file has parsed.
    """
    with open(source, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyUniverseError(f"{source}: file is empty") from None
        names = [h.strip() for h in header]
        try:
            di, ti, ci, si = (names.index(k) for k in ("date", "ticker", "close", "shares_issued"))
        except ValueError as exc:
            raise ParseError(source, 1, f"missing required column: {exc}") from None
        width = len(names)

        # Each distinct date or ticker token is parsed once and then maps to
        # an id; two tokens may name the same date or ticker.
        date_of_token: dict[str, int] = {}
        date_ids: dict[dt.date, int] = {}
        ticker_of_token: dict[str, int] = {}
        ticker_ids: dict[str, int] = {}
        row_line, row_date, row_ticker = array("q"), array("q"), array("q")
        closes, shares = array("d"), array("d")
        for line_no, row in enumerate(reader, start=2):
            if len(row) < width:
                if any(f.strip() for f in row):
                    raise ParseError(source, line_no, f"expected {width} fields, got {len(row)}")
                continue
            token = row[di]
            d = date_of_token.get(token)
            if d is None:  # a blank row always lands here: blank tokens are never stored
                if not any(f.strip() for f in row):
                    continue
                try:
                    date = dt.date.fromisoformat(token.strip())
                except ValueError:
                    raise ParseError(source, line_no, f"bad date {token!r}") from None
                d = date_of_token[token] = date_ids.setdefault(date, len(date_ids))
            token = row[ti]
            t = ticker_of_token.get(token)
            if t is None:
                if not token.strip():
                    raise ParseError(source, line_no, "empty ticker")
                t = ticker_of_token[token] = ticker_ids.setdefault(token.strip(), len(ticker_ids))
            closes.append(_value(row[ci], "close", True, source, line_no))
            shares.append(_value(row[si], "shares_issued", False, source, line_no))
            row_line.append(line_no)
            row_date.append(d)
            row_ticker.append(t)

    if not ticker_ids:
        raise EmptyUniverseError(f"{source}: no quote rows")
    dates, i = _ranked(date_ids, row_date)
    tickers, j = _ranked(ticker_ids, row_ticker)
    cell = i * len(tickers) + j
    if np.bincount(cell).max() > 1:
        _, first_seen = np.unique(cell, return_index=True)
        p = np.setdiff1d(np.arange(len(cell)), first_seen)[0]
        raise DuplicateQuoteError(
            source, row_line[p], f"duplicate quote for ({tickers[j[p]]}, {dates[i[p]]})"
        )
    shape = (len(dates), len(tickers))
    close_panel, shares_panel = np.full(shape, np.nan), np.full(shape, np.nan)
    close_panel[i, j] = np.frombuffer(closes)
    shares_panel[i, j] = np.frombuffer(shares)
    return QuotePanel(tuple(dates), tuple(tickers), close_panel, shares_panel)


def _forward_fill(values: np.ndarray) -> np.ndarray:
    """Replace each NaN by the nearest earlier non-NaN value along axis 0;
    a NaN with no earlier value stays NaN."""
    steps = np.arange(len(values)).reshape((-1,) + (1,) * (values.ndim - 1))
    source = np.where(np.isnan(values), 0, steps)
    np.maximum.accumulate(source, axis=0, out=source)
    return np.take_along_axis(values, source, axis=0)


def complete_series(values, calendar: TradingCalendar) -> np.ndarray:
    """Forward-fill closes over the calendar.

    ``values`` is one calendar-aligned series, or a dates x tickers block,
    with NaN (or None) where a close is absent.  Raises NotCompletableError
    when a series has no close on the first calendar date (the caller routes
    such tickers to screening).
    """
    values = np.asarray(values, dtype=float)
    if len(values) != calendar.m:
        raise ParameterError(f"series length {len(values)} != calendar m={calendar.m}")
    if np.isnan(values[0]).any():
        raise NotCompletableError("first calendar value is absent; cannot forward-fill")
    return _forward_fill(values)


def screen_universe(closes) -> np.ndarray:
    """Columns of a calendar-aligned dates x tickers close block (NaN where
    absent) that are traded throughout the window: close present on the
    first AND last date.  Stocks listing or delisting mid-window fail one
    of the two endpoints and drop out.  Ascending column indices."""
    closes = np.asarray(closes, dtype=float)
    survivors = np.flatnonzero(~np.isnan(closes[0]) & ~np.isnan(closes[-1]))
    if not len(survivors):
        raise EmptyUniverseError("screening removed every ticker")
    return survivors


def normalize(series) -> np.ndarray:
    """Scale a dense series to unit Euclidean norm (direction preserved)."""
    v = np.asarray(series, dtype=float)
    nrm = float(np.linalg.norm(v))
    if not np.isfinite(nrm) or nrm <= 0.0:
        raise NormalizationError(f"cannot normalize vector with norm {nrm}")
    return v / nrm


def build_market_frame(
    quotes: QuotePanel,
    calendar: TradingCalendar,
    selection_date: dt.date,
) -> MarketFrame:
    """Run completion, screening and normalization; attach selection-date caps.

    Caps are close x shares_issued on ``selection_date`` with both fields
    forward-filled over the calendar.
    """
    sel_idx = calendar.index_of(selection_date)
    rows = quotes.rows(calendar.dates)
    keep = screen_universe(quotes.close[rows])
    tickers = [quotes.tickers[j] for j in keep]
    block = np.ix_(rows, keep)

    # One contiguous 1-D vector per stock: the norm of each is then taken
    # exactly as for a lone series.
    closes = np.ascontiguousarray(complete_series(quotes.close[block], calendar).T)
    vectors = np.array([normalize(c) for c in closes])

    shares = _forward_fill(quotes.shares[block])[sel_idx]
    absent = np.flatnonzero(np.isnan(shares))
    if len(absent):
        raise NotCompletableError(
            f"{tickers[absent[0]]}: shares_issued absent through {selection_date}"
        )
    return MarketFrame(calendar, tickers, vectors, closes[:, sel_idx] * shares)


def index_inputs(
    quotes: QuotePanel,
    calendar: TradingCalendar,
    tickers: Sequence[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Closes forward-filled over ``calendar`` (dates x tickers) and shares
    issued on its first date, for a list of index constituents.

    Raises MissingPriceError for a ticker the panel lacks, or whose close or
    shares are absent on the first calendar date.
    """
    base = calendar.dates[0]
    column = {t: j for j, t in enumerate(quotes.tickers)}
    for t in tickers:
        if t not in column:
            raise MissingPriceError(t, base)
    cols = [column[t] for t in tickers]
    rows = quotes.rows(calendar.dates)
    closes = quotes.close[np.ix_(rows, cols)]
    shares = quotes.shares[rows[0], cols]
    absent = np.flatnonzero(np.isnan(closes[0]) | np.isnan(shares))
    if len(absent):
        raise MissingPriceError(tickers[absent[0]], base)
    return complete_series(closes, calendar), shares


def calendar_from_quotes(quotes: QuotePanel, year: int) -> TradingCalendar:
    """Trading calendar of one year implied by a quote panel: every date
    quoted in that calendar year."""
    dates = tuple(d for d in quotes.dates if d.year == year)
    if len(dates) < 2:
        raise EmptyUniverseError(f"no trading dates found for year {year}")
    return TradingCalendar(dates)

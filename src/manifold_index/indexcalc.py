"""Divisor-maintained, capitalization-weighted index computation.

The index level at time t is the total constituent market cap (price x
shares summed over constituents) divided by the divisor D.  D is fixed at
the base date as base cap / base level, so the base-date level equals the
base level B exactly, and is rescaled by the cap ratio M_new / M_old
whenever a non-trading event (share change, delisting, rights or bonus
issue) moves the constituent cap; the ratio form makes the level exactly
continuous at the event instant.

Prices arrive as a dates x constituents close block (the forward-filled
panel columns of the index members), and the divisor is a plain float.
The block is valued one segment at a time, a segment running from the
first date or an action date up to the next action date.  Within a
segment each level is the caps added column by column in constituent
order, then divided by D: the same operations, in the same order, as
Python's ``sum`` over the constituents, so levels do not depend on how the
dates are blocked.  A matrix product or ``ndarray.sum`` would add in
another order and change the last bits of most levels.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateUniverseError,
    MissingPriceError,
    ParameterError,
    ParseError,
    open_text,
)

ACTION_KINDS = ("share_change", "delisting", "rights_or_bonus_issue")

DEFAULT_BASE_LEVEL = 1000.0


@dataclass(frozen=True)
class Constituent:
    ticker: str
    shares_issued: float

    def __post_init__(self):
        if not self.shares_issued > 0:
            raise ParameterError(f"{self.ticker}: shares_issued must be > 0")


@dataclass(frozen=True)
class CorporateAction:
    """A non-trading event that moves constituent market cap.

    ``share_change`` and ``rights_or_bonus_issue`` need ``new_shares``; the
    latter also accepts ``replacement_price`` (theoretical ex price) for the
    post-event cap, defaulting to the event-day price when omitted.
    """

    kind: str
    ticker: str
    effective_date: dt.date
    new_shares: float | None = None
    replacement_price: float | None = None

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ParameterError(f"action kind must be one of {ACTION_KINDS}, got {self.kind!r}")
        if self.kind in ("share_change", "rights_or_bonus_issue"):
            if self.new_shares is None or not self.new_shares > 0:
                raise ParameterError(f"{self.kind} on {self.ticker} needs new_shares > 0")
        if self.replacement_price is not None and not self.replacement_price > 0:
            raise ParameterError(f"replacement_price must be > 0 for {self.ticker}")


@dataclass(frozen=True)
class IndexSeries:
    """Daily index levels as a float64 array, with the divisor that produced
    each level (None for a benchmark read without them)."""

    dates: tuple[dt.date, ...]
    values: np.ndarray
    divisors: np.ndarray | None = None

    def __post_init__(self):
        if len(self.dates) != len(self.values):
            raise ParameterError("dates and values must have equal length")
        if self.divisors is not None and len(self.divisors) != len(self.dates):
            raise ParameterError("divisors must be None or match dates")
        every = self.values if self.divisors is None else np.append(self.values, self.divisors)
        if not np.all((every > 0) & (every < np.inf)):
            raise ParameterError("index levels and divisors must be finite and > 0")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ParameterError("series dates must be strictly increasing")

    def rows(self, span: slice) -> IndexSeries:
        """The series on a slice of its dates."""
        divisors = None if self.divisors is None else self.divisors[span]
        return IndexSeries(self.dates[span], self.values[span], divisors)


def index_value(prices, constituents: Sequence[Constituent], divisor: float):
    """Total constituent cap / divisor.

    ``prices[..., j]`` is the close of ``constituents[j]``: a vector gives
    the level at one instant, a dates x constituents block one level per
    date.  The caps are added left to right in constituent order, so every
    level equals Python's ``sum`` of the same products bit for bit.  With
    divisor 1.0 the result is the total cap itself.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.shape[-1:] != (len(constituents),):
        raise ParameterError(
            f"prices of shape {prices.shape} do not hold one close per "
            f"constituent ({len(constituents)})"
        )
    total = np.zeros(prices.shape[:-1])
    for j, c in enumerate(constituents):
        total = total + prices[..., j] * c.shares_issued
    return total / divisor


def init_divisor(
    constituents: Sequence[Constituent],
    prices_at_base,
    base_level: float = DEFAULT_BASE_LEVEL,
) -> float:
    """Fix D so the base-date level equals the base level exactly."""
    if not base_level > 0:
        raise ParameterError(f"base level must be > 0, got {base_level}")
    cap = float(index_value(prices_at_base, constituents, 1.0))
    if cap <= 0:
        raise DegenerateUniverseError(f"total cap at base is {cap}")
    return cap / base_level


def adjust_divisor(
    divisor: float,
    action: CorporateAction,
    prices_at_event,
    constituents: Sequence[Constituent],
) -> tuple[float, list[Constituent]]:
    """Apply one corporate action: D_new = D_old x M_new / M_old.

    ``prices_at_event[j]`` is the close of ``constituents[j]``.  Returns the
    adjusted divisor together with the post-event constituent list.  The
    level computed with (post-event caps, D_new) equals the one with
    (pre-event caps, D_old) at the event instant.
    """
    tickers = [c.ticker for c in constituents]
    if action.ticker not in tickers:
        raise ParameterError(f"{action.ticker} is not a constituent on {action.effective_date}")
    m_old = float(index_value(prices_at_event, constituents, 1.0))
    if m_old <= 0:
        raise DegenerateUniverseError(f"pre-event cap is {m_old} on {action.effective_date}")

    pos = tickers.index(action.ticker)
    price = float(prices_at_event[pos])
    old_cap = price * constituents[pos].shares_issued

    if action.kind == "delisting":
        new_list = [c for c in constituents if c.ticker != action.ticker]
        new_cap = 0.0
    elif action.kind == "share_change":
        new_list = list(constituents)
        new_list[pos] = replace(constituents[pos], shares_issued=action.new_shares)
        new_cap = price * action.new_shares
    else:  # rights_or_bonus_issue
        new_list = list(constituents)
        new_list[pos] = replace(constituents[pos], shares_issued=action.new_shares)
        ex_price = action.replacement_price if action.replacement_price is not None else price
        new_cap = ex_price * action.new_shares

    m_new = m_old - old_cap + new_cap
    if m_new <= 0:
        raise DegenerateUniverseError(f"post-event cap is {m_new} on {action.effective_date}")
    return divisor * (m_new / m_old), new_list


def _member_closes(closes, dates, start, end, columns, members) -> np.ndarray:
    """Rows ``start:end`` of the members' columns; a NaN is a MissingPriceError
    naming the earliest date, then the first member in index order."""
    block = closes[start:end, columns]
    missing = np.argwhere(np.isnan(block))
    if len(missing):
        i, j = missing[0]
        raise MissingPriceError(members[j].ticker, dates[start + i])
    return block


def compute_series(
    dates: Sequence[dt.date],
    closes,
    constituents: Sequence[Constituent],
    base_level: float = DEFAULT_BASE_LEVEL,
    actions: Sequence[CorporateAction] = (),
) -> IndexSeries:
    """Daily index series over ``dates`` with the base on the first date.

    ``closes[i, j]`` is the close of ``constituents[j]`` on ``dates[i]``; it
    must be present while the constituent is in the index and may be NaN
    after its delisting.  Actions apply in (date, ticker) order on the first
    date on or after their effective date, each before that day's closing
    valuation, so the divisor is constant between action dates and each
    such segment is valued as one block.
    """
    if not dates:
        raise ParameterError("dates must be nonempty")
    closes = np.asarray(closes, dtype=float)
    if closes.shape != (len(dates), len(constituents)):
        raise ParameterError(
            f"closes of shape {closes.shape} do not match {len(dates)} dates x "
            f"{len(constituents)} constituents"
        )
    for action in actions:
        if not dates[0] <= action.effective_date <= dates[-1]:
            raise ParameterError(
                f"action on {action.ticker} dated {action.effective_date} "
                f"falls outside [{dates[0]}, {dates[-1]}]"
            )
    pending = sorted(actions, key=lambda x: (x.effective_date, x.ticker, x.kind))
    action_rows = [bisect.bisect_left(dates, a.effective_date) for a in pending]
    bounds = sorted({0, *action_rows}) + [len(dates)]

    members = list(constituents)
    columns = list(range(len(members)))
    at_base = _member_closes(closes, dates, 0, 1, columns, members)[0]
    divisor = init_divisor(members, at_base, base_level)
    levels = np.empty(len(dates))
    divisors = np.empty(len(dates))
    cursor = 0
    for start, end in zip(bounds, bounds[1:]):
        while cursor < len(pending) and action_rows[cursor] == start:
            action = pending[cursor]
            at_event = _member_closes(closes, dates, start, start + 1, columns, members)[0]
            divisor, after = adjust_divisor(divisor, action, at_event, members)
            if action.kind == "delisting":
                columns = [j for j, c in zip(columns, members) if c.ticker != action.ticker]
            members = after
            cursor += 1
        block = _member_closes(closes, dates, start, end, columns, members)
        levels[start:end] = index_value(block, members, divisor)
        divisors[start:end] = divisor
    return IndexSeries(dates=tuple(dates), values=levels, divisors=divisors)


def write_series_csv(path, series: IndexSeries) -> None:
    """Export ``date,level,divisor`` rows."""
    if series.divisors is None:
        raise ParameterError("a series CSV needs the divisor of every date")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "level", "divisor"])
        for date, level, div in zip(series.dates, series.values.tolist(),
                                    series.divisors.tolist()):
            writer.writerow([date.isoformat(), repr(level), repr(div)])


def read_levels_csv(path, what: str, columns: tuple[str, ...]):
    """The dates and the ``columns`` of a ``date,<columns>`` file of ``what``
    rows: at least one row, dates strictly increasing, every value finite
    and > 0.  Returns the dates and one float64 array of values per column."""
    dates, rows = [], []
    with open_text(path) as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                date = dt.date.fromisoformat(row["date"])
                values = tuple(float(row[name]) for name in columns)
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(path, reader.line_num, f"bad {what} row: {exc}") from None
            if not all(0 < v < math.inf for v in values):
                raise ParseError(
                    path, reader.line_num, f"{' and '.join(columns)} must be finite and > 0"
                )
            if dates and date <= dates[-1]:
                raise ParseError(path, reader.line_num, f"date {date} does not follow {dates[-1]}")
            dates.append(date)
            rows.append(values)
    if not dates:
        raise ParseError(path, None, f"no {what} rows")
    return tuple(dates), np.array(rows).T


def read_series_csv(path) -> IndexSeries:
    """Read back a ``date,level,divisor`` series (see read_levels_csv)."""
    dates, (values, divisors) = read_levels_csv(path, "series", ("level", "divisor"))
    return IndexSeries(dates=dates, values=values, divisors=divisors)


def read_actions_csv(path) -> list[CorporateAction]:
    """Corporate actions from ``effective_date,ticker,kind,new_shares,replacement_price``."""
    actions = []
    with open_text(path) as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            line_no = reader.line_num
            if None in row:  # DictReader files fields past the header under None
                width = len(reader.fieldnames)
                got = width + len(row[None])
                raise ParseError(path, line_no, f"bad action row: expected {width} fields, got {got}")
            missing = [name for name, value in row.items() if value is None]
            if missing:
                raise ParseError(
                    path, line_no, f"bad action row: no value for {', '.join(missing)}"
                )
            try:
                new_shares = row.get("new_shares", "").strip()
                repl = row.get("replacement_price", "").strip()
                actions.append(
                    CorporateAction(
                        kind=row["kind"].strip(),
                        ticker=row["ticker"].strip(),
                        effective_date=dt.date.fromisoformat(row["effective_date"].strip()),
                        new_shares=float(new_shares) if new_shares else None,
                        replacement_price=float(repl) if repl else None,
                    )
                )
            except (KeyError, ValueError, ParameterError) as exc:
                raise ParseError(path, line_no, f"bad action row: {exc}") from None
    return actions

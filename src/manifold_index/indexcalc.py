"""Divisor-maintained, capitalization-weighted index computation.

The index level at time t is the total constituent market cap (price x
shares summed over constituents) divided by the divisor D.  D is fixed at
the base date as base cap / base level, so the base-date level equals the
base level B exactly, and is rescaled by the cap ratio M_new / M_old
whenever a non-trading event (share change, delisting, rights or bonus
issue) moves the constituent cap; the ratio form makes the level exactly
continuous at the event instant.

The members are a list of tickers with a float64 array of their shares
issued, prices arrive as a dates x members close block (the forward-filled
panel columns of the members, finite after the first date), and the
divisor is a plain float.  A delisting sets its member's shares to 0; the
member keeps its column, whose finite closes times 0.0 shares add exactly
+0.0 to every later cap.  The block is
valued one segment at a time, a segment running from the first date or an
action date up to the next action date.  Within a segment each level is
the caps added column by column in member order, then divided by D: the
same operations, in the same order, as Python's ``sum`` over the live
members, so levels do not depend on how the dates are blocked.  A matrix
product or ``ndarray.sum`` would add in another order and change the last
bits of most levels.
"""

from __future__ import annotations

import bisect
import datetime as dt
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError, ParseError, PipelineError, read_rows, write_rows

ACTION_KINDS = ("share_change", "delisting", "rights_or_bonus_issue")

DEFAULT_BASE_LEVEL = 1000.0


@dataclass(frozen=True)
class CorporateAction:
    """A non-trading event that moves constituent market cap.

    ``share_change`` and ``rights_or_bonus_issue`` need ``new_shares``; the
    latter also accepts ``replacement_price`` (theoretical ex price) for the
    post-event cap, defaulting to the event-day price when omitted.  A field
    the kind does not use is an error.
    """

    kind: str
    ticker: str
    effective_date: dt.date
    new_shares: float | None = None
    replacement_price: float | None = None

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ParameterError(f"action kind must be one of {ACTION_KINDS}, got {self.kind!r}")
        if self.kind == "delisting":
            if self.new_shares is not None:
                raise ParameterError(f"{self.kind} of {self.ticker} takes no new_shares")
        elif self.new_shares is None or not 0 < self.new_shares < math.inf:
            raise ParameterError(f"{self.kind} on {self.ticker} needs finite new_shares > 0")
        if self.replacement_price is None:
            return
        if self.kind != "rights_or_bonus_issue":
            raise ParameterError(f"{self.kind} of {self.ticker} takes no replacement_price")
        if not 0 < self.replacement_price < math.inf:
            raise ParameterError(f"replacement_price must be finite and > 0 for {self.ticker}")


@dataclass(frozen=True)
class IndexSeries:
    """Daily index levels as a float64 array, with the divisor that produced
    each level (None for a benchmark read without them)."""

    dates: tuple[dt.date, ...]
    values: np.ndarray
    divisors: np.ndarray | None = None

    def __post_init__(self):
        divisors = np.ones(len(self.values)) if self.divisors is None else self.divisors
        valid = (self.values > 0) & (self.values < np.inf) & (divisors > 0) & (divisors < np.inf)
        if not valid.all():
            i = int(np.argmin(valid))
            level, divisor = float(self.values[i]), float(divisors[i])
            # a divisor that fails makes its level fail too, so it is named first
            what, value = ("level", level) if 0 < divisor < np.inf else ("divisor", divisor)
            raise ParameterError(f"index {what} {value} on {self.dates[i]} is not finite and > 0")

    def rows(self, span: slice) -> IndexSeries:
        """The series on a slice of its dates."""
        divisors = None if self.divisors is None else self.divisors[span]
        return IndexSeries(self.dates[span], self.values[span], divisors)


def index_value(prices, shares, divisor: float):
    """Total member cap / divisor.

    ``prices[..., j]`` is the close of the member holding ``shares[j]``: a
    vector gives the level at one instant, a dates x members block one level
    per date.  The caps are added left to right in member order, so every
    level equals Python's ``sum`` of the same products bit for bit.  With
    divisor 1.0 the result is the total cap itself.
    """
    prices = np.asarray(prices, dtype=float)
    shares = np.asarray(shares, dtype=float)
    total = np.zeros(prices.shape[:-1])
    for j, s in enumerate(shares.tolist()):
        total = total + prices[..., j] * s
    return total / divisor


def init_divisor(shares, prices_at_base, base_level: float = DEFAULT_BASE_LEVEL) -> float:
    """Fix D so the base-date level equals the base level exactly.  The base
    level must be finite and > 0, and so must the divisor it gives."""
    if not 0 < base_level < math.inf:
        raise ParameterError(f"base level must be finite and > 0, got {base_level}")
    cap = float(index_value(prices_at_base, shares, 1.0))
    if not 0 < cap < math.inf:
        raise PipelineError(f"total cap at base is {cap}")
    divisor = cap / base_level
    if not 0 < divisor < math.inf:
        raise ParameterError(
            f"base level {base_level} gives divisor {divisor}, not finite and > 0"
        )
    return divisor


def adjust_divisor(
    divisor: float,
    action: CorporateAction,
    prices_at_event,
    tickers: Sequence[str],
    shares: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Apply one corporate action: D_new = D_old x M_new / M_old.

    ``prices_at_event[j]`` is the close of ``tickers[j]``, which holds
    ``shares[j]`` (0 once delisted).  The acted-on member's cap p x s
    becomes p' x s': s' is the action's new shares, 0 for a delisting, and
    p' the replacement price of a rights or bonus issue that gives one, p
    otherwise.  Returns the adjusted divisor and the post-event shares; the
    level computed with (post-event caps, D_new) equals the one with
    (pre-event caps, D_old) at the event instant.
    """
    pos = tickers.index(action.ticker) if action.ticker in tickers else None
    if pos is None or not shares[pos] > 0:
        raise ParameterError(f"{action.ticker} is not a constituent on {action.effective_date}")
    m_old = float(index_value(prices_at_event, shares, 1.0))
    if m_old <= 0:
        raise PipelineError(f"pre-event cap is {m_old} on {action.effective_date}")

    price = float(prices_at_event[pos])
    new_shares = 0.0 if action.kind == "delisting" else action.new_shares
    new_price = price if action.replacement_price is None else action.replacement_price
    m_new = m_old - price * float(shares[pos]) + new_price * new_shares
    if m_new <= 0:
        raise PipelineError(f"post-event cap is {m_new} on {action.effective_date}")
    after = np.array(shares, dtype=float)
    after[pos] = new_shares
    return divisor * (m_new / m_old), after


def compute_series(
    dates: Sequence[dt.date],
    closes,
    tickers: Sequence[str],
    shares,
    base_level: float = DEFAULT_BASE_LEVEL,
    actions: Sequence[CorporateAction] = (),
) -> IndexSeries:
    """Daily index series over ``dates`` with the base on the first date.

    ``closes[i, j]`` is the close of ``tickers[j]`` on ``dates[i]`` and
    ``shares[j]`` its shares issued on the first date.  The first member,
    in list order, whose first close is absent or whose shares are absent
    or not > 0 is an error.  Every later close is finite, as the forward
    fill of ``marketdata.index_inputs`` makes it, delisted members' too: a
    delisting sets the member's shares to 0 and keeps its column.  Actions
    apply in (date, ticker) order on the first date on or after their
    effective date, each before that day's closing valuation, so the
    divisor is constant between action dates and each such segment is
    valued as one block.
    """
    closes = np.asarray(closes, dtype=float)
    shares = np.asarray(shares, dtype=float)
    bad = np.flatnonzero(np.isnan(closes[0]) | ~(shares > 0))
    if len(bad):
        j = bad[0]
        if np.isnan(closes[0, j]):
            raise PipelineError(f"no price for {tickers[j]} on {dates[0]}")
        if np.isnan(shares[j]):
            raise ParameterError(f"{tickers[j]}: shares_issued absent on {dates[0]}")
        raise ParameterError(
            f"{tickers[j]}: shares_issued {shares[j]} on {dates[0]} is not finite and > 0"
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

    divisor = init_divisor(shares, closes[0], base_level)
    levels = np.empty(len(dates))
    divisors = np.empty(len(dates))
    cursor = 0
    for start, end in zip(bounds, bounds[1:]):
        while cursor < len(pending) and action_rows[cursor] == start:
            action = pending[cursor]
            divisor, shares = adjust_divisor(divisor, action, closes[start], tickers, shares)
            cursor += 1
        levels[start:end] = index_value(closes[start:end], shares, divisor)
        divisors[start:end] = divisor
    return IndexSeries(dates=tuple(dates), values=levels, divisors=divisors)


def write_series_csv(path, series: IndexSeries) -> None:
    """Export ``date,level,divisor`` rows."""
    write_rows(path, ["date", "level", "divisor"],
               ([date.isoformat(), repr(level), repr(div)] for date, level, div
                in zip(series.dates, series.values.tolist(), series.divisors.tolist())))


def read_levels_csv(path, what: str, columns: tuple[str, ...]):
    """The dates and the ``columns`` of a ``date,<columns>`` file of ``what``
    rows: at least one row, dates strictly increasing, every value finite
    and > 0.  Returns the dates and one float64 array of values per column."""
    dates, rows = [], []
    for line_no, row in read_rows(path, ("date", *columns)):
        try:
            date = dt.date.fromisoformat(row["date"])
            values = tuple(float(row[name]) for name in columns)
        except ValueError as exc:
            raise ParseError(path, line_no, f"bad {what} row: {exc}") from None
        if not all(0 < v < math.inf for v in values):
            raise ParseError(path, line_no, f"{' and '.join(columns)} must be finite and > 0")
        if dates and date <= dates[-1]:
            raise ParseError(path, line_no, f"date {date} does not follow {dates[-1]}")
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
    """Corporate actions from ``effective_date,ticker,kind,new_shares,
    replacement_price`` rows; the last two columns may be left out."""
    actions = []
    for line_no, row in read_rows(path, ("effective_date", "ticker", "kind")):
        new_shares, repl = row.get("new_shares"), row.get("replacement_price")
        try:
            actions.append(
                CorporateAction(
                    kind=row["kind"],
                    ticker=row["ticker"],
                    effective_date=dt.date.fromisoformat(row["effective_date"]),
                    new_shares=float(new_shares) if new_shares else None,
                    replacement_price=float(repl) if repl else None,
                )
            )
        except ValueError as exc:
            raise ParseError(path, line_no, f"bad action row: {exc}") from None
    return actions

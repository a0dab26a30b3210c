"""Deterministic synthetic market generator for pipeline fixtures.

Stocks follow a sector factor model: each daily return is the stock's
sector factor return plus idiosyncratic noise, so the point cloud of price
curves genuinely concentrates near a low-dimensional structure.  Caps are
lognormal, prices start near 100, every return is floored above -99% so
prices stay positive, and the full-market cap-weighted benchmark (base
level 1000 on the first day) rides along.

All draws come from numpy's Philox bit generator - a 64-bit counter-based
generator with a stable cross-platform stream - in a fixed order (start
jitter, caps, sector returns, idiosyncratic noise), so a given seed yields
bit-identical output everywhere.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .indexcalc import IndexSeries, read_levels_csv
from .marketdata import QuotePanel

RETURN_FLOOR = -0.99


@dataclass(frozen=True)
class SynthConfig:
    n_stocks: int = 300
    m_days: int = 244
    n_sectors: int = 8
    sector_vol: float = 0.012
    idio_vol: float = 0.006
    cap_log_mean: float = 16.0
    cap_log_sd: float = 0.8
    seed: int = 0
    start_year: int = 2020
    n_years: int = 2

    def __post_init__(self):
        if not self.n_stocks >= self.n_sectors >= 1:
            raise ParameterError(
                f"need n_stocks >= n_sectors >= 1, got {self.n_stocks}, {self.n_sectors}"
            )
        for name in ("sector_vol", "idio_vol", "cap_log_sd"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not np.isfinite(self.cap_log_mean):
            raise ParameterError(f"cap_log_mean must be finite, got {self.cap_log_mean}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.m_days < 20:
            raise ParameterError(f"m_days must be >= 20, got {self.m_days}")
        if self.m_days > 260:
            raise ParameterError(f"m_days must fit inside one year of weekdays, got {self.m_days}")
        if self.n_years < 1:
            raise ParameterError("n_years must be >= 1")
        last_year = self.start_year + self.n_years - 1
        if not 1 <= self.start_year <= last_year <= 9999:
            raise ParameterError(
                f"start_year {self.start_year} and n_years {self.n_years} give years "
                f"{self.start_year}..{last_year}, outside 1..9999"
            )


@dataclass(frozen=True)
class SyntheticMarket:
    """Generator output: the quote panel (every stock quoted on every date),
    the sector of each stock, and the full-market benchmark series."""

    config: SynthConfig
    quotes: QuotePanel
    sectors: np.ndarray
    benchmark: IndexSeries


def trading_dates(start_year: int, n_years: int, m_days: int) -> tuple[dt.date, ...]:
    """First ``m_days`` weekdays of each calendar year, concatenated."""
    out: list[dt.date] = []
    for year in range(start_year, start_year + n_years):
        day = dt.date(year, 1, 1)
        taken = 0
        while taken < m_days:
            if day.weekday() < 5:
                out.append(day)
                taken += 1
            day += dt.timedelta(days=1)
    return tuple(out)


def generate_market(config: SynthConfig) -> SyntheticMarket:
    """Generate quotes and the cap-weighted benchmark for one seed."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    n = config.n_stocks
    dates = trading_dates(config.start_year, config.n_years, config.m_days)
    n_days = len(dates)

    start = 100.0 * (1.0 + rng.uniform(-0.02, 0.02, size=n))
    caps = np.exp(rng.normal(config.cap_log_mean, config.cap_log_sd, size=n))
    sector_returns = rng.normal(0.0, config.sector_vol, size=(n_days - 1, config.n_sectors))
    idio = rng.normal(0.0, config.idio_vol, size=(n_days - 1, n))

    sectors = np.arange(n) % config.n_sectors
    returns = np.maximum(sector_returns[:, sectors] + idio, RETURN_FLOOR)
    prices = np.empty((n_days, n))
    prices[0] = start
    prices[1:] = start[None, :] * np.cumprod(1.0 + returns, axis=0)

    shares = caps / start
    quotes = QuotePanel(
        dates=dates,
        tickers=tuple(f"S{i:04d}" for i in range(n)),
        close=prices,
        shares=np.tile(shares, (n_days, 1)),
    )

    base_level = 1000.0
    market_cap = prices @ shares
    divisor = market_cap[0] / base_level
    benchmark = IndexSeries(dates, market_cap / divisor, np.full(n_days, divisor))
    return SyntheticMarket(config=config, quotes=quotes, sectors=sectors, benchmark=benchmark)


def write_quotes_csv(path, market: SyntheticMarket) -> None:
    """Emit the quote schema the loader consumes: date,ticker,close,shares_issued,
    one row per ticker-day, ticker by ticker, each ticker's rows written at once."""
    quotes = market.quotes
    dates = [d.isoformat() for d in quotes.dates]
    with open(path, "w", newline="") as fh:
        fh.write("date,ticker,close,shares_issued\n")
        for j, ticker in enumerate(quotes.tickers):
            # tolist() yields Python floats: their repr is the shortest exact
            # form, with no NumPy scalar type name around it
            closes = map(repr, quotes.close[:, j].tolist())
            # a ticker's shares mostly repeat: format each distinct bit
            # pattern once (bits, not ==, so -0.0 and 0.0 keep their texts)
            shares = quotes.shares[:, j]
            _, first, inverse = np.unique(
                shares.view(np.int64), return_index=True, return_inverse=True
            )
            texts = [repr(v) for v in shares[first].tolist()]
            fh.write("".join(
                f"{date},{ticker},{close},{texts[s]}\n"
                for date, close, s in zip(dates, closes, inverse.tolist())
            ))


def write_benchmark_csv(path, benchmark: IndexSeries) -> None:
    """Emit ``date,level`` rows."""
    with open(path, "w", newline="") as fh:
        fh.write("date,level\n")
        for date, level in zip(benchmark.dates, benchmark.values.tolist()):
            fh.write(f"{date.isoformat()},{level!r}\n")


def read_benchmark_csv(path) -> IndexSeries:
    """Read ``date,level`` rows: at least one, dates strictly increasing and
    every level finite and > 0, or ParseError."""
    dates, (values,) = read_levels_csv(path, "benchmark", ("level",))
    return IndexSeries(dates=dates, values=values)

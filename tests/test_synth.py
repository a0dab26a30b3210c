"""Synthetic market generator: determinism, factor structure, benchmark."""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from manifold_index import indexcalc, marketdata, metrics, synth
from manifold_index.errors import ParameterError


def small_config(**overrides):
    base = dict(n_stocks=25, m_days=40, n_sectors=4, seed=11, start_year=2020, n_years=1)
    base.update(overrides)
    return synth.SynthConfig(**base)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = synth.generate_market(small_config())
        b = synth.generate_market(small_config())
        assert a.quotes.dates == b.quotes.dates
        assert a.benchmark.values.tobytes() == b.benchmark.values.tobytes()
        assert a.quotes.tickers == b.quotes.tickers
        assert a.quotes.close.tobytes() == b.quotes.close.tobytes()
        assert a.quotes.shares.tobytes() == b.quotes.shares.tobytes()

    def test_different_seed_differs(self):
        a = synth.generate_market(small_config(seed=1))
        b = synth.generate_market(small_config(seed=2))
        assert not np.array_equal(a.benchmark.values, b.benchmark.values)

    def test_csv_emission_is_stable(self, tmp_path):
        market = synth.generate_market(small_config())
        p1, p2 = tmp_path / "q1.csv", tmp_path / "q2.csv"
        synth.write_quotes_csv(p1, market)
        synth.write_quotes_csv(p2, market)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_bytes_pinned(self, tmp_path):
        # digits (repr of each float), row order and header of the quote
        # file are all part of its format
        path = tmp_path / "quotes.csv"
        synth.write_quotes_csv(path, synth.generate_market(small_config()))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cdfd5ea401d6295c24845da718d6ab7aed9e6205e2cabd9a734ef7c685196241"
        )

    def test_quotes_csv_roundtrip(self, tmp_path):
        market = synth.generate_market(small_config(n_years=2))
        path = tmp_path / "quotes.csv"
        synth.write_quotes_csv(path, market)
        back = marketdata.load_quotes(path)
        assert back.dates == market.quotes.dates
        assert back.tickers == market.quotes.tickers
        assert back.close.tobytes() == market.quotes.close.tobytes()
        assert back.shares.tobytes() == market.quotes.shares.tobytes()


def per_row_quotes_text(market) -> str:
    """The quote file as a plain per-row loop writes it: the reference the
    column-at-a-time writer must match byte for byte."""
    quotes = market.quotes
    dates = [d.isoformat() for d in quotes.dates]
    out = ["date,ticker,close,shares_issued\n"]
    for j, ticker in enumerate(quotes.tickers):
        columns = zip(dates, quotes.close[:, j].tolist(), quotes.shares[:, j].tolist())
        for date, close, shares in columns:
            out.append(f"{date},{ticker},{close!r},{shares!r}\n")
    return "".join(out)


SUBNORMAL = 5e-324
CLOSES = st.sampled_from([SUBNORMAL, 2.5e-310, 1e300, 100.0, 0.1]) | st.floats(
    min_value=SUBNORMAL, max_value=1e300, allow_subnormal=True
)
SHARES = st.sampled_from([0.0, -0.0, SUBNORMAL, 1e300, 1e6]) | st.floats(
    min_value=0.0, max_value=1e300, allow_subnormal=True
)


@st.composite
def quote_markets(draw):
    """Small markets whose values come from a few shared pools, so texts
    repeat within a column and across tickers; shares are tiled per ticker,
    as ``generate_market`` makes them, or vary within each column."""
    n_days, n_tickers = draw(st.integers(1, 12)), draw(st.integers(1, 5))

    def panel(values, shape):
        pool = draw(st.lists(values, min_size=1, max_size=4))
        picks = draw(st.lists(st.integers(0, len(pool) - 1),
                              min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        return np.array([pool[i] for i in picks], dtype=float).reshape(shape)

    close = panel(CLOSES, (n_days, n_tickers))
    if draw(st.booleans()):
        shares = np.tile(panel(SHARES, (1, n_tickers)), (n_days, 1))
    else:
        shares = panel(SHARES, (n_days, n_tickers))
    dates = synth.trading_dates(2020, 1, n_days)
    quotes = marketdata.QuotePanel(dates, tuple(f"T{j:02d}" for j in range(n_tickers)),
                                   close, shares)
    return synth.SyntheticMarket(
        config=synth.SynthConfig(), quotes=quotes, sectors=np.zeros(n_tickers, dtype=int),
        benchmark=indexcalc.IndexSeries(dates, np.ones(n_days)),
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(quote_markets())
def test_quote_writer_matches_per_row_loop_and_reads_back(tmp_path, market):
    path = tmp_path / "quotes.csv"
    synth.write_quotes_csv(path, market)
    assert path.read_bytes() == per_row_quotes_text(market).encode()
    back = marketdata.load_quotes(path)
    assert back.dates == market.quotes.dates
    assert back.tickers == market.quotes.tickers
    assert back.close.tobytes() == market.quotes.close.tobytes()
    assert back.shares.tobytes() == market.quotes.shares.tobytes()  # -0.0 stays -0.0


class TestFactorStructure:
    def test_degenerate_single_factor_all_paths_proportional(self):
        market = synth.generate_market(
            small_config(idio_vol=0.0, n_sectors=1, m_days=60)
        )
        bench = np.array(market.benchmark.values)
        for series in market.quotes.close.T:
            assert metrics.pearson(series, bench) == pytest.approx(1.0, abs=1e-9)

    def test_prices_stay_positive(self):
        market = synth.generate_market(
            small_config(sector_vol=0.5, idio_vol=0.5, m_days=60, seed=5)
        )
        assert (market.quotes.close > 0).all()

    def test_sector_assignment_round_robin(self):
        market = synth.generate_market(small_config(n_sectors=4))
        assert market.sectors.tolist() == [i % 4 for i in range(25)]


class TestBenchmark:
    def test_matches_independent_recomputation(self):
        # recompute the cap-weighted level from raw quotes via the divisor
        # machinery, which shares no code with the generator's direct formula
        market = synth.generate_market(synth.SynthConfig(
            n_stocks=30, m_days=30, n_sectors=5, seed=3, n_years=1))
        quotes = market.quotes
        replay = indexcalc.compute_series(
            list(quotes.dates), quotes.close, quotes.tickers, quotes.shares[0], 1000.0
        )
        assert replay.dates == market.benchmark.dates
        assert np.allclose(replay.values, market.benchmark.values, rtol=1e-12)

    def test_base_level_is_1000(self):
        market = synth.generate_market(small_config())
        assert market.benchmark.values[0] == pytest.approx(1000.0, abs=1e-9)


class TestCalendar:
    def test_year_blocks_are_weekdays(self):
        market = synth.generate_market(small_config(n_years=2, m_days=30))
        assert len(market.quotes.dates) == 60
        years = sorted({d.year for d in market.quotes.dates})
        assert years == [2020, 2021]
        assert all(d.weekday() < 5 for d in market.quotes.dates)

    def test_quotes_cover_every_date(self):
        market = synth.generate_market(small_config())
        assert market.quotes.close.shape == (len(market.quotes.dates), 25)
        assert not np.isnan(market.quotes.close).any()
        assert not np.isnan(market.quotes.shares).any()


class TestConfigValidation:
    def test_sector_count_bound(self):
        with pytest.raises(ParameterError):
            synth.SynthConfig(n_stocks=3, n_sectors=4)

    def test_min_days(self):
        with pytest.raises(ParameterError):
            synth.SynthConfig(m_days=10)

    def test_max_days(self):
        with pytest.raises(ParameterError):
            synth.SynthConfig(m_days=300)

    def test_negative_vol(self):
        with pytest.raises(ParameterError):
            synth.SynthConfig(sector_vol=-0.1)

    # test_cli's synth test covers the other bounds through the CLI
    @pytest.mark.parametrize("setting", [
        {"cap_log_sd": float("nan")}, {"cap_log_mean": float("inf")},
        {"start_year": 9999, "n_years": 2},
    ])
    def test_setting_out_of_range_named(self, setting):
        with pytest.raises(ParameterError, match=f"^{next(iter(setting))} "):
            synth.SynthConfig(**setting)

    @pytest.mark.parametrize("year", [1, 9999])
    def test_years_at_the_date_range_ends(self, year):
        market = synth.generate_market(small_config(start_year=year, m_days=260))
        assert {d.year for d in market.quotes.dates} == {year}


def test_benchmark_csv_roundtrip(tmp_path):
    market = synth.generate_market(small_config())
    path = tmp_path / "benchmark.csv"
    synth.write_benchmark_csv(path, market.benchmark)
    back = synth.read_benchmark_csv(path)
    assert back.dates == market.benchmark.dates
    assert np.array_equal(back.values, market.benchmark.values)

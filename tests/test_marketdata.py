"""Preprocessing: ingestion, completion, screening, normalization."""

import csv
import datetime as dt
import io
import os
import pickle
import re
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from manifold_index import indexcalc
from manifold_index import marketdata as md
from manifold_index.errors import (
    ConvergenceError,
    ParameterError,
    ParseError,
    PipelineError,
)

D = [dt.date(2020, 1, d) for d in (2, 3, 6, 7)]
ALL = slice(0, len(D))  # every row of a panel over D


def write_csv(tmp_path, text, name="quotes.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadQuotes:
    def test_groups_by_ticker_sorted_by_date(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ticker,close,shares_issued\n"
            "2020-01-03,AAA,10.5,100\n"
            "2020-01-02,AAA,10.0,100\n"
            "2020-01-06,AAA,11.0,100\n"
            "2020-01-02,BBB,5.0,200\n"
            "2020-01-03,BBB,5.1,200\n"
            "2020-01-06,BBB,5.2,200\n",
        )
        panel = md.load_quotes(path)
        assert panel.tickers == ("AAA", "BBB")
        assert (~np.isnan(panel.close)).sum(axis=0).tolist() == [3, 3]
        assert panel.dates == (D[0], D[1], D[2])
        assert panel.close[:, 0].tolist() == [10.0, 10.5, 11.0]
        assert panel.shares[:, 1].tolist() == [200.0, 200.0, 200.0]

    def test_na_and_empty_close_become_absent(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ticker,close,shares_issued\n"
            "2020-01-02,AAA,NA,100\n"
            "2020-01-03,AAA,,100\n",
        )
        panel = md.load_quotes(path)
        assert np.isnan(panel.close[:, 0]).all()
        assert panel.shares[:, 0].tolist() == [100.0, 100.0]

    def test_duplicate_ticker_date_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ticker,close,shares_issued\n"
            "2020-01-02,AAA,10,100\n"
            "2020-01-02,AAA,11,100\n",
        )
        with pytest.raises(ParseError, match=r":3: duplicate quote for \(AAA, 2020-01-02\)$"):
            md.load_quotes(path)

    @pytest.mark.parametrize("rows, message", [
        (b"2020-01-02,AAA,10,100\nnot-a-date,AAA,10,100\n", "bad date 'not-a-date'"),
        (b"2020-01-02,AAA,10,100\n2020-01-03,AAA,11\n", "expected 4 fields, got 3"),
        (b"2020-01-02,AAA,10,100\n2020-01-03,AAA,11,100,9\n", "expected 4 fields, got 5"),
        (b"2020-01-02,AAA,10,100\n2020-01-03,,11,100\n", "empty ticker"),
        # a line this long also fills a whole read block without a line end
        (b'2020-01-02,AAA,10,100\n2020-01-03,"' + b"x" * 200_000 + b'",11,100\n',
         "bad CSV: field larger than field limit (131072)"),
        # csv reads from the quote on line 2 on; the rows before the byte are checked first
        (b'2020-01-02,"AAA",10,100\n2020-01-03,AA\xff,11,100\n',
         "not UTF-8 text: byte 0xff (invalid start byte)"),
    ], ids=["bad-date", "short-row", "long-row", "empty-ticker", "field-past-csv-limit",
            "not-utf8-after-a-quote"])
    def test_malformed_row_names_line_number(self, tmp_path, rows, message):
        path = tmp_path / "quotes.csv"
        path.write_bytes(b"date,ticker,close,shares_issued\n" + rows)
        with pytest.raises(ParseError, match=f":3: {re.escape(message)}$") as caught:
            md.load_quotes(path)
        assert caught.value.line_no == 3

    def test_lines_are_physical_after_a_quoted_line_break(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ticker,close,shares_issued\n"
            '2020-01-02,"S\n1",10,100\n'
            "2020-01-03,AAA,abc,100\n",
        )
        with pytest.raises(ParseError, match=":4: bad close value 'abc'"):
            md.load_quotes(path)

    @pytest.mark.parametrize("text, column", [
        ("", "date"),
        ("date,ticker,shares_issued\n2020-01-02,AAA,100\n", "close"),
    ], ids=["empty-file", "no-close"])
    def test_header_without_a_column_names_line_1(self, tmp_path, text, column):
        path = write_csv(tmp_path, text)
        with pytest.raises(ParseError, match=f":1: missing required column '{column}'$"):
            md.load_quotes(path)

    def test_empty_file_is_empty_universe(self, tmp_path):
        path = write_csv(tmp_path, "date,ticker,close,shares_issued\n")
        with pytest.raises(PipelineError, match="quotes.csv: no quote rows$"):
            md.load_quotes(path)

    def test_unknown_columns_ignored(self, tmp_path):
        path = write_csv(
            tmp_path,
            "volume,date,ticker,close,shares_issued\n"
            "999,2020-01-02,AAA,10,100\n",
        )
        panel = md.load_quotes(path)
        assert panel.close[0, 0] == 10.0

    def test_negative_close_rejected(self, tmp_path):
        path = write_csv(
            tmp_path,
            "date,ticker,close,shares_issued\n2020-01-02,AAA,-10,100\n",
        )
        with pytest.raises(ParseError):
            md.load_quotes(path)

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_close_rejected(self, tmp_path, token):
        path = write_csv(
            tmp_path,
            "date,ticker,close,shares_issued\n"
            "2020-01-02,AAA,10,100\n"
            f"2020-01-03,AAA,{token},100\n",
        )
        with pytest.raises(ParseError, match=":3: close must be finite"):
            md.load_quotes(path)

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_shares_rejected(self, tmp_path, token):
        path = write_csv(
            tmp_path,
            "date,ticker,close,shares_issued\n"
            "2020-01-02,AAA,10,100\n"
            f"2020-01-03,AAA,11,{token}\n",
        )
        with pytest.raises(ParseError, match=":3: shares_issued must be finite"):
            md.load_quotes(path)


# ---------------------------------------------------------------------------
# load_quotes with ``meanwhile``: the parse in a forked child


def many_quotes(tmp_path, n_tickers=50, n_days=200):
    """A quote file whose pickled panel (160 kB of arrays) overfills a pipe."""
    start = dt.date(2020, 1, 1)
    rows = [f"{start + dt.timedelta(days=i)},T{j:02d},{100 + i + j / 8},{1000 + j}\n"
            for j in range(n_tickers) for i in range(n_days)]
    return write_csv(tmp_path, "date,ticker,close,shares_issued\n" + "".join(rows))


def counter():
    """A ``meanwhile`` that counts its calls in ``calls``."""
    def meanwhile():
        meanwhile.calls += 1
    meanwhile.calls = 0
    return meanwhile


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_same_panel(got, want):
    assert got.dates == want.dates and got.tickers == want.tickers
    assert got.close.tobytes() == want.close.tobytes()
    assert got.shares.tobytes() == want.shares.tobytes()


QUOTE_FAULTS = {
    "named-line": "date,ticker,close,shares_issued\n2020-01-02,AAA,10,100\n2020-01-03,AAA,x,1\n",
    "duplicate": "date,ticker,close,shares_issued\n2020-01-02,AAA,10,100\n2020-01-02,AAA,11,1\n",
    "missing-file": None,
}


class TestForkedLoad:
    def test_panel_is_the_in_process_panel(self, tmp_path):
        path = many_quotes(tmp_path)
        meanwhile = counter()
        assert_same_panel(md.load_quotes(path, meanwhile=meanwhile), md.load_quotes(path))
        assert meanwhile.calls == 1
        assert_no_child_left()

    @pytest.mark.parametrize("case", QUOTE_FAULTS)
    def test_fault_is_raised_as_in_process(self, tmp_path, case):
        path = tmp_path / "quotes.csv"
        if QUOTE_FAULTS[case] is not None:
            path.write_text(QUOTE_FAULTS[case])
        with pytest.raises(Exception) as here:
            md.load_quotes(path)
        meanwhile = counter()
        with pytest.raises(Exception) as forked:
            md.load_quotes(path, meanwhile=meanwhile)
        assert type(forked.value) is type(here.value)
        assert str(forked.value) == str(here.value)
        assert getattr(forked.value, "line_no", None) == getattr(here.value, "line_no", None)
        assert meanwhile.calls == 1
        assert_no_child_left()

    def test_meanwhile_that_raises_leaves_no_child(self, tmp_path):
        def meanwhile():
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="^interrupted$"):
            md.load_quotes(many_quotes(tmp_path), meanwhile=meanwhile)
        assert_no_child_left()

    def test_child_that_sends_nothing_is_one_error(self, tmp_path, monkeypatch):
        # the forked child runs the patched module, as one killed mid-parse would end
        monkeypatch.setattr(md, "_send_quotes", lambda source, r, w: (os.close(r), os.close(w)))
        path = many_quotes(tmp_path)
        with pytest.raises(PipelineError, match="csv: the quote parse ended without a result$"):
            md.load_quotes(path, meanwhile=counter())
        assert_no_child_left()

    def test_without_fork_the_parse_runs_here(self, tmp_path, monkeypatch):
        path = many_quotes(tmp_path)
        want = md.load_quotes(path)
        monkeypatch.delattr(os, "fork")
        meanwhile = counter()
        assert_same_panel(md.load_quotes(path, meanwhile=meanwhile), want)
        assert meanwhile.calls == 1

    @pytest.mark.parametrize("text", [
        "date,ticker,close,shares_issued\n2020-01-02,AAA,10,100\n", QUOTE_FAULTS["named-line"],
    ], ids=["panel", "named-line"])
    def test_child_body_writes_the_result_and_closes_both_ends(self, tmp_path, text):
        path = write_csv(tmp_path, text)
        read_fd, write_fd = os.pipe()
        reader = os.dup(read_fd)
        md._send_quotes(path, read_fd, write_fd)  # a small result: the pipe holds it
        with open(reader, "rb") as pipe:
            result = pickle.load(pipe)
        for fd in (read_fd, write_fd):
            with pytest.raises(OSError):
                os.fstat(fd)
        if isinstance(result, Exception):
            assert type(result) is ParseError and result.line_no == 3
        else:
            assert_same_panel(result, md.load_quotes(path))

    def test_child_body_returns_when_the_parent_is_gone(self, tmp_path):
        path = many_quotes(tmp_path)
        read_fd, write_fd = os.pipe()
        childs_read = os.dup(read_fd)
        os.close(read_fd)  # the parent's end, as if the parent had died
        returned = []

        def body():
            # a result larger than the pipe would block for ever on a live read end
            md._send_quotes(path, childs_read, write_fd)
            returned.append(True)

        thread = threading.Thread(target=body, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert returned == [True]
        with pytest.raises(OSError):
            os.fstat(write_fd)


@pytest.mark.parametrize("error", [
    PipelineError("no quote rows"),
    ParseError("q.csv", 7, "bad date 'x'"),
    ParseError("q.csv", None, "no rows"),
    ParameterError("k must be >= 1"),
    ConvergenceError("eigenpairs failed", 2.5e-7),
    FileNotFoundError(2, "No such file or directory", "q.csv"),
], ids=lambda e: type(e).__name__)
def test_errors_survive_pickle(error):
    """The forked parse hands its exception back pickled."""
    back = pickle.loads(pickle.dumps(error, protocol=5))
    assert type(back) is type(error) and str(back) == str(error)
    assert vars(back) == vars(error)
    for name in ("line_no", "worst_residual", "filename", "errno"):
        assert getattr(back, name, None) == getattr(error, name, None)


def make_panel(closes, shares, dates=D):
    """QuotePanel over ``dates`` from ticker -> values columns (None absent)."""
    tickers = sorted(closes)

    def block(columns):
        return np.array([columns[t] for t in tickers], dtype=float).reshape(len(tickers), -1).T

    return md.QuotePanel(tuple(dates), tuple(tickers), block(closes), block(shares))


def fill(values):
    """The completion step on a list, None where a close is absent."""
    return md._forward_fill(np.array(values, dtype=float))


class TestCompleteSeries:
    def test_forward_fill(self):
        assert fill([10.0, None, None, 11.0]).tolist() == [10.0, 10.0, 10.0, 11.0]

    def test_dense_series_unchanged(self):
        assert fill([10.0, 10.5, 11.0, 11.5]).tolist() == [10.0, 10.5, 11.0, 11.5]

    def test_no_predecessor_not_completable(self):
        # a leading gap stays: screening drops such a column, and
        # compute_series reports an index member's as a missing price
        out = fill([None, 5.0, None, 7.0])
        assert np.isnan(out[0]) and out[1:].tolist() == [5.0, 5.0, 7.0]

    def test_accepts_raw_quotes_with_missing_rows(self, tmp_path):
        # a loaded panel column: no row on D[1], an NA close on D[2]
        path = write_csv(
            tmp_path,
            "date,ticker,close,shares_issued\n"
            "2020-01-02,AAA,10.0,100\n"
            "2020-01-03,BBB,5.0,100\n"
            "2020-01-06,AAA,NA,100\n"
            "2020-01-07,AAA,11.0,100\n",
        )
        panel = md.load_quotes(path)
        out = md._forward_fill(panel.close[:, 0])
        assert out.tolist() == [10.0, 10.0, 10.0, 11.0]

    def test_block_fills_each_column(self):
        out = fill([[10.0, 1.0], [None, None], [12.0, None], [None, 4.0]])
        assert out.tolist() == [[10.0, 1.0], [10.0, 1.0], [12.0, 1.0], [12.0, 4.0]]

    def test_idempotent(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 12))
            series = [float(rng.uniform(1, 100)) for _ in range(m)]
            for i in range(1, m):
                if rng.uniform() < 0.4:
                    series[i] = None
            once = fill(series)
            twice = fill(list(once))
            assert np.array_equal(once, twice)


def survivors(series):
    """screen_universe over ticker -> calendar-aligned closes (None absent)."""
    tickers = list(series)
    block = np.array([series[t] for t in tickers], dtype=float).T
    return [tickers[j] for j in md.screen_universe(block)]


class TestScreenUniverse:
    def test_listed_mid_year_removed(self):
        series = {"AAA": [None, 5.0, 6.0, 7.0], "BBB": [1.0, 2.0, 3.0, 4.0]}
        assert survivors(series) == ["BBB"]

    def test_delisted_mid_year_removed(self):
        series = {"AAA": [5.0, 6.0, None, None], "BBB": [1.0, 2.0, 3.0, 4.0]}
        assert survivors(series) == ["BBB"]

    def test_gap_in_the_middle_survives(self):
        series = {"AAA": [5.0, None, None, 7.0]}
        assert survivors(series) == ["AAA"]

    def test_zero_survivors(self):
        with pytest.raises(PipelineError, match="^screening removed every ticker$"):
            survivors({"AAA": [None, 5.0, 6.0, None]})

    def test_monotone_under_window_shrink(self, rng):
        # A survivor of the full window that is still present on both
        # endpoints of a shrunken window survives the shrunken window too.
        for _ in range(50):
            m = int(rng.integers(4, 10))
            series = {
                f"T{j}": [
                    float(rng.uniform(1, 10)) if rng.uniform() < 0.7 else None
                    for _ in range(m)
                ]
                for j in range(6)
            }
            lo, hi = 1, m - 1
            small = {t: s[lo:hi] for t, s in series.items()}
            try:
                big_survivors = set(survivors(series))
            except PipelineError as exc:
                assert str(exc) == "screening removed every ticker"
                big_survivors = set()
            try:
                small_survivors = set(survivors(small))
            except PipelineError as exc:
                assert str(exc) == "screening removed every ticker"
                small_survivors = set()
            for t in big_survivors:
                if small[t][0] is not None and small[t][-1] is not None:
                    assert t in small_survivors


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(md.normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_constant_series(self):
        m = 7
        out = md.normalize([4.2] * m)
        assert np.allclose(out, 1.0 / np.sqrt(m), atol=1e-15)

    def test_direct_formula(self):
        out = md.normalize([1.0, 2.0, 2.0])
        assert np.allclose(out, [1 / 3, 2 / 3, 2 / 3], atol=1e-15)

    def test_scale_invariant(self, rng):
        for _ in range(30):
            v = rng.uniform(0.5, 50.0, size=int(rng.integers(2, 20)))
            c = float(rng.uniform(1e-6, 1e6))
            assert np.allclose(md.normalize(c * v), md.normalize(v), atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    mantissas=st.lists(st.floats(1.0, 10.0), min_size=1, max_size=366),
    decade=st.integers(-323, 307),
    j=st.integers(-300, 300),
)
def test_normalize_is_unit_over_the_float_range(mantissas, decade, j):
    """Closes from subnormal to 1e308 give a unit vector; where no square
    of a close underflows or overflows it is bit-identical to v / norm(v),
    and a power of two 2**j that keeps the closes normal changes no bit."""
    v = np.array(mantissas) * 10.0**decade
    out = md.normalize(v)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
    if -140 <= decade <= 140:
        assert np.array_equal(out, v / np.linalg.norm(v))
    with np.errstate(over="ignore"):
        scaled = np.ldexp(v, j)
    if np.all((scaled >= np.finfo(float).tiny) & (scaled < np.inf)):
        assert np.array_equal(md.normalize(scaled), out)


def frame_fixture():
    """3 tickers x 4 dates; AAA has one gap, CCC delists, BBB has a shares gap."""
    return make_panel(
        closes={
            "AAA": [10.0, None, None, 11.0],
            "BBB": [5.0, 6.0, 7.0, 8.0],
            "CCC": [2.0, 2.5, None, None],
        },
        shares={
            "AAA": [100.0] * 4,
            "BBB": [200.0, None, None, 300.0],
            "CCC": [50.0, 50.0, None, None],
        },
    )


def caps_of(frame):
    return dict(zip(frame.tickers, frame.caps.tolist()))


class TestBuildMarketFrame:
    def test_screening_drops_one(self):
        frame = md.build_market_frame(frame_fixture(), ALL)
        assert frame.n == 2
        assert frame.tickers == ["AAA", "BBB"]

    def test_dense_identity_path(self):
        quotes = make_panel({"XXX": [1.0, 2.0, 3.0, 4.0]}, {"XXX": [10.0] * 4})
        frame = md.build_market_frame(quotes, ALL)
        expected = np.array([1, 2, 3, 4], dtype=float)
        expected /= np.linalg.norm(expected)
        assert np.allclose(frame.vectors[0], expected, atol=1e-15)

    def test_hand_computed_frame(self):
        # AAA completes to (10,10,10,11): norm sqrt(421); caps at d4 = 11*100.
        # BBB is dense (5,6,7,8): norm sqrt(174); shares forward-fill to 200
        # on d2/d3, 300 on d4 -> cap 8*300.
        frame = md.build_market_frame(frame_fixture(), ALL)
        aaa = np.array([10, 10, 10, 11]) / np.sqrt(421.0)
        bbb = np.array([5, 6, 7, 8]) / np.sqrt(174.0)
        assert np.allclose(frame.vectors[0], aaa, atol=1e-14)
        assert np.allclose(frame.vectors[1], bbb, atol=1e-14)
        assert caps_of(frame) == {"AAA": 1100.0, "BBB": 2400.0}

    def test_caps_use_selection_date(self):
        # the selection date is the last date of the rows: the panel runs on
        # into 2021, and a 2020 frame values caps on D[-1]
        later = dt.date(2021, 1, 4)
        quotes = make_panel(
            {"AAA": [10.0, None, None, 11.0, 50.0], "BBB": [5.0, 6.0, 7.0, 8.0, 50.0]},
            {"AAA": [100.0] * 4 + [900.0], "BBB": [200.0, None, None, 300.0, 900.0]},
            dates=(*D, later),
        )
        frame = md.build_market_frame(quotes, md.calendar_from_quotes(quotes, 2020))
        assert caps_of(frame) == {"AAA": 1100.0, "BBB": 2400.0}
        assert frame.vectors.shape == (2, len(D))

    def test_shares_need_a_value_by_the_selection_date(self):
        quotes = make_panel(
            {"AAA": [1.0, 2.0, 3.0, 4.0]}, {"AAA": [None, None, 30.0, None]}
        )
        assert caps_of(md.build_market_frame(quotes, ALL)) == {"AAA": 120.0}
        with pytest.raises(PipelineError, match=f"^AAA: shares_issued absent through {D[1]}$"):
            md.build_market_frame(quotes, slice(0, 2))

    def test_every_vector_unit_norm_and_length_m(self, rng):
        for _ in range(10):
            n, m = int(rng.integers(2, 8)), int(rng.integers(2, 10))
            quotes = make_panel(
                {f"T{j}": rng.uniform(1, 50, size=m).tolist() for j in range(n)},
                {f"T{j}": [10.0] * m for j in range(n)},
                dates=[dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(m)],
            )
            frame = md.build_market_frame(quotes, slice(0, m))
            for v in frame.vectors:
                assert len(v) == m
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


class TestIndexInputs:
    def test_closes_filled_and_shares_on_first_date(self):
        closes, shares = md.index_inputs(frame_fixture(), ALL, ["BBB", "AAA"])
        assert closes.tolist() == [[5.0, 10.0], [6.0, 10.0], [7.0, 10.0], [8.0, 11.0]]
        assert shares.tolist() == [200.0, 100.0]

    def test_unquoted_or_unpriced_constituent_rejected(self):
        # on D[2] ZZZ is not in the panel, AAA has no close, BBB no shares;
        # compute_series checks the first date of what index_inputs returns
        quotes = frame_fixture()
        for ticker, error, message in (
            ("ZZZ", PipelineError, f"no price for ZZZ on {D[2]}"),
            ("AAA", PipelineError, f"no price for AAA on {D[2]}"),
            ("BBB", ParameterError, f"BBB: shares_issued absent on {D[2]}"),
        ):
            closes, shares = md.index_inputs(quotes, slice(2, 4), [ticker])
            with pytest.raises(error, match=f"^{message}$"):
                indexcalc.compute_series(quotes.dates[2:4], closes, [ticker], shares)


class TestCalendarFromQuotes:
    def test_year_scoped(self):
        quotes = make_panel(
            {"AAA": [1.0, 1.0, 1.0]}, {"AAA": [1.0, 1.0, 1.0]},
            dates=(dt.date(2019, 12, 31), D[0], D[1]),
        )
        rows = md.calendar_from_quotes(quotes, 2020)
        assert quotes.dates[rows] == (D[0], D[1])

    @given(st.lists(st.dates(dt.date(2017, 1, 1), dt.date(2023, 12, 31)),
                    min_size=1, max_size=40, unique=True),
           st.integers(2016, 2024))
    def test_rows_are_the_dates_of_the_year(self, dates, year):
        dates = sorted(dates)
        quotes = make_panel({"AAA": [1.0] * len(dates)}, {"AAA": [1.0] * len(dates)},
                            dates=dates)
        want = tuple(d for d in quotes.dates if d.year == year)
        if len(want) < 2:
            with pytest.raises(PipelineError, match=f"^no trading dates found for year {year}$"):
                md.calendar_from_quotes(quotes, year)
        else:
            assert quotes.dates[md.calendar_from_quotes(quotes, year)] == want


@given(st.lists(st.dates(dt.date(2017, 1, 1), dt.date(2023, 12, 31)), max_size=40, unique=True),
       st.integers(2015, 2025))
def test_year_rows_are_a_per_date_filter(dates, year):
    """year_rows equals filtering the dates one by one, for years before,
    inside and after them and for no dates at all."""
    dates = tuple(sorted(dates))
    rows = md.year_rows(dates, year)
    assert list(range(len(dates)))[rows] == [i for i, d in enumerate(dates) if d.year == year]
    assert 0 <= rows.start <= rows.stop <= len(dates)


# ---------------------------------------------------------------------------
# load_quotes against a plain per-row reference on random files

FAULTS = {
    "bad_date": ("date", "2020-13-01"),
    "blank_date": ("date", " "),
    "bad_close": ("close", "abc"),
    "nan_close": ("close", "nan"),
    "zero_close": ("close", "0"),
    "inf_shares": ("shares_issued", "inf"),
    "negative_shares": ("shares_issued", "-3"),
    "empty_ticker": ("ticker", " "),
    "not_utf8": ("ticker", "A\udcff"),  # written as the byte 0xff
    "short_row": None,
    "long_row": None,
    "duplicate": None,
}


def reference_load(data):
    """Per-row reading of a quote file's bytes through csv.reader: the panel
    as (dates, tickers, close, shares), or the line it fails at and whether
    the fault is a duplicate quote.  A record's line is its last physical
    line."""
    text = data.decode("utf-8", errors="surrogateescape")
    bad_byte = text.find("\udcff")
    if bad_byte >= 0:  # the line it is on
        bad_line = len(io.StringIO(text[:bad_byte] + "x", newline="").readlines())
    reader = csv.reader(io.StringIO(text, newline=""))
    names = [h.strip() for h in next(reader)]
    col = {k: names.index(k) for k in ("date", "ticker", "close", "shares_issued")}
    cells = {}
    for fields in reader:
        line_no = reader.line_num
        if bad_byte >= 0 and line_no >= bad_line:
            return bad_line, False
        if not any(f.strip() for f in fields):
            continue
        if len(fields) != len(names):
            return line_no, False
        try:
            date = dt.date.fromisoformat(fields[col["date"]].strip())
        except ValueError:
            return line_no, False
        ticker = fields[col["ticker"]].strip()
        if not ticker:
            return line_no, False
        values = []
        for name, positive in (("close", True), ("shares_issued", False)):
            token = fields[col[name]].strip()
            if token in ("", "NA"):
                values.append(np.nan)
                continue
            try:
                value = float(token)
            except ValueError:
                return line_no, False
            if not (np.isfinite(value) and (value > 0 if positive else value >= 0)):
                return line_no, False
            values.append(value)
        if (date, ticker) in cells and "duplicate" not in cells:
            cells["duplicate"] = line_no
        cells.setdefault((date, ticker), values)
    if "duplicate" in cells:
        return cells["duplicate"], True
    dates = sorted({d for d, _ in cells})
    tickers = sorted({t for _, t in cells})
    close = np.full((len(dates), len(tickers)), np.nan)
    shares = close.copy()
    for (d, t), (c, s) in cells.items():
        close[dates.index(d), tickers.index(t)] = c
        shares[dates.index(d), tickers.index(t)] = s
    return tuple(dates), tuple(tickers), close, shares


@st.composite
def quote_files(draw):
    """(bytes, read block size) of a random quote file: shuffled rows, absent
    values, missing ticker-days, an extra column, blank and whitespace-only
    lines of any width, LF, CRLF or CR line ends, quoted fields (some
    holding a comma or a line break) and up to two faults."""
    names = ["date", "ticker", "close", "shares_issued"]
    extra = draw(st.none() | st.integers(0, 4))
    if extra is not None:
        names.insert(extra, "volume")
    dates = draw(st.lists(
        st.dates(dt.date(2019, 12, 20), dt.date(2020, 1, 10)), min_size=1, max_size=6, unique=True
    ))
    tickers = draw(st.lists(
        st.text("ABCXYZÄ", min_size=1, max_size=3), min_size=1, max_size=4, unique=True
    ))
    value = st.floats(0.01, 1e6, allow_nan=False).map(str) | st.sampled_from(["NA", "", " NA "])
    rows = []
    for d in dates:
        for t in tickers:
            if draw(st.booleans()):
                close, shares = draw(value), draw(value | st.just("0.0"))
                rows.append({"date": d.isoformat(), "ticker": t, "volume": "7",
                             "close": close, "shares_issued": shares})
    if not rows:
        rows.append({"date": dates[0].isoformat(), "ticker": tickers[0], "volume": "1",
                     "close": "1.5", "shares_issued": "2"})
    rows = [[row[n] for n in names] for row in draw(st.permutations(rows))]
    quoting = draw(st.booleans())
    for row in rows:
        if quoting and draw(st.booleans()):
            t = names.index("ticker")
            row[t] = '"' + row[t] + draw(st.sampled_from(["", "\n1", "\r\n2"])) + '"'
            if "volume" in names:
                row[names.index("volume")] = '"7,5"'

    for fault in [draw(st.sampled_from(sorted(FAULTS))) for _ in range(draw(st.integers(0, 2)))]:
        at = draw(st.integers(0, len(rows) - 1))
        if fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[at]))
        elif fault == "short_row":
            rows[at] = rows[at][:len(names) - 1]
        elif fault == "long_row":
            rows[at] = rows[at] + draw(st.lists(st.sampled_from(["x", "", " "]), min_size=1,
                                                max_size=2))
        elif names.index(FAULTS[fault][0]) < len(rows[at]):  # not cut short before
            column, token = FAULTS[fault]
            rows[at][names.index(column)] = token
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["", ",,,", " ", "\t", " , ,,,, "]))
        lines.insert(draw(st.integers(0, len(lines))), blank)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join([",".join(names)] + lines) + draw(st.sampled_from([eol, ""]))
    block = draw(st.integers(1, 48) | st.just(1 << 18))
    return text.encode("utf-8", errors="surrogateescape"), block


@pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"], ids=["LF", "CRLF", "CR"])
def test_byte_blocks_hold_whole_lines(tmp_path, monkeypatch, eol):
    """A file streams in several blocks whatever its line ends, each block
    ending at a line end, and no block cuts a CRLF in two."""
    monkeypatch.setattr(md, "_BLOCK_BYTES", 16)
    data = eol.join(b"2020-01-02,T%d,1.5,2" % i for i in range(20)) + eol
    path = tmp_path / "quotes.csv"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        blocks = list(md._byte_blocks(fh))
    assert b"".join(blocks) == data
    assert len(blocks) > 1
    assert all(block.endswith(eol) for block in blocks)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(quote_files())
def test_load_matches_per_row_reference(tmp_path, monkeypatch, case):
    data, block = case
    monkeypatch.setattr(md, "_BLOCK_BYTES", block)
    path = tmp_path / "quotes.csv"
    path.write_bytes(data)
    expected = reference_load(data)
    if len(expected) == 2:
        line_no, duplicate = expected
        with pytest.raises(ParseError, match=f":{line_no}:") as caught:
            md.load_quotes(path)
        assert (f":{line_no}: duplicate quote for (" in str(caught.value)) == duplicate
        return
    panel = md.load_quotes(path)
    dates, tickers, close, shares = expected
    assert panel.dates == dates
    assert panel.tickers == tickers
    np.testing.assert_array_equal(panel.close, close)
    np.testing.assert_array_equal(panel.shares, shares)

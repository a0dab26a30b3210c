"""Pearson / alpha / beta / Jensen and the stability statistics."""

import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from manifold_index import metrics
from manifold_index.indexcalc import IndexSeries
from manifold_index.errors import PipelineError


def series_on(dates, values):
    return IndexSeries(dates=tuple(dates), values=np.array(values, dtype=float))


def month_days(year, month, n=3):
    return [dt.date(year, month, d) for d in range(1, n + 1)]


class TestMonthlyReturns:
    def test_two_month_ratio(self):
        dates = month_days(2021, 1) + month_days(2021, 2)
        values = [990, 995, 1000, 1080, 1090, 1100]
        rets = metrics.monthly_returns(series_on(dates, values))
        assert rets.tolist() == pytest.approx([0.10])

    def test_constant_series(self):
        dates = month_days(2021, 1) + month_days(2021, 2) + month_days(2021, 3)
        rets = metrics.monthly_returns(series_on(dates, [7.0] * 9))
        assert rets.tolist() == [0.0, 0.0]

    def test_three_month_hand_case(self):
        dates = month_days(2021, 1, 1) + month_days(2021, 2, 1) + month_days(2021, 3, 1)
        rets = metrics.monthly_returns(series_on(dates, [1000.0, 1050.0, 945.0]))
        assert rets.tolist() == pytest.approx([0.05, -0.10])

    @pytest.mark.parametrize("levels", [(1e300, 1e-10), (1e-300, 1e300)],
                             ids=["rounds-to-minus-one", "overflows"])
    def test_return_must_be_finite_and_above_minus_one(self, levels):
        dates = month_days(2021, 1, 1) + month_days(2021, 2, 1)
        with pytest.raises(PipelineError, match=r"^returns must be finite and > -1$"):
            metrics.monthly_returns(series_on(dates, levels))

    def test_single_month_rejected(self):
        with pytest.raises(PipelineError, match="^need at least 2 calendar months of levels$"):
            metrics.monthly_returns(series_on(month_days(2021, 1), [1.0, 2.0, 3.0]))

    def test_uses_last_trading_day_of_month(self):
        dates = [dt.date(2021, 1, 4), dt.date(2021, 1, 29), dt.date(2021, 2, 26)]
        rets = metrics.monthly_returns(series_on(dates, [500.0, 1000.0, 1200.0]))
        assert rets.tolist() == pytest.approx([0.2])


def monthly_returns_per_date(series):
    """The per-date reference for monthly_returns: the last level of each
    calendar month, kept in a dict as the dates are walked, and one Python
    float return per month pair."""
    month_last = {}
    for date, level in zip(series.dates, series.values.tolist()):
        month_last[(date.year, date.month)] = level  # dates ascending, last write wins
    if len(month_last) < 2:
        raise PipelineError("need at least 2 calendar months of levels")
    closes = [month_last[k] for k in sorted(month_last)]
    rets = np.array([(curr - prev) / prev for prev, curr in zip(closes, closes[1:])])
    if not np.all(np.isfinite(rets)) or np.any(rets <= -1.0):
        raise PipelineError("returns must be finite and > -1")
    return rets


@st.composite
def level_series(draw):
    """Levels on dates drawn as (month, day) pairs over 2019-2021: skipped
    months leave gaps, a month drawn once has one trading day, and the
    months cross two year boundaries.  Levels span the whole positive float
    range, so some returns overflow or round to -1."""
    days = draw(st.lists(st.tuples(st.integers(0, 35), st.integers(1, 28)),
                         max_size=30, unique=True))
    dates = sorted(dt.date(2019 + m // 12, m % 12 + 1, d) for m, d in days)
    level = st.floats(0.0, exclude_min=True, allow_infinity=False)
    return series_on(dates, draw(st.lists(level, min_size=len(dates), max_size=len(dates))))


@given(level_series())
def test_monthly_returns_equal_the_per_date_reference(series):
    try:
        want = monthly_returns_per_date(series)
    except PipelineError as exc:
        with pytest.raises(PipelineError, match=f"^{re.escape(str(exc))}$"):
            metrics.monthly_returns(series)
    else:
        got = metrics.monthly_returns(series)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestPearson:
    def test_self_correlation(self, rng):
        x = rng.uniform(1, 100, 30)
        assert metrics.pearson(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self, rng):
        x = rng.uniform(1, 100, 30)
        assert metrics.pearson(x, -x + 17.0) == pytest.approx(-1.0, abs=1e-12)

    def test_direct_evaluation(self):
        # hand computation: 9/sqrt(84)
        got = metrics.pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert got == pytest.approx(9.0 / np.sqrt(84.0), abs=1e-12)
        assert got == pytest.approx(0.98198, abs=5e-6)

    def test_affine_invariance_and_bounds(self, rng):
        for _ in range(25):
            x = rng.standard_normal(20)
            y = rng.standard_normal(20)
            rho = metrics.pearson(x, y)
            assert abs(rho) <= 1.0 + 1e-12
            a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-3, 3))
            assert metrics.pearson(a * x + b, y) == pytest.approx(rho, abs=1e-10)
            assert metrics.pearson(x, a * y + b) == pytest.approx(rho, abs=1e-10)
            assert metrics.pearson(x, a * x + b) == pytest.approx(1.0, abs=1e-10)
            assert metrics.pearson(x, -a * x + b) == pytest.approx(-1.0, abs=1e-10)

    def test_constant_input_undefined(self):
        with pytest.raises(PipelineError, match="^pearson undefined for a constant series$"):
            metrics.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestAlpha:
    def test_identical_returns(self):
        r = (0.01, 0.02, -0.01)
        assert metrics.alpha(r, r) == 0.0

    def test_constant_shift(self):
        rm = (0.01, 0.02, -0.01, 0.0)
        ri = tuple(x + 0.01 for x in rm)
        assert metrics.alpha(ri, rm) == pytest.approx(0.01, abs=1e-15)

    def test_antisymmetric(self, rng):
        ri = rng.normal(0, 0.02, 12)
        rm = rng.normal(0, 0.02, 12)
        assert metrics.alpha(ri, rm) == pytest.approx(-metrics.alpha(rm, ri), abs=1e-15)

    def test_sign_convention(self):
        # an index that beats the market has positive excess monthly return
        assert metrics.alpha((0.02, 0.02), (0.01, 0.01)) > 0


class TestBeta:
    def test_market_with_itself(self):
        rm = (0.00, 0.02, 0.01)
        assert metrics.beta(rm, rm) == pytest.approx(1.0, abs=1e-12)

    def test_doubled_returns(self):
        rm = (0.00, 0.02, 0.01, -0.03)
        ri = tuple(2 * x for x in rm)
        assert metrics.beta(ri, rm) == pytest.approx(2.0, abs=1e-12)

    def test_hand_covariance_over_variance(self):
        assert metrics.beta((0.01, 0.03, 0.02), (0.00, 0.02, 0.01)) == pytest.approx(1.0, abs=1e-12)

    def test_linear_in_first_argument(self, rng):
        ri = rng.normal(0, 0.02, 10)
        rm = rng.normal(0, 0.02, 10)
        a, c = 2.5, 0.004
        assert metrics.beta(a * ri + c, rm) == pytest.approx(a * metrics.beta(ri, rm), rel=1e-10)

    def test_zero_market_variance_undefined(self):
        with pytest.raises(PipelineError, match="^beta undefined: market variance is zero$"):
            metrics.beta((0.01, 0.02), (0.01, 0.01))


class TestJensenAlpha:
    def test_market_with_itself_cancels_for_any_rate(self):
        rm = (0.01, 0.03, -0.02)
        for r in (0.0, 0.002, 0.01):
            assert metrics.jensen_alpha(rm, rm, r) == pytest.approx(0.0, abs=1e-15)

    def test_default_risk_free_rate(self):
        assert metrics.DEFAULT_RISK_FREE == 0.002

    def test_hand_arithmetic(self):
        # beta = 2, mean(ri) = 0.03, mean(rm) = 0.02, r = 0.002:
        # 0.03 - (0.002 + 2*0.018) = -0.008
        rm = (0.00, 0.02, 0.04)
        ri = tuple(2 * x - 0.01 for x in rm)  # beta 2, mean 0.03
        got = metrics.jensen_alpha(ri, rm, 0.002)
        assert got == pytest.approx(-0.008, abs=1e-15)


class TestStability:
    def test_identical_values(self):
        assert metrics.stability_std([3.0, 3.0, 3.0]) == 0.0

    def test_two_point_sample_std(self):
        assert metrics.stability_std([0.0, 2.0]) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_four_value_hand_case(self):
        # values 1,2,3,6: mean 3, squared devs 4+1+0+9=14, std = sqrt(14/3)
        got = metrics.stability_std([1.0, 2.0, 3.0, 6.0])
        assert got == pytest.approx(np.sqrt(14.0 / 3.0), abs=1e-15)

    def test_translation_invariant_and_scales(self, rng):
        v = rng.normal(0, 1, 8)
        s = metrics.stability_std(v)
        assert metrics.stability_std(v + 100.0) == pytest.approx(s, rel=1e-10)
        assert metrics.stability_std(3.0 * v) == pytest.approx(3.0 * s, rel=1e-10)


class TestMeanBaselineDistance:
    def test_at_baseline(self):
        assert metrics.mean_baseline_distance([1.0, 1.0], 1.0) == 0.0

    def test_symmetric_around_baseline(self):
        assert metrics.mean_baseline_distance([0.9, 1.1], 1.0) == pytest.approx(0.1, abs=1e-15)

    def test_four_year_hand_case(self):
        # |0.98-1| + |0.95-1| + |1.01-1| + |0.9-1| = 0.02+0.05+0.01+0.10 = 0.18
        got = metrics.mean_baseline_distance([0.98, 0.95, 1.01, 0.90], 1.0)
        assert got == pytest.approx(0.18 / 4, abs=1e-15)


class TestEvaluate:
    def test_benchmark_against_itself(self):
        dates = [dt.date(2021, m, d) for m in range(1, 5) for d in (3, 17, 25)]
        values = [1000 * (1 + 0.01 * i) for i in range(len(dates))]
        bench = series_on(dates, values)
        report = metrics.evaluate(bench, bench)
        assert report["pearson"] == pytest.approx(1.0, abs=1e-12)
        assert report["alpha"] == 0.0
        assert report["beta"] == pytest.approx(1.0, abs=1e-12)
        assert report["jensen_alpha"] == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_dates_rejected(self):
        d1 = month_days(2021, 1) + month_days(2021, 2)
        d2 = month_days(2021, 3) + month_days(2021, 4)
        s1 = series_on(d1, [1.0 + i for i in range(6)])
        s2 = series_on(d2, [1.0 + 2 * i for i in range(6)])
        with pytest.raises(PipelineError, match="^series and benchmark are not on the same trading dates$"):
            metrics.evaluate(s1, s2)


def test_report_csv_writers(tmp_path):
    report = {"pearson": 0.99, "alpha": 0.001, "beta": 1.02, "jensen_alpha": -0.0005}
    path = tmp_path / "metrics.csv"
    metrics.write_reports_csv(path, [("idx_a", 2021, report)])
    lines = path.read_text().splitlines()
    assert lines[0] == "index_name,year,pearson,alpha,beta,jensen_alpha"
    assert lines[1].startswith("idx_a,2021,0.99,")

    spath = tmp_path / "stability.csv"
    metrics.write_stability_csv(
        spath,
        [("index", "idx_a", "pearson", None, 0.02), ("year", "2021", "beta", 0.01, None)],
    )
    assert spath.read_text().splitlines()[1:] == [
        "index,idx_a,pearson,,0.02", "year,2021,beta,0.01,",
    ]


METRIC_VALUE = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def report_tables(draw):
    """(name, year, report) rows in any order: each list reports in a
    random subset of the years, so some years hold one series.  A list's
    series are named ``<list>_<year>``, except ``custom``'s, which keep one
    name across years, and ``spread_2019``'s, whose year suffix is not
    always the report year."""
    years = draw(st.lists(st.integers(2018, 2022), min_size=1, max_size=4, unique=True))
    lists = draw(st.lists(st.sampled_from(["index_005", "index_010", "custom", "spread_2019"]),
                          min_size=1, max_size=4, unique=True))
    rows = []
    for base in lists:
        for year in years:
            if draw(st.booleans()):
                name = base if base in ("custom", "spread_2019") else f"{base}_{year}"
                values = draw(st.tuples(*[METRIC_VALUE] * len(metrics.BASELINES)))
                rows.append((name, year, dict(zip(metrics.BASELINES, values))))
    return draw(st.permutations(rows))


def stability_reference(rows):
    """stability_rows recomputed metric by metric from the definitions."""
    by_index, by_year = {}, {}
    for name, year, report in rows:
        own_year = re.fullmatch(f"(.*)_{year}", name)
        by_index.setdefault(own_year[1] if own_year else name, []).append(report)
        by_year.setdefault(year, []).append(report)
    want = []
    for index in sorted(by_index):
        for metric, baseline in metrics.BASELINES.items():
            v = np.array([r[metric] for r in by_index[index]])
            std = float(np.std(v, ddof=1)) if len(v) > 1 else None
            want.append(("index", index, metric, std, float(np.mean(np.abs(v - baseline)))))
    for year in sorted(by_year):
        for metric in metrics.BASELINES:
            v = np.array([r[metric] for r in by_year[year]])
            if len(v) > 1:
                want.append(("year", str(year), metric, float(np.std(v, ddof=1)), None))
    return want


@given(report_tables())
def test_stability_rows_match_reference(rows):
    got = metrics.stability_rows(rows)
    want = stability_reference(rows)
    assert [row[:3] for row in got] == [row[:3] for row in want]
    for g, w in zip(got, want):
        for a, b in zip(g[3:], w[3:]):
            assert (a is None) == (b is None)
            if b is not None:
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

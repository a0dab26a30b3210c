"""Divisor state machine and index level computation."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_index import indexcalc as ic
from manifold_index.errors import ParameterError, PipelineError

BASE = dt.date(2021, 1, 4)
DAYS = [BASE + dt.timedelta(days=i) for i in range(10)]


def members(*pairs):
    """(tickers, float64 shares) of ``(ticker, shares)`` pairs."""
    return [t for t, _ in pairs], np.array([s for _, s in pairs], dtype=float)


class TestInitDivisor:
    def test_forced_by_definition(self):
        _, shares = members(("A", 6.0), ("B", 4.0))
        divisor = ic.init_divisor(shares, [10.0, 10.0], 1000.0)
        assert divisor == 0.1
        assert ic.index_value([10.0, 10.0], shares, divisor) == 1000.0

    def test_single_stock_cap_equals_base(self):
        assert ic.init_divisor(np.array([10.0]), [100.0], 1000.0) == 1.0

    def test_five_stock_hand_sum(self):
        _, shares = members(("A", 10), ("B", 20), ("C", 5), ("D", 8), ("E", 100))
        prices = [3.0, 1.5, 12.0, 2.5, 0.8]
        # caps: 30 + 30 + 60 + 20 + 80 = 220
        divisor = ic.init_divisor(shares, prices, 1000.0)
        assert divisor == pytest.approx(0.22, abs=1e-15)

    def test_zero_cap_degenerate(self):
        with pytest.raises(PipelineError, match="^total cap at base is 0.0$"):
            ic.init_divisor(np.array([]), [], 1000.0)

    @pytest.mark.parametrize("base_level", [0.0, -1.0, float("nan"), float("inf"), 1e-320])
    def test_base_level_finite_and_positive_with_finite_divisor(self, base_level):
        # 1e-320 is > 0, but its divisor (cap / base level) overflows to inf
        with pytest.raises(ParameterError, match="base level"):
            ic.init_divisor(np.array([10.0]), [100.0], base_level)


class TestIndexValue:
    def setup_method(self):
        self.tickers, self.shares = members(("A", 100.0), ("B", 50.0), ("C", 10.0))
        self.base_prices = np.array([2.0, 4.0, 30.0])
        self.divisor = ic.init_divisor(self.shares, self.base_prices, 1000.0)

    def test_base_identity(self):
        assert ic.index_value(self.base_prices, self.shares, self.divisor) == pytest.approx(1000.0)

    def test_homogeneous_in_prices(self):
        doubled = 2 * self.base_prices
        assert ic.index_value(doubled, self.shares, self.divisor) == pytest.approx(2000.0)

    def test_hand_computed_mixed_moves(self):
        # caps: A 100*2.2=220, B 50*3.8=190, C 10*33=330 -> total 740
        # base cap = 200+200+300 = 700, D = 0.7 -> level 740/0.7
        prices = [2.2, 3.8, 33.0]
        assert ic.index_value(prices, self.shares, self.divisor) == pytest.approx(740 / 0.7)

    def test_block_gives_one_level_per_date(self):
        block = np.array([self.base_prices, 2 * self.base_prices])
        levels = ic.index_value(block, self.shares, self.divisor)
        assert levels.tolist() == [
            ic.index_value(row, self.shares, self.divisor) for row in block
        ]

    def test_missing_price_names_ticker_and_date(self):
        closes = np.array([[2.0, np.nan, 30.0], self.base_prices])
        with pytest.raises(PipelineError, match="^no price for B on 2021-01-04$"):
            ic.compute_series(DAYS[:2], closes, self.tickers, self.shares, 1000.0)
        # later closes are forward-filled, so a NaN there only comes from a
        # direct call; the level it gives names the date
        closes = np.array([self.base_prices, [2.0, np.nan, 30.0]])
        with pytest.raises(ParameterError, match="^index level nan on 2021-01-05 is not finite"):
            ic.compute_series(DAYS[:2], closes, self.tickers, self.shares, 1000.0)


class TestAdjustDivisor:
    def test_direct_ratio(self):
        # M_old 100, M_new 110 via a share change: 10 -> 21 shares at price 10/11...
        # simplest: one stock at price 1 with 100 shares -> 110 shares
        tickers, shares = members(("A", 100.0))
        action = ic.CorporateAction("share_change", "A", DAYS[1], new_shares=110.0)
        new_divisor, new_shares = ic.adjust_divisor(2.0, action, [1.0], tickers, shares)
        assert new_divisor == pytest.approx(2.2, abs=1e-15)
        assert new_shares.tolist() == [110.0]

    def test_delisting_ten_percent(self):
        tickers, shares = members(("A", 90.0), ("B", 10.0))
        prices = [1.0, 1.0]
        divisor = ic.init_divisor(shares, prices, 1000.0)
        before = ic.index_value(prices, shares, divisor)
        action = ic.CorporateAction("delisting", "B", DAYS[1])
        new_divisor, new_shares = ic.adjust_divisor(divisor, action, prices, tickers, shares)
        assert new_divisor == pytest.approx(0.9 * divisor, rel=1e-15)
        after = ic.index_value(prices, new_shares, new_divisor)
        assert abs(after - before) / before < 1e-10
        assert new_shares.tolist() == [90.0, 0.0]  # B keeps its column

    def test_share_change_continuity(self):
        tickers, shares = members(("A", 100.0), ("B", 60.0))
        prices = [5.0, 2.0]
        divisor = ic.init_divisor(shares, prices, 1000.0)
        before = ic.index_value(prices, shares, divisor)
        action = ic.CorporateAction("share_change", "A", DAYS[2], new_shares=150.0)
        new_divisor, new_shares = ic.adjust_divisor(divisor, action, prices, tickers, shares)
        after = ic.index_value(prices, new_shares, new_divisor)
        assert abs(after - before) / before < 1e-10

    def test_rights_issue_uses_replacement_price(self):
        tickers, shares = members(("A", 100.0), ("B", 100.0))
        prices = [10.0, 10.0]
        divisor = ic.init_divisor(shares, prices, 1000.0)
        before = ic.index_value(prices, shares, divisor)
        action = ic.CorporateAction(
            "rights_or_bonus_issue", "A", DAYS[3], new_shares=200.0, replacement_price=6.0
        )
        new_divisor, new_shares = ic.adjust_divisor(divisor, action, prices, tickers, shares)
        # post-event caps: A 200*6 = 1200, B 1000 -> continuity at ex price
        after = ic.index_value([6.0, 10.0], new_shares, new_divisor)
        assert abs(after - before) / before < 1e-10

    def test_composition_equals_combined_ratio(self, rng):
        # two adjustments compose multiplicatively
        for _ in range(20):
            tickers, shares = members(
                ("A", float(rng.uniform(10, 100))), ("B", float(rng.uniform(10, 100)))
            )
            prices = [float(rng.uniform(1, 50)), float(rng.uniform(1, 50))]
            divisor = ic.init_divisor(shares, prices, 1000.0)
            a1 = ic.CorporateAction(
                "share_change", "A", DAYS[1], new_shares=float(rng.uniform(10, 200))
            )
            a2 = ic.CorporateAction(
                "share_change", "B", DAYS[2], new_shares=float(rng.uniform(10, 200))
            )
            d1, s1 = ic.adjust_divisor(divisor, a1, prices, tickers, shares)
            d2, s2 = ic.adjust_divisor(d1, a2, prices, tickers, s1)
            # divisor 1 turns a level into the total cap
            m_first = ic.index_value(prices, shares, 1.0)
            m_last = ic.index_value(prices, s2, 1.0)
            assert d2 == pytest.approx(divisor * m_last / m_first, rel=1e-12)

    def test_unknown_ticker_rejected(self):
        tickers, shares = members(("A", 1.0))
        action = ic.CorporateAction("delisting", "Z", DAYS[1])
        with pytest.raises(ParameterError):
            ic.adjust_divisor(1.0, action, [1.0], tickers, shares)


def make_panel(tickers, start_prices, moves):
    """DAYS x tickers close block; ``moves[(t, i)]`` is t's return on day i."""
    closes = np.empty((len(DAYS), len(tickers)))
    for j, t in enumerate(tickers):
        level = start_prices[t]
        for i in range(len(DAYS)):
            level = level * (1 + moves.get((t, i), 0.0))
            closes[i, j] = level
    return closes


class TestComputeSeries:
    def test_constant_prices_give_constant_base(self):
        tickers, shares = members(("A", 10.0), ("B", 5.0))
        closes = make_panel(["A", "B"], {"A": 4.0, "B": 8.0}, {})
        series = ic.compute_series(DAYS, closes, tickers, shares, 1000.0)
        assert all(v == pytest.approx(1000.0, rel=1e-14) for v in series.values)

    def test_delisting_is_continuous(self):
        tickers, shares = members(("A", 10.0), ("B", 5.0))
        closes = make_panel(["A", "B"], {"A": 4.0, "B": 8.0}, {("A", 3): 0.1, ("B", 4): -0.2})
        actions = [ic.CorporateAction("delisting", "B", DAYS[5])]
        series = ic.compute_series(DAYS, closes, tickers, shares, 1000.0, actions)
        no_event = ic.compute_series(DAYS[:5], closes[:5], tickers, shares, 1000.0)
        # identical up to the event; continuous across it (prices static day 5)
        assert np.array_equal(series.values[:5], no_event.values)
        assert series.values[5] == pytest.approx(series.values[4], rel=1e-10)

    def test_delisted_member_later_closes_do_not_move_the_series(self, rng):
        tickers, shares = members(("A", 10.0), ("B", 5.0))
        closes = make_panel(["A", "B"], {"A": 4.0, "B": 8.0}, {("A", 3): 0.1, ("A", 7): -0.05})
        actions = [ic.CorporateAction("delisting", "B", DAYS[5])]
        series = ic.compute_series(DAYS, closes, tickers, shares, 1000.0, actions)
        closes[6:, 1] = 2.0 ** rng.uniform(-1000, 1000, size=4)
        again = ic.compute_series(DAYS, closes, tickers, shares, 1000.0, actions)
        assert np.array_equal(again.values, series.values)
        assert np.array_equal(again.divisors, series.divisors)

    @pytest.mark.parametrize("b_shares, message", [
        (0.0, "B: shares_issued 0.0 on 2021-01-04 is not finite and > 0"),
        (-5.0, "B: shares_issued -5.0 on 2021-01-04 is not finite and > 0"),
        (np.nan, "B: shares_issued absent on 2021-01-04"),
    ])
    def test_shares_at_input_must_be_finite_and_positive(self, b_shares, message):
        closes = make_panel(["A", "B", "C"], {"A": 4.0, "B": 8.0, "C": 1.0}, {})
        tickers, shares = members(("A", 10.0), ("B", b_shares), ("C", 1.0))
        with pytest.raises(ParameterError, match=f"^{message}$"):
            ic.compute_series(DAYS, closes, tickers, shares, 1000.0)
        # the first faulty member in list order is the one reported
        closes[0, 2] = np.nan
        with pytest.raises(ParameterError, match=f"^{message}$"):
            ic.compute_series(DAYS, closes, tickers, shares, 1000.0)
        closes[0, 0] = np.nan
        with pytest.raises(PipelineError, match="^no price for A on 2021-01-04$"):
            ic.compute_series(DAYS, closes, tickers, shares, 1000.0)

    def test_infinite_shares_give_infinite_base_cap(self):
        # the loader rejects inf shares; a direct call ends at init_divisor
        closes = make_panel(["A", "B"], {"A": 4.0, "B": 8.0}, {})
        tickers, shares = members(("A", 10.0), ("B", np.inf))
        with pytest.raises(PipelineError, match="^total cap at base is inf$"):
            ic.compute_series(DAYS, closes, tickers, shares, 1000.0)

    @pytest.mark.parametrize("kind, new_shares", [
        ("delisting", None), ("share_change", 7.0), ("rights_or_bonus_issue", 7.0),
    ])
    def test_action_on_delisted_member_rejected(self, kind, new_shares):
        tickers, shares = members(("A", 10.0), ("B", 5.0))
        closes = make_panel(["A", "B"], {"A": 4.0, "B": 8.0}, {})
        actions = [ic.CorporateAction("delisting", "B", DAYS[3]),
                   ic.CorporateAction(kind, "B", DAYS[6], new_shares=new_shares)]
        with pytest.raises(ParameterError, match="B is not a constituent on 2021-01-10"):
            ic.compute_series(DAYS, closes, tickers, shares, 1000.0, actions)

    def test_matches_day_by_day_replay(self, rng):
        # independent replay: walk days, apply ratio adjustments by hand
        tickers = ["A", "B", "C"]
        col = {t: j for j, t in enumerate(tickers)}
        tickers, shares = members(("A", 10.0), ("B", 20.0), ("C", 30.0))
        moves = {
            (t, i): float(rng.normal(0, 0.02)) for t in tickers for i in range(1, len(DAYS))
        }
        closes = make_panel(tickers, {"A": 10.0, "B": 5.0, "C": 2.0}, moves)
        actions = [
            ic.CorporateAction("share_change", "B", DAYS[3], new_shares=25.0),
            ic.CorporateAction("delisting", "C", DAYS[7]),
        ]
        series = ic.compute_series(DAYS, closes, tickers, shares, 1000.0, actions)

        shares = {"A": 10.0, "B": 20.0, "C": 30.0}
        divisor = sum(closes[0, col[t]] * shares[t] for t in tickers) / 1000.0
        expected = []
        for i, day in enumerate(DAYS):
            if day == DAYS[3]:
                m_old = sum(closes[i, col[t]] * shares[t] for t in shares)
                shares["B"] = 25.0
                m_new = sum(closes[i, col[t]] * shares[t] for t in shares)
                divisor *= m_new / m_old
            if day == DAYS[7]:
                m_old = sum(closes[i, col[t]] * shares[t] for t in shares)
                del shares["C"]
                m_new = sum(closes[i, col[t]] * shares[t] for t in shares)
                divisor *= m_new / m_old
            expected.append(sum(closes[i, col[t]] * shares[t] for t in shares) / divisor)
        assert np.allclose(series.values, expected, rtol=1e-13)

    def test_homogeneity_in_prices(self, rng):
        tickers, shares = members(("A", 3.0), ("B", 7.0))
        moves = {(t, i): float(rng.normal(0, 0.03)) for t in "AB" for i in range(1, len(DAYS))}
        closes = make_panel(["A", "B"], {"A": 10.0, "B": 20.0}, moves)
        series = ic.compute_series(DAYS, closes, tickers, shares, 1000.0)
        c = 3.7
        series_c = ic.compute_series(DAYS, c * closes, tickers, shares, 1000.0)
        # base re-anchors, so levels match (homogeneity applies to index_value
        # at fixed divisor; check that too)
        divisor = ic.init_divisor(shares, closes[0], 1000.0)
        v1 = ic.index_value(closes[3], shares, divisor)
        vc = ic.index_value(c * closes[3], shares, divisor)
        assert vc == pytest.approx(c * v1, rel=1e-12)
        assert np.allclose(series_c.values, series.values, rtol=1e-12)

    def test_equal_shares_reduces_to_mean_price(self, rng):
        tickers, shares = members(("A", 5.0), ("B", 5.0), ("C", 5.0))
        moves = {(t, i): float(rng.normal(0, 0.02)) for t in "ABC" for i in range(1, len(DAYS))}
        closes = make_panel(["A", "B", "C"], {"A": 1.0, "B": 2.0, "C": 4.0}, moves)
        divisor = ic.init_divisor(shares, closes[0], 1000.0)
        for snap in closes:
            level = ic.index_value(snap, shares, divisor)
            mean_price = np.mean(snap)
            # shares s=5 on n=3 stocks: level = s*n*mean(P)/D
            assert level == pytest.approx(mean_price * 15.0 / divisor, rel=1e-12)

    def test_action_outside_window_rejected(self):
        tickers, shares = members(("A", 1.0))
        closes = make_panel(["A"], {"A": 1.0}, {})
        late = ic.CorporateAction("delisting", "A", DAYS[-1] + dt.timedelta(days=1))
        with pytest.raises(ParameterError):
            ic.compute_series(DAYS, closes, tickers, shares, 1000.0, [late])


class TestActionValidation:
    def test_kind_checked(self):
        with pytest.raises(ParameterError):
            ic.CorporateAction("merger", "A", BASE)

    def test_share_change_needs_shares(self):
        with pytest.raises(ParameterError):
            ic.CorporateAction("share_change", "A", BASE)

    @pytest.mark.parametrize("kind, given, unused", [
        ("delisting", {"new_shares": 99.0}, "new_shares"),
        ("delisting", {"replacement_price": 3.0}, "replacement_price"),
        ("share_change", {"new_shares": 5000.0, "replacement_price": 7.5}, "replacement_price"),
    ])
    def test_field_the_kind_does_not_use_rejected(self, kind, given, unused):
        with pytest.raises(ParameterError, match=f"^{kind} of A takes no {unused}$"):
            ic.CorporateAction(kind, "A", BASE, **given)

    @pytest.mark.parametrize("kind, given", [
        ("share_change", {"new_shares": np.inf}),
        ("rights_or_bonus_issue", {"new_shares": 10.0, "replacement_price": np.inf}),
    ])
    def test_values_must_be_finite(self, kind, given):
        with pytest.raises(ParameterError, match="finite"):
            ic.CorporateAction(kind, "A", BASE, **given)


@pytest.mark.parametrize("values, divisors", [
    ((1000.0, float("nan")), (1.0, 1.0)),
    ((1000.0, float("inf")), (1.0, 1.0)),
    ((1000.0, 0.0), ()),
    ((1000.0, 1001.0), (1.0, float("nan"))),
    ((1000.0, 1001.0), (1.0, -1.0)),
])
def test_series_levels_and_divisors_finite_and_positive(values, divisors):
    divisors = np.array(divisors) if divisors else None  # () is a series without divisors
    with pytest.raises(ParameterError):
        ic.IndexSeries(dates=tuple(DAYS[:2]), values=np.array(values), divisors=divisors)


def test_series_csv_roundtrip(tmp_path):
    tickers, shares = members(("A", 10.0), ("B", 5.0))
    closes = make_panel(["A", "B"], {"A": 4.0, "B": 8.0}, {("A", 2): 0.05})
    series = ic.compute_series(DAYS, closes, tickers, shares, 1000.0)
    path = tmp_path / "series.csv"
    ic.write_series_csv(path, series)
    back = ic.read_series_csv(path)
    assert back.dates == series.dates
    assert np.array_equal(back.values, series.values)
    assert np.array_equal(back.divisors, series.divisors)


def test_actions_csv(tmp_path):
    path = tmp_path / "actions.csv"
    path.write_text(
        "effective_date,ticker,kind,new_shares,replacement_price\n"
        "2021-03-01,AAA,share_change,150,\n"
        "2021-06-01,BBB,delisting,,\n"
        "2021-07-01,CCC,rights_or_bonus_issue,200,6.5\n"
    )
    actions = ic.read_actions_csv(path)
    assert [a.kind for a in actions] == ["share_change", "delisting", "rights_or_bonus_issue"]
    assert actions[2].replacement_price == 6.5


def replay_series(dates, closes, tickers, shares, base_level, actions):
    """Per-day reference for compute_series: Python floats, Python ``sum``
    over the live constituents in index order, one date at a time."""
    members = [(t, s, j) for j, (t, s) in enumerate(zip(tickers, shares.tolist()))]

    def cap(i):
        return sum(float(closes[i, j]) * s for _, s, j in members)

    divisor = cap(0) / base_level
    pending = sorted(actions, key=lambda a: (a.effective_date, a.ticker, a.kind))
    levels, divisors = [], []
    for i, day in enumerate(dates):
        while pending and pending[0].effective_date <= day:
            action = pending.pop(0)
            pos = [t for t, _, _ in members].index(action.ticker)
            ticker, shares, j = members[pos]
            price = float(closes[i, j])
            m_old = cap(i)
            if action.kind == "delisting":
                del members[pos]
                new_cap = 0.0
            else:
                members[pos] = (ticker, action.new_shares, j)
                ex_price = price if action.replacement_price is None else action.replacement_price
                new_cap = ex_price * action.new_shares
            m_new = m_old - price * shares + new_cap
            divisor = divisor * (m_new / m_old)
        levels.append(cap(i) / divisor)
        divisors.append(divisor)
    return tuple(levels), tuple(divisors)


@st.composite
def index_inputs(draw):
    """Dates with gaps, a finite close block, and actions that are valid in
    the order they apply; a delisted column keeps its closes."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dates = [BASE + dt.timedelta(days=2 * i) for i in range(m)]
    closes = rng.uniform(0.5, 500, size=(m, n))
    tickers = [f"T{j}" for j in range(n)]
    shares = rng.uniform(1, 1000, size=n)
    candidates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(ic.ACTION_KINDS))
        ticker = f"T{draw(st.integers(0, n - 1))}"
        # odd offsets fall between trading dates and apply on the next one;
        # small ranges make several actions share a date
        effective = BASE + dt.timedelta(days=draw(st.integers(0, 2 * (m - 1))))
        repl = draw(st.none() | st.floats(0.5, 500)) if kind == "rights_or_bonus_issue" else None
        new_shares = None if kind == "delisting" else draw(st.floats(1, 2000))
        candidates.append(ic.CorporateAction(kind, ticker, effective, new_shares, repl))
    live = set(tickers)
    actions = []
    for action in sorted(candidates, key=lambda a: (a.effective_date, a.ticker, a.kind)):
        if action.ticker not in live or (action.kind == "delisting" and len(live) == 1):
            continue
        actions.append(action)
        if action.kind == "delisting":
            live.remove(action.ticker)
    return dates, closes, tickers, shares, actions


@settings(max_examples=300, deadline=None)
@given(index_inputs())
def test_segment_valuation_equals_per_day_python_sum(inputs):
    dates, closes, tickers, shares, actions = inputs
    series = ic.compute_series(dates, closes, tickers, shares, 1000.0, actions)
    levels, divisors = replay_series(dates, closes, tickers, shares, 1000.0, actions)
    assert np.array_equal(series.values, levels)
    assert np.array_equal(series.divisors, divisors)

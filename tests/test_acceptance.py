"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are part of the contract and are pinned here, not
configurable.
"""

import datetime as dt
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_connected_operator
from manifold_index import (
    cli,
    indexcalc,
    manifold,
    marketdata,
    metrics,
    selection,
    spectral,
    synth,
)
from manifold_index.errors import PipelineError
from test_selection import brute_force_extrema, replay_selection
from test_spectral import assert_bases_agree


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {description}")
        raise
    print(f"[PASS] criterion {num:2d}: {description}")


def test_criterion_1_and_3_eigensolver_oracle_equivalence():
    """Iterative solver vs dense oracle on 50 random KNN graphs, both modes;
    eigenvalues to 1e-8 (max(1,.)-floored relative), eigenvectors to 1e-6
    A-norm angle up to sign; A-orthonormality to 1e-8 on every solve."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst_ortho = 0.0
    with criterion(1, "eigensolver matches dense oracle on 50 random graphs"):
        for trial in range(50):
            n = int(rng.integers(20, 101))
            k = int(rng.integers(3, 11))
            mode = ("balanced", "paper")[trial % 2]
            _, w, a = random_connected_operator(rng, n, k, mode)
            p = min(12, n - 1)
            lanczos = spectral.LanczosFactorization(w, a, seed=trial)
            got = spectral.solve_generalized(w, a, p, factorization=lanczos)
            want = spectral.dense_oracle(w, a)
            assert_bases_agree(a, got, want, val_tol=1e-8, vec_tol=1e-6)
            gram = got.vectors.T @ (a[:, None] * got.vectors)
            worst_ortho = max(worst_ortho, float(np.max(np.abs(gram - np.eye(p)))))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    with criterion(3, "A-orthonormality below 1e-8 on every solve"):
        assert worst_ortho < 1e-8


def test_criterion_2_operator_invariants():
    """Row sums of the directed kernel matrix vanish to 1e-12; the averaged
    matrix is symmetric to 1e-15; balanced mode is PSD to -1e-10 with a
    constant first eigenvector (spread < 1e-8) on connected graphs."""
    rng = np.random.default_rng(7)
    with criterion(2, "operator invariants (row sums, symmetry, null space)"):
        for trial in range(20):
            n = int(rng.integers(15, 80))
            k = int(rng.integers(3, min(n - 1, 10) + 1))
            points = rng.standard_normal((n, 4))
            graph = manifold.knn_graph(points, k)
            t = manifold.auto_bandwidth(graph)
            wt = manifold.weight_tilde(graph, t)
            assert np.max(np.abs(np.asarray(wt.sum(axis=1)).ravel())) < 1e-12
            w = manifold.symmetrize(wt, "balanced")
            dense = w.entries.toarray()
            assert np.max(np.abs(dense - dense.T)) < 1e-15

        for trial in range(10):
            n = int(rng.integers(15, 80))
            k = int(rng.integers(3, min(n - 1, 10) + 1))
            _, w, a = random_connected_operator(rng, n, k, "balanced")
            lanczos = spectral.LanczosFactorization(w, a, seed=trial)
            basis = spectral.solve_generalized(w, a, min(8, n - 1), factorization=lanczos)
            assert basis.values.min() >= -1e-10
            assert basis.values[0] < 1e-10
            phi1 = basis.vectors[:, 0]
            phi1 = phi1 / np.abs(phi1).max()
            assert phi1.max() - phi1.min() < 1e-8


def test_criterion_4_extrema_brute_force_oracle():
    """detect_extrema equals an independent per-point neighborhood scan on
    100 random (graph, field) instances: exact set equality."""
    rng = np.random.default_rng(11)
    with criterion(4, "extrema detection equals brute-force scan, 100 instances"):
        for _ in range(100):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(1, min(n - 1, 9) + 1))
            graph = manifold.knn_graph(rng.standard_normal((n, 3)), k)
            phi = rng.standard_normal(n)
            if rng.uniform() < 0.2:
                phi = np.round(phi, 1)  # inject ties to exercise strictness
            maxima, minima = selection.detect_extrema(phi, graph)
            b_max, b_min = brute_force_extrema(phi, graph.neighbors)
            assert maxima.tolist() == b_max
            assert minima.tolist() == b_min


def test_criterion_5_selection_replay_oracle(monkeypatch):
    """grow_basis_and_select equals an independent step-by-step replay for
    every N of an unsorted list with repeats, on 25 random fixtures (exact
    list equality), including trimming ties.  The eight vectors come as a
    basis of the first one, then one of all eight: in 14 of the 25 lists
    some N is met on the first basis and some only on the second."""
    rng = np.random.default_rng(23)
    more_n = np.random.default_rng(24)  # the list's further N; rng draws what it did
    with criterion(5, "constituent selection equals independent replay, 25 fixtures"):
        for trial in range(25):
            n = int(rng.integers(12, 50))
            k = int(rng.integers(1, 7))
            graph = manifold.knn_graph(rng.standard_normal((n, 3)), k)
            vectors = rng.standard_normal((n, 8))
            caps = rng.integers(1, 5, size=n).astype(float)  # deliberate cap ties
            high = max(2, (2 * n) // 3)
            n_list = [int(rng.integers(1, high)), *map(int, more_n.integers(1, high, size=3))]
            bases = [
                spectral.EigenBasis(values=np.arange(p, dtype=float), vectors=vectors[:, :p])
                for p in (1, 8)
            ]
            monkeypatch.setattr(spectral, "growing_bases", lambda w, a, batch: iter(bases))
            expected = {n_target: replay_selection(vectors, graph.neighbors, n_target, caps)
                        for n_target in n_list}
            unmet = [n_target for n_target, want in sorted(expected.items()) if want is None]
            weights = SimpleNamespace(n=n)  # only its n is read beside the patched bases
            if unmet:
                with pytest.raises(PipelineError, match=f" fewer than {unmet[0]} feature points"):
                    cli.grow_basis_and_select(weights, None, graph, caps, n_list)
            else:
                got = cli.grow_basis_and_select(weights, None, graph, caps, n_list)
                assert {n_target: list(picks) for n_target, picks in got.items()} == expected


def test_criterion_6_divisor_continuity():
    """Relative index discontinuity below 1e-10 at 100 random corporate
    action events."""
    rng = np.random.default_rng(31)
    base = dt.date(2021, 1, 4)
    with criterion(6, "divisor continuity at 100 random corporate actions"):
        for trial in range(100):
            n = int(rng.integers(2, 12))
            tickers = [f"T{i}" for i in range(n)]
            shares = np.array([float(rng.uniform(1, 1000)) for _ in tickers])
            prices = [float(rng.uniform(0.5, 500)) for _ in tickers]
            divisor = indexcalc.init_divisor(shares, prices, 1000.0)
            target = tickers[int(rng.integers(0, n))]
            kind = ("share_change", "delisting", "rights_or_bonus_issue")[trial % 3]
            if kind == "delisting" and n == 1:
                kind = "share_change"
            action = indexcalc.CorporateAction(
                kind,
                target,
                base + dt.timedelta(days=int(rng.integers(1, 200))),
                new_shares=float(rng.uniform(1, 2000)) if kind != "delisting" else None,
                replacement_price=(
                    float(rng.uniform(0.5, 500)) if kind == "rights_or_bonus_issue" else None
                ),
            )
            before = indexcalc.index_value(prices, shares, divisor)
            new_divisor, new_shares = indexcalc.adjust_divisor(
                divisor, action, prices, tickers, shares
            )
            # post-event closes; a delisted member keeps its column at 0 shares
            post_prices = list(prices)
            if kind == "rights_or_bonus_issue":
                post_prices[tickers.index(target)] = action.replacement_price
            after = indexcalc.index_value(post_prices, new_shares, new_divisor)
            assert abs(after - before) / before < 1e-10


def test_criterion_7_metric_identities():
    """pearson(x,x)=1 and beta(Rm,Rm)=1 to 1e-12; alpha(Rm,Rm)=0; and
    jensen_alpha(Rm,Rm,r)=0 to 1e-12 for r in {0, 0.002, 0.01}."""
    rng = np.random.default_rng(41)
    with criterion(7, "metric identities at stated tolerances"):
        for _ in range(20):
            x = rng.uniform(500, 1500, size=int(rng.integers(12, 60)))
            rm = rng.normal(0.005, 0.03, size=int(rng.integers(6, 24)))
            assert abs(metrics.pearson(x, x) - 1.0) <= 1e-12
            assert abs(metrics.beta(rm, rm) - 1.0) <= 1e-12
            assert metrics.alpha(rm, rm) == 0.0
            for r in (0.0, 0.002, 0.01):
                assert abs(metrics.jensen_alpha(rm, rm, r)) <= 1e-12


def _pipeline_pearson(market, n_list, k=10):
    """study-year selection -> target-year index -> pearson vs benchmark."""
    study = market.config.start_year
    rows = marketdata.calendar_from_quotes(market.quotes, study)
    frame = marketdata.build_market_frame(market.quotes, rows)
    graph, w, a = manifold.build_operator(frame.vectors, k=k, mode="balanced")
    picks = cli.grow_basis_and_select(w, a, graph, frame.caps, n_list)
    target_rows = marketdata.calendar_from_quotes(market.quotes, study + 1)
    bench = [
        v for d, v in zip(market.benchmark.dates, market.benchmark.values)
        if d.year == study + 1
    ]
    out = {}
    for n_target in n_list:
        names = [frame.tickers[i] for i in picks[n_target]]
        closes, shares = marketdata.index_inputs(market.quotes, target_rows, names)
        series = indexcalc.compute_series(
            market.quotes.dates[target_rows], closes, names, shares, 1000.0
        )
        out[n_target] = metrics.pearson(series.values, bench)
    return out


def test_criterion_8_convergence_toward_benchmark():
    """Median correlation with the full-market benchmark is nondecreasing in
    the constituent count (N in {10,20,40,80}, 20 seeds, 0.005 slack per
    step).  Budget: 5 minutes."""
    start = time.perf_counter()
    n_list = (10, 20, 40, 80)
    rows = {n: [] for n in n_list}
    with criterion(8, "index approaches the benchmark as N grows (20 seeds)"):
        for seed in range(20):
            market = synth.generate_market(synth.SynthConfig(seed=seed))
            result = _pipeline_pearson(market, n_list)
            for n_target in n_list:
                rows[n_target].append(result[n_target])
        medians = [float(np.median(rows[n])) for n in n_list]
        for lo, hi in zip(medians, medians[1:]):
            assert hi >= lo - 0.005, f"median correlations not nondecreasing: {medians}"
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"criterion 8 took {elapsed:.0f}s (budget 300s)"


def test_criterion_9_desk_scale_runtime(tmp_path):
    """Full pipeline (select + index + metrics) on a synthetic market with
    n=1500 stocks, m=244 days, k=10, N=380, balanced mode, within 60s.
    Runs the actual CLI stage functions over CSV artifacts; generation and
    artifact I/O are counted inside the budget."""
    start = time.perf_counter()
    with criterion(9, "full pipeline at n=1500, N=380 inside 60s"):
        market = synth.generate_market(synth.SynthConfig(n_stocks=1500, seed=0))
        quotes_path = tmp_path / "quotes.csv"
        bench_path = tmp_path / "benchmark.csv"
        synth.write_quotes_csv(quotes_path, market)
        synth.write_benchmark_csv(bench_path, market.benchmark)
        cfg = cli.PipelineConfig(
            quotes=str(quotes_path),
            benchmark=str(bench_path),
            outdir=str(tmp_path),
            study_year=2020,
            k=10,
            mode="balanced",
            n_list=(380,),
        )
        quotes = marketdata.load_quotes(quotes_path)
        writes: cli.Writes = {}
        lists = cli.cmd_select(cfg, quotes, writes)
        series = cli.cmd_index(cfg, quotes, lists, writes)
        report_path, stability_path = cli.cmd_metrics(cfg, series, writes)
        cli.write_all(writes)
        assert report_path.exists() and stability_path.exists()
        assert len(report_path.read_text().splitlines()) == 2
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 9 took {elapsed:.0f}s (budget 60s)"


def test_criterion_10_kernel_spot_values():
    """w(d2=0) = -1 exactly; w(d2=t) = -1/e to 1e-15."""
    with criterion(10, "kernel spot values at d2=0 and d2=t"):
        graph = manifold.AdjacencyGraph(
            neighbors=np.array([[1], [0]]), distances=np.array([[0.0], [0.0]])
        )
        wt = manifold.weight_tilde(graph, t=1.7)
        assert wt[0, 1] == -1.0

        for t in (0.3, 1.0, 42.0):
            graph = manifold.AdjacencyGraph(
                neighbors=np.array([[1], [0]]), distances=np.array([[t], [t]])
            )
            wt = manifold.weight_tilde(graph, t=t)
            assert abs(wt[0, 1] - (-np.exp(-1.0))) <= 1e-15

"""Extrema detection, the first-seen pass and the cap trim, checked
against independent step-by-step reimplementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from manifold_index import manifold, selection, spectral


def brute_force_extrema(phi, neighbors):
    """Independent oracle: literal per-point neighborhood scan."""
    maxima, minima = [], []
    for x in range(len(phi)):
        if all(phi[y] < phi[x] for y in neighbors[x]):
            maxima.append(x)
        if all(phi[y] > phi[x] for y in neighbors[x]):
            minima.append(x)
    return maxima, minima


def replay_selection(vectors, neighbors, n_target, caps):
    """Independent oracle: replays the accumulation loop literally.

    Walk eigenvectors in the given (ascending-eigenvalue) order, pool strict
    maxima and minima into an ordered set, stop once the set reaches the
    target, then repeatedly delete the smallest-cap member (ties by index)
    until exactly the target remain.
    """
    kept: list[int] = []
    for col in range(vectors.shape[1]):
        phi = vectors[:, col]
        maxima, minima = brute_force_extrema(phi, neighbors)
        for x in sorted(set(maxima) | set(minima)):
            if x not in kept:
                kept.append(x)
        if len(kept) >= n_target:
            break
    if len(kept) < n_target:
        return None
    while len(kept) > n_target:
        smallest = min(kept, key=lambda i: (caps[i], i))
        kept.remove(smallest)
    return kept


def chain_graph(n, k=1):
    return manifold.knn_graph(np.arange(float(n))[:, None], k=k)


class TestDetectExtrema:
    def test_constant_field_has_no_extrema(self):
        graph = chain_graph(5)
        maxima, minima = selection.detect_extrema(np.ones(5), graph)
        assert maxima.size == 0 and minima.size == 0

    def test_three_point_line(self):
        # k=1 directed: N_0={1}, N_1={0}, N_2={1}; phi=(0,1,0):
        # point 1 beats its neighbor 0 -> maximum; point 0 loses to 1 ->
        # minimum; point 2 also loses to its neighbor 1 -> minimum.
        graph = chain_graph(3)
        maxima, minima = selection.detect_extrema(np.array([0.0, 1.0, 0.0]), graph)
        assert maxima.tolist() == [1]
        assert minima.tolist() == [0, 2]
        bf = brute_force_extrema([0.0, 1.0, 0.0], graph.neighbors)
        assert (maxima.tolist(), minima.tolist()) == bf

    def test_sign_flip_swaps_sets(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(1, min(n - 1, 6) + 1))
            graph = manifold.knn_graph(rng.standard_normal((n, 3)), k)
            phi = rng.standard_normal(n)
            ma, mi = selection.detect_extrema(phi, graph)
            ma2, mi2 = selection.detect_extrema(-phi, graph)
            assert ma.tolist() == mi2.tolist()
            assert mi.tolist() == ma2.tolist()

    def test_positive_scaling_invariant(self, rng):
        graph = manifold.knn_graph(rng.standard_normal((20, 3)), 4)
        phi = rng.standard_normal(20)
        base = selection.detect_extrema(phi, graph)
        for c in (0.001, 7.3, 1e6):
            scaled = selection.detect_extrema(c * phi, graph)
            assert base[0].tolist() == scaled[0].tolist()
            assert base[1].tolist() == scaled[1].tolist()

    def test_equal_neighbor_disqualifies(self):
        graph = chain_graph(3)
        maxima, minima = selection.detect_extrema(np.array([1.0, 1.0, 0.0]), graph)
        assert 0 not in maxima.tolist() and 1 not in maxima.tolist()

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 50))
            k = int(rng.integers(1, min(n - 1, 8) + 1))
            graph = manifold.knn_graph(rng.standard_normal((n, 3)), k)
            phi = rng.standard_normal(n)
            ma, mi = selection.detect_extrema(phi, graph)
            bma, bmi = brute_force_extrema(phi, graph.neighbors)
            assert ma.tolist() == bma and mi.tolist() == bmi


def fake_basis(vectors):
    vectors = np.asarray(vectors, dtype=float)
    return spectral.EigenBasis(
        values=np.arange(vectors.shape[1], dtype=float), vectors=vectors
    )


def ordered(picked):
    """The (member, source eigenvector, kind) of each member of a
    ``(members, source, kind)`` selection, in pick order."""
    members, source, kind = picked
    return list(zip(members.tolist(), source[members].tolist(), kind[members].tolist()))


def first_list(basis, graph, n_target, caps):
    """The ordered (member, source eigenvector, kind) list of ``n_target``
    taken at the first eigenvector of ``basis`` whose features number at
    least ``n_target``, or None when all of them give fewer."""
    members, source, kind, counts = selection.first_seen(basis, graph)
    if counts[-1] < n_target:
        return None
    prefix = members[: counts[np.searchsorted(counts, n_target)]]
    return ordered((selection.select_constituents(prefix, n_target, caps), source, kind))


class TestFirstSeen:
    def test_one_growing_prefix_per_eigenvector(self, rng):
        graph = manifold.knn_graph(rng.standard_normal((30, 3)), 4)
        vectors = rng.standard_normal((30, 6))
        members, source, kind, counts = selection.first_seen(fake_basis(vectors), graph)
        assert len(counts) == 6
        seen = []
        for vec_idx in range(6):
            maxima, minima = selection.detect_extrema(vectors[:, vec_idx], graph)
            new = sorted(set(maxima.tolist() + minima.tolist()) - set(seen))
            assert members[: counts[vec_idx]].tolist() == seen + new
            assert all(source[i] == vec_idx for i in new)
            assert all(kind[i] == ("max" if i in maxima else "min") for i in new)
            seen += new
        unseen = sorted(set(range(30)) - set(seen))
        assert all(source[i] == 6 for i in unseen)

    def test_constant_vector_adds_nothing(self):
        # a constant eigenvector contributes nothing under strict comparison
        graph = chain_graph(4)
        members, source, _, counts = selection.first_seen(fake_basis(np.ones((4, 2))), graph)
        assert members.size == 0 and counts.tolist() == [0, 0]
        assert source.tolist() == [2] * 4


class TestSelectConstituents:
    def test_exact_fit_no_trimming(self):
        graph = chain_graph(5)
        phi = np.array([0.0, 1.0, 0.0, 2.0, 0.5])
        ma, mi = selection.detect_extrema(phi, graph)
        n_target = len(ma) + len(mi)
        picked = first_list(fake_basis(phi[:, None]), graph, n_target, caps=np.ones(5))
        assert sorted(i for i, _, _ in picked) == sorted(ma.tolist() + mi.tolist())

    def test_trimming_removes_smallest_caps(self):
        graph = chain_graph(6)
        phi = np.array([0.0, 3.0, 0.0, 2.0, 0.0, 1.0])
        caps = np.array([10.0, 5.0, 40.0, 2.0, 30.0, 7.0])
        ma, mi = selection.detect_extrema(phi, graph)
        pool = ma.tolist() + mi.tolist()
        n_target = len(pool) - 2
        picked = first_list(fake_basis(phi[:, None]), graph, n_target, caps)
        doomed = sorted(pool, key=lambda i: (caps[i], i))[:2]
        assert sorted(i for i, _, _ in picked) == sorted(set(pool) - set(doomed))

    def test_returns_a_new_array_in_pick_order(self):
        members = np.array([4, 1, 3])
        caps = np.array([1.0, 5.0, 1.0, 2.0, 9.0])
        assert selection.select_constituents(members, 2, caps).tolist() == [4, 1]
        whole = selection.select_constituents(members, 3, caps)
        assert whole.tolist() == [4, 1, 3] and whole is not members

    def test_sign_invariance_of_selection(self, rng):
        for trial in range(10):
            n = 30
            graph = manifold.knn_graph(rng.standard_normal((n, 3)), 4)
            vectors = rng.standard_normal((n, 5))
            caps = rng.uniform(1, 100, n)
            flip = np.where(rng.uniform(size=5) < 0.5, -1.0, 1.0)
            a = first_list(fake_basis(vectors), graph, 8, caps)
            b = first_list(fake_basis(vectors * flip), graph, 8, caps)
            assert [i for i, _, _ in a] == [i for i, _, _ in b]

    def test_member_counted_once_with_first_seen_provenance(self):
        graph = chain_graph(5)
        phi = np.array([0.0, 1.0, 0.0, 2.0, 0.5])
        vectors = np.column_stack([phi, phi])  # same features twice
        picked = first_list(fake_basis(vectors), graph, 4, np.ones(5))
        assert len({i for i, _, _ in picked}) == len(picked) == 4
        assert all(vec == 0 for _, vec, _ in picked)

    def test_provenance_eigvec_indices_nondecreasing(self, rng):
        graph = manifold.knn_graph(rng.standard_normal((40, 3)), 4)
        vectors = rng.standard_normal((40, 8))
        picked = first_list(fake_basis(vectors), graph, 25, rng.uniform(1, 9, 40))
        sources = [vec for _, vec, _ in picked]
        assert sources == sorted(sources)

    def test_deterministic(self, rng):
        graph = manifold.knn_graph(rng.standard_normal((30, 3)), 4)
        vectors = rng.standard_normal((30, 6))
        caps = rng.uniform(1, 100, 30)
        a = first_list(fake_basis(vectors), graph, 10, caps)
        b = first_list(fake_basis(vectors), graph, 10, caps)
        assert a == b

    def test_matches_replay_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(10, 40))
            k = int(rng.integers(1, 6))
            graph = manifold.knn_graph(rng.standard_normal((n, 3)), k)
            vectors = rng.standard_normal((n, 6))
            # small-integer caps force trimming ties
            caps = rng.integers(1, 4, size=n).astype(float)
            n_target = int(rng.integers(1, max(2, n // 2)))
            expected = replay_selection(vectors, graph.neighbors, n_target, caps)
            picked = first_list(fake_basis(vectors), graph, n_target, caps)
            assert (None if picked is None else [i for i, _, _ in picked]) == expected


@settings(max_examples=200, deadline=None)
@given(n=st.integers(3, 30), k=st.integers(1, 5), p=st.integers(1, 6),
       decimals=st.sampled_from([None, 0, 1]), flip=st.integers(0, 6),
       n_target=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_first_seen_and_trim_match_the_replay(n, k, p, decimals, flip, n_target, seed):
    """first_seen plus the cap trim equals the step-by-step replay on random
    graphs and bases, with ties among the values (rounded) and among the
    caps, and with the sign of column ``flip`` flipped (none when ``flip >= p``)."""
    local = np.random.default_rng(seed)
    graph = manifold.knn_graph(local.standard_normal((n, 3)), min(k, n - 1))
    vectors = local.standard_normal((n, p))
    if decimals is not None:
        vectors = np.round(vectors, decimals)
    caps = local.integers(1, 4, size=n).astype(float)
    flipped = vectors.copy()
    if flip < p:
        flipped[:, flip] *= -1.0
    expected = replay_selection(vectors, graph.neighbors, n_target, caps)
    picked = first_list(fake_basis(flipped), graph, n_target, caps)
    assert (None if picked is None else [i for i, _, _ in picked]) == expected


def test_feature_count_grows_with_eigenvalue_rank(rng):
    """Statistical trend: higher-frequency eigenvectors carry more extrema.

    Averaged over seeds on smooth synthetic manifolds (noisy circles), the
    mean feature count per eigenvector rank correlates positively with rank.
    """
    n, p = 60, 12
    counts = np.zeros(p)
    seeds = 24
    for seed in range(seeds):
        local = np.random.default_rng(seed)
        theta = np.sort(local.uniform(0, 2 * np.pi, n))
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        pts += local.normal(0, 0.01, pts.shape)
        graph, w, a = manifold.build_operator(pts, k=4, mode="balanced")
        basis = spectral.solve_generalized(w, a, p)
        for j in range(p):
            ma, mi = selection.detect_extrema(basis.vectors[:, j], graph)
            counts[j] += len(ma) + len(mi)
    counts /= seeds
    rho = stats.spearmanr(np.arange(p), counts).statistic
    assert rho > 0


def test_constituents_csv_roundtrip(tmp_path, rng):
    graph = manifold.knn_graph(rng.standard_normal((20, 3)), 3)
    vectors = rng.standard_normal((20, 4))
    caps = rng.uniform(1, 100, 20)
    members, source, kind, _ = selection.first_seen(fake_basis(vectors), graph)
    picked = selection.select_constituents(members, 6, caps)
    tickers = [f"T{i:02d}" for i in range(20)]
    path = tmp_path / "constituents.csv"
    selection.write_constituents_csv(path, picked, source, kind, tickers, caps)
    assert selection.read_constituents_csv(path) == [tickers[i] for i in picked]
    header, *rows = path.read_text().splitlines()
    assert header == "rank,ticker,source_eigenvector,extremum_kind,market_cap"
    assert rows == [f"{rank},{tickers[i]},{vec},{extremum},{float(caps[i])!r}"
                    for rank, (i, vec, extremum) in enumerate(ordered((picked, source, kind)), 1)]

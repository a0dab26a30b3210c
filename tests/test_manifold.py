"""KNN graph and operator-pair construction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import random_operator
from manifold_index import manifold
from manifold_index.errors import ParameterError, PipelineError


def line_points(xs):
    return np.array([[x] for x in xs], dtype=float)


class TestKnnGraph:
    def test_three_collinear_points(self):
        # exhaustive pairwise distances: 0-1 = 1, 1-2 = 4, 0-2 = 9
        graph = manifold.knn_graph(line_points([0.0, 1.0, 3.0]), k=1)
        assert graph.neighbors[:, 0].tolist() == [1, 0, 1]
        assert np.allclose(graph.distances[:, 0], [1.0, 1.0, 4.0])

    def test_complete_graph_when_k_is_n_minus_1(self):
        graph = manifold.knn_graph(line_points([0.0, 1.0, 2.0, 5.0]), k=3)
        for i in range(4):
            assert sorted(graph.neighbors[i].tolist() + [i]) == [0, 1, 2, 3]

    def test_duplicates_are_mutual_neighbors_at_zero(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        graph = manifold.knn_graph(pts, k=1)
        assert graph.neighbors[0, 0] == 1
        assert graph.neighbors[1, 0] == 0
        assert graph.distances[0, 0] == 0.0
        assert graph.distances[1, 0] == 0.0

    def test_ties_break_by_ascending_index(self):
        # point 1 is equidistant from 0 and 2; the lower index wins
        graph = manifold.knn_graph(line_points([0.0, 1.0, 2.0]), k=1)
        assert graph.neighbors[1, 0] == 0

    def test_fully_duplicated_cloud(self):
        graph = manifold.knn_graph(np.ones((5, 3)), k=2)
        assert np.all(graph.distances == 0.0)
        # ascending-index ties: each point links to the lowest other indices
        assert graph.neighbors[0].tolist() == [1, 2]
        assert graph.neighbors[4].tolist() == [0, 1]

    def test_k_out_of_range(self):
        pts = line_points([0.0, 1.0, 2.0])
        with pytest.raises(ParameterError):
            manifold.knn_graph(pts, k=3)
        with pytest.raises(ParameterError):
            manifold.knn_graph(pts, k=0)

    def test_matches_exhaustive_search(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 30))
            k = int(rng.integers(1, n - 1))
            pts = rng.standard_normal((n, 4))
            graph = manifold.knn_graph(pts, k)
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            for i in range(n):
                order = sorted((d2[i, j], j) for j in range(n) if j != i)
                assert graph.neighbors[i].tolist() == [j for _, j in order[:k]]


def reference_knn(points, k):
    """Full-matrix search: every squared distance in one n x n array (the
    near-coincident pairs recomputed directly), each row stably argsorted
    and the point itself dropped.  (neighbors, distances)."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    sq_norms = np.einsum("ij,ij->i", pts, pts)
    d2 = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (pts @ pts.T)
    np.maximum(d2, 0.0, out=d2)
    a, b = np.nonzero((d2 < 1e-12) & ~np.eye(n, dtype=bool))
    d2[a, b] = np.einsum("ij,ij->i", pts[a] - pts[b], pts[a] - pts[b])
    order = np.argsort(d2, axis=1, kind="stable")
    neighbors = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        row = order[i]
        neighbors[i] = row[row != i][:k]
    return neighbors, np.take_along_axis(d2, neighbors, axis=1)


BLOCK_BYTES = manifold._BLOCK_BYTES  # before any test patches it


@st.composite
def tied_clouds(draw):
    """(points, k, block bytes): small-integer lattice points, scaled so the
    Gram form may round, drawn with repeats from a few distinct rows (one
    row gives a fully duplicated cloud)."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(0, 4))
    distinct = draw(st.integers(1, n))
    lattice = np.array(
        draw(st.lists(st.integers(-2, 2), min_size=distinct * m, max_size=distinct * m)),
        dtype=float,
    ).reshape(distinct, m)
    rows = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 0.1, 1 / 3, 1e-7]))
    k = draw(st.integers(1, n - 1))
    block = draw(st.sampled_from([1, BLOCK_BYTES]) | st.integers(1, 8 * 3 * n))
    return lattice[rows] * scale, k, block


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tied_clouds())
def test_knn_matches_full_matrix_reference(monkeypatch, case):
    points, k, block = case
    monkeypatch.setattr(manifold, "_BLOCK_BYTES", block)  # 1: one row per block
    graph = manifold.knn_graph(points, k)
    neighbors, distances = reference_knn(points, k)
    assert np.array_equal(graph.neighbors, neighbors)
    assert np.array_equal(graph.distances, distances)


def test_knn_memory_is_one_gram_plus_a_block():
    n = 2000
    points = np.random.default_rng(0).standard_normal((n, 61))
    tracemalloc.start()
    try:
        manifold.knn_graph(points, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


class TestWeightTilde:
    def graph_with_distances(self, neighbors, distances):
        return manifold.AdjacencyGraph(
            neighbors=np.asarray(neighbors, dtype=np.int64),
            distances=np.asarray(distances, dtype=float),
        )

    def test_zero_distance_gives_minus_one(self):
        graph = self.graph_with_distances([[1], [0]], [[0.0], [0.0]])
        wt = manifold.weight_tilde(graph, t=0.37).toarray()
        assert wt[0, 1] == -1.0
        assert wt[1, 0] == -1.0

    def test_distance_equal_to_t_gives_minus_inv_e(self):
        t = 0.8
        graph = self.graph_with_distances([[1], [0]], [[t], [t]])
        wt = manifold.weight_tilde(graph, t=t).toarray()
        assert abs(wt[0, 1] - (-np.exp(-1.0))) <= 1e-15

    def test_diagonal_is_row_kernel_sum(self):
        # kernel values 0.5 and 0.25 -> diagonal 0.75
        t = 1.0
        d0 = -np.log(0.5)
        d1 = -np.log(0.25)
        graph = self.graph_with_distances(
            [[1, 2], [0, 2], [0, 1]],
            [[d0, d1], [d0, d1], [d0, d1]],
        )
        wt = manifold.weight_tilde(graph, t=t).toarray()
        assert abs(wt[0, 0] - 0.75) <= 1e-15

    def test_rows_sum_to_zero(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(1, min(n - 1, 8) + 1))
            graph = manifold.knn_graph(rng.standard_normal((n, 3)), k)
            wt = manifold.weight_tilde(graph, t=float(rng.uniform(0.1, 5.0)))
            sums = np.asarray(wt.sum(axis=1)).ravel()
            assert np.max(np.abs(sums)) < 1e-12

    def test_bad_bandwidth(self):
        graph = self.graph_with_distances([[1], [0]], [[0.0], [0.0]])
        for t in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ParameterError):
                manifold.weight_tilde(graph, t=t)

    def test_kernel_monotone_in_distance(self):
        t = 2.0
        d2s = np.linspace(0.0, 10.0, 25)
        vals = []
        for d2 in d2s:
            graph = self.graph_with_distances([[1], [0]], [[d2], [d2]])
            vals.append(manifold.weight_tilde(graph, t).toarray()[0, 1])
        assert np.all(np.diff(vals) > 0)  # strictly toward 0
        assert all(-1.0 <= v < 0 for v in vals)


class TestSymmetrize:
    def test_symmetric_input_is_fixed_point(self):
        wt = sparse.csr_matrix(np.array([[0.5, -0.5], [-0.5, 0.5]]))
        w = manifold.symmetrize(wt, mode="paper")
        assert np.allclose(w.entries.toarray(), wt.toarray(), atol=0)

    def test_one_directional_edge_halves(self):
        wt = np.array([[0.4, -0.4, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        w = manifold.symmetrize(sparse.csr_matrix(wt), mode="paper")
        assert w.entries[0, 1] == -0.2
        assert w.entries[1, 0] == -0.2

    def test_balanced_3x3_hand_case(self):
        # directed edges: 0<->1 with kernel .5 (mutual), 2->1 with kernel .2
        wt = np.array(
            [
                [0.5, -0.5, 0.0],
                [-0.5, 0.5, 0.0],
                [0.0, -0.2, 0.2],
            ]
        )
        w = manifold.symmetrize(sparse.csr_matrix(wt), mode="balanced").entries.toarray()
        expected = np.array(
            [
                [0.5, -0.5, 0.0],
                [-0.5, 0.6, -0.1],
                [0.0, -0.1, 0.1],
            ]
        )
        assert np.allclose(w, expected, atol=1e-15)
        assert np.max(np.abs(w.sum(axis=1))) < 1e-15

    def test_paper_mode_keeps_diagonal(self):
        wt = np.array(
            [
                [0.5, -0.5, 0.0],
                [-0.5, 0.5, 0.0],
                [0.0, -0.2, 0.2],
            ]
        )
        w = manifold.symmetrize(sparse.csr_matrix(wt), mode="paper").entries.toarray()
        assert np.allclose(np.diag(w), [0.5, 0.5, 0.2], atol=0)

    def test_symmetry_and_entry_ranges(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(1, min(n - 1, 8) + 1))
            mode = "balanced" if rng.uniform() < 0.5 else "paper"
            _, w, _ = random_operator(rng, n, k, mode)
            dense = w.entries.toarray()
            assert np.max(np.abs(dense - dense.T)) < 1e-15
            off = dense - np.diag(np.diag(dense))
            assert np.all(off <= 0) and np.all(off >= -1.0)
            assert np.all(np.diag(dense) > 0)

    def test_balanced_rows_sum_to_zero(self, rng):
        for _ in range(15):
            n = int(rng.integers(4, 40))
            k = int(rng.integers(1, min(n - 1, 8) + 1))
            _, w, _ = random_operator(rng, n, k, "balanced")
            sums = np.asarray(w.entries.sum(axis=1)).ravel()
            assert np.max(np.abs(sums)) < 1e-10


class TestMassMatrix:
    def test_copies_diagonal(self):
        w = manifold.WeightMatrix(sparse.csr_matrix(np.diag([0.75, 0.5, 1.25])))
        assert manifold.mass_matrix(w).tolist() == [0.75, 0.5, 1.25]

    def test_two_mutual_neighbors(self):
        # kernel value w on the single edge -> A = diag(w, w)
        kern = 0.61
        t = 1.0
        d2 = -np.log(kern) * t
        graph = manifold.AdjacencyGraph(
            neighbors=np.array([[1], [0]]), distances=np.array([[d2], [d2]])
        )
        w = manifold.symmetrize(manifold.weight_tilde(graph, t), "paper")
        a = manifold.mass_matrix(w)
        assert np.allclose(a, [kern, kern], atol=1e-15)

    def test_zero_diagonal_rejected(self):
        w = manifold.WeightMatrix(sparse.csr_matrix(np.diag([1.0, 0.0])))
        with pytest.raises(PipelineError, match="^mass entry 1 is 0.000e[+]00; isolated point or NaN$"):
            manifold.mass_matrix(w)

    def test_nan_diagonal_rejected(self):
        w = manifold.WeightMatrix(sparse.csr_matrix(np.diag([1.0, np.nan, 2.0])))
        with pytest.raises(PipelineError, match="^mass entry 1 is nan; isolated point or NaN$"):
            manifold.mass_matrix(w)


class TestAutoBandwidth:
    def test_mean_of_stored_distances(self):
        graph = manifold.AdjacencyGraph(
            neighbors=np.array([[1, 2], [0, 2], [0, 1]]),
            distances=np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 3.0]]),
        )
        assert manifold.auto_bandwidth(graph) == 2.0

    def test_all_zero_distances_rejected(self):
        graph = manifold.AdjacencyGraph(
            neighbors=np.array([[1], [0]]), distances=np.array([[0.0], [0.0]])
        )
        with pytest.raises(ParameterError):
            manifold.auto_bandwidth(graph)

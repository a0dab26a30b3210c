"""Discrete operator construction over the stock point cloud.

Each stock is a unit-norm point in R^m.  A directed KNN graph links every
point to its k nearest neighbours (exact search, ties broken by ascending
point index).  The search holds one n x n float Gram matrix and the squared
distances of one block of rows at a time; it never sorts a whole row.
Gaussian kernel weights over the directed graph give a row-zero-sum matrix
W~; averaging with its transpose restores symmetry, and the diagonal
supplies the positive mass matrix A.  The pair (W, A) is the discrete
operator whose generalized eigenproblem the spectral module solves.

Two operator modes are exposed:

* ``paper``     - the mass diagonal is taken from W~ (the averaging step
                  preserves the diagonal, so a_i equals the directed row
                  kernel sum).  Row sums of W are not exactly zero wherever
                  the KNN relation is asymmetric, so small negative
                  eigenvalues are possible.
* ``balanced``  - after averaging, the diagonal is recomputed from the
                  symmetrized off-diagonals so every row sums to zero.  W is
                  then a true graph Laplacian: positive semidefinite, with
                  the constant vector in its null space.  This is the
                  default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PipelineError

DEFAULT_K = 10

MODES = ("paper", "balanced")


@dataclass(frozen=True)
class AdjacencyGraph:
    """Directed KNN structure: neighbors[i] lists the k nearest points of i
    (excluding i itself), distances[i] the matching squared Euclidean
    distances in ascending order."""

    neighbors: np.ndarray
    distances: np.ndarray


# The search takes distances one block of rows at a time, each block about
# this many bytes of float64; with the n x n Gram matrix it bounds memory.
_BLOCK_BYTES = 1 << 20


def _block_sq_dists(pts, sq_norms, gram, s: int, e: int) -> np.ndarray:
    """Squared distances from points s..e-1 to every point, diagonal 0."""
    d2 = sq_norms[s:e, None] + sq_norms[None, :] - 2.0 * gram[s:e]
    np.maximum(d2, 0.0, out=d2)
    d2[np.arange(e - s), np.arange(s, e)] = 0.0
    # The Gram form loses precision for near-coincident points; recompute
    # those few entries directly so exact duplicates land at exactly 0.
    ii, jj = np.nonzero(d2 < 1e-12)
    pairs = max(1, _BLOCK_BYTES // (8 * max(1, pts.shape[1])))
    for start in range(0, len(ii), pairs):
        a, b = ii[start : start + pairs], jj[start : start + pairs]
        diff = pts[s + a] - pts[b]
        d2[a, b] = np.einsum("ij,ij->i", diff, diff)
    return d2


def knn_graph(points, k: int) -> AdjacencyGraph:
    """Exact k-nearest-neighbour graph by Euclidean distance.

    ``points`` is an (n, m) array of finite coordinates small enough that
    no squared distance overflows, as the market frame's unit vectors are.
    Ties are broken by ascending point index, which makes the graph
    deterministic; duplicate points become mutual neighbours at distance 0.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if not 1 <= k < n:
        raise ParameterError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    sq_norms = np.einsum("ij,ij->i", pts, pts)
    # One product for all rows: numpy computes it as a symmetric rank-k
    # update, whose entries can differ in the last bit from a product per block.
    gram = pts @ pts.T
    neighbors = np.empty((n, k), dtype=np.int64)
    distances = np.empty((n, k))
    rows = max(1, _BLOCK_BYTES // (8 * n))
    for s in range(0, n, rows):
        e = min(n, s + rows)
        d2 = _block_sq_dists(pts, sq_norms, gram, s, e)
        # The diagonal 0 is a row's smallest entry, so the row's (k+1)-th
        # smallest is the k-th smallest distance to another point.
        kth = np.partition(d2, k, axis=1)[:, k]
        keep = d2 <= kth[:, None]  # every tie at the k-th distance
        keep[np.arange(e - s), np.arange(s, e)] = False
        row, col = np.nonzero(keep)
        dist = d2[row, col]
        order = np.lexsort((col, dist, row))  # by row, distance, then index
        counts = np.count_nonzero(keep, axis=1)
        pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        neighbors[s:e] = col[pick]
        distances[s:e] = dist[pick]
    return AdjacencyGraph(neighbors=neighbors, distances=distances)


def auto_bandwidth(graph: AdjacencyGraph) -> float:
    """Self-tuning kernel bandwidth: mean of all stored squared KNN distances."""
    t = float(graph.distances.mean())
    if t <= 0.0:
        raise ParameterError("all KNN distances are zero; bandwidth undefined")
    return t


def weight_tilde(graph: AdjacencyGraph, t: float) -> sparse.csr_matrix:
    """Directed kernel matrix W~: -exp(-d2/t) on KNN edges, row-sum-cancelling
    diagonal, zero elsewhere.  Every row sums to zero by construction."""
    from scipy import sparse
    if not 0 < t < np.inf:
        raise ParameterError(f"bandwidth t must be finite and > 0, got {t}")
    n, k = graph.neighbors.shape
    kern = np.exp(-graph.distances / t)
    rows = np.repeat(np.arange(n), k)
    cols = graph.neighbors.ravel()
    diag = kern.sum(axis=1)
    data = np.concatenate([-kern.ravel(), diag])
    idx_r = np.concatenate([rows, np.arange(n)])
    idx_c = np.concatenate([cols, np.arange(n)])
    return sparse.csr_matrix((data, (idx_r, idx_c)), shape=(n, n))


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetrized weight matrix."""

    entries: sparse.csr_matrix

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def symmetrize(w_tilde: sparse.spmatrix, mode: str = "balanced") -> WeightMatrix:
    """W = (W~ + W~^T) / 2.  Averaging leaves the diagonal untouched; in
    ``balanced`` mode the diagonal is then recomputed from the symmetrized
    off-diagonals so each row sums to zero."""
    from scipy import sparse
    w = (w_tilde + w_tilde.T) * 0.5
    if mode == "balanced":
        off = w - sparse.diags(w.diagonal())
        new_diag = -np.asarray(off.sum(axis=1)).ravel()
        w = off + sparse.diags(new_diag)
    return WeightMatrix(entries=sparse.csr_matrix(w))


def mass_matrix(weights: WeightMatrix) -> np.ndarray:
    """A = diag(W): the diagonal of the (possibly rebalanced) symmetric W,
    every entry > 1e-300."""
    diag = np.asarray(weights.entries.diagonal(), dtype=float).copy()
    if not np.all(diag > 1e-300):
        bad = int(np.argmin(diag))
        raise PipelineError(f"mass entry {bad} is {diag[bad]:.3e}; isolated point or NaN")
    return diag


def build_operator(
    points,
    k: int = DEFAULT_K,
    t: float | None = None,
    mode: str = "balanced",
) -> tuple[AdjacencyGraph, WeightMatrix, np.ndarray]:
    """Convenience assembly: KNN graph, symmetrized weights, mass diagonal.

    ``t=None`` selects the self-tuning bandwidth (mean squared KNN distance).
    """
    graph = knn_graph(points, k)
    if t is None:
        t = auto_bandwidth(graph)
    weights = symmetrize(weight_tilde(graph, t), mode)
    return graph, weights, mass_matrix(weights)

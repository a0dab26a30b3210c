"""Shared builders for randomized fixtures."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from manifold_index import manifold


def random_operator(rng, n, k, mode, dim=3, clusters=1):
    """Operator pair over a random point cloud; returns (graph, W, A).
    ``clusters`` > 1 deals the points round-robin into that many groups 50
    units apart, so the KNN graph falls apart into that many components."""
    points = rng.standard_normal((n, dim))
    points[:, 0] += 50.0 * (np.arange(n) % clusters)
    return manifold.build_operator(points, k=k, mode=mode)


def random_connected_operator(rng, n, k, mode, dim=3, max_tries=50):
    """Like random_operator but resamples until the symmetrized graph is
    connected (disconnected graphs carry repeated zero eigenvalues, which
    the vector-wise comparisons deliberately avoid)."""
    for _ in range(max_tries):
        graph, weights, mass = random_operator(rng, n, k, mode, dim)
        n_comp, _ = connected_components(abs(weights.entries), directed=False)
        if n_comp == 1:
            return graph, weights, mass
    raise RuntimeError("could not draw a connected instance")


@pytest.fixture
def rng():
    return np.random.default_rng(42)

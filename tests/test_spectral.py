"""Generalized eigensolver vs the dense verification oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import random_connected_operator, random_operator
from manifold_index import manifold, spectral
from manifold_index.errors import ConvergenceError


def make_pair(dense):
    w = manifold.WeightMatrix(sparse.csr_matrix(np.asarray(dense, dtype=float)))
    return w, manifold.mass_matrix(w)


def lanczos_solve(w, a, p, seed=0):
    """A solve on a fresh Lanczos factorization, whatever the size of n."""
    factorization = spectral.LanczosFactorization(w, a, seed=seed)
    return spectral.solve_generalized(w, a, p, factorization=factorization)


def two_point_pair(kern=0.7):
    return make_pair([[kern, -kern], [-kern, kern]])


def a_angle(a_diag, u, v):
    """Angle between two vectors in the A-inner product."""
    num = abs(u @ (a_diag * v))
    den = np.sqrt(u @ (a_diag * u)) * np.sqrt(v @ (a_diag * v))
    return float(np.arccos(np.clip(num / den, -1.0, 1.0)))


def assert_bases_agree(a_diag, got, want, val_tol=1e-8, vec_tol=1e-6, cluster_gap=1e-6):
    """Eigenvalues must match to a max(1,.)-floored relative tolerance;
    eigenvectors up to sign within an A-norm angle, comparing subspaces for
    clusters of (near-)repeated eigenvalues."""
    p = got.count
    ref = want.values[:p]
    assert np.all(np.abs(got.values - ref) <= val_tol * np.maximum(1.0, np.abs(ref)))

    scale = max(1.0, float(np.max(np.abs(want.values))))
    clusters = []
    start = 0
    for i in range(1, p):
        if ref[i] - ref[i - 1] > cluster_gap * scale:
            clusters.append((start, i))
            start = i
    clusters.append((start, p))
    sq = np.sqrt(a_diag)
    for lo, hi in clusters:
        if hi == p and p < want.count and want.values[p] - ref[hi - 1] <= cluster_gap * scale:
            continue  # cluster truncated at the cut; vectors not comparable
        if hi - lo == 1:
            assert a_angle(a_diag, got.vectors[:, lo], want.vectors[:, lo]) <= vec_tol
        else:
            qa = np.linalg.qr(sq[:, None] * got.vectors[:, lo:hi])[0]
            qb = np.linalg.qr(sq[:, None] * want.vectors[:, lo:hi])[0]
            sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
            assert np.arccos(np.clip(sv.min(), -1.0, 1.0)) <= vec_tol


class TestHandCases:
    def test_two_mutual_neighbors_eigenvalues(self):
        # W = [[w,-w],[-w,w]], A = diag(w,w): Wphi = lam*A*phi gives
        # lam=0 (constant) and lam=2 (alternating), for any kernel w.
        w, a = two_point_pair(0.7)
        for factorization in (None, spectral.LanczosFactorization(w, a)):
            basis = spectral.solve_generalized(w, a, 2, factorization=factorization)
            assert np.allclose(basis.values, [0.0, 2.0], atol=1e-12)
            phi1 = basis.vectors[:, 0]
            assert abs(phi1[0] - phi1[1]) <= 1e-10

    def test_oracle_same_case(self):
        w, a = two_point_pair(0.7)
        basis = spectral.dense_oracle(w, a)
        assert np.allclose(basis.values, [0.0, 2.0], atol=1e-12)

    def test_oracle_identity_problem(self):
        w, a = make_pair(np.diag([1.0, 1.0, 1.0]))
        basis = spectral.dense_oracle(w, a)
        assert np.allclose(basis.values, 1.0, atol=1e-14)

    def test_oracle_path_graph_spectrum(self):
        graph = manifold.knn_graph(np.arange(10.0)[:, None], k=2)
        w = manifold.symmetrize(manifold.weight_tilde(graph, 1.0), "balanced")
        basis = spectral.dense_oracle(w, manifold.mass_matrix(w))
        assert np.all(np.diff(basis.values) >= -1e-12)
        assert basis.values.min() >= -1e-10


class TestSolverOracleAgreement:
    def test_random_instances_both_modes(self, rng):
        for trial in range(12):
            n = int(rng.integers(20, 101))
            k = int(rng.integers(3, 11))
            mode = ("balanced", "paper")[trial % 2]
            graph, w, a = random_connected_operator(rng, n, k, mode)
            p = min(12, n - 1)
            got = lanczos_solve(w, a, p, seed=trial)
            want = spectral.dense_oracle(w, a)
            assert_bases_agree(a, got, want)

    def test_dense_path_agrees_too(self, rng):
        for trial in range(6):
            n = int(rng.integers(10, 60))
            graph, w, a = random_connected_operator(rng, n, 4, "balanced")
            got = spectral.solve_generalized(w, a, min(8, n - 1))
            want = spectral.dense_oracle(w, a)
            assert_bases_agree(a, got, want)


class TestContracts:
    def test_residuals_and_a_orthonormality(self, rng):
        for trial in range(8):
            n = int(rng.integers(15, 80))
            mode = ("balanced", "paper")[trial % 2]
            _, w, a = random_operator(rng, n, 5, mode)
            p = min(10, n - 1)
            basis = lanczos_solve(w, a, p, seed=trial)
            assert spectral.residuals(w, a, basis).max() <= 1e-8
            gram = basis.vectors.T @ (a[:, None] * basis.vectors)
            assert np.max(np.abs(gram - np.eye(p))) < 1e-8

    def test_balanced_mode_null_space(self, rng):
        for trial in range(6):
            n = int(rng.integers(15, 60))
            _, w, a = random_connected_operator(rng, n, 4, "balanced")
            basis = lanczos_solve(w, a, min(6, n - 1), seed=trial)
            assert basis.values.min() >= -1e-10
            assert basis.values[0] < 1e-10
            phi1 = basis.vectors[:, 0]
            phi1 = phi1 / np.abs(phi1).max()
            assert phi1.max() - phi1.min() < 1e-8

    def test_paper_mode_no_nonnegativity_assumed(self, rng):
        # only solver/oracle agreement is asserted for the paper variant
        _, w, a = random_connected_operator(rng, 40, 4, "paper")
        got = lanczos_solve(w, a, 8)
        want = spectral.dense_oracle(w, a)
        assert_bases_agree(a, got, want)

    def test_sign_convention(self, rng):
        _, w, a = random_connected_operator(rng, 30, 4, "balanced")
        for basis in (
            spectral.solve_generalized(w, a, 5),
            lanczos_solve(w, a, 5),
            spectral.dense_oracle(w, a),
        ):
            for j in range(basis.count):
                col = basis.vectors[:, j]
                assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self, rng):
        _, w, a = random_connected_operator(rng, 50, 5, "balanced")
        b1 = lanczos_solve(w, a, 6, seed=3)
        b2 = lanczos_solve(w, a, 6, seed=3)
        assert np.array_equal(b1.values, b2.values)
        assert np.array_equal(b1.vectors, b2.vectors)


class TestDegenerate:
    def test_disconnected_pairs_share_zero_eigenvalue(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.1], [10.0, 0.0], [10.0, 0.12]])
        graph = manifold.knn_graph(pts, k=1)
        w = manifold.symmetrize(manifold.weight_tilde(graph, 1.0), "balanced")
        a = manifold.mass_matrix(w)
        want = spectral.dense_oracle(w, a)
        got = lanczos_solve(w, a, 2)
        assert np.allclose(want.values[:2], [0.0, 0.0], atol=1e-12)
        assert np.allclose(got.values, [0.0, 0.0], atol=1e-10)
        # compare the 2-dim null spaces, not individual vectors
        assert_bases_agree(a, got, want)


def outcome(solve):
    """A solve's (values, vectors), or its ConvergenceError's (class, message)."""
    try:
        basis = solve()
    except ConvergenceError as exc:
        return type(exc), str(exc)
    return basis.values, basis.vectors


class TestResumedFactorization:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_bit_identical_to_cold_solves(self, data):
        """One factorization extended over increasing p gives exactly the
        bases, and the errors, of a fresh solve at each p."""
        n = data.draw(st.integers(120, 400), label="n")
        clusters = data.draw(st.integers(1, 4), label="clusters")
        mode = data.draw(st.sampled_from(manifold.MODES), label="mode")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="cloud"))
        _, w, a = random_operator(rng, n, 5, mode, clusters=clusters)
        seed = data.draw(st.integers(0, 3), label="seed")
        ps = sorted(data.draw(st.sets(st.integers(1, 80), min_size=2, max_size=4), label="ps"))
        factorization = spectral.LanczosFactorization(w, a, seed=seed)
        for p in ps:
            cold = outcome(lambda: lanczos_solve(w, a, p, seed=seed))
            resumed = outcome(
                lambda: spectral.solve_generalized(w, a, p, factorization=factorization)
            )
            if isinstance(cold[0], type):
                assert resumed[0] is cold[0] and resumed[1] == cold[1]
            else:
                assert np.array_equal(resumed[0], cold[0])
                assert np.array_equal(resumed[1], cold[1])

    def test_basis_grows_with_the_steps_taken(self, rng):
        """Above the 160-step single checkpoint the Krylov basis is widened
        to each checkpoint reached, never to n, and resuming over a wider
        basis still gives a fresh solve's bases."""
        n = 600
        _, w, a = random_connected_operator(rng, n, 6, "balanced")
        factorization = spectral.LanczosFactorization(w, a, seed=1)
        widths = []
        for p in (10, 40, 80):
            resumed = spectral.solve_generalized(w, a, p, factorization=factorization)
            widths.append(factorization.krylov.shape[1])
            assert factorization.steps <= widths[-1] <= factorization.m_max
            assert widths[-1] < n
            cold = lanczos_solve(w, a, p, seed=1)
            assert np.array_equal(resumed.values, cold.values)
            assert np.array_equal(resumed.vectors, cold.vectors)
        assert widths == sorted(widths) and widths[0] < widths[-1]


@pytest.mark.parametrize("mode", ["balanced", "paper"])
def test_krylov_basis_stays_orthonormal(rng, mode):
    """The Krylov basis at n=600 stays orthonormal to 1e-12 after 192 steps
    (about 1e-15 with two reorthogonalization passes a step): the bound a
    cheaper reorthogonalization must keep."""
    _, w, a = random_connected_operator(rng, 600, 6, mode)
    factorization = spectral.LanczosFactorization(w, a, seed=1)
    spectral.solve_generalized(w, a, 80, factorization=factorization)
    q = factorization.krylov[:, :factorization.steps]
    assert factorization.steps >= 192
    assert np.abs(q.T @ q - np.eye(factorization.steps)).max() <= 1e-12


class TestPathRule:
    def test_dense_at_the_cutoff(self, rng):
        """growing_bases solves n = DENSE_CUTOFF densely, the path of every
        n=300 backtest."""
        _, w, a = random_connected_operator(rng, spectral.DENSE_CUTOFF, 6, "balanced")
        got = next(spectral.growing_bases(w, a, 7))
        want = spectral._solve_dense(w, a, 7)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.vectors, want.vectors)

    def test_given_factorization_runs_lanczos_at_small_n(self, rng):
        _, w, a = random_connected_operator(rng, 40, 4, "paper")
        factorization = spectral.LanczosFactorization(w, a, seed=2)
        got = spectral.solve_generalized(w, a, 5, factorization=factorization)
        assert factorization.steps >= 5
        want = lanczos_solve(w, a, 5, seed=2)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.vectors, want.vectors)

    def test_growing_bases_at_or_below_the_cutoff_are_dense(self, rng, monkeypatch):
        _, w, a = random_connected_operator(rng, 50, 4, "balanced")
        solve = spectral.solve_generalized
        factorizations = []

        def recording(w_, a_, p, factorization=None):
            factorizations.append(factorization)
            return solve(w_, a_, p, factorization=factorization)

        monkeypatch.setattr(spectral, "solve_generalized", recording)
        bases = list(spectral.growing_bases(w, a, 16))
        assert [basis.count for basis in bases] == [16, 32, 48, 50]
        assert factorizations == [None] * 4
        for basis in bases:
            want = spectral._solve_dense(w, a, basis.count)
            assert np.array_equal(basis.values, want.values)
            assert np.array_equal(basis.vectors, want.vectors)


class TestGuards:
    def test_convergence_error_reports_residual(self, rng, monkeypatch):
        _, w, a = random_connected_operator(rng, 60, 4, "balanced")
        monkeypatch.setattr(spectral, "RESIDUAL_RTOL", 0.0)
        for factorization in (None, spectral.LanczosFactorization(w, a)):
            with pytest.raises(ConvergenceError) as failed:
                spectral.solve_generalized(w, a, 5, factorization=factorization)
            assert failed.value.worst_residual > 0
            assert f"worst residual {failed.value.worst_residual:.3e}" in str(failed.value)

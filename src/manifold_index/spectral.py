"""Sparse symmetric generalized eigensolver for the operator pair (W, A).

Solves W phi = lambda A phi for the p algebraically smallest eigenpairs.
A is positive diagonal, passed as the array of its diagonal, so the
problem maps to the ordinary symmetric one C y = lambda y with
C = A^{-1/2} W A^{-1/2} and phi = A^{-1/2} y; the A-inner product of the
phi's is the plain inner product of the y's, which keeps the returned basis
A-orthonormal for free.

This module alone picks the solver and grows the basis:

* growing_bases yields the bases at p = batch, 2*batch, ... up to n, and
  is the one place the path is picked: at n <= DENSE_CUTOFF each basis is
  solved densely; above it every basis extends one LanczosFactorization,
  so growing to p costs the steps of one solve at p, each basis
  bit-identical to a fresh solve's.
* solve_generalized runs Lanczos when it is given a factorization and
  LAPACK's generalized symmetric-definite driver on the materialized pair
  otherwise.
* Lanczos works on C with full reorthogonalization, random restarts on
  breakdown (so later steps can pick up remaining eigenspace directions,
  including copies of repeated eigenvalues), and adaptive extension of the
  factorization until the requested pairs meet the residual tolerance.
* dense_oracle: an independent check that scales W by A^{-1/2} explicitly
  and calls the dense ordinary eigensolver; used by tests against both
  production paths.

Eigenvector signs are fixed so the entry of largest magnitude is positive;
downstream extrema detection is sign-invariant, this only stabilizes logs
and golden files.  For repeated eigenvalues any A-orthonormal basis of the
eigenspace is a valid answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .manifold import WeightMatrix

DENSE_CUTOFF = 300

RESIDUAL_RTOL = 1e-8
RITZ_TOL = 1e-10  # Lanczos stop: Ritz residual bounds over max(1, |Ritz values|)
_BREAKDOWN = 1e-13


@dataclass(frozen=True)
class EigenBasis:
    """Ascending eigenpairs: values[i] with column vectors[:, i]."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def count(self) -> int:
        return len(self.values)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def residuals(w: WeightMatrix, a: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Relative residuals ||W phi - lambda A phi|| / max(1, ||W phi||) per pair."""
    wphi = w.entries @ basis.vectors
    aphi = a[:, None] * basis.vectors
    num = np.linalg.norm(wphi - basis.values[None, :] * aphi, axis=0)
    den = np.maximum(1.0, np.linalg.norm(wphi, axis=0))
    return num / den


def dense_oracle(w: WeightMatrix, a: np.ndarray) -> EigenBasis:
    """All n eigenpairs via the explicit A^{-1/2} transform and a dense
    ordinary symmetric solve.  Verification path only."""
    d = 1.0 / np.sqrt(a)
    c = (d[:, None] * w.entries.toarray()) * d[None, :]
    values, y = np.linalg.eigh(c)
    phi = d[:, None] * y
    phi /= np.sqrt(a @ (phi * phi))[None, :]
    return EigenBasis(values=values, vectors=_fix_signs(phi))


def _solve_dense(w: WeightMatrix, a: np.ndarray, p: int) -> EigenBasis:
    from scipy import linalg as sla
    # LAPACK generalized driver; eigenvectors come back A-orthonormal.
    values, phi = sla.eigh(
        w.entries.toarray(), np.diag(a), subset_by_index=(0, p - 1)
    )
    return EigenBasis(values=values, vectors=_fix_signs(phi))


class LanczosFactorization:
    """Full-reorthogonalization Lanczos on C = A^{-1/2} W A^{-1/2}, kept so a
    larger basis extends the factorization instead of restarting it.

    Step k of the recurrence does not depend on how many pairs are wanted:
    the matvec, the rng draws and the breakdown restarts are the same for
    every p.  ``smallest(p)`` only picks the checkpoints at which the Ritz
    pairs are checked, and a check changes no state, so the pairs it returns
    are bit-identical to those of a fresh factorization asked for the same p.

    On breakdown (invariant subspace exhausted) a fresh random direction is
    injected with zero coupling, which turns T block-diagonal and lets the
    iteration pick up remaining eigenspace dimensions, including copies of
    repeated eigenvalues.

    The Krylov basis is n x (steps taken), never n x n: ``_extend`` widens
    it to each checkpoint it reaches, so m steps hold 8 n m bytes of basis.
    """

    def __init__(self, w: WeightMatrix, a: np.ndarray, seed: int = 0):
        n = w.n
        self.w = w
        self.scale = 1.0 / np.sqrt(a)
        self.m_max = n  # step limit: n steps span all of R^n
        self.krylov = np.zeros((n, 0))  # columns 0..steps-1 hold the basis
        self.alphas = np.zeros(n)
        self.betas = np.zeros(n)
        self._rng = np.random.default_rng(seed)
        self.steps = 0
        self.exhausted = False  # numerically spanned all of R^n
        q = self._rng.standard_normal(n)
        self._q = q / np.linalg.norm(q)
        self._beta_prev = 0.0

    def _extend(self, target: int) -> None:
        if target > self.krylov.shape[1] and not self.exhausted:
            # every step slices [:, :m], so a wider buffer changes only the
            # leading dimension of each BLAS call, not the bases
            grown = np.zeros((len(self.scale), min(target, self.m_max)))
            grown[:, : self.steps] = self.krylov[:, : self.steps]
            self.krylov = grown
        big_q, alphas, betas = self.krylov, self.alphas, self.betas
        d, entries = self.scale, self.w.entries
        while self.steps < target and not self.exhausted:
            m, q, beta_prev = self.steps, self._q, self._beta_prev
            big_q[:, m] = q
            u = d * (entries @ (d * q))
            alphas[m] = q @ u
            r = u - alphas[m] * q
            if m > 0 and beta_prev != 0.0:
                r -= beta_prev * big_q[:, m - 1]
            # two reorthogonalization passes keep the basis orthonormal to ~eps
            for _ in range(2):
                r -= big_q[:, : m + 1] @ (big_q[:, : m + 1].T @ r)
            beta = float(np.linalg.norm(r))
            self.steps = m = m + 1
            if beta < _BREAKDOWN:
                betas[m - 1] = 0.0
                r = self._rng.standard_normal(len(q))
                for _ in range(2):
                    r -= big_q[:, :m] @ (big_q[:, :m].T @ r)
                beta = float(np.linalg.norm(r))
                if beta < _BREAKDOWN:
                    self.exhausted = True
                else:
                    self._q, self._beta_prev = r / beta, 0.0
            else:
                betas[m - 1] = beta
                self._q, self._beta_prev = r / beta, beta

    def smallest(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """The p smallest Ritz pairs (theta, y) of C, ascending.

        Walks a fresh factorization's checkpoint schedule for p: geometric
        steps from max(2p + 32, 48), or the step limit alone when it is at
        most 160.  A checkpoint already passed is re-checked on the stored
        T; a later one is reached by extending the factorization.
        Returns at the first checkpoint where the p smallest Ritz residual
        bounds pass ``RITZ_TOL``, at breakdown exhaustion (the factorization is
        then exact) or at the step limit.
        """
        from scipy import linalg as sla
        m_max = self.m_max
        checkpoint = m_max if m_max <= 160 else min(m_max, max(2 * p + 32, 48))
        while True:
            self._extend(checkpoint)
            m = min(checkpoint, self.steps)
            exhausted = self.exhausted and m == self.steps
            if m >= p:
                theta, s = sla.eigh_tridiagonal(self.alphas[:m], self.betas[: m - 1])
                bound = np.abs(self.betas[m - 1] * s[m - 1, :p]) if not exhausted else np.zeros(p)
                scale = max(1.0, float(np.max(np.abs(theta))))
                if exhausted or m == m_max or np.all(bound <= RITZ_TOL * scale):
                    y = self.krylov[:, :m] @ s[:, :p]
                    y /= np.linalg.norm(y, axis=0)[None, :]
                    return theta[:p], y
            # No input reaches this while p <= n: at m == m_max = n the check
            # above has returned, and exhaustion means the m steps span R^n,
            # so m = n too.  Without the raise a broken invariant would loop
            # here for ever.
            if exhausted or m == m_max:
                raise ConvergenceError(  # pragma: no cover
                    f"Lanczos exhausted {m} steps without producing {p} eigenpairs"
                )
            checkpoint = min(m_max, int(checkpoint * 1.5) + 16)


def solve_generalized(
    w: WeightMatrix, a: np.ndarray, p: int, factorization: LanczosFactorization | None = None
) -> EigenBasis:
    """The p algebraically smallest eigenpairs of W phi = lambda A phi,
    1 <= p <= n, ascending and A-orthonormal.

    Given ``factorization``, a LanczosFactorization of this (w, a), Lanczos
    extends it, so growing the basis over several calls costs the steps of
    the largest p only; the result is that of a fresh factorization.
    Without one the pair is solved densely, whatever n is; growing_bases
    decides which.  Raises ConvergenceError when the pairs miss the
    residual contract.
    """
    if factorization is None:
        basis = _solve_dense(w, a, p)
    else:
        theta, y = factorization.smallest(p)
        phi = factorization.scale[:, None] * y
        phi /= np.sqrt(a @ (phi * phi))[None, :]
        basis = EigenBasis(values=theta, vectors=_fix_signs(phi))

    res = residuals(w, a, basis)
    worst = float(res.max())
    if worst > RESIDUAL_RTOL:
        raise ConvergenceError("eigenpairs failed the residual contract", worst)
    return basis


def growing_bases(w: WeightMatrix, a: np.ndarray, batch: int):
    """Yield the bases of the p = batch, 2*batch, ... smallest eigenpairs,
    the last at p = n, for a batch >= 1.  The solver path is picked here:
    above DENSE_CUTOFF every solve extends one factorization; at or below
    it each basis is solved densely."""
    n = w.n
    factorization = LanczosFactorization(w, a) if n > DENSE_CUTOFF else None
    for p in range(batch, n + batch, batch):
        yield solve_generalized(w, a, min(p, n), factorization=factorization)

"""Dense linear-algebra kernels: null-space bases, Schur complements,
minimum-norm least squares, and simultaneous diagonalization of an
SPD/PSD symmetric pencil."""

from __future__ import annotations

import numpy as np

from .errors import (
    InconsistentSystemError,
    NotPositiveDefiniteError,
    SingularBlockError,
)

# Relative singular-value cutoff for numerical rank decisions. The
# constraint matrices here are small integer incidence blocks, so this
# sits far from any rank boundary.
NULL_TOL = 1e-10

# rcond threshold below which eliminated blocks are treated as singular.
RCOND_SINGULAR = 1e-13


def nullspace_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of null(M) via SVD, for a matrix of any rank.

    The numerical rank counts the singular values above NULL_TOL times
    the largest. An empty or all-zero M yields the identity.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    k, n = M.shape
    if k == 0 or not M.any():
        return np.eye(n)
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > NULL_TOL * s[0]))
    return vt[rank:, :].T.copy()


def _check_block_conditioning(block):
    """SingularBlockError unless the block is invertible to working
    precision; an empty block passes."""
    cond = np.linalg.cond(block) if block.size else 1.0
    if not np.isfinite(cond) or 1.0 / cond < RCOND_SINGULAR:
        raise SingularBlockError(cond)


def schur_complement(M: np.ndarray, n0: int):
    """Eliminate the trailing n0 rows/columns: M11 - M10 X with
    X = M00^-1 M01, where M00 is the trailing n0 x n0 block.

    Works for real or complex square matrices; the general nonsymmetric
    form is used. Returns (Schur complement, X). Raises
    SingularBlockError when the eliminated block is singular to working
    precision.
    """
    M = np.asarray(M)
    k = M.shape[0] - n0
    _check_block_conditioning(M[k:, k:])
    X = np.linalg.solve(M[k:, k:], M[k:, :k])
    return M[:k, :k] - M[:k, k:] @ X, X


def min_norm_solution(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum Euclidean-norm x with Ax = b, via the pseudoinverse.

    Raises InconsistentSystemError when b is not in range(A) to relative
    tolerance 1e-9.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    residual = np.linalg.norm(A @ x - b)
    if residual > 1e-9 * max(np.linalg.norm(b), 1e-300):
        raise InconsistentSystemError(residual)
    return x


def simultaneous_diagonalization(Lp: np.ndarray, Rp: np.ndarray):
    """Congruence V making V^T Lp V and V^T Rp V diagonal.

    Lp must be symmetric positive definite and Rp symmetric positive
    semidefinite. Whitens by the Cholesky factor of Lp, then takes the
    symmetric eigendecomposition of the whitened Rp; this stays
    well-posed when Rp is singular. Returns (V, d) with
    V^T Lp V = I and V^T Rp V = diag(d), d >= 0.
    """
    Lp = np.asarray(Lp, dtype=float)
    Rp = np.asarray(Rp, dtype=float)
    try:
        C = np.linalg.cholesky(Lp)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("first pencil matrix is not SPD") from exc
    Cinv = np.linalg.inv(C)
    S = Cinv @ Rp @ Cinv.T
    S = 0.5 * (S + S.T)
    d, Q = np.linalg.eigh(S)
    V = Cinv.T @ Q
    return V, d


def projection_identity_residual(w: np.ndarray, P: np.ndarray, B0: np.ndarray) -> float:
    """Max-abs residual between the two weighted-projector expressions.

    Left side: P (P^T W P)^-1 P^T with W = diag(w).
    Right side: W^-1 - W^-1 B0^T (B0 W^-1 B0^T)^-1 B0 W^-1.
    A near-zero residual certifies that the two coincide for any basis P
    of null(B0) and any nonzero complex edge weights w.
    """
    w = np.asarray(w)
    P = np.asarray(P)
    B0 = np.atleast_2d(np.asarray(B0, dtype=float))
    PWP = P.T @ (w[:, None] * P)
    _check_block_conditioning(PWP)
    lhs = P @ np.linalg.solve(PWP, P.T.astype(PWP.dtype))
    winv = 1.0 / w
    B0W = B0 * winv[None, :]
    G = B0W @ B0.T
    _check_block_conditioning(G)
    rhs = np.diag(winv) - B0W.T @ np.linalg.solve(G, B0W)
    return float(np.max(np.abs(lhs - rhs)))

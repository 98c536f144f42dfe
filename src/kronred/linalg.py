"""Linear-algebra kernels: null-space bases (dense SVD), Schur
complements (sparse or dense LU), minimum-norm least squares, and
simultaneous diagonalization of an SPD/PSD symmetric pencil."""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as splinalg

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

# Fill (fraction of nonzero entries) below which a matrix is multiplied
# or factored as a sparse array. Denser ones go to BLAS and LAPACK, which
# are faster on them and give the bits of the plain dense computation.
SPARSE_FILL = 0.1


def nullspace_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis of null(M) via SVD, for a dense or sparse M of
    any rank.

    The numerical rank counts the singular values above NULL_TOL times
    the largest. An empty or all-zero M yields the identity.
    """
    M = np.atleast_2d(dense(M)).astype(float)
    k, n = M.shape
    if k == 0 or not M.any():
        return np.eye(n)
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > NULL_TOL * s[0]))
    return vt[rank:, :].T.copy()


def dense(A):
    """A as a numpy array, whether it is dense or scipy.sparse."""
    return A.toarray() if sparse.issparse(A) else np.asarray(A)


def sparse_or_dense(A):
    """A as a CSR array when fewer than SPARSE_FILL of its entries are
    nonzero, else as a dense array."""
    nnz = A.nnz if sparse.issparse(A) else np.count_nonzero(A)
    return sparse.csr_array(A) if nnz < SPARSE_FILL * np.prod(A.shape) else dense(A)


def _check_block_conditioning(block):
    """SingularBlockError unless the block is invertible to working
    precision; an empty block passes."""
    cond = np.linalg.cond(block) if block.size else 1.0
    if not np.isfinite(cond) or 1.0 / cond < RCOND_SINGULAR:
        raise SingularBlockError(cond)


def _sparse_solver(block):
    """Solve function of the sparse LU (splu) of a square block.

    SingularBlockError when splu finds the block exactly singular, or
    when its 1-norm reciprocal condition number, estimated by onenormest
    over the factor's solves, is below n * RCOND_SINGULAR. Since
    ||A||_2 <= sqrt(n) ||A||_1 and ||A||_1 <= sqrt(n) ||A||_2, kappa_2 <=
    n kappa_1, so every block that fails the dense test
    1 / kappa_2 < RCOND_SINGULAR also fails this one.
    """
    try:
        lu = splinalg.splu(sparse.csc_array(block))
    except RuntimeError:  # "Factor is exactly singular"
        raise SingularBlockError(math.inf) from None
    inverse = splinalg.LinearOperator(
        block.shape, dtype=block.dtype, matvec=lu.solve, matmat=lu.solve,
        rmatvec=lambda x: lu.solve(x, "H"), rmatmat=lambda x: lu.solve(x, "H"),
    )
    cond = splinalg.norm(block, 1) * splinalg.onenormest(inverse)
    if not 1.0 / cond >= block.shape[0] * RCOND_SINGULAR:
        raise SingularBlockError(cond)
    return lu.solve


def schur_complement(M, n0: int):
    """Eliminate the trailing n0 rows/columns: M11 - M10 X with
    X = M00^-1 M01, where M00 is the trailing n0 x n0 block.

    M is a real or complex square matrix, dense or scipy.sparse (CSR or
    CSC); the general nonsymmetric form is used. M00 is factored once: by
    sparse LU when it is sparse (see sparse_or_dense), as a grid's
    interior block is, and by LAPACK otherwise. Returns the dense Schur
    complement and X. Raises SingularBlockError when M00 is singular to
    working precision.
    """
    k = M.shape[0] - n0
    M00 = sparse_or_dense(M[k:, k:])
    if sparse.issparse(M00):
        solve = _sparse_solver(M00)
    else:
        _check_block_conditioning(M00)
        solve = partial(np.linalg.solve, M00)
    X = solve(dense(M[k:, :k]))
    return dense(M[:k, :k]) - M[:k, k:] @ X, X


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


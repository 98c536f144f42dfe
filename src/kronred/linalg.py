"""Linear-algebra kernels: null-space bases (dense SVD), Schur
complements (sparse LU), and simultaneous diagonalization of an SPD/PSD
symmetric pencil."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse import linalg as splinalg

from .errors import NotPositiveDefiniteError, SingularBlockError

# Relative singular-value cutoff for numerical rank decisions. The
# constraint matrices here are small integer incidence blocks, so this
# sits far from any rank boundary.
NULL_TOL = 1e-10

# rcond threshold below which eliminated blocks are treated as singular.
RCOND_SINGULAR = 1e-13

# Least pencil eigenvalue, relative to max|d|, taken as eigh's rounding of a zero mode.
PSD_RTOL = 1e-10


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


def schur_complement(M, n0: int):
    """Eliminate the trailing n0 rows/columns: M11 - M10 X with
    X = M00^-1 M01, where M00 is the trailing n0 x n0 block.

    M is a real or complex square matrix, dense or scipy.sparse; the
    general nonsymmetric form is used. M00, an interior block of a
    network's Laplacian and as sparse as its graph, is factored once by
    sparse LU (splu). Returns the dense Schur complement and X.

    SingularBlockError when splu finds M00 exactly singular, or when its
    1-norm reciprocal condition number, estimated by onenormest over the
    factor's solves, is below n0 * RCOND_SINGULAR. Since ||A||_2 <=
    sqrt(n) ||A||_1 and ||A||_1 <= sqrt(n) ||A||_2, kappa_2 <= n kappa_1,
    so every block with 1 / kappa_2 < RCOND_SINGULAR fails this test. An
    empty block passes.
    """
    M = sparse.csc_array(M)
    k = M.shape[0] - n0
    M00 = M[k:, k:]
    try:
        lu = splinalg.splu(M00)
    except RuntimeError:  # "Factor is exactly singular"
        raise SingularBlockError(math.inf) from None
    if n0:  # onenormest and norm reject a 0 x 0 block
        inverse = splinalg.LinearOperator(
            M00.shape, dtype=M00.dtype, matvec=lu.solve, matmat=lu.solve,
            rmatvec=lambda x: lu.solve(x, "H"), rmatmat=lambda x: lu.solve(x, "H"),
        )
        cond = splinalg.norm(M00, 1) * splinalg.onenormest(inverse)
        if not 1.0 / cond >= n0 * RCOND_SINGULAR:
            raise SingularBlockError(cond)
    X = lu.solve(M[k:, :k].toarray())
    return M[:k, :k].toarray() - M[:k, k:] @ X, X


def simultaneous_diagonalization(Lp: np.ndarray, Rp: np.ndarray):
    """Congruence V making V^T Lp V and V^T Rp V diagonal.

    Lp must be symmetric positive definite and Rp symmetric positive
    semidefinite. One generalized symmetric-definite eigensolve (LAPACK
    sygvd) of the pencil (Rp, Lp), which stays well-posed when Rp is
    singular. Returns (V, d) with V^T Lp V = I, V^T Rp V = diag(d) to
    rounding, and d = psd_modes(d) >= 0. NotPositiveDefiniteError when
    Lp is not SPD or psd_modes rejects d.
    """
    try:
        d, V = scipy.linalg.eigh(Rp, Lp)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("first pencil matrix is not SPD") from exc
    return V, psd_modes(d)


def psd_modes(d):
    """d with each d in [-PSD_RTOL max|d|, 0), eigh's rounding of a zero
    mode, set to 0; NotPositiveDefiniteError when a d is below that."""
    if not np.all(d >= -PSD_RTOL * np.max(np.abs(d), initial=0.0)):
        raise NotPositiveDefiniteError(f"second pencil matrix is not PSD (eigenvalue {d.min():.3e})")
    return np.maximum(d, 0.0)

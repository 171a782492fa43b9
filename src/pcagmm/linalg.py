"""Small dense linear-algebra kernels shared by all modules.

Everything here operates on plain float64 ndarrays and is a pure function,
so any number of workers may call these concurrently. Every dense solve and
product runs on numpy's BLAS/LAPACK: scipy ships a second OpenBLAS with its
own thread pool, and alternating the two pools in the small solves of the
training loop costs far more than the solves themselves.
"""

import numpy as np

from .errors import InvalidShape, NotPositiveDefinite, RankDeficient

# Relative scale of the diagonal shift regularize_spd adds to a covariance that
# does not factor. The absolute fallback keeps an all-zero scatter (identical
# samples) factorable.
SPD_FLOOR_SCALE = 1e-6
_FLOOR_ABS = 1e-12

_BLOCK_BYTES = 1 << 20  # bytes of one row block's largest scratch array


def block_rows(row_bytes):
    """Rows per block when its largest scratch array takes row_bytes a row."""
    return max(1, _BLOCK_BYTES // row_bytes)


def try_cholesky(M):
    """Lower Cholesky factor of ``M``, or None if the factorization fails."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(L)):
        return None
    return L


def cholesky_spd(M):
    """Lower-triangular L with L L^T = M for symmetric positive definite M.

    M is factored as stored, with no shift: a covariance is floored where it
    is estimated (regularize_spd), so the density it scores is the one the
    model holds. Raises InvalidShape unless M is square and
    NotPositiveDefinite when the factorization fails.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidShape(f"expected a square matrix, got shape {M.shape}")
    L = try_cholesky(M)
    if L is None:
        raise NotPositiveDefinite("matrix is not positive definite")
    return L


def regularized_cholesky(M):
    """The floor of every estimated covariance, with its lower Cholesky
    factor: (M', L). M' is the symmetrized copy (M + M^T) / 2, unchanged when
    it factors and otherwise with SPD_FLOOR_SCALE * max(trace / n, _FLOOR_ABS)
    added to its diagonal; L is the factor that accepted M', so a caller that
    needs it does not factor again. EM covariances estimated from few samples
    routinely need the shift. Raises NotPositiveDefinite if the shifted matrix
    does not factor either."""
    M = 0.5 * (np.asarray(M, dtype=float) + np.asarray(M, dtype=float).T)
    L = try_cholesky(M)
    if L is None:
        n = M.shape[0]
        M = M + SPD_FLOOR_SCALE * max(float(np.trace(M)) / n, _FLOOR_ABS) * np.eye(n)
        L = try_cholesky(M)
        if L is None:
            raise NotPositiveDefinite("matrix is not positive definite")
    return M, L


def regularize_spd(M):
    """The floored covariance M' of regularized_cholesky(M)."""
    return regularized_cholesky(M)[0]


def solve_triangular(a, b, lower=False):
    """Solve a x = b for a lower (lower=True) or upper triangular a whose other
    triangle holds zeros; b is a vector or a matrix of right-hand sides.

    numpy's LAPACK solve factors with partial pivoting. On an upper triangular
    matrix that factorization is the matrix itself with no row exchange, so
    the solve is back substitution; a lower system is solved as the upper
    system of the reversed rows and columns.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if lower:
        return np.linalg.solve(a[::-1, ::-1], b[::-1])[::-1]
    return np.linalg.solve(a, b)


def project_stiefel(A):
    """Orthonormal polar factor of A, the nearest point with orthonormal columns.

    Computed from the thin SVD A = P diag(s) Q^T as P Q^T.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise InvalidShape(f"expected a tall matrix, got shape {A.shape}")
    P, s, Qt = np.linalg.svd(A, full_matrices=False)
    if s[0] == 0.0 or s[-1] < 1e-12 * s[0]:
        raise RankDeficient("matrix does not have full column rank")
    U = P @ Qt
    if not stiefel_defect(U) <= 1e-10:
        raise RankDeficient("polar factor is not orthonormal")
    return U


def random_stiefel(n, d, seed):
    """Deterministic random point with orthonormal columns, shape (n, d)."""
    if d > n or d < 1:
        raise InvalidShape(f"need 1 <= d <= n, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    return project_stiefel(rng.standard_normal((n, d)))


def stiefel_defect(U):
    """Frobenius distance of U^T U from the identity."""
    U = np.asarray(U)
    return float(np.linalg.norm(U.T @ U - np.eye(U.shape[1])))

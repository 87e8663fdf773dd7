"""Dense symmetric linear algebra sized for desk-scale graphs, on LAPACK
through numpy: a Cholesky solve for the SPD systems behind harmonic
extensions, and a full symmetric eigendecomposition of one matrix or of
a stack of them.

Inputs are plain numpy arrays; symmetry is required exactly (our
assemblers produce it by construction), so LAPACK, which reads one
triangle, sees the matrix the caller meant. LAPACK is deterministic for a
fixed build, so results repeat from run to run; callers that choose among
values equal in exact arithmetic (eigenvector signs, tied eigenvalues)
decide within a window, never by the last ulp.
"""

from __future__ import annotations

import numpy as np

from . import errors


def _require_square_symmetric(a: np.ndarray, stacked: bool = False) -> np.ndarray:
    """a as floats, else DimensionMismatch unless it is a square matrix
    (with `stacked`, a stack of them) and NotSymmetric unless each matrix
    is exactly symmetric."""
    a = np.asarray(a, dtype=float)
    if a.ndim != (3 if stacked else 2) or a.shape[-1] != a.shape[-2]:
        raise errors.DimensionMismatch(f"expected a square matrix, got {a.shape}")
    if not np.array_equal(a, a.swapaxes(-1, -2)):
        raise errors.NotSymmetric("matrix is not exactly symmetric")
    return a


def cholesky_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a @ x = rhs for symmetric positive definite a: a = L L^T, then
    one solve with L and one with L^T."""
    a = _require_square_symmetric(a)
    rhs = np.asarray(rhs, dtype=float)
    n = a.shape[0]
    if rhs.shape != (n,):
        raise errors.DimensionMismatch(f"rhs shape {rhs.shape} != ({n},)")
    try:
        ell = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise errors.NotPositiveDefinite() from None
    return np.linalg.solve(ell.T, np.linalg.solve(ell, rhs))


def jacobi_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition (LAPACK `syevd`) of a symmetric matrix
    (n, n) or of each matrix of a stack (g, n, n): the eigenvalues
    ascending, (n,) or (g, n), and the orthonormal eigenvector columns
    aligned with them, (n, n) or (g, n, n). LAPACK solves each matrix of
    a stack on its own, so its decomposition does not depend on the rest
    of the stack."""
    a = _require_square_symmetric(a, stacked=np.ndim(a) == 3)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        raise errors.NoConvergence("symmetric eigensolver did not converge") from None
    return eigenvalues, eigenvectors

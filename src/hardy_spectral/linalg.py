"""Dense symmetric linear algebra sized for desk-scale graphs, on LAPACK
through numpy: a Cholesky solve for the SPD systems behind harmonic
extensions, and a full symmetric eigendecomposition.

Inputs are plain numpy arrays; symmetry is required exactly (our
assemblers produce it by construction), so LAPACK, which reads one
triangle, sees the matrix the caller meant. LAPACK is deterministic for a
fixed build, so results repeat from run to run; callers that choose among
values equal in exact arithmetic (eigenvector signs, tied eigenvalues)
decide within a window, never by the last ulp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Full spectrum: eigenvalues ascending and orthonormal eigenvector
    columns aligned with them."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _require_square_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise errors.DimensionMismatch(f"expected a square matrix, got {a.shape}")
    if not np.array_equal(a, a.T):
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


def jacobi_eigen(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix (LAPACK `syevd`),
    eigenvalues ascending."""
    a = _require_square_symmetric(a)
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        raise errors.NoConvergence("symmetric eigensolver did not converge") from None
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def quadratic_form(a: np.ndarray, x: np.ndarray) -> float:
    """x^T a x. For a graph Laplacian this equals the conductance-weighted
    sum of squared edge differences."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or x.shape != (a.shape[0],):
        raise errors.DimensionMismatch(
            f"matrix {a.shape} incompatible with vector {x.shape}")
    return float(x @ (a @ x))

"""Laplacian assembly and the two generalized eigenproblems.

Both problems reduce to ordinary symmetric eigenproblems by whitening with
the diagonal mass matrix: the fundamental (Neumann) eigenvalue is the
second-smallest eigenvalue of M^{-1/2} L M^{-1/2}, and the boundary-pinned
(Dirichlet) eigenvalue is the smallest eigenvalue of the same whitening
applied to the interior principal submatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import errors
from .graph import VertexSet, WeightedGraph, validate
from .linalg import cholesky_solve, jacobi_eigen, quadratic_form

NEUMANN = "neumann"
DIRICHLET = "dirichlet"


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Eigenvalue, full-length eigenvector (zero on any boundary), and the
    eigen-residual on the active coordinates."""

    eigenvalue: float
    eigenvector: np.ndarray
    residual: float
    kind: str
    boundary: Optional[VertexSet] = None


def laplacian(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L, M, D): Laplacian, diagonal mass matrix, diagonal degree matrix.
    L is the graph's cached read-only `laplacian_matrix`, whose rows sum
    to zero exactly."""
    lap = graph.laplacian_matrix
    return lap, np.diag(graph.mass_vector), np.diag(np.diag(lap))


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude entry (lowest id on ties) is positive."""
    i = int(np.argmax(np.abs(x)))
    return -x if x[i] < 0.0 else x


def neumann_eigenvalue(graph: WeightedGraph) -> SpectralResult:
    """Fundamental vibration mode: min of x^T L x / x^T M x over x with
    x^T M 1 = 0. Requires all masses positive and a connected graph."""
    validate(graph)
    if graph.vertex_count < 2:
        raise errors.DimensionMismatch("need at least two vertices")
    for v, m in enumerate(graph.masses):
        if m <= 0.0:
            raise errors.ZeroMass(v)

    lap, mass, _ = laplacian(graph)
    d = 1.0 / np.sqrt(graph.mass_vector)
    white = lap * np.outer(d, d)
    dec = jacobi_eigen(white)
    lam = float(dec.eigenvalues[1])
    x = _canonical_sign(d * dec.eigenvectors[:, 1])
    residual = float(np.linalg.norm(lap @ x - lam * (mass @ x)))
    x.flags.writeable = False
    return SpectralResult(eigenvalue=lam, eigenvector=x, residual=residual,
                          kind=NEUMANN)


def dirichlet_eigenvalue(graph: WeightedGraph, boundary: VertexSet) -> SpectralResult:
    """Smallest eigenvalue over potentials pinned to zero on the boundary.

    Solved on the interior principal submatrix; boundary masses never
    enter, so zero-mass vertices are fine there, but every interior vertex
    needs positive mass. The returned eigenvector is zero-padded onto the
    boundary (it is an eigenvector of the interior submatrix, not of L).
    """
    validate(graph)
    n = graph.vertex_count
    bset = set(boundary.members)
    if not bset or len(bset) >= n or any(not (0 <= v < n) for v in bset):
        raise errors.BadBoundary(f"boundary must be a proper nonempty subset of 0..{n-1}")
    interior = [v for v in range(n) if v not in bset]
    for v in interior:
        if graph.masses[v] <= 0.0:
            raise errors.ZeroMass(v)

    lap, _, _ = laplacian(graph)
    sub = lap[np.ix_(interior, interior)]
    d = 1.0 / np.sqrt(graph.mass_vector[interior])
    dec = jacobi_eigen(sub * np.outer(d, d))
    lam = float(dec.eigenvalues[0])
    x = np.zeros(n)
    x[interior] = d * dec.eigenvectors[:, 0]
    x = _canonical_sign(x)

    m_int = graph.mass_vector[interior]
    residual = float(np.linalg.norm(sub @ x[interior] - lam * m_int * x[interior]))
    x.flags.writeable = False
    return SpectralResult(eigenvalue=lam, eigenvector=x, residual=residual,
                          kind=DIRICHLET, boundary=VertexSet.of(bset))


def harmonic_extension(graph: WeightedGraph, fixed: Mapping[int, float]) -> np.ndarray:
    """Minimum-energy potential agreeing with `fixed`.

    The free values solve L_FF x_F = -L_FB x_B, an SPD system whenever the
    graph is connected and at least one vertex is fixed.
    """
    if not fixed:
        raise errors.EmptyFixedSet("need at least one fixed vertex")
    validate(graph)
    n = graph.vertex_count
    if any(not (0 <= v < n) for v in fixed):
        raise errors.LengthMismatch("fixed vertex id out of range")

    x = np.zeros(n)
    for v, val in fixed.items():
        x[v] = float(val)
    free = [v for v in range(n) if v not in fixed]
    if free:
        lap, _, _ = laplacian(graph)
        fixed_ids = sorted(fixed)
        rhs = -(lap[np.ix_(free, fixed_ids)] @ x[fixed_ids])
        x[free] = cholesky_solve(lap[np.ix_(free, free)], rhs)
    return x


def rayleigh_quotient(graph: WeightedGraph, x: np.ndarray,
                      boundary: Optional[VertexSet] = None) -> float:
    """x^T L x / x^T M x; an upper bound on the matching eigenvalue for any
    feasible x. With a boundary, x must vanish there exactly."""
    x = np.asarray(x, dtype=float)
    n = graph.vertex_count
    if x.shape != (n,):
        raise errors.DimensionMismatch(f"potential shape {x.shape} != ({n},)")
    if boundary is not None:
        for v in boundary:
            if x[v] != 0.0:
                raise errors.BoundaryViolated(f"x[{v}] = {x[v]!r} on the boundary")
    lap, mass, _ = laplacian(graph)
    denom = quadratic_form(mass, x)
    if denom == 0.0:
        raise errors.ZeroVector("mass-weighted norm of x is zero")
    return quadratic_form(lap, x) / denom

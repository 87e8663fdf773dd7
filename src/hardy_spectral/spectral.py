"""Laplacian assembly and the two generalized eigenproblems.

Both problems reduce to ordinary symmetric eigenproblems by whitening with
the diagonal mass matrix: the fundamental (Neumann) eigenvalue is the
second-smallest eigenvalue of M^{-1/2} L M^{-1/2}, and the boundary-pinned
(Dirichlet) eigenvalue is the smallest eigenvalue of the same whitening
applied to the interior principal submatrix, one connected piece of the
interior at a time.

LAPACK's eigh leaves every eigenvector entry wrong by about eps * ||L||,
which on stiff graphs swamps the small differences across stiff edges. So
each eigenvector is polished by inverse iteration on the Laplacian, whose
M-matrix solves keep those differences, and the eigenvalue is its
Rayleigh quotient with the energy summed over the edges, where no terms
cancel. Values equal in exact arithmetic may still differ in the last
ulps, so every choice among them (the piece that carries the Dirichlet
mode, the entry that fixes a sign) treats values within the relative
window TIE_RTOL as tied and gives the lowest vertex id the win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import errors
from .graph import (VertexSet, WeightedGraph, as_potential, components,
                    interior_of, require_positive_mass, validate)
from .linalg import cholesky_solve, jacobi_eigen

NEUMANN = "neumann"
DIRICHLET = "dirichlet"

TIE_RTOL = 64 * np.finfo(float).eps
POLISH_STEPS = 2


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
    mag = np.abs(x)
    i = int(np.argmax(mag >= np.max(mag) * (1.0 - TIE_RTOL)))
    return -x if x[i] < 0.0 else x


def _edge_energy(graph: WeightedGraph, x: np.ndarray) -> float:
    """x^T L x summed over the edges, 0.5 * sum W_ij (x_i - x_j)^2, so no
    terms cancel."""
    diff = x[:, None] - x[None, :]
    return 0.5 * float(np.sum(graph.conductance_matrix * diff * diff))


def _eigenpair(graph: WeightedGraph, vertices: list[int],
               k: int) -> tuple[float, np.ndarray]:
    """The k-th smallest eigenpair of L x = lam M x with x held at zero off
    `vertices`, as a full-length x of unit mass norm: eigh on the whitened
    block, then POLISH_STEPS steps of inverse iteration. k = 1 is the
    Neumann mode (`vertices` is all of V): its solves ground the first
    vertex and remove the constant mode."""
    lap, mass = graph.laplacian_matrix, graph.mass_vector
    d = 1.0 / np.sqrt(mass[vertices])
    dec = jacobi_eigen(lap[np.ix_(vertices, vertices)] * np.outer(d, d))
    x = np.zeros(graph.vertex_count)
    x[vertices] = d * dec.eigenvectors[:, k]
    free = vertices[k:]
    for _ in range(POLISH_STEPS):
        y = np.zeros_like(x)
        try:
            y[free] = np.linalg.solve(lap[np.ix_(free, free)], (mass * x)[free])
        except np.linalg.LinAlgError:
            raise errors.NotPositiveDefinite() from None
        if k:
            y -= (mass @ y) / mass.sum()
        x = y / np.sqrt(mass @ (y * y))
    return _edge_energy(graph, x), x


def neumann_eigenvalue(graph: WeightedGraph) -> SpectralResult:
    """Fundamental vibration mode: min of x^T L x / x^T M x over x with
    x^T M 1 = 0. Requires all masses positive and a connected graph."""
    validate(graph)
    if graph.vertex_count < 2:
        raise errors.DimensionMismatch("need at least two vertices")
    require_positive_mass(graph)

    lam, x = _eigenpair(graph, list(range(graph.vertex_count)), 1)
    x = _canonical_sign(x)
    # the exact mode is positive and takes both signs (it is mass-orthogonal
    # to the constants); weights too stiff for doubles can break either
    if not (lam > 0.0 and np.any(x > 0.0) and np.any(x < 0.0)):
        raise errors.NoConvergence(
            f"fundamental mode not resolved in double precision (lambda2 = {lam!r})")
    eq = graph.laplacian_matrix @ x - lam * graph.mass_vector * x
    residual = float(np.linalg.norm(eq))
    x.flags.writeable = False
    return SpectralResult(eigenvalue=lam, eigenvector=x, residual=residual,
                          kind=NEUMANN)


def dirichlet_eigenvalue(graph: WeightedGraph, boundary: VertexSet) -> SpectralResult:
    """Smallest eigenvalue over potentials pinned to zero on the boundary.

    Solved on the interior principal submatrix; boundary masses never
    enter, so zero-mass vertices are fine there, but every interior vertex
    needs positive mass. The returned eigenvector is zero-padded onto the
    boundary (it is an eigenvector of the interior submatrix, not of L).

    Each connected piece of the interior is its own eigenproblem, and the
    eigenvalue is the smallest of theirs. The eigenvector lives on one
    piece, the lowest-id one among the tied pieces, so it never mixes
    decoupled blocks and keeps one sign.
    """
    validate(graph)
    interior = interior_of(graph, boundary)
    require_positive_mass(graph, interior)

    pieces = [_eigenpair(graph, piece, 0) for piece in components(graph, interior)]
    floor = min(lam for lam, _ in pieces)
    lam, x = next(p for p in pieces if p[0] <= floor * (1.0 + TIE_RTOL))
    x = _canonical_sign(x)
    eq = graph.laplacian_matrix @ x - lam * graph.mass_vector * x
    residual = float(np.linalg.norm(eq[interior]))
    x.flags.writeable = False
    return SpectralResult(eigenvalue=lam, eigenvector=x, residual=residual,
                          kind=DIRICHLET, boundary=VertexSet.of(boundary))


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
    x = as_potential(graph, x)
    if boundary is not None:
        for v in boundary:
            if x[v] != 0.0:
                raise errors.BoundaryViolated(f"x[{v}] = {x[v]!r} on the boundary")
    denom = float(x @ (graph.mass_vector * x))
    if denom == 0.0:
        raise errors.ZeroVector("mass-weighted norm of x is zero")
    return _edge_energy(graph, x) / denom

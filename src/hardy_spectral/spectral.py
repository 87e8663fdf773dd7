"""Laplacian assembly and the two generalized eigenproblems.

Both problems reduce to ordinary symmetric eigenproblems by whitening with
the diagonal mass matrix: the fundamental (Neumann) eigenvalue is the
second-smallest eigenvalue of M^{-1/2} L M^{-1/2}, and the boundary-pinned
(Dirichlet) eigenvalue is the smallest eigenvalue of the same whitening
applied to the interior principal submatrix. The interior splits into
connected pieces, each its own eigenproblem. `dirichlet_eigenvalues`
takes many boundary-pinned problems at once and solves the pieces of all
of them by size: one stacked eigh and one stacked solve per polish step
for every group of equal-size pieces.

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
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import errors
from .graph import (VertexSet, WeightedGraph, as_potential, components,
                    interior_of, require_positive_mass)
from .linalg import by_size, cholesky_solve, jacobi_eigen

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


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """L = D - W, the graph's cached read-only `laplacian_matrix`, whose
    rows sum to zero exactly."""
    return graph.laplacian_matrix


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    """Flip so the largest-magnitude entry (lowest id on ties) is positive."""
    mag = np.abs(x)
    i = int(np.argmax(mag >= np.max(mag) * (1.0 - TIE_RTOL)))
    return -x if x[i] < 0.0 else x


def _mass_dot(mass: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (g, s) stacks, shape (g, 1), each the
    same dot product as on one row alone."""
    return (mass[:, None, :] @ y[:, :, None])[:, 0]


def _eigenpairs(blocks: np.ndarray, ground: np.ndarray, mass: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-th smallest eigenpairs of a stack of problems L_PP x = lam M_P x,
    one per piece P: `blocks` (g, s, s) holds the Laplacian blocks L_PP,
    `ground` (g, s) the conductance from each vertex to the vertices off
    its piece, which are held at zero, and `mass` (g, s) the masses.
    Returns the eigenvalues (g,) and the eigenvectors (g, s), of unit mass
    norm: eigh on the whitened stack, then POLISH_STEPS steps of inverse
    iteration. k = 1 is the Neumann mode (the piece is all of V): its
    solves ground the first vertex and remove the constant mode.

    The eigenvalue is the energy as a sum of nonnegative terms,
    0.5 * sum W_PP (x_i - x_j)^2 + sum W(P, V \\ P) x_i^2, with W_PP the
    off-diagonal of -L_PP (the diagonal terms vanish). Every step works
    on each problem alone, so a problem's result does not depend on the
    stack it is solved in."""
    d = 1.0 / np.sqrt(mass)
    x = d * jacobi_eigen(blocks * (d[:, :, None] * d[:, None, :])).eigenvectors[:, :, k]
    for _ in range(POLISH_STEPS):
        y = np.zeros_like(x)
        try:
            y[:, k:] = np.linalg.solve(blocks[:, k:, k:], (mass * x)[:, k:, None])[:, :, 0]
        except np.linalg.LinAlgError:
            raise errors.NotPositiveDefinite() from None
        if k:
            y -= _mass_dot(mass, y) / mass.sum(axis=1, keepdims=True)
        x = y / np.sqrt(_mass_dot(mass, y * y))
    diff = x[:, :, None] - x[:, None, :]
    inside = (-blocks * diff * diff).reshape(len(x), -1).sum(axis=1)
    return 0.5 * inside + (ground * (x * x)).sum(axis=1), x


def neumann_eigenvalue(graph: WeightedGraph) -> SpectralResult:
    """Fundamental vibration mode: min of x^T L x / x^T M x over x with
    x^T M 1 = 0. Requires all masses positive and a connected graph."""
    n = graph.vertex_count
    if n < 2:
        raise errors.DimensionMismatch("need at least two vertices")
    require_positive_mass(graph)

    lam, x = _eigenpairs(graph.laplacian_matrix[None], np.zeros((1, n)),
                         graph.mass_vector[None], 1)
    lam, x = float(lam[0]), _canonical_sign(x[0])
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


def dirichlet_eigenvalues(
        problems: Sequence[tuple[WeightedGraph, VertexSet]],
) -> list[Union[SpectralResult, errors.HardySpectralError]]:
    """For each (graph, boundary): the smallest eigenvalue over potentials
    pinned to zero on the boundary, or the typed error that problem raises.

    Solved on the interior principal submatrix; boundary masses never
    enter, so zero-mass vertices are fine there, but every interior vertex
    needs positive mass. The returned eigenvector is zero-padded onto the
    boundary (it is an eigenvector of the interior submatrix, not of L).

    Each connected piece of the interior is its own eigenproblem, and the
    eigenvalue is the smallest of theirs. The eigenvector lives on one
    piece, the lowest-id one among the tied pieces, so it never mixes
    decoupled blocks and keeps one sign. The pieces of all problems are
    solved together, one stack per piece size (see `linalg.by_size`), so a
    piece that fails fails only its own problem.
    """
    out: list = [None] * len(problems)
    interiors: dict[int, list[int]] = {}
    pieces = []  # (problem, piece, W(v, boundary) for every vertex v)
    for i, (graph, boundary) in enumerate(problems):
        try:
            interior = interior_of(graph, boundary)
            require_positive_mass(graph, interior)
        except errors.HardySpectralError as exc:
            out[i] = exc
            continue
        interiors[i] = interior
        # the pieces are the components of the interior, so every edge
        # that leaves a piece ends on the boundary
        ground = graph.conductance_matrix[:, list(boundary.members)].sum(axis=1)
        pieces += [(i, piece, ground) for piece in components(graph, interior)]

    def solve(group):
        parts = [(problems[i][0].laplacian_matrix[piece, :][:, piece], ground[piece],
                  problems[i][0].mass_vector[piece]) for i, piece, ground in group]
        lam, x = _eigenpairs(*(np.stack(column) for column in zip(*parts)), 0)
        return list(zip(lam.tolist(), x))

    solved: dict[int, list] = {i: [] for i in interiors}
    for (i, piece, _), mode in zip(pieces, by_size(pieces, lambda p: len(p[1]), solve)):
        solved[i].append((piece, mode))
    for i, found in solved.items():
        out[i] = errors.first_error(mode for _, mode in found)
        if out[i] is not None:
            continue
        graph, boundary = problems[i]
        floor = min(lam for _, (lam, _) in found)
        piece, (lam, x_piece) = next(f for f in found if f[1][0] <= floor * (1.0 + TIE_RTOL))
        x = np.zeros(graph.vertex_count)
        x[piece] = x_piece
        x = _canonical_sign(x)
        eq = graph.laplacian_matrix @ x - lam * graph.mass_vector * x
        residual = float(np.linalg.norm(eq[interiors[i]]))
        x.flags.writeable = False
        out[i] = SpectralResult(eigenvalue=lam, eigenvector=x, residual=residual,
                                kind=DIRICHLET, boundary=VertexSet.of(boundary))
    return out


def dirichlet_eigenvalue(graph: WeightedGraph, boundary: VertexSet) -> SpectralResult:
    """The boundary-pinned eigenpair of one problem: `dirichlet_eigenvalues`
    with one problem, raising its typed error."""
    [result] = dirichlet_eigenvalues([(graph, boundary)])
    if isinstance(result, errors.HardySpectralError):
        raise result
    return result


def harmonic_extension(graph: WeightedGraph, fixed: Mapping[int, float]) -> np.ndarray:
    """Minimum-energy potential agreeing with `fixed`.

    The free values solve L_FF x_F = -L_FB x_B, an SPD system whenever the
    graph is connected and at least one vertex is fixed.
    """
    if not fixed:
        raise errors.EmptyFixedSet("need at least one fixed vertex")
    n = graph.vertex_count
    if any(not (0 <= v < n) for v in fixed):
        raise errors.LengthMismatch("fixed vertex id out of range")

    x = np.zeros(n)
    for v, val in fixed.items():
        x[v] = float(val)
    free = [v for v in range(n) if v not in fixed]
    if free:
        lap = laplacian(graph)
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
    # x^T L x summed over the edges, so no terms cancel
    u, v, k = graph.edge_arrays
    return float(np.sum(k * (x[u] - x[v]) ** 2)) / denom

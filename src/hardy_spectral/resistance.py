"""Effective resistance between disjoint vertex sets, and the one energy
kernel that every resistance and content quantity goes through.

1/R(A, B) is the minimum energy of a potential held at 1 on A and 0 on B;
masses play no role. Eliminating every other vertex, C = V \\ (A u B),
by Kron reduction leaves a network on A u B whose conductances are the
Schur complement of L_CC. With both sides held fixed, the energy is the
total reduced conductance between A and B:

    1/R(A, B) = W(A, B) + W(A, C) L_CC^{-1} W(C, B),

where W(X, Y) sums the edge conductances from X to Y (a vector over C
when one side is C). Every term is a sum of nonnegative numbers, since
L_CC^{-1} is entrywise nonnegative, so nothing cancels; and an edge
inside A or inside B never enters the computation, however stiff it is.
When A u B = V nothing is eliminated and the energy is W(A, B), the
crossing conductance.

`kron_energies` evaluates this for many pairs at once: one batched LAPACK
solve per eliminated set C, with one right-hand side per pair (A, B) that
shares C. A pseudoinverse route exists purely as a cross-check oracle.
"""

from __future__ import annotations

import numpy as np

from . import errors
from .graph import VertexSet, WeightedGraph, validate
from .linalg import jacobi_eigen
from .spectral import laplacian

_KERNEL_CUTOFF = 1e-10


def _check_sets(graph: WeightedGraph, a: VertexSet, b: VertexSet) -> None:
    n = graph.vertex_count
    if len(a) == 0 or len(b) == 0:
        raise errors.EmptySet("resistance needs two nonempty sets")
    if not a.isdisjoint(b):
        raise errors.SetsOverlap(f"sets share vertices {sorted(set(a) & set(b))}")
    if any(not (0 <= v < n) for v in list(a) + list(b)):
        raise errors.LengthMismatch("vertex id out of range")


def kron_energies(lap: np.ndarray, inner: np.ndarray, to_a: np.ndarray,
                  to_b: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """Energies 1/R(A, B), shape (m, s): row i eliminates the vertices
    C = inner[i], given as indices into `lap` (all rows share one size c),
    and carries s pairs (A, B) disjoint from C. For pair j, to_a[i, :, j]
    and to_b[i, :, j] are W(C, A) and W(C, B) (shape (m, c, s)), and
    direct[i, j] is W(A, B). A singular L_CC, which a connected graph
    never has, raises; so does an energy that is not positive, which only
    a solve swamped by rounding (weight ratios near 1e16) can return."""
    try:
        y = np.linalg.solve(lap[inner[:, :, None], inner[:, None, :]], to_b)
    except np.linalg.LinAlgError:
        raise errors.NotPositiveDefinite() from None
    energy = direct + np.einsum("mcs,mcs->ms", to_a, y)
    if not np.all(energy > 0.0):
        raise errors.NotPositiveDefinite()
    return energy


def pair_energy(graph: WeightedGraph, a: VertexSet, b: VertexSet) -> float:
    """1/R(A, B) for one pair of disjoint nonempty sets."""
    w = graph.conductance_matrix
    a_ids, b_ids = list(a.members), list(b.members)
    inner = np.array(a.union(b).complement(graph.vertex_count).members, dtype=np.intp)
    to_a = w[np.ix_(inner, a_ids)].sum(axis=1)
    to_b = w[np.ix_(inner, b_ids)].sum(axis=1)
    direct = w[np.ix_(a_ids, b_ids)].sum()
    energy = kron_energies(graph.laplacian_matrix, inner[None], to_a[None, :, None],
                           to_b[None, :, None], np.array([[direct]]))
    return float(energy[0, 0])


def effective_resistance(graph: WeightedGraph, a: VertexSet, b: VertexSet) -> float:
    """R(A, B): Kron-reduce the network onto A u B."""
    _check_sets(graph, a, b)
    validate(graph)
    return 1.0 / pair_energy(graph, a, b)


def resistance_via_pseudoinverse(graph: WeightedGraph, a: int, b: int) -> float:
    """Oracle route for singleton sets: chi^T L^+ chi with the pseudoinverse
    built from the full eigendecomposition (kernel eigenvalues zeroed)."""
    if a == b:
        raise errors.SameVertex(f"need two distinct vertices, got {a} twice")
    n = graph.vertex_count
    if not (0 <= a < n and 0 <= b < n):
        raise errors.LengthMismatch("vertex id out of range")
    lap, _, _ = laplacian(graph)
    dec = jacobi_eigen(lap)
    cutoff = _KERNEL_CUTOFF * float(np.max(np.abs(dec.eigenvalues)))
    keep = np.abs(dec.eigenvalues) > cutoff
    inv = np.zeros_like(dec.eigenvalues)
    inv[keep] = 1.0 / dec.eigenvalues[keep]
    pinv = (dec.eigenvectors * inv) @ dec.eigenvectors.T
    chi = np.zeros(n)
    chi[a], chi[b] = 1.0, -1.0
    return float(chi @ pinv @ chi)

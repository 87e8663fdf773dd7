"""Effective resistance between disjoint vertex sets, by Kron reduction.

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

`kron_energies` evaluates this for a stack of pairs, one pair per row,
with one batched LAPACK solve over the blocks L_CC. `pinned_energies`
poses problems on one graph's arrays, one stack per size of C, with each
vertex's diagonal and ground given per problem (as `spectral.ground_modes`
does), so `ressum` needs no pinched graph; `pair_energies` poses given
pairs. The exact content enumerations eliminate one vertex at a time
instead, so that sets sharing a prefix share its work.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from . import errors
from .graph import VertexSet, WeightedGraph
from .linalg import by_size


def _check_sets(graph: WeightedGraph, a: VertexSet, b: VertexSet) -> None:
    n = graph.vertex_count
    if any(not (0 <= v < n) for v in list(a) + list(b)):
        raise errors.LengthMismatch("vertex id out of range")
    if len(a) == 0 or len(b) == 0:
        raise errors.EmptySet("resistance needs two nonempty sets")
    if not a.isdisjoint(b):
        raise errors.SetsOverlap(f"sets share vertices {sorted(set(a) & set(b))}")


def kron_energies(blocks: np.ndarray, to_a: np.ndarray, to_b: np.ndarray,
                  direct: np.ndarray) -> np.ndarray:
    """Energies 1/R(A, B), shape (m,), of rows that `pinned_energies`
    gathers: row i eliminates a set C whose block L_CC is blocks[i] (all
    rows share one size c), to_a[i] and to_b[i] are W(C, A) and W(C, B),
    B being every vertex held at 0 (shape (m, c)), and direct[i] is
    W(A, B). A singular L_CC raises, and so does an energy that is not
    positive, which only rounding (weight ratios near 1e16) can cause."""
    try:
        y = np.linalg.solve(blocks, to_b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        raise errors.NotPositiveDefinite() from None
    energy = direct + np.einsum("mc,mc->m", to_a, y)
    if not np.all(energy > 0.0):
        raise errors.NotPositiveDefinite()
    return energy


def pinned_energies(graph: WeightedGraph, held: Sequence[VertexSet],
                    free: Sequence[Sequence[int]], degree: np.ndarray,
                    ground: np.ndarray) -> list[Union[float, errors.HardySpectralError]]:
    """1/R for each problem on `graph`, or its typed error. Problem i holds
    held[i] at 1, eliminates the sorted ids free[i] and holds every other
    vertex at 0; degree[i] and ground[i] give each vertex's diagonal entry
    and conductance to the vertices held at 0 (see `linalg.by_size`)."""
    def solve(group):
        row = np.array([i for i, _ in group])[:, None]
        idx = np.array([inner for _, inner in group], dtype=np.intp)
        blocks = graph.laplacian_matrix[idx[:, :, None], idx[:, None, :]]
        diagonal = np.arange(idx.shape[1])
        blocks[:, diagonal, diagonal] = degree[row, idx]
        to_a = np.array([w_c[:, held[i].members].sum(axis=1)
                         for (i, _), w_c in zip(group, graph.conductance_matrix[idx])])
        direct = np.array([ground[i, held[i].members].sum() for i, _ in group])
        return kron_energies(blocks, to_a, ground[row, idx], direct).tolist()

    return by_size(list(enumerate(free)), lambda row: len(row[1]), solve)


def pair_energies(graph: WeightedGraph, pairs: Sequence[tuple[VertexSet, VertexSet]],
                  ) -> list[Union[float, errors.HardySpectralError]]:
    """1/R(A, B) for each pair of disjoint nonempty sets of `graph`, or its
    typed error: B is held at 0, with ground W(., B) and degree diag(L)."""
    n = graph.vertex_count
    return pinned_energies(
        graph, [a for a, _ in pairs], [a.union(b).complement(n).members for a, b in pairs],
        np.broadcast_to(np.diag(graph.laplacian_matrix), (len(pairs), n)),
        np.array([graph.conductance_matrix[:, b.members].sum(axis=1) for _, b in pairs]))


def effective_resistance(graph: WeightedGraph, a: VertexSet, b: VertexSet) -> float:
    """R(A, B): Kron-reduce the network onto A u B."""
    _check_sets(graph, a, b)
    [energy] = pair_energies(graph, [(a, b)])
    if isinstance(energy, errors.HardySpectralError):
        raise energy
    return 1.0 / energy

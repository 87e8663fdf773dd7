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
solve over a stack of blocks L_CC, with one right-hand side per pair
(A, B) that shares C. The blocks are gathered by the caller, so one stack
can hold rows of different graphs: `pair_energies` scores pairs from
many graphs, one stack per size of C.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from . import errors
from .graph import VertexSet, WeightedGraph
from .linalg import by_size


def _check_sets(graph: WeightedGraph, a: VertexSet, b: VertexSet) -> None:
    n = graph.vertex_count
    if len(a) == 0 or len(b) == 0:
        raise errors.EmptySet("resistance needs two nonempty sets")
    if not a.isdisjoint(b):
        raise errors.SetsOverlap(f"sets share vertices {sorted(set(a) & set(b))}")
    if any(not (0 <= v < n) for v in list(a) + list(b)):
        raise errors.LengthMismatch("vertex id out of range")


def kron_energies(blocks: np.ndarray, to_a: np.ndarray, to_b: np.ndarray,
                  direct: np.ndarray) -> np.ndarray:
    """Energies 1/R(A, B), shape (m, s): row i eliminates a set C whose
    block L_CC is blocks[i] (all rows share one size c), and carries s
    pairs (A, B) disjoint from C. For pair j, to_a[i, :, j] and
    to_b[i, :, j] are W(C, A) and W(C, B) (shape (m, c, s)), and
    direct[i, j] is W(A, B). A singular L_CC, which a connected graph
    never has, raises; so does an energy that is not positive, which only
    a solve swamped by rounding (weight ratios near 1e16) can return."""
    try:
        y = np.linalg.solve(blocks, to_b)
    except np.linalg.LinAlgError:
        raise errors.NotPositiveDefinite() from None
    energy = direct + np.einsum("mcs,mcs->ms", to_a, y)
    if not np.all(energy > 0.0):
        raise errors.NotPositiveDefinite()
    return energy


def pair_energies(
        pairs: Sequence[tuple[WeightedGraph, VertexSet, VertexSet]],
) -> list[Union[float, errors.HardySpectralError]]:
    """1/R(A, B) for each (graph, A, B) of disjoint nonempty sets, or the
    typed error that pair raises. The pairs may come from different
    graphs: their rows are stacked by the size of C, one kron_energies
    call per size (see `linalg.by_size`)."""
    out: list = [None] * len(pairs)
    rows = []  # (pair, eliminated vertices C)
    for i, (graph, a, b) in enumerate(pairs):
        try:
            _check_sets(graph, a, b)
        except errors.HardySpectralError as exc:
            out[i] = exc
            continue
        rows.append((i, a.union(b).complement(graph.vertex_count).members))

    def solve(group):
        parts = []
        for i, inner in group:
            graph, a, b = pairs[i]
            w_c = graph.conductance_matrix[inner, :]
            parts.append((graph.laplacian_matrix[inner, :][:, inner],
                          w_c[:, a.members].sum(axis=1), w_c[:, b.members].sum(axis=1),
                          graph.conductance_matrix[a.members, :][:, b.members].sum()))
        blocks, to_a, to_b, direct = (np.stack(column) for column in zip(*parts))
        return kron_energies(blocks, to_a[:, :, None], to_b[:, :, None],
                             direct[:, None])[:, 0].tolist()

    for (i, _), energy in zip(rows, by_size(rows, lambda r: len(r[1]), solve)):
        out[i] = energy
    return out


def effective_resistance(graph: WeightedGraph, a: VertexSet, b: VertexSet) -> float:
    """R(A, B): Kron-reduce the network onto A u B."""
    [energy] = pair_energies([(graph, a, b)])
    if isinstance(energy, errors.HardySpectralError):
        raise energy
    return 1.0 / energy

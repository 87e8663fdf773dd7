"""Effective resistance between disjoint vertex sets, by Kron reduction.

1/R(A, B) is the minimum energy of a potential held at 1 on A and 0 on B;
masses play no role. Eliminating every other vertex, C = V \\ (A u B),
by Kron reduction leaves a network on A u B whose conductances are the
Schur complement of L_CC. With both sides held fixed, the energy is the
total reduced conductance between A and B:

    1/R(A, B) = W(A, B) + W(A, C) L_CC^{-1} W(C, B),

where W(X, Y) sums the edge conductances from X to Y (a vector over C
when one side is C). An edge inside A or inside B never enters the
computation, however stiff it is. When A u B = V nothing is eliminated
and the energy is W(A, B), the crossing conductance.

Every energy of the library is reduced by one step, `kron_step`: it
eliminates one vertex from a stack of networks, adding (r / d) r^T
(`kron_fill`) to the conductances left, where r is the vertex's row and
the pivot d the sum of r (Grassmann, Taksar and Heyman, Oper. Res. 33,
1985). The diagonal is never read and nothing is subtracted, so nothing
cancels. The exact content enumerations take the step along their own trees,
and `kron_slots` over a stack of networks, each from its own slot: the
level-set sweep's paths and every pinned problem's C. `pinned_energies`
poses problems on one graph's arrays, each set a boolean row over the
vertices, with each vertex's conductance to the vertices held at 0
given per problem: the one form of every pinned problem, which
`spectral.ground_modes` takes too. So `ressum` needs no pinched graph,
and `effective_resistance` poses its one pair. Sums of conductances to
a set are `graph.conductance_to`, one sum over the edge ends per row,
so a problem's numbers never depend on the others of its call.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from . import errors
from .graph import VertexSet, WeightedGraph, conductance_to


def kron_fill(a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The fill a b / d between two neighbours, of conductances a and b,
    of an eliminated vertex of pivot d: dividing first, it overflows only
    past a conductance that already would, and a pivot of 0 or inf gives
    NaN (d / d is exactly 1 for any other d), never dropping the fill."""
    return (a / d * (d / d)) * b


def kron_step(r: np.ndarray, rest: np.ndarray) -> None:
    """Kron-eliminate one vertex from each network of a stack, in place:
    r (k, m) holds its conductances to the k vertices after it, rest
    (k, k, m) the conductances among those, one network per last index.
    Adds the fill (r / d) r^T (`kron_fill`) to rest, with the pivot d
    summed in row order, so a network's result does not depend on the
    stack. Callers silence the floating-point warnings."""
    d = np.add.accumulate(r)[-1]
    rest += kron_fill(r[:, None], r[None, :], d)


def kron_slots(net: np.ndarray, starts: np.ndarray, lo: int, hi: int) -> None:
    """Kron-eliminate slots lo..hi-1 of a stack of networks (k, k, m) in
    place, network i only from its own slot starts[i] on (starts must not
    decrease along the stack). The slots before a network's start are
    never read, so each network ends as it would alone, however the slots
    are split into calls. Callers silence the warnings (see kron_step)."""
    started = np.searchsorted(starts, np.arange(lo, hi), side="right")
    for j, e in zip(range(lo, hi), started.tolist()):
        kron_step(net[j, j + 1:, :e], net[j + 1:, j + 1:, :e])


def pinned_energies(graph: WeightedGraph, held: np.ndarray, free: np.ndarray,
                    ground: np.ndarray) -> list[Union[float, errors.HardySpectralError]]:
    """1/R for each problem on `graph`, or NotRepresentable where it or
    R is not positive and finite. Problem i holds the vertices of the boolean
    row held[i] at 1, eliminates those of free[i] (disjoint from it) and
    holds every other vertex at 0; ground[i] gives each vertex's
    conductance to the vertices held at 0, and the vertices held at 0 are
    joined to nothing else. All problems go into one `kron_slots` stack,
    the largest C first (a stable sort), each C in the last slots before A
    and B, in id order, and the energy is the reduced A-B conductance."""
    m = len(free)
    if not m:
        return []
    sizes = free.sum(axis=1)
    order = np.argsort(-sizes, kind="stable")
    held, free, ground, sizes = held[order], free[order], ground[order], sizes[order]
    c = int(sizes[0])
    # one nonzero over the sorted masks: C's r-th vertex goes to slot c - |C| + r,
    # and the slots before a C point at vertex 0, never read
    rows, ids = np.nonzero(free)
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    idx = np.zeros((m, c), dtype=np.intp)
    idx[rows, c - sizes[rows] + rank] = ids
    to_held = conductance_to(graph, held)
    w = graph.conductance_matrix
    stack = np.zeros((m, c + 2, c + 2))
    stack[:, :c, :c] = w[idx[:, :, None], idx[:, None, :]]
    stack[:, :c, c] = stack[:, c, :c] = np.take_along_axis(to_held, idx, axis=1)
    stack[:, :c, c + 1] = stack[:, c + 1, :c] = np.take_along_axis(ground, idx, axis=1)
    # seen stack-last, as kron_step takes it; each network lies whole in
    # memory, so a step runs along its rows rather than across the stack
    net = stack.transpose(1, 2, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow poisons its energy
        stack[:, c, c + 1] = stack[:, c + 1, c] = np.where(held, ground, 0.0).sum(axis=1)
        kron_slots(net, c - sizes, 0, c)
    energies = np.empty(m)
    energies[order] = net[c, c + 1]
    return [e if 0.0 < e < np.inf and 1.0 / e < np.inf else errors.NotRepresentable(
                f"energy {e!r} is not positive and finite, with a finite reciprocal, "
                "in double precision")
            for e in energies.tolist()]


def effective_resistance(graph: WeightedGraph, a: VertexSet, b: VertexSet) -> float:
    """R(A, B): Kron-reduce the network onto A u B, posed as masks: A held
    at 1, the rest eliminated, B held at 0 with ground W(., B)."""
    held, grounded = graph.row(a)[None], graph.row(b)[None]
    if len(a) == 0 or len(b) == 0:
        raise errors.EmptySet("resistance needs two nonempty sets")
    shared = np.flatnonzero(held & grounded).tolist()
    if shared:
        raise errors.SetsOverlap(f"sets share vertices {shared}")
    [energy] = pinned_energies(graph, held, ~(held | grounded), conductance_to(graph, grounded))
    if isinstance(energy, errors.HardySpectralError):
        raise energy
    return 1.0 / energy

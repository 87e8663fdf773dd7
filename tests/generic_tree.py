"""The generic decision-tree walk that psi and psi2 took through
hardy_spectral.content before each got a walk of its own, and both routes
through it, kept as the bit-for-bit oracle of those walks
(dirichlet_content_exact, neumann_content_exact).

_tree_minimum walks any tree of masked choices over stacks of networks,
each with the masses and masks of its two terminals; _branch decides one
vertex of a stack (_pick reads the networks a choice keeps) and _leaves
scores the last vertex in closed form. The stack cut reads
content.CHUNK_ENTRIES when it runs, so a test that sets it cuts the
oracle's stacks as it cuts the library's.
"""

from typing import Optional

import numpy as np

from hardy_spectral import ContentResult, VertexSet, content, errors
from hardy_spectral.content import _RunningMin
from hardy_spectral.graph import conductance_to, interior_of, require_positive_mass
from hardy_spectral.resistance import kron_fill, kron_step


def _pick(keep: Optional[np.ndarray]):
    """The networks that keep marks (None for all) as an index: a slice,
    which reads a view with no gather, when they form one run, else their
    positions."""
    if keep is None:
        return slice(None)
    at = np.flatnonzero(keep)
    if at.size and at[-1] - at[0] == at.size - 1:
        return slice(at[0], at[-1] + 1)
    return at


def _branch(net: np.ndarray, mu: np.ndarray, key: np.ndarray, mass: float, bit: int,
            choices: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decide the first node of every network in a stack of _tree_minimum.

    A stack of m networks is a (k, k, m) array of conductances among each
    network's undecided vertices, then its two terminal nodes; mu and key,
    shaped (2, m), hold each terminal's mass and mask. `choices` lists
    (keep, terminal): the networks marked by keep (None for all) get a
    child in which the first node merges into that terminal, or is
    Kron-eliminated (`kron_step`) for terminal None. A merge adds the
    first node's conductances to the terminal's. Diagonal entries are
    never read.
    """
    row, rest = net[0, 1:], net[1:, 1:]
    picks = [_pick(keep) for keep, _ in choices]
    rs = [row[:, rows] for rows in picks]
    out = np.empty(rest.shape[:2] + (sum(r.shape[1] for r in rs),))
    out_mu = np.empty((2, out.shape[2]))
    out_key = np.empty((2, out.shape[2]), dtype=np.int64)
    at = 0
    for rows, r, (_, terminal) in zip(picks, rs, choices):
        here = slice(at, at + r.shape[1])
        at += r.shape[1]
        child = out[:, :, here]
        out_mu[:, here], out_key[:, here] = mu[:, rows], key[:, rows]
        child[...] = rest[:, :, rows]
        if terminal is None:
            kron_step(r, child)
        else:
            child[terminal - 2] += r
            child[:, terminal - 2] += r
            out_mu[terminal, here] += mass
            out_key[terminal, here] |= bit
    return out, out_mu, out_key


def _leaves(net: np.ndarray, mu: np.ndarray, key: np.ndarray, mass: float, bit: int,
            choices: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The leaves below a stack with one vertex left (k = 3), as (energy,
    mu, key) for the children of _branch, in their order, with no leaf
    network built.

    Each network has three entries: r0 = net[0, 1] and r1 = net[0, 2],
    the vertex's conductances to the terminals, and e = net[1, 2], the
    terminals' own. The energy, the terminals' conductance in the child,
    is e + kron_fill(r0, r1, r0 + r1) if the vertex is eliminated, the
    fill kron_step would add (a pivot of 0 or inf gives NaN), e + r1 if
    it merges into the first terminal and e + r0 if into the second; mu
    and key change as in _branch.
    """
    r0, r1, e = net[0, 1], net[0, 2], net[1, 2]
    picks = [_pick(keep) for keep, _ in choices]
    bases = [e[rows] for rows in picks]
    energy = np.empty(sum(base.size for base in bases))
    out_mu = np.empty((2, energy.size))
    out_key = np.empty((2, energy.size), dtype=np.int64)
    at = 0
    for rows, base, (_, terminal) in zip(picks, bases, choices):
        here = slice(at, at + base.size)
        at += base.size
        out_mu[:, here], out_key[:, here] = mu[:, rows], key[:, rows]
        if terminal is None:
            a, b = r0[rows], r1[rows]
            np.add(base, kron_fill(a, b, a + b), out=energy[here])
        else:
            np.add(base, (r1, r0)[terminal][rows], out=energy[here])
            out_mu[terminal, here] += mass
            out_key[terminal, here] |= bit
    return energy, out_mu, out_key


def _tree_minimum(network: np.ndarray, mass: np.ndarray, bits: np.ndarray, options,
                  score) -> Optional[tuple[float, int]]:
    """(ratio, key) of the winning leaf of a decision tree of Kron
    eliminations, walked depth first over stacks of partial networks, or
    None if no leaf is scored.

    `network` is the (k, k) network of the vertices in the order they are
    decided, then the two terminal nodes (see _branch); the i-th vertex
    decided has mass mass[i] and key mask bits[i]. options(key, left)
    gives the choices of _branch for a stack whose vertex at hand leaves
    `left` vertices undecided; score(energy, mu, key) turns the reduced
    conductance between the terminals at the leaves into (ratios, keys).
    A stack whose children would exceed CHUNK_ENTRIES numbers is cut in
    half first; the deferred half is copied, so it does not keep its
    parent alive. A stack with one vertex left is then scored by _leaves,
    in closed form from its three entries, so no leaf network is built;
    every other stack branches. psi2 decides at least two vertices, so
    the root has k >= 4.

    A reduced conductance or a pivot that overflows spreads inf or NaN to
    the energy, which raises NotRepresentable (the diagonal is never
    read, so its overflow is harmless). A ratio that overflows is inf and
    never wins.
    """
    f = len(mass)
    best = _RunningMin()
    pending = [(network[:, :, None], np.zeros((2, 1)), np.zeros((2, 1), dtype=np.int64))]
    with np.errstate(over="ignore", invalid="ignore"):
        while pending:
            net, mu, key = stack = pending.pop()
            k, _, m = net.shape
            i = f + 2 - k
            choices = options(key, k - 3)
            if m > 1 and len(choices) * m * (k - 1) ** 2 > content.CHUNK_ENTRIES:
                pending.append(tuple(x[..., m // 2:].copy() for x in stack))
                pending.append(tuple(x[..., :m // 2] for x in stack))
            elif k == 3:
                energy, mu, key = _leaves(net, mu, key, mass[i], bits[i], choices)
                if not np.isfinite(energy).all():
                    raise errors.NotRepresentable(
                        "a reduced conductance overflowed in double precision")
                best.offer(*score(energy, mu, key))
            else:
                pending.append(_branch(net, mu, key, mass[i], bits[i], choices))
    return best.winner


def branch_leaves(net, mu, key, mass, bit, choices):
    """The reference for _leaves: the (2, 2) children that _branch builds,
    eliminating with kron_step, read at [0, 1]."""
    out, out_mu, out_key = _branch(net, mu, key, mass, bit, choices)
    return out[0, 1], out_mu, out_key


def psi_options(key, left):
    """psi's choices: merge into A, then eliminate."""
    return [(None, 0), (None, None)]


def psi2_options(key, left):
    """psi2's choices for the vertex at hand, `left` vertices after it."""
    has_b = key[1] != 0
    # eliminate (while B is empty, only if two vertices would remain to
    # fill both sides), join A once B has a vertex, or join B
    return [(has_b | (left > 1), None), (has_b, 0), (None, 1)]


def psi_by_generic_tree(g, s):
    """psi by its former route, the oracle of dirichlet_content_exact's
    own walk: _tree_minimum with psi's choices, a running mass and psi's
    score."""
    inside = interior_of(g, s)[None]
    interior = np.flatnonzero(inside[0])
    f = interior.size
    net = np.zeros((f + 2, f + 2))
    net[:f, :f] = g.conductance_matrix[interior[:, None], interior]
    net[:f, -1] = net[-1, :f] = conductance_to(g, ~inside)[0, interior]

    def score(energy, mu, key):
        keep = mu[0] > 0.0
        return energy[keep] / mu[0][keep], key[0][keep]

    winner = _tree_minimum(net, g.mass_vector[interior], np.int64(1) << np.arange(f),
                           psi_options, score)
    if winner is None:
        raise errors.ZeroInteriorMass("every interior subset has zero mass")
    value, key = winner
    return ContentResult(value=value, witness_a=VertexSet.of(
        v for p, v in enumerate(interior) if key >> p & 1), witness_b=None)


def psi2_by_generic_tree(graph):
    """psi2 by its former route, the oracle of neumann_content_exact's own
    walk: _tree_minimum with psi2's choices and psi2's score, behind the
    same guards. The score reads mu(A) and mu(B) from the library's table
    (content._mass_by_mask), summed from the lowest bit up, as psi2 does,
    not from the walk's running masses, which add the vertices from the
    highest id down."""
    n = graph.vertex_count
    if n > content.NEUMANN_ENUM_LIMIT:
        raise errors.TooLarge(n, content.NEUMANN_ENUM_LIMIT)
    if n < 2:
        raise errors.EmptySet("two-sided content needs two vertices")
    require_positive_mass(graph)

    # the vertices from the highest id down, then the terminals A and B
    net = np.zeros((n + 2, n + 2))
    net[:n, :n] = graph.conductance_matrix[::-1, ::-1]

    mass = content._mass_by_mask(graph.mass_vector)

    def score(energy, mu, key):
        keep = key[0] != 0  # B always has a vertex at a leaf
        key_a, key_b = key[:, keep]
        return (1.0 / mass[key_a] + 1.0 / mass[key_b]) * energy[keep], (key_a << n) | key_b

    value, key = _tree_minimum(net, graph.mass_vector[::-1], np.int64(1) << np.arange(n)[::-1],
                               psi2_options, score)  # n >= 2 always yields a pair
    key = int(key)
    return ContentResult(value=value, witness_a=VertexSet.from_mask(key >> n),
                         witness_b=VertexSet.from_mask(key & ((1 << n) - 1)))

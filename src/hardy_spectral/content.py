"""Resistance-based content quantities that pin the Laplacian eigenvalues
to within a factor of four.

The one-sided content of (G, S) is the minimum over nonempty vertex sets A
disjoint from S of R(S,A)^{-1} / mu(A); its reciprocal (the extremal
resistance-mass product) is the classical Hardy-style quantity. The
two-sided content minimizes (mu(A)^{-1} + mu(B)^{-1}) / R(A,B) over
disjoint nonempty pairs. Both are computed by exact enumeration behind
explicit size guards; paths get an O(N) tail-set scan, and a level-set
sweep of the fundamental eigenvector provides a cheap upper bound for the
two-sided quantity on larger graphs.

Both enumerations walk a decision tree over the vertices, one vertex per
level: a vertex either joins a terminal node (A, or B for the two-sided
quantity) or is eliminated by Kron reduction. Sets that share a prefix
share its eliminations. Every elimination is `resistance.kron_step`,
the one step behind every energy of the library: it only adds
nonnegative terms (`w_ik += (w_ij / d_j) w_jk`, with `d_j` a sum of
conductances), so nothing cancels. The walk is depth first over stacks
of partial networks, each level one vectorised step for the whole
stack; a stack is cut in half while its children would exceed
CHUNK_ENTRIES numbers, keeping only a running minimum. The last vertex
is scored in closed form: a network with one vertex left has three
entries, its two conductances to the terminals and theirs to each
other, and each choice's energy is one sum of them, or for an
elimination kron_step's own arithmetic on them, so the leaf networks
are never built. The level-set sweep eliminates through
`resistance.kron_slots`, as every pinned problem does, along one path
per set A: in the potential's order every A is a prefix and every B a
suffix, so one pass reads the energies of all of A's pairs.
The isoperimetric constant needs no energy: one table holds the cut of
every mask, grown one vertex at a time by adding conductances, another
the mass of every mask, and the masks of A are scored against both in
chunks of the same bound.

Ties are decided by the canonical keys (A's, then B's), never by the
order of the arithmetic: every ratio within the relative window TIE_RTOL
of the minimum counts as tied and the smallest key wins, so witnesses are
identical across runs and schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from .graph import (VertexSet, WeightedGraph, as_potential, conductance_to,
                    interior_of, is_canonical_path, path_graph,
                    require_both_signs, require_positive_mass)
from .resistance import kron_slots, kron_step
from .spectral import TIE_RTOL

DIRICHLET_ENUM_LIMIT = 20
NEUMANN_ENUM_LIMIT = 12
ISOPERIMETRIC_ENUM_LIMIT = 20

LEVEL_GROUP_RTOL = 1e-9

# Upper bound on the numbers gathered for one stack of partial networks
# or one chunk of cut masks, which bounds the enumerations' working
# memory (2^15 doubles = 256 KiB).
CHUNK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class ContentResult:
    """An extremal ratio plus the set (or pair) achieving it. `value` is
    always the eigenvalue-comparable form, positive and finite (else
    NotRepresentable); `hardy` is its reciprocal, finite too (else
    NotRepresentable)."""

    value: float
    witness_a: VertexSet
    witness_b: Optional[VertexSet]

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not (0.0 < self.value < math.inf):
            raise errors.NotRepresentable(
                f"content value {self.value!r} is not positive and finite in double precision")
        if not 1.0 / self.value < math.inf:
            raise errors.NotRepresentable(
                f"content value {self.value!r} has no finite reciprocal in double precision")

    @property
    def hardy(self) -> float:
        return 1.0 / self.value


def _mass_by_mask(masses: np.ndarray) -> np.ndarray:
    """mu(mask) for every mask of the vertices, each summed as
    mu(mask without its lowest bit) + mu(lowest bit): the masks whose
    lowest bit is b are filled in one step, from the highest b down."""
    nbits = len(masses)
    out = np.zeros(1 << nbits)
    for b in range(nbits - 1, -1, -1):
        # every (2 << b)-th mask has no bit up to b; 1 << b further on is
        # the same mask with bit b
        np.add(out[::2 << b], masses[b], out=out[1 << b::2 << b])
    return out


def _cut_by_mask(w: np.ndarray) -> np.ndarray:
    """W(M, V \\ M) for every mask M of the vertices but the last, given
    the conductance matrix w.

    The table grows one vertex j at a time over the masks of 0..j-1 and
    only ever adds conductances: cut(M u {j}) = cut(M) + W(j, {0..j-1} \\ M)
    and cut(M) += W(j, M), where the complement of M among 0..j-1 is the
    reversed index. The tables W(i, .) of the vertices still to come grow
    the same way, W(i, M u {j}) = W(i, M) + w_ij. A sum past the doubles
    is inf, a cut that never wins.
    """
    n = len(w)
    cut = np.zeros(1 << (n - 1))
    ahead = np.zeros((n, 1))  # W(i, M) for i >= j, over the masks M of 0..j-1
    with np.errstate(over="ignore"):
        for j in range(n - 1):
            size = 1 << j
            own, ahead = ahead[0], ahead[1:]
            np.add(cut[:size], own[::-1], out=cut[size:2 * size])  # j joins M
            cut[:size] += own  # j joins the other side
            grown = np.empty((n - 1 - j, 2 * size))
            grown[:, :size] = ahead
            np.add(ahead, w[j + 1:, j, None], out=grown[:, size:])
            ahead = grown
        cut += ahead[0]  # the last vertex is never in M
    return cut


class _RunningMin:
    """Minimum over batches of (ratio, key) candidates with distinct
    integer keys, where candidates within TIE_RTOL of the smallest ratio
    tie and the smallest key wins.

    The result does not depend on how the batches are cut: every candidate
    that could still win is kept, as a front sorted by key whose ratios
    fall as the keys rise (a candidate with a smaller key and a ratio as
    small always beats it). The front holds distinct doubles inside the
    window, so it stays short even when millions of sets tie.
    """

    def __init__(self):
        self.floor = math.inf
        self.ratios = np.empty(0)
        self.keys = np.empty(0, dtype=np.int64)

    def offer(self, ratios: np.ndarray, keys: np.ndarray) -> None:
        """Merge one batch; ratios[i] belongs to the candidate keys[i]."""
        if ratios.size == 0:
            return
        self.floor = min(self.floor, float(ratios.min()))
        cutoff = self.floor * (1.0 + TIE_RTOL)
        near = ratios <= cutoff
        if not near.any():  # the floor held and nothing new came near it
            return
        ratios = np.concatenate([self.ratios, ratios[near]])
        keys = np.concatenate([self.keys, keys[near]])
        near = ratios <= cutoff  # a lower floor can drop part of the front
        order = np.lexsort((ratios[near], keys[near]))
        ratios, keys = ratios[near][order], keys[near][order]
        # a candidate stays only if its ratio is below that of every
        # candidate with a smaller key; the smallest key always stays, so
        # ratios that all overflowed to inf still give a winner
        stays = np.concatenate(([True], ratios[1:] < np.minimum.accumulate(ratios[:-1])))
        self.ratios, self.keys = ratios[stays], keys[stays]

    @property
    def winner(self) -> Optional[tuple[float, int]]:
        """(ratio, key) of the winning candidate, or None if none came."""
        if not self.ratios.size:
            return None
        return float(self.ratios[0]), int(self.keys[0])


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
    """Decide the first node of every network in a stack.

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
    is e + (r0 / d * (d / d)) * r1 with d = r0 + r1 if the vertex is
    eliminated, which is kron_step's arithmetic bit for bit (a pivot of 0
    or inf gives NaN), e + r1 if it merges into the first terminal and
    e + r0 if into the second; mu and key change as in _branch.
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
            d = a + b
            np.add(base, (a / d * (d / d)) * b, out=energy[here])
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
    every other stack branches. Both callers decide at least one vertex,
    so the root has k >= 3.

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
            if m > 1 and len(choices) * m * (k - 1) ** 2 > CHUNK_ENTRIES:
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


def hardy_path(path: WeightedGraph) -> ContentResult:
    """Tail-set scan of a path with boundary vertex 0.

    On a path the extremal set is always a tail {v_k, ..., v_N}, so the
    extremal resistance-mass product is max_k (sum_{i<=k} 1/kappa_i) *
    (sum_{i>=k} mu_i), found in one pass over prefix resistances and
    suffix masses. Ratios within TIE_RTOL tie and the shortest tail wins:
    the tails nest, so it is the one of smallest canonical key, the rule of
    dirichlet_content_exact.
    """
    if not is_canonical_path(path):
        raise errors.NotAPath("expected edges exactly (0,1), (1,2), ...")
    n = path.vertex_count
    if all(m == 0.0 for m in path.masses[1:]):
        raise errors.ZeroInteriorMass("every interior mass is zero")

    # entry k - 1 belongs to the tail {v_k, ..., v_N}, keyed by its length;
    # both sums run in order. A tail of zero mass scores 0, even past a
    # resistance that overflows; a product past the doubles gives a value
    # of 0 or inf, which ContentResult rejects.
    _u, _v, kappa = path.edge_arrays
    suffix_mass = np.cumsum(path.masses[:0:-1])[::-1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        h = np.where(suffix_mass > 0.0, np.cumsum(1.0 / kappa) * suffix_mass, 0.0)
        best = _RunningMin()
        best.offer(1.0 / h, np.arange(n - 1, 0, -1))
    value, size = best.winner
    return ContentResult(value=value, witness_a=VertexSet.of(range(n - size, n)), witness_b=None)


def dirichlet_content_exact(graph: WeightedGraph, boundary: VertexSet) -> ContentResult:
    """Minimum of R(S,A)^{-1} / mu(A) over nonempty A disjoint from the
    boundary, by enumerating all subsets of the interior.

    The boundary is collapsed into one grounded node S, and the interior
    is taken in id order: each vertex merges into A or is eliminated (see
    _tree_minimum). At a leaf the reduced A-S conductance is the energy
    1/R(S, A). Zero-mass subsets are skipped (their ratio is +inf).
    Guarded at interior size 20.
    """
    inside = interior_of(graph, boundary)[None]
    interior = np.flatnonzero(inside[0])
    f = interior.size
    if f > DIRICHLET_ENUM_LIMIT:
        raise errors.TooLarge(f, DIRICHLET_ENUM_LIMIT)

    # Keys are masks of positions in the interior. The interior is sorted,
    # so they order sets as canonical keys do, and they fit an int64
    # whatever the vertex ids are. The terminals are A, then S.
    net = np.zeros((f + 2, f + 2))
    net[:f, :f] = graph.conductance_matrix[interior[:, None], interior]
    # W(v, S); an inf one poisons its energies
    net[:f, -1] = net[-1, :f] = conductance_to(graph, ~inside)[0, interior]

    def score(energy, mu, key):
        keep = mu[0] > 0.0
        return energy[keep] / mu[0][keep], key[0][keep]

    winner = _tree_minimum(net, graph.mass_vector[interior], np.int64(1) << np.arange(f),
                           lambda key, left: [(None, 0), (None, None)], score)
    if winner is None:
        raise errors.ZeroInteriorMass("every interior subset has zero mass")
    value, key = winner
    witness = VertexSet.of(v for p, v in enumerate(interior) if int(key) >> p & 1)
    return ContentResult(value=value, witness_a=witness, witness_b=None)


def neumann_content_exact(graph: WeightedGraph) -> ContentResult:
    """Minimum of (mu(A)^{-1} + mu(B)^{-1}) / R(A,B) over disjoint nonempty
    pairs.

    Each unordered pair is scored once, oriented so that A has the smaller
    canonical key, which for disjoint sets means B holds the largest vertex
    of A u B. The vertices are taken from the highest id down, and each is
    eliminated or merges into A or B (see _tree_minimum): the first vertex
    that is not eliminated goes to B, and A opens only once B is nonempty.
    A branch with B empty is dropped once it can no longer fill both sides,
    and a leaf with A empty is skipped. At a leaf the reduced A-B
    conductance is the energy 1/R(A, B). Guarded at n = 12.
    """
    n = graph.vertex_count
    if n > NEUMANN_ENUM_LIMIT:
        raise errors.TooLarge(n, NEUMANN_ENUM_LIMIT)
    if n < 2:
        raise errors.EmptySet("two-sided content needs two vertices")
    require_positive_mass(graph)

    # the vertices from the highest id down, then the terminals A and B
    net = np.zeros((n + 2, n + 2))
    net[:n, :n] = graph.conductance_matrix[::-1, ::-1]

    def options(key, left):
        has_b = key[1] != 0
        # eliminate (while B is empty, only if two vertices would remain to
        # fill both sides), join A once B has a vertex, or join B
        return [(has_b | (left > 1), None), (has_b, 0), (None, 1)]

    def score(energy, mu, key):
        keep = key[0] != 0  # B always has a vertex at a leaf
        mu_a, mu_b, key_a, key_b = (x[keep] for x in (*mu, *key))
        return (1.0 / mu_a + 1.0 / mu_b) * energy[keep], (key_a << n) | key_b

    value, key = _tree_minimum(net, graph.mass_vector[::-1], np.int64(1) << np.arange(n)[::-1],
                               options, score)  # n >= 2 always yields a pair
    key = int(key)
    return ContentResult(value=value, witness_a=VertexSet.from_mask(key >> n),
                         witness_b=VertexSet.from_mask(key & ((1 << n) - 1)))


def neumann_content_sweep(graph: WeightedGraph, x: np.ndarray) -> ContentResult:
    """Upper bound on the two-sided content from level sets of a potential
    x taking both strict signs, normally the fundamental eigenvector.

    For every threshold pair (t-, t+) among x's distinct values with
    t- < 0 <= t+, score the pair A = {x <= t-}, B = {x >= t+} and keep the
    best, with the same tie rule as the exact enumeration. Never below the
    exact value, often equal to it when x is the fundamental mode.

    In x order (a stable sort) every A is a prefix and every B a suffix.
    One network per A, stacked last as in _branch, starts with a terminal
    alpha holding A's rows, summed once in x order; the vertices after A
    are Kron-eliminated in x order (`resistance.kron_slots`, so nothing
    cancels), and before the first vertex of each nonnegative level the
    energy 1/R(A, B) is the sum, in row order, of alpha's reduced
    conductances to the vertices left, which are B. The stack is cut
    under CHUNK_ENTRIES numbers; no network reads another's numbers, so
    no cut changes a bit.
    """
    x = as_potential(graph, x)
    require_both_signs(x)
    n = graph.vertex_count
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    na = int(np.count_nonzero(xs[starts] < 0.0))
    # A_i is order[:a_size[i]], B_j is order[b_start[j]:]; B_0 follows the last A
    a_size, b_start = starts[1:na + 1], starts[na:]
    w = graph.conductance_matrix[order[:, None], order]
    nb = len(b_start)
    energies = np.empty((na, nb))
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < na:
            first = int(a_size[lo])  # in every A of the chunk
            k = n - first + 1  # the vertices after it, then alpha
            hi = min(na, lo + max(1, CHUNK_ENTRIES // (k * k)))
            net = np.zeros((k, k, hi - lo))
            net[:-1, :-1] = w[first:, first:, None]
            # alpha holds A_i's rows, each row of A_i added in x order
            alpha = np.add.accumulate(w[:a_size[hi - 1], first:])[a_size[lo:hi] - 1]
            net[-1, :-1] = net[:-1, -1] = alpha.T
            # network i eliminates the vertices after A_i; its energy at B_j
            # is read once every vertex before B_j is eliminated
            done = 0
            for j, at in enumerate((b_start - first).tolist()):
                kron_slots(net, a_size[lo:hi] - first, done, at)
                energies[lo:hi, j] = np.add.accumulate(net[-1, at:-1])[-1]
                done = at
            lo = hi
    if not np.isfinite(energies).all():
        raise errors.NotRepresentable("a reduced conductance overflowed in double precision")
    mass = graph.mass_vector[order]
    mu_a = np.cumsum(mass)[a_size - 1]
    mu_b = np.cumsum(mass[::-1])[::-1][b_start]
    ratios = (1.0 / mu_a[:, None] + 1.0 / mu_b[None, :]) * energies
    # A's sets grow and B's shrink along x, so their canonical keys rise
    # and fall with the index; a pair's key is its rank in the order of
    # (A's key, B's key)
    ranks = np.arange(na)[:, None] * nb + np.arange(nb - 1, -1, -1)
    best = _RunningMin()
    best.offer(ratios.ravel(), ranks.ravel())
    value, rank = best.winner  # x takes both signs, so a pair came
    i, j = divmod(rank, nb)
    return ContentResult(value=value, witness_a=VertexSet.of(order[:a_size[i]]),
                         witness_b=VertexSet.of(order[b_start[nb - 1 - j]:]))


def isoperimetric_exact(graph: WeightedGraph) -> ContentResult:
    """Minimum cut conductance over the lighter side's mass, over all
    bipartitions (vertex 0 fixed on the A side, so A's mask is odd).

    Every cut is read from one table of sums of conductances (see
    _cut_by_mask), every side's mass from one table of sums of masses.
    The masks run in chunks of CHUNK_ENTRIES into the running minimum with
    the mask as key, so ratios within TIE_RTOL tie and the smallest mask
    wins. Guarded at n = 20.
    """
    n = graph.vertex_count
    if n > ISOPERIMETRIC_ENUM_LIMIT:
        raise errors.TooLarge(n, ISOPERIMETRIC_ENUM_LIMIT)
    if n < 2:
        raise errors.EmptySet("isoperimetric constant needs two vertices")
    require_positive_mass(graph)

    cut = _cut_by_mask(graph.conductance_matrix)
    mass = _mass_by_mask(graph.mass_vector)
    full = (1 << n) - 1
    best = _RunningMin()
    # the last odd mask below full is full - 2: full itself leaves B empty
    for start in range(1, full, 2 * CHUNK_ENTRIES):
        a = np.arange(start, min(start + 2 * CHUNK_ENTRIES, full), 2, dtype=np.int64)
        b = full ^ a
        # the cut is tabled on the side without the last vertex, the smaller
        # mask; each side's mass is read from the table: total - mu(A) would
        # cancel. A ratio past the doubles is inf and never wins.
        with np.errstate(over="ignore"):
            best.offer(cut[np.minimum(a, b)] / np.minimum(mass[a], mass[b]), a)
    value, key = best.winner  # n >= 2 always yields a cut
    return ContentResult(value=value, witness_a=VertexSet.from_mask(int(key)), witness_b=None)


def level_set_quotient(graph: WeightedGraph, boundary: VertexSet,
                       x: np.ndarray) -> tuple[WeightedGraph, list[float]]:
    """Collapse the level sets of a nonnegative boundary-vanishing potential
    into a path.

    Values are grouped into levels with relative tolerance 1e-9 * max|x|;
    an edge spanning several levels is cut into segments with conductance
    inversely proportional to each level gap (exactly the zero-mass edge
    split), and consecutive level classes are joined by the total
    conductance between them. The returned path has the level-0 class as
    vertex 0 and preserves the Dirichlet eigenvalue when x is the ground
    state of (graph, boundary).
    """
    x = as_potential(graph, x)
    n = graph.vertex_count
    on_boundary = np.flatnonzero(~interior_of(graph, boundary)).tolist()

    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        raise errors.ZeroVector("potential is identically zero")
    tol = LEVEL_GROUP_RTOL * scale
    for v in on_boundary:
        if abs(x[v]) > tol:
            raise errors.BoundaryNotZero(f"x[{v}] = {x[v]!r} on the boundary")

    has_pos = bool(np.any(x > tol))
    has_neg = bool(np.any(x < -tol))
    if has_pos and has_neg:
        raise errors.MixedSigns("potential takes both signs beyond tolerance")
    if has_neg:
        x = -x
    y = np.where(np.abs(x) <= tol, 0.0, x)

    # group sorted distinct values into levels; representative = group minimum
    levels: list[float] = []
    group_of: dict[float, int] = {}
    for val in sorted(set(float(v) for v in y)):
        if not levels or val - levels[-1] > tol:
            levels.append(val)
        group_of[val] = len(levels) - 1
    level_of = [group_of[float(v)] for v in y]

    nlev = len(levels)
    mu_t = [0.0] * nlev
    for v in range(n):
        mu_t[level_of[v]] += graph.masses[v]
    kappa_t = [0.0] * nlev
    for (u, v, k) in graph.edges:
        i, j = level_of[u], level_of[v]
        if i == j:
            continue
        if i > j:
            i, j = j, i
        if j == i + 1:
            kappa_t[j] += k
        else:
            span = levels[j] - levels[i]
            for m in range(i + 1, j + 1):
                kappa_t[m] += k * span / (levels[m] - levels[m - 1])
    return path_graph(mu_t, kappa_t[1:]), levels

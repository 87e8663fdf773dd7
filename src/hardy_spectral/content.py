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

Every energy comes from the Kron-reduction kernel of resistance.py,
which eliminates the vertices C outside A u B. The enumerations go by
eliminated sets: all sets C of one size are solved in one batch, every
pair (A, B) that shares C rides along as one more right-hand side, and
the batches run in chunks of bounded memory, keeping only a running
minimum. The isoperimetric constant needs no energy: its cut enumeration
runs over the masks of A in chunks the same way, with the cuts as one
matrix-vector product per chunk and both sides' masses read from one
table of subset masses.

Ties are decided by the canonical keys (A's, then B's), never by the
order of the arithmetic: every ratio within the relative window TIE_RTOL
of the minimum counts as tied and the smallest key wins, so witnesses are
identical across runs and schedules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from .graph import (VertexSet, WeightedGraph, as_potential, interior_of,
                    is_canonical_path, path_graph, require_both_signs,
                    require_positive_mass)
from .resistance import kron_energies, pair_energies
from .spectral import TIE_RTOL

DIRICHLET_ENUM_LIMIT = 20
NEUMANN_ENUM_LIMIT = 12
ISOPERIMETRIC_ENUM_LIMIT = 20

EXACT_ENUMERATION = "exact-enumeration"
PATH_TAILSET = "path-tailset"
SWEEP_HEURISTIC = "sweep-heuristic"

LEVEL_GROUP_RTOL = 1e-9

# Upper bound on the numbers gathered for one chunk of eliminated sets,
# which bounds the enumerations' working memory (2^15 doubles = 256 KiB).
CHUNK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class ContentResult:
    """An extremal ratio plus the set (or pair) achieving it. `value` is
    always the eigenvalue-comparable form; `hardy` is its reciprocal."""

    value: float
    witness_a: VertexSet
    witness_b: Optional[VertexSet]
    method: str

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

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
        high = np.arange(1 << (nbits - 1 - b)) << (b + 1)
        out[high | (1 << b)] = out[high] + masses[b]
    return out


def _combination_chunks(m: int, k: int, per_row: int):
    """All k-subsets of range(m) in lexicographic order, as (rows, k)
    arrays of at most CHUNK_ENTRIES / per_row rows, where per_row is the
    count of numbers a caller gathers for one subset."""
    combos = itertools.combinations(range(m), k)
    rows = max(1, CHUNK_ENTRIES // per_row)
    while chunk := list(itertools.islice(combos, rows)):
        yield np.fromiter(itertools.chain.from_iterable(chunk), dtype=np.intp,
                          count=len(chunk) * k).reshape(len(chunk), k)


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
        # candidate with a smaller key
        smaller_keys = np.minimum.accumulate(np.concatenate(([math.inf], ratios[:-1])))
        stays = ratios < smaller_keys
        self.ratios, self.keys = ratios[stays], keys[stays]

    @property
    def winner(self) -> Optional[tuple[float, int]]:
        """(ratio, key) of the winning candidate, or None if none came."""
        if not self.ratios.size:
            return None
        return float(self.ratios[0]), int(self.keys[0])


def hardy_path(path: WeightedGraph) -> ContentResult:
    """Tail-set scan of a path with boundary vertex 0.

    On a path the extremal set is always a tail {v_k, ..., v_N}, so the
    extremal resistance-mass product is max_k (sum_{i<=k} 1/kappa_i) *
    (sum_{i>=k} mu_i), found in one pass over prefix resistances and
    suffix masses. Smallest k wins ties.
    """
    if not is_canonical_path(path):
        raise errors.NotAPath("expected edges exactly (0,1), (1,2), ...")
    n = path.vertex_count
    if all(m == 0.0 for m in path.masses[1:]):
        raise errors.ZeroInteriorMass("every interior mass is zero")

    suffix = 0.0
    suffix_mass = [0.0] * (n + 1)
    for i in range(n - 1, 0, -1):
        suffix += path.masses[i]
        suffix_mass[i] = suffix

    best_h = -1.0
    best_k = -1
    prefix_r = 0.0
    for k in range(1, n):
        prefix_r += 1.0 / path.edges[k - 1][2]
        h = prefix_r * suffix_mass[k]
        if h > best_h:
            best_h = h
            best_k = k
    witness = VertexSet.of(range(best_k, n))
    return ContentResult(value=1.0 / best_h, witness_a=witness,
                         witness_b=None, method=PATH_TAILSET)


def dirichlet_content_exact(graph: WeightedGraph, boundary: VertexSet) -> ContentResult:
    """Minimum of R(S,A)^{-1} / mu(A) over nonempty A disjoint from the
    boundary, by enumerating all subsets of the interior.

    Each A is scored by eliminating C = interior \\ A (see resistance.py),
    with the boundary as the other side; the sets C of one size are solved
    in one batch, in chunks. Zero-mass subsets are skipped (their ratio is
    +inf). Guarded at interior size 20.
    """
    interior = np.array(interior_of(graph, boundary), dtype=np.intp)
    f = interior.size
    if f > DIRICHLET_ENUM_LIMIT:
        raise errors.TooLarge(f, DIRICHLET_ENUM_LIMIT)

    # Everything below is indexed by position in the interior. The interior
    # is sorted, so masks of positions order sets as canonical keys do, and
    # they fit an int64 whatever the vertex ids are.
    w = graph.conductance_matrix[interior]
    w_ii = w[:, interior]
    ground = w[:, list(boundary.members)].sum(axis=1)  # W(v, S)
    lap = graph.laplacian_matrix[np.ix_(interior, interior)]
    mass = graph.mass_vector[interior]
    bits = np.int64(1) << np.arange(f)
    best = _RunningMin()
    for c in range(f):
        for inner in _combination_chunks(f, c, c * (c + 2) + 3 * f):
            in_a = np.ones((len(inner), f))
            in_a[np.arange(len(inner))[:, None], inner] = 0.0
            mu = in_a @ mass
            keep = mu > 0.0
            inner, in_a = inner[keep], in_a[keep]
            to_a = np.take_along_axis(in_a @ w_ii, inner, axis=1)  # W(C, A)
            energy = kron_energies(lap[inner[:, :, None], inner[:, None, :]],
                                   to_a[:, :, None], ground[inner][:, :, None],
                                   (in_a @ ground)[:, None])
            best.offer(energy[:, 0] / mu[keep], bits.sum() - bits[inner].sum(axis=1))
    winner = best.winner
    if winner is None:
        raise errors.ZeroInteriorMass("every interior subset has zero mass")
    value, key = winner
    witness = VertexSet.of(v for p, v in enumerate(interior) if int(key) >> p & 1)
    return ContentResult(value=value, witness_a=witness, witness_b=None,
                         method=EXACT_ENUMERATION)


def neumann_content_exact(graph: WeightedGraph) -> ContentResult:
    """Minimum of (mu(A)^{-1} + mu(B)^{-1}) / R(A,B) over disjoint nonempty
    pairs.

    Each unordered pair is scored once, oriented so that A has the smaller
    canonical key, which for disjoint sets means B holds the largest vertex
    of A u B. The enumeration runs over the eliminated set C = V \\ (A u B):
    the sets C of one size are solved in one batch, in chunks, and each
    one's solve serves all 2^(n-|C|-1) - 1 splits of V \\ C into A and B.
    Guarded at n = 12.
    """
    n = graph.vertex_count
    if n > NEUMANN_ENUM_LIMIT:
        raise errors.TooLarge(n, NEUMANN_ENUM_LIMIT)
    require_positive_mass(graph)

    w = graph.conductance_matrix
    mass = graph.mass_vector
    best = _RunningMin()
    for c in range(n - 1):
        r = n - c
        # one row per split of the r vertices outside C: A is any nonempty
        # set of positions but the last, which B always holds
        a_bits = np.arange(1, 1 << (r - 1))[:, None] >> np.arange(r) & 1
        in_a = a_bits.astype(float)
        in_b = 1.0 - in_a
        per_row = len(in_a) * (2 * c + r + 4) + r * (r + c) + c * c
        for inner in _combination_chunks(n, c, per_row):
            rows = np.arange(len(inner))[:, None]
            outside = np.ones((len(inner), n), dtype=bool)
            outside[rows, inner] = False
            outer = np.nonzero(outside)[1].reshape(len(inner), r)
            w_cr = w[inner[:, :, None], outer[:, None, :]]
            direct = ((in_a @ w[outer[:, :, None], outer[:, None, :]]) * in_b).sum(axis=2)
            lap = graph.laplacian_matrix[inner[:, :, None], inner[:, None, :]]
            energy = kron_energies(lap, w_cr @ in_a.T, w_cr @ in_b.T, direct)
            mu = mass[outer]
            ratio = (1.0 / (mu @ in_a.T) + 1.0 / (mu @ in_b.T)) * energy
            outer_bits = np.int64(1) << outer  # 2n <= 24 bits per pair key
            a_key = outer_bits @ a_bits.T
            b_key = outer_bits.sum(axis=1)[:, None] - a_key
            best.offer(ratio.ravel(), ((a_key << n) | b_key).ravel())
    value, key = best.winner  # n >= 2 always yields a pair
    key = int(key)
    return ContentResult(value=value, witness_a=VertexSet.from_mask(key >> n),
                         witness_b=VertexSet.from_mask(key & ((1 << n) - 1)),
                         method=EXACT_ENUMERATION)


def neumann_content_sweep(graph: WeightedGraph, x: np.ndarray) -> ContentResult:
    """Upper bound on the two-sided content from level sets of a potential
    x taking both strict signs, normally the fundamental eigenvector.

    For every threshold pair (t-, t+) among x's distinct values with
    t- < 0 <= t+, score the pair A = {x <= t-}, B = {x >= t+} and keep the
    best, with the same tie rule as the exact enumeration. Never below the
    exact value, often equal to it when x is the fundamental mode.
    """
    x = as_potential(graph, x)
    require_both_signs(x)
    values = sorted(set(float(v) for v in x))
    a_sets = [VertexSet.of(np.flatnonzero(x <= t)) for t in values if t < 0.0]
    b_sets = [VertexSet.of(np.flatnonzero(x >= t)) for t in values if t >= 0.0]

    energies = pair_energies([(graph, a, b) for a in a_sets for b in b_sets])
    failed = errors.first_error(energies)
    if failed is not None:
        raise failed
    mu_a = np.array([graph.mass_of(a) for a in a_sets])
    mu_b = np.array([graph.mass_of(b) for b in b_sets])
    ratios = (1.0 / mu_a[:, None] + 1.0 / mu_b[None, :]) * np.reshape(energies, (len(a_sets), -1))
    # A's sets grow and B's shrink along `values`, so their canonical keys
    # rise and fall with the index; a pair's key is its rank in the order
    # of (A's key, B's key)
    nb = len(b_sets)
    ranks = np.arange(len(a_sets))[:, None] * nb + np.arange(nb - 1, -1, -1)
    best = _RunningMin()
    best.offer(ratios.ravel(), ranks.ravel())
    value, rank = best.winner  # x takes both signs, so a pair came
    i, j = divmod(rank, nb)
    return ContentResult(value=value, witness_a=a_sets[i], witness_b=b_sets[nb - 1 - j],
                         method=SWEEP_HEURISTIC)


def isoperimetric_exact(graph: WeightedGraph) -> ContentResult:
    """Minimum cut conductance over the lighter side's mass, over all
    bipartitions (vertex 0 fixed on the A side, so A's mask is odd).

    The masks run in chunks of bounded memory: one row of crossing
    indicators per mask, one matrix-vector product for the cuts, and the
    running minimum with the mask as key, so ratios within TIE_RTOL tie
    and the smallest mask wins. Guarded at n = 20.
    """
    n = graph.vertex_count
    if n > ISOPERIMETRIC_ENUM_LIMIT:
        raise errors.TooLarge(n, ISOPERIMETRIC_ENUM_LIMIT)
    if n < 2:
        raise errors.EmptySet("isoperimetric constant needs two vertices")
    require_positive_mass(graph)

    u, v, k = graph.edge_arrays
    mass = _mass_by_mask(graph.mass_vector)
    full = (1 << n) - 1
    rows = max(1, CHUNK_ENTRIES // len(k))
    best = _RunningMin()
    # t runs below full >> 1: the last t would put every vertex in A
    for start in range(0, full >> 1, rows):
        a = (np.arange(start, min(start + rows, full >> 1), dtype=np.int64) << 1) | 1
        crossing = ((a[:, None] >> u) ^ (a[:, None] >> v)) & 1
        # each side's mass is read from the table: total - mu(A) would cancel
        best.offer((crossing @ k) / np.minimum(mass[a], mass[full ^ a]), a)
    value, key = best.winner  # n >= 2 always yields a cut
    return ContentResult(value=value, witness_a=VertexSet.from_mask(int(key)),
                         witness_b=None, method=EXACT_ENUMERATION)


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
    interior_of(graph, boundary)

    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        raise errors.ZeroVector("potential is identically zero")
    tol = LEVEL_GROUP_RTOL * scale
    for v in boundary:
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

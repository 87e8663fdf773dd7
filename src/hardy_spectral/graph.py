"""Vertex- and edge-weighted graphs and the surgeries the eigenvalue bounds
are built on: edge splitting, set contraction, and pinching at the zero
level set of a potential.

Graphs are immutable; every operation returns a new graph. Vertices are
dense integers 0..n-1 so subsets can be carried as bitmasks. A graph is
valid once built: the constructor checks the rule the eigenvalue bounds
need (see :func:`validate`), so no later code checks it again.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Union

import numpy as np

from . import errors
from .rng import Xorshift64Star

Edge = tuple[int, int, float]

# Origin of a vertex in a surgered graph: either an original vertex id or
# the original edge the vertex was inserted on.
Origin = Union[int, tuple[int, int]]

# quantize_zeros snaps entries at most this share of max|f| to zero
ZERO_RTOL = 1e-12


def _vertex_id(i) -> int:
    """The integer `i` names (an int, or a real of integral value), else BadRange."""
    if type(i) is int:
        return i
    try:
        v = int(i)
        if v == i:
            return v
    except (TypeError, ValueError, OverflowError):
        pass
    raise errors.BadRange(f"vertex id {i!r} is not an integer")


@dataclass(frozen=True)
class VertexSet:
    """Sorted, duplicate-free set of vertex ids with a canonical bitmask key
    (vertex id i <-> bit i) used for deterministic tie-breaking."""

    members: tuple[int, ...]

    @classmethod
    def of(cls, ids: Iterable[int]) -> "VertexSet":
        members = tuple(sorted(set(map(_vertex_id, ids))))
        if members and members[0] < 0:
            raise errors.BadRange(f"vertex id {members[0]} is negative; vertex ids are >= 0")
        return cls(members)

    @classmethod
    def from_mask(cls, mask: int) -> "VertexSet":
        if mask < 0:
            raise errors.BadRange(f"mask {mask} is negative; vertex ids are bits of a mask >= 0")
        members = []
        i = 0
        while mask:
            if mask & 1:
                members.append(i)
            mask >>= 1
            i += 1
        return cls(tuple(members))

    @property
    def canonical_key(self) -> int:
        key = 0
        for i in self.members:
            key |= 1 << i
        return key

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def isdisjoint(self, other: "VertexSet") -> bool:
        return not (self.canonical_key & other.canonical_key)

    def union(self, other: "VertexSet") -> "VertexSet":
        return VertexSet.of(self.members + other.members)

    def complement(self, n: int) -> "VertexSet":
        mine = set(self.members)
        return VertexSet(tuple(v for v in range(n) if v not in mine))


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with vertex masses and edge conductances.

    `masses[v]` is the mass of vertex v (finite and >= 0; zero masses only
    arise from split/pinch insertions). `edges` holds (u, v, conductance)
    with u < v, sorted. Construction normalises the edges and then runs
    :func:`validate`, so every graph that exists is simple and connected,
    with finite positive conductances and finite nonnegative masses.
    """

    masses: tuple[float, ...]
    edges: tuple[Edge, ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        n = len(self.masses)
        if n == 0:
            raise errors.LengthMismatch("graph needs at least one vertex")
        if self.labels is not None and len(self.labels) != n:
            raise errors.LengthMismatch("labels length != vertex count")
        norm = []
        for (u, v, k) in self.edges:
            u, v = _vertex_id(u), _vertex_id(v)
            if not (0 <= u < n and 0 <= v < n):
                raise errors.LengthMismatch(f"edge ({u},{v}) out of range for n={n}")
            if u > v:
                u, v = v, u
            norm.append((u, v, float(k)))
        norm.sort(key=operator.itemgetter(0, 1))
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "masses", tuple(map(float, self.masses)))
        validate(self)

    @property
    def vertex_count(self) -> int:
        return len(self.masses)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_mass(self) -> float:
        return float(sum(self.masses))

    @cached_property
    def mass_vector(self) -> np.ndarray:
        m = np.array(self.masses, dtype=float)
        m.flags.writeable = False
        return m

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, k): the edges' endpoints and conductances as read-only
        arrays, in edge order."""
        u = np.array([e[0] for e in self.edges], dtype=np.intp)
        v = np.array([e[1] for e in self.edges], dtype=np.intp)
        k = np.array([e[2] for e in self.edges], dtype=float)
        for a in (u, v, k):
            a.flags.writeable = False
        return u, v, k

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, in edge order; `validate` builds it."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for (u, v, _k) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def conductance_matrix(self) -> np.ndarray:
        """W, the symmetric matrix of edge conductances (zero diagonal),
        read-only."""
        u, v, k = self.edge_arrays
        adj = np.zeros((self.vertex_count, self.vertex_count))
        adj[u, v] = k
        adj[v, u] = k
        adj.flags.writeable = False
        return adj

    def _vertex(self, v: int) -> int:
        """The int v names, the one check of a vertex id: BadRange unless v
        is integral (`_vertex_id`), then LengthMismatch unless 0 <= v < n."""
        v = _vertex_id(v)
        if not 0 <= v < self.vertex_count:
            raise errors.LengthMismatch(f"vertex id {v} out of range for n={self.vertex_count}")
        return v

    def row(self, ids: Iterable[int]) -> np.ndarray:
        """The vertices `ids` name, each checked by `_vertex`, as a boolean
        row over the vertices."""
        row = np.zeros(self.vertex_count, dtype=bool)
        row[[self._vertex(v) for v in ids]] = True
        return row

    @cached_property
    def degrees(self) -> np.ndarray:
        """W's row sums W(v, V), L's diagonal, read-only (inf past the doubles)."""
        with np.errstate(over="ignore"):
            d = self.conductance_matrix.sum(axis=1)
        d.flags.writeable = False
        return d

    def degree(self, v: int) -> float:
        """W(v, V), `degrees` at v."""
        return float(self.degrees[self._vertex(v)])

    def label(self, v: int) -> str:
        v = self._vertex(v)
        if self.labels is not None:
            return self.labels[v]
        return f"v{v}"

    def mass_of(self, vs: VertexSet) -> float:
        return float(sum(self.masses[self._vertex(v)] for v in vs))


@dataclass(frozen=True)
class PinchedGraph:
    """Result of pinching a graph at the zero level set of a potential f.

    `graph` contains the inserted zero-mass vertices; `f_extended` is the
    minimum-energy extension of f (exactly 0 on every inserted vertex);
    the three vertex sets partition the new graph by the sign of
    f_extended, with `zero_set` = nonpositive_set ∩ nonnegative_set.
    `origin` records, per new-graph vertex, the original vertex id or the
    original edge (u, v) the vertex was inserted on.
    """

    graph: WeightedGraph
    f_extended: tuple[float, ...]
    zero_set: VertexSet
    nonpositive_set: VertexSet
    nonnegative_set: VertexSet
    origin: tuple[Origin, ...] = field(repr=False)

    @property
    def negative_set(self) -> VertexSet:
        return VertexSet.of(v for v in self.nonpositive_set if self.f_extended[v] < 0.0)

    @property
    def positive_set(self) -> VertexSet:
        return VertexSet.of(v for v in self.nonnegative_set if self.f_extended[v] > 0.0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def row_components(graph: WeightedGraph, row: np.ndarray) -> list[list[int]]:
    """Connected components of the subgraph induced on the vertices of the
    boolean row `row` as sorted id lists, ordered by smallest member."""
    # a vertex off the row counts as seen, so the walk never enters it
    seen = (~row).tolist()
    neighbours = graph.neighbours
    out = []
    for root in range(len(seen)):
        if seen[root]:
            continue
        stack, comp = [root], []
        seen[root] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in neighbours[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        out.append(sorted(comp))
    return out


def components(graph: WeightedGraph,
               vertices: Optional[Iterable[int]] = None) -> list[list[int]]:
    """Connected components of the subgraph induced on `vertices` (default:
    every vertex), each id checked by `graph.row`, as `row_components`
    gives them."""
    row = np.ones(graph.vertex_count, dtype=bool) if vertices is None else graph.row(vertices)
    return row_components(graph, row)


def validate(graph: WeightedGraph) -> None:
    """Raise unless the graph is simple, connected, with conductances
    finite and > 0 and masses finite and >= 0, of a finite total. Checks
    the masses, then their total, then the edges in sorted order, then
    connectivity. The constructor runs it."""
    for v, m in enumerate(graph.masses):
        if not (0.0 <= m < math.inf):
            raise errors.NegativeMass(v, m)
    if not graph.total_mass < math.inf:
        raise errors.TotalMassOverflow()
    last = None
    for (u, v, k) in graph.edges:
        if u == v:
            raise errors.SelfLoop(u)
        if (u, v) == last:
            raise errors.DuplicateEdge((u, v))
        last = (u, v)
        if not (0.0 < k < math.inf):
            raise errors.NonPositiveConductance((u, v, k))
    comps = row_components(graph, np.ones(graph.vertex_count, dtype=bool))
    if len(comps) > 1:
        raise errors.Disconnected(comps)


def require_positive_mass(graph: WeightedGraph,
                          vertices: Optional[Iterable[int]] = None) -> None:
    """Raise ZeroMass for the first of `vertices` (default: all) with mass <= 0."""
    for v in range(graph.vertex_count) if vertices is None else vertices:
        if graph.masses[v] <= 0.0:
            raise errors.ZeroMass(v)


def as_potential(graph: WeightedGraph, x) -> np.ndarray:
    """x as a finite float vector with one entry per vertex, else
    DimensionMismatch, or NonFinitePotential at the first bad vertex."""
    x = np.asarray(x, dtype=float)
    if x.shape != (graph.vertex_count,):
        raise errors.DimensionMismatch(f"potential shape {x.shape} != ({graph.vertex_count},)")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise errors.NonFinitePotential(int(bad[0]), float(x[bad[0]]))
    return x


def require_both_signs(x) -> None:
    """Raise SignCondition unless x has entries of both strict signs."""
    x = np.asarray(x)
    if not ((x > 0.0).any() and (x < 0.0).any()):
        raise errors.SignCondition("potential must take both strict signs")


def interior_of(graph: WeightedGraph, boundary: VertexSet) -> np.ndarray:
    """The vertices off the boundary as a boolean row over the vertices.
    Each boundary id is checked by `graph.row`; then BadBoundary unless
    the boundary is nonempty and leaves a vertex off it."""
    inside = ~graph.row(boundary)
    if inside.all() or not inside.any():
        raise errors.BadBoundary(
            f"boundary must be a proper nonempty subset of 0..{graph.vertex_count - 1}")
    return inside


def edge_end_sums(graph: WeightedGraph, terms: np.ndarray) -> np.ndarray:
    """Per row of terms (m, 2E), a term at each edge's u end in edge order
    and then at each v end, each vertex's sum of the terms at its ends,
    (m, n). One np.bincount adds them in that order, so a row does not
    depend on the others; a sum past the doubles is inf, with no warning."""
    n = graph.vertex_count
    u, v, _k = graph.edge_arrays
    ends = (np.arange(len(terms))[:, None] * n + np.concatenate([u, v])).ravel()
    return np.bincount(ends, terms.ravel(), len(terms) * n).reshape(-1, n)


def conductance_to(graph: WeightedGraph, sets: np.ndarray) -> np.ndarray:
    """W(., X) for each boolean row X of sets (m, n): each vertex's
    conductance to X, (m, n), summed by `edge_end_sums`."""
    u, v, k = graph.edge_arrays
    # take, not fancy indexing, keeps the terms C-ordered: no copy to ravel
    return edge_end_sums(graph, np.concatenate([k, k]) * sets.take(np.concatenate([v, u]), 1))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def check_path_lengths(conductances, *per_vertex) -> None:
    """LengthMismatch unless each of `per_vertex` (the masses, say) has one
    entry per vertex of the path on vertices 0..N whose N edges carry
    `conductances`."""
    for values in per_vertex:
        if len(values) != len(conductances) + 1:
            raise errors.LengthMismatch(f"{len(values)} values per vertex need "
                                        f"{len(values) - 1} conductances, got {len(conductances)}")


def path_graph(masses: Iterable[float], conductances: Iterable[float]) -> WeightedGraph:
    """Path on vertices 0..N where edge (i-1, i) carries conductances[i-1]."""
    masses = list(masses)
    conductances = list(conductances)
    check_path_lengths(conductances, masses)
    edges = tuple((i, i + 1, k) for i, k in enumerate(conductances))
    return WeightedGraph(tuple(masses), edges)


def is_canonical_path(graph: WeightedGraph) -> bool:
    """True iff the edges are exactly (0,1), (1,2), ..., (n-2, n-1)."""
    n = graph.vertex_count
    if graph.edge_count != n - 1:
        return False
    return all(graph.edges[i][0] == i and graph.edges[i][1] == i + 1
               for i in range(n - 1))


def _decode_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Standard Pruefer decoding; a uniform sequence gives a uniform
    spanning tree of the complete graph."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    # smallest leaf not in the remaining sequence, processed left to right
    import heapq
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def check_weight_ranges(*ranges: tuple[float, float]) -> None:
    """BadRange unless every (lo, hi) range weights are drawn from is
    finite with 0 < lo <= hi, so every weight drawn is positive and finite."""
    for lo, hi in ranges:
        if not 0.0 < lo <= hi < math.inf:
            raise errors.BadRange(f"range ({lo}, {hi}) must be finite with 0 < lo <= hi")


def random_graph(n: int,
                 edge_probability: float,
                 mass_range: tuple[float, float],
                 conductance_range: tuple[float, float],
                 seed: int) -> WeightedGraph:
    """Seeded random connected graph.

    A uniformly random spanning tree (random Pruefer sequence) guarantees
    connectivity; every non-tree pair is then added independently with
    `edge_probability`. Draw order, fixed for reproducibility: n-2 tree
    sequence draws, one uniform per candidate pair in lexicographic order,
    n mass draws in vertex order, one conductance draw per edge in sorted
    edge order.
    """
    if n < 2:
        raise errors.BadRange("need n >= 2")
    if not (0.0 <= edge_probability <= 1.0):
        raise errors.BadRange(f"edge probability {edge_probability} outside [0, 1]")
    check_weight_ranges(mass_range, conductance_range)

    rng = Xorshift64Star(seed)
    tree = _decode_pruefer([rng.below(n) for _ in range(n - 2)], n)
    tree_set = set(tree)

    extra = []
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) in tree_set:
                continue
            if rng.uniform() < edge_probability:
                extra.append((u, v))

    masses = tuple(rng.uniform_in(*mass_range) for _ in range(n))
    pairs = sorted(tree + extra)
    edges = tuple((u, v, rng.uniform_in(*conductance_range)) for (u, v) in pairs)
    return WeightedGraph(masses, edges)


# ---------------------------------------------------------------------------
# surgeries
# ---------------------------------------------------------------------------

def quantize_zeros(f: Iterable[float]) -> list[float]:
    """Snap entries with |f_v| <= ZERO_RTOL * max|f| to exactly 0.0.

    pinch() tests signs strictly, so numerically-zero eigenvector entries
    must be snapped first or a crossing lands unresolvably close to an
    endpoint.
    """
    f = [float(x) for x in f]
    cutoff = ZERO_RTOL * max((abs(x) for x in f), default=0.0)
    return [0.0 if abs(x) <= cutoff else x for x in f]

def split_edge(graph: WeightedGraph, edge: tuple[int, int],
               fractions: Iterable[float]) -> WeightedGraph:
    """Replace one edge by a chain of segments.

    Fractions must be positive and sum to 1; segment i gets conductance
    kappa / fractions[i], and the inserted chain vertices get mass 0. The
    quadratic form of any potential is preserved under linear extension
    onto the chain. An edge must name two vertices (a third entry, its
    conductance, is ignored), else BadRange.
    """
    ends = tuple(edge[:2])
    if len(ends) != 2:
        raise errors.BadRange(f"edge {edge!r} does not name two vertices")
    u, v = sorted(map(graph._vertex, ends))
    # every edge of a valid graph has conductance > 0, and W is zero elsewhere
    if not graph.conductance_matrix[u, v] > 0.0:
        raise errors.NoSuchEdge(u, v)
    fr = [float(a) for a in fractions]
    # written so that a NaN fails both
    if not fr or not all(a > 0.0 for a in fr):
        raise errors.FractionsInvalid(f"fractions must be positive, got {fr}")
    if not abs(sum(fr) - 1.0) <= 1e-12:
        raise errors.FractionsInvalid(f"fractions sum to {sum(fr)!r}, not 1")

    kappa = float(graph.conductance_matrix[u, v])
    if len(fr) == 1:
        return graph

    n = graph.vertex_count
    chain = [u] + [n + i for i in range(len(fr) - 1)] + [v]
    new_edges = [e for e in graph.edges if (e[0], e[1]) != (u, v)]
    for i, a in enumerate(fr):
        new_edges.append((chain[i], chain[i + 1], kappa / a))
    masses = graph.masses + (0.0,) * (len(fr) - 1)
    labels = None
    if graph.labels is not None:
        labels = graph.labels + tuple(f"{graph.labels[u]}*{graph.labels[v]}.{i}"
                                      for i in range(len(fr) - 1))
    return WeightedGraph(masses, tuple(new_edges), labels)


def contract(graph: WeightedGraph, vs: VertexSet) -> tuple[WeightedGraph, int]:
    """Merge a vertex set into a single vertex carrying the set's total mass.

    Parallel edges created by the merge are combined by summing their
    conductances (electrically equivalent); edges inside the set vanish.
    Surviving vertices keep their relative order; the merged vertex is
    appended last. Returns the new graph and the merged vertex's id.
    """
    if len(vs) == 0:
        raise errors.EmptySet("cannot contract the empty set")
    members = np.flatnonzero(graph.row(vs)).tolist()
    inside = set(members)

    survivors = [v for v in range(graph.vertex_count) if v not in inside]
    remap = {v: i for i, v in enumerate(survivors)}
    merged = len(survivors)

    acc: dict[tuple[int, int], float] = {}
    for (u, v, k) in graph.edges:
        a = merged if u in inside else remap[u]
        b = merged if v in inside else remap[v]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        acc[key] = acc.get(key, 0.0) + k

    masses = tuple(graph.masses[v] for v in survivors) + (graph.mass_of(vs),)
    labels = None
    if graph.labels is not None:
        labels = tuple(graph.labels[v] for v in survivors) + (
            "+".join(graph.labels[v] for v in members),)
    edges = tuple((a, b, k) for (a, b), k in sorted(acc.items()))
    return WeightedGraph(masses, edges, labels), merged


def zero_crossings(graph: WeightedGraph, potentials) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, list[Optional[errors.HardySpectralError]]]:
    """The crossing rule of `pinch`, for a stack of potentials. An edge
    crosses where its ends have strictly opposite signs, at alpha =
    -f_lo / (f_hi - f_lo) from its negative end lo, which leaves segments
    of conductance kappa/alpha at lo and kappa/(1-alpha) at hi.

    The stack (p, n), of lists or arrays, is checked once: unless every
    row is n finite values, `as_potential` raises for the first bad row.
    Returns the stack as f; the conductances (p, E) of the segment at each
    edge's u end and at its v end, zero where the edge does not cross; and
    per potential None or the typed error `pinch` raises, in its order:
    the masses (checked once for all), both strict signs, then the first
    crossing in edge order that doubles cannot resolve (alpha not strictly
    inside (0, 1), or a segment conductance that overflows).
    """
    n = graph.vertex_count
    try:
        f = np.array(potentials, dtype=float)
    except ValueError:  # rows of unequal lengths
        f = np.empty(0)
    if f.shape[1:] != (n,) or not np.isfinite(f).all():
        for x in potentials:
            as_potential(graph, x)
    f = f.reshape(-1, n)
    try:
        require_positive_mass(graph)
    except errors.ZeroMass as exc:
        failed = [exc] * len(f)
    else:
        both_signs = (f < 0.0).any(axis=1) & (f > 0.0).any(axis=1)
        failed = [None if ok else errors.SignCondition("potential must take both strict signs")
                  for ok in both_signs.tolist()]

    u, v, k = graph.edge_arrays
    fu, fv = f[:, u], f[:, v]
    f_lo, f_hi = np.minimum(fu, fv), np.maximum(fu, fv)
    cross = (f_lo < 0.0) & (f_hi > 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha = -f_lo / (f_hi - f_lo)
        at_lo, at_hi = k / alpha, k / (1.0 - alpha)
    # at a crossing 0 <= alpha <= 1, so an end at 0 or 1 shows as an
    # infinite segment, as does an overflow
    resolved = np.maximum(at_lo, at_hi) < math.inf
    for i, e in zip(*np.nonzero(cross & ~resolved)):
        if failed[i] is None:
            lo, hi = (u[e], v[e]) if fu[i, e] < 0.0 else (v[e], u[e])
            failed[i] = errors.SignCondition(
                f"crossing on edge ({lo},{hi}) is unresolvable in floating "
                f"point; quantize near-zero values of f first")
    u_is_lo = fu < 0.0
    at_u = np.where(cross, np.where(u_is_lo, at_lo, at_hi), 0.0)
    at_v = np.where(cross, np.where(u_is_lo, at_hi, at_lo), 0.0)
    return f, at_u, at_v, failed


def pinched_sides(graph: WeightedGraph, potentials) -> tuple[
        np.ndarray, np.ndarray, list[Optional[errors.HardySpectralError]]]:
    """Both sides of the pinch at each potential's zero set, posed on
    `graph` itself (a side, {f < 0} or {f > 0}, holds only original
    vertices), for the stack `zero_crossings` takes; raises what it
    raises. Returns, for the d potentials that pinch, in order, the sides
    as boolean rows (d, 2, n) and the ground rows (d, n), each vertex's
    conductance to its side's boundary, summed by `edge_end_sums` from
    nonnegative terms (kappa to a zero-valued neighbour, the segment at a
    crossing edge's end); and per potential None or its typed error."""
    f, at_u, at_v, failed = zero_crossings(graph, potentials)
    ok = np.array([exc is None for exc in failed], dtype=bool)
    f, at_u, at_v = f[ok], at_u[ok], at_v[ok]
    u, v, k = graph.edge_arrays
    zero = f == 0.0
    ground = edge_end_sums(graph, np.concatenate([at_u + k * zero[:, v],
                                                  at_v + k * zero[:, u]], axis=1))
    return np.stack([f < 0.0, f > 0.0], axis=1), ground, failed


def pinch(graph: WeightedGraph, f: Iterable[float]) -> PinchedGraph:
    """Insert a zero-mass vertex at the zero crossing of every edge whose
    endpoints have strictly opposite signs of f.

    The crossing point and the two segment conductances, kappa/alpha at
    the negative end and kappa/(1-alpha) at the positive end, follow
    `zero_crossings`; the minimum-energy extension assigns the new vertex
    the value 0 and total energy is preserved. Signs are tested strictly:
    a vertex with f_v == 0.0 lies on the zero set and its edges are never
    split. No suite builds this graph: the pinch and ressum suites pose
    its sides on the parent's arrays by `pinched_sides`, tested against it.
    """
    [f], [at_u], [at_v], [failed] = zero_crossings(graph, [f])
    if failed is not None:
        raise failed

    n = graph.vertex_count
    u, v, _k = graph.edge_arrays
    cross = np.flatnonzero(at_u)
    kept = np.ones(len(u), dtype=bool)
    kept[cross] = False
    inserted = range(n, n + cross.size)  # in edge order
    new_edges = list(itertools.compress(graph.edges, kept.tolist()))
    new_edges += zip(u[cross].tolist(), inserted, at_u[cross].tolist())
    new_edges += zip(v[cross].tolist(), inserted, at_v[cross].tolist())
    origin: list[Origin] = [*range(n), *zip(u[cross].tolist(), v[cross].tolist())]
    masses = graph.masses + (0.0,) * cross.size
    values = np.concatenate([f, np.zeros(cross.size)])

    labels = None
    if graph.labels is not None:
        labels = graph.labels + tuple(
            f"{graph.labels[o[0]]}x{graph.labels[o[1]]}" for o in origin[n:])
    g2 = WeightedGraph(masses, tuple(new_edges), labels)

    def where(mask: np.ndarray) -> VertexSet:
        return VertexSet(tuple(np.flatnonzero(mask).tolist()))

    return PinchedGraph(graph=g2, f_extended=tuple(values.tolist()),
                        zero_set=where(values == 0.0), nonpositive_set=where(values <= 0.0),
                        nonnegative_set=where(values >= 0.0), origin=tuple(origin))

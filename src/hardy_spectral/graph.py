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


@dataclass(frozen=True)
class VertexSet:
    """Sorted, duplicate-free set of vertex ids with a canonical bitmask key
    (vertex id i <-> bit i) used for deterministic tie-breaking."""

    members: tuple[int, ...]

    @classmethod
    def of(cls, ids: Iterable[int]) -> "VertexSet":
        return cls(tuple(sorted(set(int(i) for i in ids))))

    @classmethod
    def from_mask(cls, mask: int) -> "VertexSet":
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

    def __contains__(self, v: int) -> bool:
        return v in set(self.members)

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
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise errors.LengthMismatch(f"edge ({u},{v}) out of range for n={n}")
            if u > v:
                u, v = v, u
            norm.append((u, v, float(k)))
        norm.sort(key=lambda e: (e[0], e[1]))
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
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
    def conductance_matrix(self) -> np.ndarray:
        """W, the symmetric matrix of edge conductances (zero diagonal),
        read-only."""
        u, v, k = self.edge_arrays
        adj = np.zeros((self.vertex_count, self.vertex_count))
        adj[u, v] = k
        adj[v, u] = k
        adj.flags.writeable = False
        return adj

    @cached_property
    def laplacian_matrix(self) -> np.ndarray:
        """L = D - W, read-only. Degrees are row sums of W, so L's rows sum
        to zero exactly."""
        adj = self.conductance_matrix
        lap = np.diag(adj.sum(axis=1)) - adj
        lap.flags.writeable = False
        return lap

    def degree(self, v: int) -> float:
        return float(sum(k for (a, b, k) in self.edges if a == v or b == v))

    def label(self, v: int) -> str:
        if self.labels is not None:
            return self.labels[v]
        return f"v{v}"

    def mass_of(self, vs: VertexSet) -> float:
        return float(sum(self.masses[v] for v in vs))


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

def components(graph: WeightedGraph,
               vertices: Optional[Iterable[int]] = None) -> list[list[int]]:
    """Connected components of the subgraph induced on `vertices` (default:
    every vertex) as sorted id lists, ordered by smallest member."""
    keep = range(graph.vertex_count) if vertices is None else sorted(set(vertices))
    adj: dict[int, list[int]] = {v: [] for v in keep}
    for (u, v, _k) in graph.edges:
        if u != v and u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    seen: set[int] = set()
    out = []
    for root in keep:
        if root in seen:
            continue
        stack, comp = [root], []
        seen.add(root)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        out.append(sorted(comp))
    return out


def validate(graph: WeightedGraph) -> None:
    """Raise unless the graph is simple, connected, with conductances
    finite and > 0 and masses finite and >= 0. Checks the masses, then the
    edges in sorted order, then connectivity. The constructor runs it."""
    for v, m in enumerate(graph.masses):
        if not (0.0 <= m < math.inf):
            raise errors.NegativeMass(v, m)
    for i, (u, v, k) in enumerate(graph.edges):
        if u == v:
            raise errors.SelfLoop(u)
        if i and graph.edges[i - 1][:2] == (u, v):
            raise errors.DuplicateEdge((u, v))
        if not (0.0 < k < math.inf):
            raise errors.NonPositiveConductance((u, v, k))
    comps = components(graph)
    if len(comps) > 1:
        raise errors.Disconnected(comps)


def require_positive_mass(graph: WeightedGraph,
                          vertices: Optional[Iterable[int]] = None) -> None:
    """Raise ZeroMass for the first of `vertices` (default: all) with mass <= 0."""
    for v in range(graph.vertex_count) if vertices is None else vertices:
        if graph.masses[v] <= 0.0:
            raise errors.ZeroMass(v)


def as_potential(graph: WeightedGraph, x) -> np.ndarray:
    """x as a float vector with one entry per vertex, else DimensionMismatch."""
    x = np.asarray(x, dtype=float)
    if x.shape != (graph.vertex_count,):
        raise errors.DimensionMismatch(f"potential shape {x.shape} != ({graph.vertex_count},)")
    return x


def require_both_signs(x) -> None:
    """Raise SignCondition unless x has entries of both strict signs."""
    x = np.asarray(x)
    if not ((x > 0.0).any() and (x < 0.0).any()):
        raise errors.SignCondition("potential must take both strict signs")


def interior_of(graph: WeightedGraph, boundary: VertexSet) -> list[int]:
    """The vertices off the boundary, in id order; raise BadBoundary unless
    the boundary is a proper nonempty subset of the vertex ids."""
    n = graph.vertex_count
    bset = set(boundary.members)
    if not bset or len(bset) >= n or any(not (0 <= v < n) for v in bset):
        raise errors.BadBoundary(f"boundary must be a proper nonempty subset of 0..{n-1}")
    return [v for v in range(n) if v not in bset]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def path_graph(masses: Iterable[float], conductances: Iterable[float]) -> WeightedGraph:
    """Path on vertices 0..N where edge (i-1, i) carries conductances[i-1]."""
    masses = list(masses)
    conductances = list(conductances)
    if len(conductances) != len(masses) - 1:
        raise errors.LengthMismatch(
            f"{len(masses)} masses need {len(masses) - 1} conductances, "
            f"got {len(conductances)}")
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
    for lo, hi in (mass_range, conductance_range):
        if not (0.0 < lo <= hi):
            raise errors.BadRange(f"range ({lo}, {hi}) must be positive with lo <= hi")

    rng = Xorshift64Star(seed)
    if n == 2:
        tree = [(0, 1)]
    else:
        seq = [rng.below(n) for _ in range(n - 2)]
        tree = _decode_pruefer(seq, n)
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

def quantize_zeros(f: Iterable[float], rtol: float = 1e-12) -> list[float]:
    """Snap entries with |f_v| <= rtol * max|f| to exactly 0.0.

    pinch() tests signs strictly, so numerically-zero eigenvector entries
    must be snapped first or a crossing lands unresolvably close to an
    endpoint.
    """
    f = [float(x) for x in f]
    cutoff = rtol * max((abs(x) for x in f), default=0.0)
    return [0.0 if abs(x) <= cutoff else x for x in f]

def split_edge(graph: WeightedGraph, edge: tuple[int, int],
               fractions: Iterable[float]) -> WeightedGraph:
    """Replace one edge by a chain of segments.

    Fractions must be positive and sum to 1; segment i gets conductance
    kappa / fractions[i], and the inserted chain vertices get mass 0. The
    quadratic form of any potential is preserved under linear extension
    onto the chain.
    """
    u, v = (edge[0], edge[1]) if edge[0] < edge[1] else (edge[1], edge[0])
    # every edge of a valid graph has conductance > 0, and W is zero elsewhere
    if not (0 <= u < v < graph.vertex_count and graph.conductance_matrix[u, v] > 0.0):
        raise errors.NoSuchEdge(u, v)
    fr = [float(a) for a in fractions]
    if not fr or any(a <= 0.0 for a in fr):
        raise errors.FractionsInvalid(f"fractions must be positive, got {fr}")
    if abs(sum(fr) - 1.0) > 1e-12:
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
    inside = set(vs.members)
    if any(not (0 <= v < graph.vertex_count) for v in inside):
        raise errors.LengthMismatch("contraction set contains out-of-range ids")

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
            "+".join(graph.labels[v] for v in vs.members),)
    edges = tuple((a, b, k) for (a, b), k in sorted(acc.items()))
    return WeightedGraph(masses, edges, labels), merged


def pinch(graph: WeightedGraph, f: Iterable[float]) -> PinchedGraph:
    """Insert a zero-mass vertex at the zero crossing of every edge whose
    endpoints have strictly opposite signs of f.

    For a crossing edge (u, v) with f_u < 0 < f_v the crossing point sits
    at alpha = -f_u / (f_v - f_u) along the edge, so the two segments get
    conductances kappa/alpha and kappa/(1-alpha); the minimum-energy
    extension assigns the new vertex the value 0 and total energy is
    preserved. Signs are tested strictly: a vertex with f_v == 0.0 lies on
    the zero set and its edges are never split.
    """
    f = as_potential(graph, f)
    require_positive_mass(graph)
    require_both_signs(f)

    n = graph.vertex_count
    u, v, k = graph.edge_arrays
    fu, fv = f[u], f[v]
    f_lo, f_hi = np.minimum(fu, fv), np.maximum(fu, fv)
    cross = np.flatnonzero((f_lo < 0.0) & (f_hi > 0.0))
    alpha = -f_lo[cross] / (f_hi[cross] - f_lo[cross])
    # each crossing edge runs from its negative end `lo` to its positive end `hi`
    flip = fu[cross] > fv[cross]
    lo = np.where(flip, v[cross], u[cross])
    hi = np.where(flip, u[cross], v[cross])
    unresolved = ~((0.0 < alpha) & (alpha < 1.0))
    if unresolved.any():
        e = np.argmax(unresolved)
        raise errors.SignCondition(
            f"crossing on edge ({lo[e]},{hi[e]}) is unresolvable in floating "
            f"point; quantize near-zero values of f first")
    kept = np.ones(len(k), dtype=bool)
    kept[cross] = False
    inserted = range(n, n + cross.size)  # in edge order
    new_edges = list(itertools.compress(graph.edges, kept.tolist()))
    new_edges += zip(lo.tolist(), inserted, (k[cross] / alpha).tolist())
    new_edges += zip(inserted, hi.tolist(), (k[cross] / (1.0 - alpha)).tolist())
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

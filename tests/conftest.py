"""Shared builders for the test corpus.

All randomness flows through the package's own seeded generator so every
test run sees the same instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from hardy_spectral import VertexSet, WeightedGraph, path_graph, random_graph
from hardy_spectral.rng import Xorshift64Star

WEIGHT_RANGE = (0.1, 10.0)


def corpus_graph(i: int, n_lo: int = 3, n_hi: int = 8) -> WeightedGraph:
    n = n_lo + i % (n_hi - n_lo + 1)
    return random_graph(n, 0.4, WEIGHT_RANGE, WEIGHT_RANGE, seed=10_000 + i)


def corpus_boundary(graph: WeightedGraph, i: int) -> VertexSet:
    """Random proper nonempty boundary set, deterministic per index."""
    rng = Xorshift64Star(50_000 + i)
    n = graph.vertex_count
    k = 1 + rng.below(n - 1)
    return VertexSet.of(rng.sample_without_replacement(list(range(n)), k))


def corpus_path(i: int, max_interior: int = 10) -> WeightedGraph:
    rng = Xorshift64Star(90_000 + i)
    n_edges = 1 + rng.below(max_interior)
    masses = [rng.uniform_in(*WEIGHT_RANGE) for _ in range(n_edges + 1)]
    kappas = [rng.uniform_in(*WEIGHT_RANGE) for _ in range(n_edges)]
    return path_graph(masses, kappas)


def stiff_graph(seed: int, ratio: float, mass_ratio: float = 1.0,
                n: int = 7, extra: int = 5) -> WeightedGraph:
    """Random recursive tree on 0..n-1 plus `extra` distinct non-tree
    edges; each conductance is 1 or `ratio` and each mass 1 or
    `mass_ratio`, by coin flips in edge order, then vertex order."""
    rng = Xorshift64Star(seed)
    tree = {(rng.below(v), v) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    pairs = sorted(tree | set(rng.sample_without_replacement(others, extra)))
    edges = tuple((u, v, ratio if rng.below(2) else 1.0) for (u, v) in pairs)
    masses = tuple(mass_ratio if rng.below(2) else 1.0 for _ in range(n))
    return WeightedGraph(masses, edges)


def random_vector(rng: Xorshift64Star, n: int, lo: float = -2.0, hi: float = 2.0) -> np.ndarray:
    return np.array([rng.uniform_in(lo, hi) for _ in range(n)])


def edge_energy(graph: WeightedGraph, x) -> float:
    """Independent quadratic-form oracle: conductance-weighted sum of
    squared differences over the edges."""
    x = np.asarray(x, dtype=float)
    return float(sum(k * (x[u] - x[v]) ** 2 for (u, v, k) in graph.edges))


@pytest.fixture
def p3() -> WeightedGraph:
    return path_graph([1.0, 1.0, 1.0], [1.0, 1.0])


@pytest.fixture
def triangle() -> WeightedGraph:
    return WeightedGraph((1.0, 1.0, 1.0), ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


@pytest.fixture
def two_node() -> WeightedGraph:
    """Masses 1 and 2 joined by conductance 3; fundamental mode 4.5."""
    return WeightedGraph((1.0, 2.0), ((0, 1, 3.0),))

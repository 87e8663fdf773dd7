"""Shared builders for the test corpus.

All randomness flows through the package's own seeded generator so every
test run sees the same instances.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hardy_spectral import VertexSet, WeightedGraph, path_graph, random_graph
from hardy_spectral.rng import Xorshift64Star, irwin_hall

WEIGHT_RANGE = (0.1, 10.0)


def sample_without_replacement(rng: Xorshift64Star, population, k: int) -> list:
    """k distinct elements of `population`, each picked by `rng.below`
    from the pool left by the picks before it (pool order kept)."""
    pool = list(population)
    return [pool.pop(rng.below(len(pool))) for _ in range(k)]


def corpus_graph(i: int, n_lo: int = 3, n_hi: int = 8) -> WeightedGraph:
    n = n_lo + i % (n_hi - n_lo + 1)
    return random_graph(n, 0.4, WEIGHT_RANGE, WEIGHT_RANGE, seed=10_000 + i)


def corpus_boundary(graph: WeightedGraph, i: int) -> VertexSet:
    """Random proper nonempty boundary set, deterministic per index."""
    rng = Xorshift64Star(50_000 + i)
    n = graph.vertex_count
    k = 1 + rng.below(n - 1)
    return VertexSet.of(sample_without_replacement(rng, range(n), k))


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
    pairs = sorted(tree | set(sample_without_replacement(rng, others, extra)))
    edges = tuple((u, v, ratio if rng.below(2) else 1.0) for (u, v) in pairs)
    masses = tuple(mass_ratio if rng.below(2) else 1.0 for _ in range(n))
    return WeightedGraph(masses, edges)


# (mass, conductance) powers of two past which the mode's polish once lost
# bits or failed: mass * y or mass * y * y went subnormal or overflowed
EXTREME_SCALES = [(-530, 0), (-600, 0), (-700, 0), (-1000, 0), (530, 0), (1015, 0), (0, 530),
                  (0, 700)]


def scaled_by_powers_of_two(g: WeightedGraph, mass_exp: int, kappa_exp: int) -> WeightedGraph:
    """g with every mass times 2^mass_exp and every conductance times
    2^kappa_exp, both exact."""
    return WeightedGraph(tuple(math.ldexp(m, mass_exp) for m in g.masses),
                         tuple((u, v, math.ldexp(k, kappa_exp)) for (u, v, k) in g.edges))


def mixed_sign_fs(rng: Xorshift64Star, n: int, count: int) -> np.ndarray:
    """`count` potentials on n vertices, one per row, as the suites draw
    them: the next 12n words per row, one Irwin-Hall value per 12, each
    row recentred to mean zero (summed left to right). Each row must take
    both strict signs."""
    f = irwin_hall(rng.words(12 * n * count).reshape(count, n, 12))
    f = f - np.add.accumulate(f, axis=1)[:, -1:] / n
    assert ((f > 0.0).any(axis=1) & (f < 0.0).any(axis=1)).all()
    return f


def random_vector(rng: Xorshift64Star, n: int, lo: float = -2.0, hi: float = 2.0) -> np.ndarray:
    return np.array([rng.uniform_in(lo, hi) for _ in range(n)])


def oracle_laplacian(g: WeightedGraph) -> np.ndarray:
    """L assembled from the edge list, sharing no code with the library."""
    lap = np.zeros((g.vertex_count, g.vertex_count))
    for (u, v, k) in g.edges:
        lap[u, u] += k
        lap[v, v] += k
        lap[u, v] -= k
        lap[v, u] -= k
    return lap


def resistance_via_pseudoinverse(g: WeightedGraph, a: int, b: int) -> float:
    """Oracle route for two distinct vertices: chi^T L^+ chi with
    chi = e_a - e_b and the pseudoinverse from numpy."""
    chi = np.zeros(g.vertex_count)
    chi[a], chi[b] = 1.0, -1.0
    return float(chi @ np.linalg.pinv(oracle_laplacian(g), hermitian=True) @ chi)


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

"""Shared builders for the test corpus.

All randomness flows through the package's own seeded generator so every
test run sees the same instances.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np
import pytest

import hardy_spectral
from hardy_spectral import (VertexSet, WeightedGraph, errors, path_graph, random_graph,
                            run_suite)
from hardy_spectral.graph import pinched_sides
from hardy_spectral.rng import Xorshift64Star, irwin_hall
from hardy_spectral.spectral import ground_modes

WEIGHT_RANGE = (0.1, 10.0)


@pytest.fixture(autouse=True, scope="session")
def subprocesses_import_this_package():
    """A test's subprocess imports the package these tests import:
    pyproject's `pythonpath` puts src/ on this process's path alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(hardy_spectral.__file__)),
                  prepend=os.pathsep)
        yield


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

# (mass, conductance) powers of two that scale a quotient of the two by
# at most 2^600 either way
WEIGHT_SCALES = [(600, 600), (-600, -600), (600, 0), (-600, 0), (0, 600), (0, -600)]


def scaled_by_powers_of_two(g: WeightedGraph, mass_exp: int, kappa_exp: int) -> WeightedGraph:
    """g with every mass times 2^mass_exp and every conductance times
    2^kappa_exp, both exact."""
    return WeightedGraph(tuple(math.ldexp(m, mass_exp) for m in g.masses),
                         tuple((u, v, math.ldexp(k, kappa_exp)) for (u, v, k) in g.edges))


def extreme_weight_fuzz():
    """The extreme-weight fuzz: 600 draws of a path on 3-6 vertices plus
    random chords, each conductance and mass picked from values at and
    past the ends of the doubles. Yields (t, graph) per draw t, with graph
    None where construction refuses it."""
    rng = np.random.default_rng(3)
    kappas = [1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300, 1.7e308]
    masses = [1e-310, 1e-300, 1.0, 1e300, 1.7e308]
    for t in range(600):
        n = int(rng.integers(3, 7))
        pairs = [(i, i + 1) for i in range(n - 1)]
        pairs += [(u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < 0.3]
        edges = tuple((u, v, float(rng.choice(kappas))) for u, v in pairs)
        mass = tuple(float(rng.choice(masses)) for _ in range(n))
        try:
            graph = WeightedGraph(mass, edges)
        except errors.GraphValidationError:
            graph = None
        yield t, graph


@functools.cache
def extreme_weight_fuzz_reports() -> tuple:
    """(t, report) for each draw t of `extreme_weight_fuzz` whose graph
    construction accepts: `run_suite` with boundary {0}, seed t and 3
    samples. Run once per test session, on first use, for every test that
    reads it; a run that raises (a RuntimeWarning too) is not cached, so
    each reader sees it."""
    return tuple((t, run_suite(g, boundary=VertexSet.of([0]), seed=t, samples=3))
                 for t, g in extreme_weight_fuzz() if g is not None)


# the suites whose quantities do not depend on the stream's draws, so on
# vertex order only through rounding
LAW_SUITES = ["dirichlet", "neumann", "cheeger", "path-reduction"]
LAW_RTOL = 64 * np.finfo(float).eps
# the quantities Rayleigh monotonicity orders
MONOTONE = ("lambda_dirichlet", "psi_dirichlet", "lambda2", "psi2", "phi")


def law_report(g: WeightedGraph, boundary: VertexSet):
    return run_suite(g, boundary=boundary, suites=LAW_SUITES, samples=0)


def monotonicity_violations(graphs, rng: np.random.Generator) -> list:
    """Rayleigh monotonicity on each graph, with boundary {0}: draw from
    `rng` an edge index, then a vertex index; raising that conductance
    1.5x must not lower, and raising that mass 1.5x must not raise, any
    quantity of MONOTONE by more than LAW_RTOL relative. A quantity that
    either run could not solve is not compared. Returns (graph index,
    "conductance" or "mass", quantity, relative change) per violation."""
    boundary = VertexSet.of([0])
    out = []
    for i, g in enumerate(graphs):
        e, v = int(rng.integers(g.edge_count)), int(rng.integers(g.vertex_count))
        stiffer = WeightedGraph(g.masses, tuple((a, b, k * 1.5 if j == e else k)
                                                for j, (a, b, k) in enumerate(g.edges)))
        heavier = WeightedGraph(tuple(m * 1.5 if u == v else m for u, m in enumerate(g.masses)),
                                g.edges)
        base = law_report(g, boundary).quantities
        for raised, kind, sign in ((stiffer, "conductance", 1.0), (heavier, "mass", -1.0)):
            moved = law_report(raised, boundary).quantities
            for name in MONOTONE:
                if name in base and name in moved:
                    change = (moved[name] - base[name]) / base[name]
                    if sign * change < -LAW_RTOL:
                        out.append((i, kind, name, change))
    return out


def mixed_sign_fs(rng: Xorshift64Star, n: int, count: int) -> np.ndarray:
    """`count` potentials on n vertices, one per row, as the suites draw
    them: the next 12n words per row, one Irwin-Hall value per 12, each
    row recentred to mean zero (summed left to right). Each row must take
    both strict signs."""
    f = irwin_hall(rng.words(12 * n * count).reshape(count, n, 12))
    f = f - np.add.accumulate(f, axis=1)[:, -1:] / n
    assert ((f > 0.0).any(axis=1) & (f < 0.0).any(axis=1)).all()
    return f


def worst_sides(graph: WeightedGraph, fs) -> list:
    """The pinch suite's result for each potential of `fs` (a list of
    rows), posed as a run poses its own: one `pinched_sides` call, then
    both sides of every potential that pinched, negative first, in one
    `ground_modes` call. A potential's result is the typed error of its
    pinch, else of its negative side, else of its positive side, else the
    pinching lemma's max(lambda(G-), lambda(G+)) of its two sides."""
    sides, ground, failed = pinched_sides(graph, fs)
    modes = iter(ground_modes(graph, sides.reshape(-1, graph.vertex_count),
                              np.repeat(ground, 2, axis=0)))
    out = []
    for exc in failed:
        if exc is not None:
            out.append(exc)
            continue
        negative, positive = next(modes), next(modes)
        if isinstance(negative, errors.HardySpectralError):
            out.append(negative)
        elif isinstance(positive, errors.HardySpectralError):
            out.append(positive)
        else:
            out.append(max(negative[1], positive[1]))
    return out


def path_eigenvalue_mp(masses, conductances, guess: float, digits: int = 50):
    """The smallest eigenvalue of the path on 0..N with vertex 0 pinned
    (masses[i] at vertex i, conductances[i - 1] on edge (i - 1, i)), to
    `digits` digits by mpmath: Newton's method on det(L_PP - lam M), by the
    tridiagonal three-term recurrence, from `guess`; then a Sturm count
    (the signs of the LDL^T pivots of L_PP - mu M) asserts that it is the
    smallest root. Skips the test without mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        m = [mpmath.mpf(v) for v in masses[1:]]
        c = [mpmath.mpf(v) for v in conductances] + [mpmath.mpf(0)]
        diagonal = [c[i] + c[i + 1] for i in range(len(m))]

        def below(mu):  # eigenvalues below mu
            pivots, d = [], None
            for i in range(len(m)):
                d = diagonal[i] - mu * m[i] - (c[i] ** 2 / d if i else 0)
                pivots.append(d)
            return sum(d < 0 for d in pivots)

        lam = mpmath.mpf(guess)
        for _ in range(60):
            # (p_{i-2}, p_{i-1}) and their derivatives in lam
            p, q, dp, dq = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
            for i in range(len(m)):
                a = diagonal[i] - lam * m[i]
                p, q, dp, dq = q, a * q - c[i] ** 2 * p, dq, a * dq - m[i] * q - c[i] ** 2 * dp
            step = q / dq
            lam -= step
            if abs(step) < lam * mpmath.mpf(10) ** -45:
                break
        assert below(lam * (1 - mpmath.mpf(10) ** -40)) == 0
        assert below(lam * (1 + mpmath.mpf(10) ** -40)) == 1
        return lam


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

"""The Kron-reduction energy kernel against oracles that share no code
with it: per-set harmonic extensions solved with numpy.linalg.solve, and
50-digit mpmath solves for badly scaled weights. The cut enumeration
behind phi against networkx cut sizes and exact rational arithmetic."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from hardy_spectral import (VertexSet, WeightedGraph, dirichlet_content_exact,
                            effective_resistance, errors, isoperimetric_exact,
                            neumann_content_exact, hardy_path, neumann_content_sweep,
                            neumann_eigenvalue, path_graph, random_graph)
from hardy_spectral.content import (DIRICHLET_ENUM_LIMIT, ISOPERIMETRIC_ENUM_LIMIT,
                                    NEUMANN_ENUM_LIMIT, _mass_by_mask)
from hardy_spectral.rng import Xorshift64Star

from conftest import corpus_boundary, corpus_graph, stiff_graph

# Exact ties come out of floating point a few ulps apart; genuinely
# different ratios on the symmetric graphs below differ by far more.
TIE_CLASS_RTOL = 1e-9


def oracle_laplacian(g: WeightedGraph) -> np.ndarray:
    lap = np.zeros((g.vertex_count, g.vertex_count))
    for (u, v, k) in g.edges:
        lap[u, u] += k
        lap[v, v] += k
        lap[u, v] -= k
        lap[v, u] -= k
    return lap


def oracle_energy(lap: np.ndarray, ones, zeros) -> float:
    """x^T L x for the potential that is 1 on `ones`, 0 on `zeros` and
    harmonic elsewhere."""
    n = lap.shape[0]
    fixed = set(ones) | set(zeros)
    free = [v for v in range(n) if v not in fixed]
    x = np.zeros(n)
    x[list(ones)] = 1.0
    if free:
        rhs = -lap[np.ix_(free, list(ones))].sum(axis=1)
        x[free] = np.linalg.solve(lap[np.ix_(free, free)], rhs)
    return float(x @ lap @ x)


def key(ids) -> int:
    return sum(1 << v for v in ids)


def psi_candidates(g, boundary, energy=None):
    """(ratio, key of A, A) for every nonempty interior A of positive mass."""
    lap = oracle_laplacian(g)
    energy = energy or (lambda a, b: oracle_energy(lap, a, b))
    interior = [v for v in range(g.vertex_count) if v not in boundary]
    out = []
    for k in range(1, len(interior) + 1):
        for a in itertools.combinations(interior, k):
            mu = sum(g.masses[v] for v in a)
            if mu > 0.0:
                out.append((energy(a, boundary.members) / mu, key(a), a))
    return out


def psi2_candidates(g, energy=None):
    """(ratio, (key A, key B), A, B) for every disjoint pair with key A <
    key B."""
    lap = oracle_laplacian(g)
    energy = energy or (lambda a, b: oracle_energy(lap, a, b))
    n = g.vertex_count
    out = []
    for labels in itertools.product((0, 1, 2), repeat=n):
        a = [v for v in range(n) if labels[v] == 1]
        b = [v for v in range(n) if labels[v] == 2]
        if a and b and key(a) < key(b):
            ratio = (1 / sum(g.masses[v] for v in a) + 1 / sum(g.masses[v] for v in b)) \
                * energy(a, b)
            out.append((ratio, (key(a), key(b)), a, b))
    return out


def sweep_candidates(g):
    """The sweep's pairs, from the same eigenvector the library sweeps."""
    x = neumann_eigenvalue(g).eigenvector
    lap = oracle_laplacian(g)
    values = sorted(set(float(v) for v in x))
    out = []
    for t_minus in (t for t in values if t < 0.0):
        a = [int(v) for v in np.flatnonzero(x <= t_minus)]
        for t_plus in (t for t in values if t >= 0.0):
            b = [int(v) for v in np.flatnonzero(x >= t_plus)]
            ratio = (1 / sum(g.masses[v] for v in a) + 1 / sum(g.masses[v] for v in b)) \
                * oracle_energy(lap, a, b)
            out.append((ratio, (key(a), key(b)), a, b))
    return out


def smallest_key_in_tie_class(cands):
    floor = min(c[0] for c in cands)
    return min((c for c in cands if c[0] <= floor * (1 + TIE_CLASS_RTOL)),
               key=lambda c: c[1])


class TestNumpyOracle:
    def test_psi_values_and_witnesses(self):
        for i in range(24):
            g = corpus_graph(i)
            s = corpus_boundary(g, i)
            res = dirichlet_content_exact(g, s)
            ratio, _, a = min(psi_candidates(g, s))
            assert res.value == pytest.approx(ratio, rel=1e-10)
            assert res.witness_a.members == a

    def test_psi2_values_and_witnesses(self):
        for i in range(24):
            g = corpus_graph(i)
            res = neumann_content_exact(g)
            ratio, _, a, b = min(psi2_candidates(g))
            assert res.value == pytest.approx(ratio, rel=1e-10)
            assert (res.witness_a.members, res.witness_b.members) == (tuple(a), tuple(b))

    def test_sweep_values_and_witnesses(self):
        for i in range(24):
            g = corpus_graph(i)
            res = neumann_content_sweep(g)
            ratio, _, a, b = min(sweep_candidates(g))
            assert res.value == pytest.approx(ratio, rel=1e-10)
            assert (res.witness_a.members, res.witness_b.members) == (tuple(a), tuple(b))

    def test_effective_resistance(self):
        rng = Xorshift64Star(211)
        for i in range(24):
            g = corpus_graph(i)
            lap = oracle_laplacian(g)
            n = g.vertex_count
            ids = rng.sample_without_replacement(list(range(n)), n)
            for size in (2, n):  # a pair, then A u B = V
                cut = 1 + rng.below(size - 1)
                a, b = ids[:cut], ids[cut:size]
                r = effective_resistance(g, VertexSet.of(a), VertexSet.of(b))
                assert 1.0 / r == pytest.approx(oracle_energy(lap, a, b), rel=1e-10)

    def test_complementary_sets_give_the_cut(self):
        g = corpus_graph(5)
        a = VertexSet.of(range(0, g.vertex_count, 2))
        b = a.complement(g.vertex_count)
        cut = sum(k for (u, v, k) in g.edges if (u in a) != (v in a))
        assert 1.0 / effective_resistance(g, a, b) == pytest.approx(cut, rel=1e-12)


def uniform(n, edges):
    return WeightedGraph((1.0,) * n, tuple((u, v, 1.0) for (u, v) in edges))


TIE_GRAPHS = {
    "k4": uniform(4, itertools.combinations(range(4), 2)),
    "c6": uniform(6, [(i, (i + 1) % 6) for i in range(6)]),
    "star": uniform(5, [(0, v) for v in range(1, 5)]),
}


class TestExactTies:
    @pytest.mark.parametrize("name", sorted(TIE_GRAPHS))
    def test_psi2_picks_smallest_key(self, name):
        g = TIE_GRAPHS[name]
        cands = psi2_candidates(g)
        _, _, a, b = smallest_key_in_tie_class(cands)
        floor = min(c[0] for c in cands)
        assert sum(c[0] <= floor * (1 + TIE_CLASS_RTOL) for c in cands) > 1
        res = neumann_content_exact(g)
        assert (res.witness_a.members, res.witness_b.members) == (tuple(a), tuple(b))

    # boundaries whose optimum is shared by mirror-image sets
    @pytest.mark.parametrize("name, boundary", [("c6", [0, 3]), ("star", [0])])
    def test_psi_picks_smallest_key(self, name, boundary):
        g = TIE_GRAPHS[name]
        s = VertexSet.of(boundary)
        cands = psi_candidates(g, s)
        _, _, a = smallest_key_in_tie_class(cands)
        floor = min(c[0] for c in cands)
        assert sum(c[0] <= floor * (1 + TIE_CLASS_RTOL) for c in cands) > 1
        assert dirichlet_content_exact(g, s).witness_a.members == a

    def test_star_sweep_picks_smallest_key(self):
        g = TIE_GRAPHS["star"]
        cands = sweep_candidates(g)
        _, _, a, b = smallest_key_in_tie_class(cands)
        res = neumann_content_sweep(g)
        assert (res.witness_a.members, res.witness_b.members) == (tuple(a), tuple(b))


def mp_energy_fn(mpmath, g):
    """Energy oracle in 50-digit arithmetic."""
    n = g.vertex_count
    lap = mpmath.zeros(n, n)
    for (u, v, k) in g.edges:
        k = mpmath.mpf(k)
        lap[u, u] += k
        lap[v, v] += k
        lap[u, v] -= k
        lap[v, u] -= k

    def energy(ones, zeros):
        fixed = set(ones) | set(zeros)
        free = [v for v in range(n) if v not in fixed]
        x = [mpmath.mpf(1) if v in set(ones) else mpmath.mpf(0) for v in range(n)]
        if free:
            block = mpmath.matrix([[lap[i, j] for j in free] for i in free])
            rhs = mpmath.matrix([-sum(lap[i, j] for j in ones) for i in free])
            sol = mpmath.lu_solve(block, rhs)
            for pos, v in enumerate(free):
                x[v] = sol[pos]
        return sum(lap[i, j] * x[i] * x[j] for i in range(n) for j in range(n))

    return energy


def badly_scaled_graph(n, ratio, seed):
    """Random connected graph whose conductances and masses spread
    log-uniformly over [1, ratio]."""
    g = random_graph(n, 0.5, (1.0, 2.0), (1.0, 2.0), seed=seed)
    rng = Xorshift64Star(seed)
    scale = lambda: float(ratio ** rng.uniform())  # noqa: E731
    return WeightedGraph(tuple(scale() for _ in range(n)),
                         tuple((u, v, scale()) for (u, v, _) in g.edges))


class TestMpmathOracle:
    def test_weight_ratio_1e6(self):
        mpmath = pytest.importorskip("mpmath")
        for seed in (1, 2, 3):
            g = badly_scaled_graph(6, 1e6, seed)
            s = VertexSet.of([0])
            with mpmath.workdps(50):
                energy = mp_energy_fn(mpmath, g)
                psi = min(c[0] for c in psi_candidates(g, s, energy))
                psi2 = min(c[0] for c in psi2_candidates(g, energy))
                r = 1 / energy([1, 2], [5])
            assert dirichlet_content_exact(g, s).value == pytest.approx(float(psi), rel=1e-9)
            assert neumann_content_exact(g).value == pytest.approx(float(psi2), rel=1e-9)
            r_lib = effective_resistance(g, VertexSet.of([1, 2]), VertexSet.of([5]))
            assert r_lib == pytest.approx(float(r), rel=1e-9)


class TestExtremeWeights:
    """Edges inside A or inside B never enter the energy, so a stiff edge
    there costs no accuracy."""

    @pytest.mark.parametrize("kappas, a, b, expected", [
        ([1e17, 1.0], [0], [2], 1.0 + 1e-17),          # stiff edge from A to C
        ([1e15, 1.0, 1.0, 1.0, 1.0], [0, 1], [5], 4.0),  # stiff edge inside A
        ([1.0, 1.0, 1.0, 1.0, 1e15], [0], [4, 5], 4.0),  # stiff edge inside B
    ])
    def test_path_resistance(self, kappas, a, b, expected):
        g = path_graph([1.0] * (len(kappas) + 1), kappas)
        r = effective_resistance(g, VertexSet.of(a), VertexSet.of(b))
        assert r == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_energy_is_a_typed_error(self):
        # at ratio 1e16 rounding swamps a solve and the energy comes out
        # negative; the exact value is positive
        with pytest.raises(errors.NotPositiveDefinite):
            neumann_content_exact(stiff_graph(21, 1e16, 1e16))

    def test_stiff_path_contents(self):
        g = path_graph([1.0, 2.0, 1.0, 3.0, 1.0, 2.0], [1e15, 1.0, 2.0, 1.0, 0.5])
        s = VertexSet.of([0])
        assert dirichlet_content_exact(g, s).value == pytest.approx(hardy_path(g).value,
                                                                    rel=1e-12)
        psi2 = neumann_content_exact(g).value
        assert psi2 <= neumann_content_sweep(g).value * (1 + 1e-12)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            expected = min(c[0] for c in psi2_candidates(g, mp_energy_fn(mpmath, g)))
        assert psi2 == pytest.approx(float(expected), rel=1e-12)


class TestLargeVertexIds:
    def test_interior_beyond_63(self):
        g = random_graph(72, 0.05, (0.1, 10.0), (0.1, 10.0), seed=9)
        interior = [2, 62, 63, 64, 66, 70, 71]
        s = VertexSet.of(v for v in range(72) if v not in interior)
        res = dirichlet_content_exact(g, s)
        ratio, _, a = min(psi_candidates(g, s))
        assert res.value == pytest.approx(ratio, rel=1e-10)
        assert res.witness_a.members == a
        assert max(a) >= 63


def exact_phi_candidates(g):
    """(ratio, mask of A) for every bipartition (A, V \\ A) with vertex 0 in
    A, in exact rational arithmetic."""
    n = g.vertex_count
    masses = [Fraction(m) for m in g.masses]
    edges = [(u, v, Fraction(k)) for (u, v, k) in g.edges]
    out = []
    for mask in range(1, (1 << n) - 1, 2):
        cut = sum(k for (u, v, k) in edges if (mask >> u ^ mask >> v) & 1)
        mu_a = sum(m for v, m in enumerate(masses) if mask >> v & 1)
        mu_b = sum(m for v, m in enumerate(masses) if not mask >> v & 1)
        out.append((cut / min(mu_a, mu_b), mask))
    return out


def nx_phi_candidates(nx, g):
    """(ratio, mask of A) for every bipartition, the cut from networkx."""
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_weighted_edges_from(g.edges)
    out = []
    for mask in range(1, (1 << g.vertex_count) - 1, 2):
        a = [v for v in range(g.vertex_count) if mask >> v & 1]
        b = [v for v in range(g.vertex_count) if not mask >> v & 1]
        mu = min(sum(g.masses[v] for v in a), sum(g.masses[v] for v in b))
        out.append((nx.cut_size(h, a, b, weight="weight") / mu, mask))
    return out


def grid(rows, cols):
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return uniform(rows * cols, sorted(right + down))


UNIFORM_FAMILIES = (
    [uniform(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 13)]
    + [uniform(n, itertools.combinations(range(n), 2)) for n in range(3, 11)]
    + [uniform(n, [(0, v) for v in range(1, n)]) for n in range(3, 11)]
    + [uniform(n, [(v, n - 1) for v in range(n - 1)]) for n in (4, 7)]
    + [grid(r, c) for (r, c) in [(2, 2), (2, 3), (3, 3), (2, 5), (2, 7)]]
)


class TestIsoperimetricOracle:
    def test_networkx_cuts_on_the_corpus(self):
        nx = pytest.importorskip("networkx")
        for i in range(24):
            g = corpus_graph(i, 3, 10)
            res = isoperimetric_exact(g)
            ratio, mask = smallest_key_in_tie_class(nx_phi_candidates(nx, g))
            assert res.value == pytest.approx(ratio, rel=1e-12)
            assert res.witness_a == VertexSet.from_mask(mask)

    def test_exact_ties_pick_the_smallest_mask(self):
        # unit weights: every minimiser is exactly tied with its mirror
        # images, and the smallest mask among them is the witness
        for g in UNIFORM_FAMILIES:
            cands = exact_phi_candidates(g)
            floor = min(c[0] for c in cands)
            tied = [mask for ratio, mask in cands if ratio == floor]
            assert len(tied) > 1
            res = isoperimetric_exact(g)
            assert res.value == pytest.approx(float(floor), rel=1e-15, abs=0.0)
            assert res.witness_a == VertexSet.from_mask(min(tied))

    def test_weight_ratio_1e16_against_exact_rationals(self):
        # total - mu(A) for the other side's mass cancels at this ratio
        for seed in range(20):
            g = stiff_graph(seed, 1e16, 1e16)
            exact = min(c[0] for c in exact_phi_candidates(g))
            assert isoperimetric_exact(g).value == pytest.approx(float(exact), rel=1e-15,
                                                                 abs=0.0)

    def test_mass_table_matches_the_bitwise_loop(self):
        masses = [2.0 ** (7 * i) / 3.0 for i in range(-5, 6)]
        table = _mass_by_mask(np.array(masses))
        for mask in range(1, 1 << len(masses)):
            low = mask & -mask
            assert table[mask] == table[mask ^ low] + masses[low.bit_length() - 1]
        assert table[0] == 0.0


class TestGuardSizes:
    def test_psi2_at_the_guard(self):
        g = random_graph(NEUMANN_ENUM_LIMIT, 0.4, (0.1, 10.0), (0.1, 10.0), seed=5)
        res = neumann_content_exact(g)
        a, b = res.witness_a.members, res.witness_b.members
        expected = (1 / g.mass_of(res.witness_a) + 1 / g.mass_of(res.witness_b)) \
            * oracle_energy(oracle_laplacian(g), a, b)
        assert res.value == pytest.approx(expected, rel=1e-10)
        assert res.value <= neumann_content_sweep(g).value * (1 + 1e-12)

    def test_psi_at_the_guard(self):
        g = random_graph(DIRICHLET_ENUM_LIMIT + 1, 0.3, (0.1, 10.0), (0.1, 10.0), seed=5)
        s = VertexSet.of([0])
        res = dirichlet_content_exact(g, s)
        a = res.witness_a.members
        expected = oracle_energy(oracle_laplacian(g), a, s.members) / g.mass_of(res.witness_a)
        assert res.value == pytest.approx(expected, rel=1e-10)
        # the factor-four sandwich against a LAPACK eigensolve
        interior = list(range(1, g.vertex_count))
        d = 1 / np.sqrt(g.mass_vector[interior])
        lam = np.linalg.eigvalsh(oracle_laplacian(g)[np.ix_(interior, interior)]
                                 * np.outer(d, d))[0]
        assert res.value / 4 <= lam <= res.value

    def test_phi_at_the_guard(self):
        nx = pytest.importorskip("networkx")
        n = ISOPERIMETRIC_ENUM_LIMIT
        g = random_graph(n, 0.3, (0.1, 10.0), (0.1, 10.0), seed=5)
        res = isoperimetric_exact(g)
        h = nx.Graph()
        h.add_weighted_edges_from(g.edges)
        a = res.witness_a.members
        b = res.witness_a.complement(n).members

        def ratio(a, b):
            return nx.cut_size(h, a, b, weight="weight") / min(g.mass_of(VertexSet.of(a)),
                                                               g.mass_of(VertexSet.of(b)))

        assert 0 in a and b
        assert res.value == pytest.approx(ratio(a, b), rel=1e-12)
        # no level-set cut of a LAPACK Fiedler vector beats the enumeration,
        # and the Cheeger bounds hold
        d = 1 / np.sqrt(g.mass_vector)
        lams, vecs = np.linalg.eigh(oracle_laplacian(g) * np.outer(d, d))
        order = np.argsort(vecs[:, 1] * d)
        for cut in range(1, n):
            side = order[:cut].tolist()
            rest = order[cut:].tolist()
            assert res.value <= ratio(side, rest) * (1 + 1e-12)
        worst = max(g.degree(v) / g.masses[v] for v in range(n))
        assert lams[1] / 2 <= res.value <= np.sqrt(2 * lams[1] * worst)

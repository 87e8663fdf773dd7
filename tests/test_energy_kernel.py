"""The Kron-reduction energies, the pair kernel and the decision tree of
the content enumerations, against oracles that share no code with them:
per-set harmonic extensions solved with numpy.linalg.solve, and 50-digit
mpmath solves for badly scaled weights. The cut table behind phi against
the crossing indicators of every mask, networkx cut sizes and exact
rational arithmetic."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from hardy_spectral import (VertexSet, WeightedGraph, components, content,
                            dirichlet_content_exact, dirichlet_eigenvalue,
                            effective_resistance, errors, isoperimetric_exact, laplacian,
                            neumann_content_exact, hardy_path, neumann_content_sweep,
                            neumann_eigenvalue, path_graph, pinch, random_graph, run_suite,
                            split_edge)
from hardy_spectral.content import (DIRICHLET_ENUM_LIMIT, ISOPERIMETRIC_ENUM_LIMIT,
                                    NEUMANN_ENUM_LIMIT, _mass_by_mask, _running_mass_by_mask,
                                    _RunningMin)
from hardy_spectral.graph import conductance_to
from hardy_spectral.resistance import kron_step, pinned_energies
from hardy_spectral.spectral import TIE_RTOL
from hardy_spectral.rng import Xorshift64Star

from conftest import (corpus_boundary, corpus_graph, extreme_weight_fuzz, oracle_laplacian,
                      random_vector, sample_without_replacement, stiff_graph)
import generic_tree
from generic_tree import (branch_leaves, psi2_by_generic_tree, psi2_options, psi_by_generic_tree,
                          psi_options)

# Exact ties come out of floating point a few ulps apart; genuinely
# different ratios on the symmetric graphs below differ by far more.
TIE_CLASS_RTOL = 1e-9


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


def pinned_pairs(g, pairs):
    """1/R(A, B), or its typed error, for each pair of disjoint sets, all
    posed to one `pinned_energies` call as masks: A held at 1, the rest
    eliminated, B held at 0 with ground W(., B)."""
    a, b = np.zeros((2, len(pairs), g.vertex_count), dtype=bool)
    for i, (x, y) in enumerate(pairs):
        a[i, list(x)] = b[i, list(y)] = True
    return pinned_energies(g, a, ~(a | b), conductance_to(g, b))


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
            res = neumann_content_sweep(g, neumann_eigenvalue(g).eigenvector)
            ratio, _, a, b = min(sweep_candidates(g))
            assert res.value == pytest.approx(ratio, rel=1e-10)
            assert (res.witness_a.members, res.witness_b.members) == (tuple(a), tuple(b))

    def test_effective_resistance(self):
        rng = Xorshift64Star(211)
        for i in range(24):
            g = corpus_graph(i)
            lap = oracle_laplacian(g)
            n = g.vertex_count
            ids = sample_without_replacement(rng, list(range(n)), n)
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

    def test_running_min_ignores_how_batches_are_cut(self):
        # ratios drawn from a few values a couple of ulps apart, so the
        # window holds many exact and near ties; the reference scans all
        # candidates at once
        rng = np.random.default_rng(7)
        for trial in range(200):
            m = int(rng.integers(1, 400))
            ratios = (1.0 + rng.integers(0, 4, m) * 2e-16 + rng.integers(0, 3, m) * 1e-3)
            ratios = ratios * float(rng.uniform(0.5, 2.0))
            keys = rng.permutation(10 * m)[:m].astype(np.int64)
            near = ratios <= ratios.min() * (1.0 + TIE_RTOL)
            expected = min(zip(keys[near].tolist(), ratios[near].tolist()))
            best = _RunningMin()
            cuts = np.sort(rng.integers(0, m + 1, int(rng.integers(0, 6))))
            for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, m]):
                best.offer(ratios[lo:hi], keys[lo:hi])
            assert best.winner == expected[::-1]

    def test_star_sweep_picks_smallest_key(self):
        g = TIE_GRAPHS["star"]
        cands = sweep_candidates(g)
        _, _, a, b = smallest_key_in_tie_class(cands)
        res = neumann_content_sweep(g, neumann_eigenvalue(g).eigenvector)
        assert (res.witness_a.members, res.witness_b.members) == (tuple(a), tuple(b))


def mp_energy_fn(mpmath, g):
    """Energy oracle in the working precision: the potential that is 1 on
    `ones`, 0 on `zeros` and harmonic elsewhere, and its energy summed
    over the edges. The free block L_FF is symmetric positive definite,
    so it is solved by Gaussian elimination without pivoting and back
    substitution on lists of mpf, with 10 guard bits."""
    n = g.vertex_count
    edges = [(u, v, mpmath.mpf(k)) for (u, v, k) in g.edges]
    lap = [[mpmath.mpf(0)] * n for _ in range(n)]
    for (u, v, k) in edges:
        lap[u][u] += k
        lap[v][v] += k
        lap[u][v] -= k
        lap[v][u] -= k

    def energy(ones, zeros):
        is_one = set(ones)
        fixed = is_one | set(zeros)
        free = [v for v in range(n) if v not in fixed]
        x = [mpmath.mpf(1) if v in is_one else mpmath.mpf(0) for v in range(n)]
        # each row of L_FF with its right-hand side appended
        rows = [[lap[i][j] for j in free] + [-sum(lap[i][j] for j in ones)] for i in free]
        with mpmath.extraprec(10):
            for p, pivot in enumerate(rows):
                for row in rows[p + 1:]:
                    f = row[p] / pivot[p]
                    for q in range(p + 1, len(row)):
                        row[q] -= f * pivot[q]
            for p in reversed(range(len(free))):
                row = rows[p]
                known = sum(row[q] * x[free[q]] for q in range(p + 1, len(free)))
                x[free[p]] = (row[-1] - known) / row[p]
        return sum(k * (x[u] - x[v]) ** 2 for (u, v, k) in edges)

    return energy


def overflowing_pivot_graph():
    """A triangle whose vertex 1 meets both others through 1e308, so its
    pivot, the sum 2e308, overflows."""
    return WeightedGraph((1.0,) * 3, ((0, 1, 1e308), (0, 2, 1.0), (1, 2, 1e308)))


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

    def test_stiff_pair_against_mpmath(self):
        # at ratio 1e16 rounding once swamped this pair's LAPACK solve and
        # made its energy negative; the summed pivots keep it to the ulp
        mpmath = pytest.importorskip("mpmath")
        g = stiff_graph(21, 1e16, 1e16)
        with mpmath.workdps(60):
            exact = 1 / mp_energy_fn(mpmath, g)([4], [5])
        got = effective_resistance(g, VertexSet.of([4]), VertexSet.of([5]))
        assert abs(got - exact) <= 1e-15 * exact

    def test_nonpositive_energy_is_a_typed_error(self):
        # vertex 1's pivot 2e308 overflows: dividing by it would drop the
        # fill and give R(0, 2) = 1, but the true value is about 2e-308.
        # The pivot poisons its own row of a batch only.
        g = overflowing_pivot_graph()
        with pytest.raises(errors.NotRepresentable):
            effective_resistance(g, VertexSet.of([0]), VertexSet.of([2]))
        poisoned, fine = pinned_pairs(g, [(VertexSet.of([0]), VertexSet.of([2])),
                                          (VertexSet.of([0]), VertexSet.of([1]))])
        assert isinstance(poisoned, errors.NotRepresentable)
        assert fine == 1e308  # A u B = V: the crossing conductance
        with pytest.raises(errors.NotRepresentable):
            dirichlet_content_exact(g, VertexSet.of([0]))
        with pytest.raises(errors.NotRepresentable):
            neumann_content_exact(g)

    def test_energy_without_a_finite_reciprocal_is_a_typed_error(self):
        # 1 / 1e-309 overflows: R(A, B) and every ressum side's 1/energy
        # would be inf
        g = WeightedGraph((1.0, 1.0), ((0, 1, 1e-309),))
        with pytest.raises(errors.NotRepresentable, match="finite reciprocal"):
            effective_resistance(g, VertexSet.of([0]), VertexSet.of([1]))
        report = run_suite(path_graph([1.0] * 4, [1e-310] * 3), suites=["ressum"], seed=0)
        assert len(report.checks) == 10
        assert {c.relation for c in report.checks} == {"error"}

    def test_content_without_a_finite_reciprocal_is_a_typed_error(self):
        # psi2 = 2e-310 is positive and finite, but h2 = 1 / psi2 is not
        g = WeightedGraph((1.0,) * 3, ((0, 1, 1e-310), (0, 2, 1.7e308), (1, 2, 1e-150)))
        with pytest.raises(errors.NotRepresentable, match="no finite reciprocal"):
            neumann_content_exact(g)

    @pytest.mark.parametrize("seed", [*range(10), 21])
    def test_weight_ratio_1e16_against_mpmath(self, seed):
        # the enumerations only add nonnegative terms, so rounding cannot
        # swamp them where it swamps a solve
        mpmath = pytest.importorskip("mpmath")
        g = stiff_graph(seed, 1e16, 1e16)
        s = VertexSet.of([0])
        with mpmath.workdps(50):
            energy = mp_energy_fn(mpmath, g)
            psi = min(c[0] for c in psi_candidates(g, s, energy))
            psi2 = min(c[0] for c in psi2_candidates(g, energy))
        assert dirichlet_content_exact(g, s).value == pytest.approx(float(psi), rel=1e-15)
        assert neumann_content_exact(g).value == pytest.approx(float(psi2), rel=1e-15)

    def test_stiff_path_contents(self):
        g = path_graph([1.0, 2.0, 1.0, 3.0, 1.0, 2.0], [1e15, 1.0, 2.0, 1.0, 0.5])
        s = VertexSet.of([0])
        assert dirichlet_content_exact(g, s).value == pytest.approx(hardy_path(g).value,
                                                                    rel=1e-12)
        psi2 = neumann_content_exact(g).value
        sweep = neumann_content_sweep(g, neumann_eigenvalue(g).eigenvector)
        assert psi2 <= sweep.value * (1 + 1e-12)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            expected = min(c[0] for c in psi2_candidates(g, mp_energy_fn(mpmath, g)))
        assert psi2 == pytest.approx(float(expected), rel=1e-12)


class TestOverflowingSums:
    """A sum of conductances past the largest double is inf, taken with the
    overflow silenced: the typed error, or an inf ratio that never wins,
    takes over, and no numpy RuntimeWarning escapes (the test settings
    raise one as an error)."""

    @staticmethod
    def two_stiff_edges():
        # vertex 1 meets 0 and 2 through 1e308: its degree and its
        # conductance to the boundary {0, 2} overflow
        return WeightedGraph((1.0,) * 4, ((0, 1, 1e308), (1, 2, 1e308), (2, 3, 1.0)))

    def test_degrees_of_the_laplacian(self):
        t = WeightedGraph((1.0,) * 3, ((0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)))
        assert np.isinf(np.diag(laplacian(t))).all()
        with pytest.raises(errors.NotRepresentable):
            neumann_eigenvalue(t)

    def test_ground_of_a_boundary_of_two(self):
        with pytest.raises(errors.NotRepresentable):
            dirichlet_eigenvalue(self.two_stiff_edges(), VertexSet.of([0, 2]))

    def test_boundary_conductance_of_the_dirichlet_content(self):
        with pytest.raises(errors.NotRepresentable):
            dirichlet_content_exact(self.two_stiff_edges(), VertexSet.of([0, 2]))

    def test_cut_table(self):
        phi = isoperimetric_exact(self.two_stiff_edges())
        assert (phi.value, phi.witness_a) == (1.0, VertexSet.of([0, 1, 2]))

    def test_ground_of_a_pair(self):
        with pytest.raises(errors.NotRepresentable):
            effective_resistance(self.two_stiff_edges(), VertexSet.of([1]), VertexSet.of([0, 2]))

    def test_run_suite(self):
        report = run_suite(self.two_stiff_edges(), boundary=VertexSet.of([0, 2]))
        assert len(report.checks) == 15
        assert {c.relation for c in report.checks} == {"error"}


def tie_winner(cands):
    """The oracle's winner under the library's rule: the smallest key
    among the candidates within TIE_RTOL of the smallest ratio."""
    floor = min(c[0] for c in cands)
    return min((c for c in cands if c[0] <= floor * (1 + TIE_RTOL)), key=lambda c: c[1])


def grid(rows, cols):
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return uniform(rows * cols, sorted(right + down))


TREE_TIE_GRAPHS = {
    "k6": uniform(6, itertools.combinations(range(6), 2)),
    "c8": uniform(8, [(i, (i + 1) % 8) for i in range(8)]),
    "star": uniform(7, [(0, v) for v in range(1, 7)]),
    "grid3x3": grid(3, 3),
}


def split_interior_cases():
    """(graph, boundary) pairs whose interior falls into several pieces."""
    yield TREE_TIE_GRAPHS["c8"], VertexSet.of([0, 4])
    yield TREE_TIE_GRAPHS["grid3x3"], VertexSet.of([1, 4, 7])
    yield path_graph([1.0, 2.0, 0.5, 3.0, 1.0, 2.0], [1.0, 0.5, 2.0, 1.0, 3.0]), VertexSet.of([2])
    # corpus graphs with a cut vertex, which is the boundary
    for i in range(12):
        g = corpus_graph(i, 6, 9)
        for v in range(g.vertex_count):
            if len(components(g, (u for u in range(g.vertex_count) if u != v))) > 1:
                yield g, VertexSet.of([v])
                break


def zero_mass_cases():
    """(graph, boundary) pairs whose interior holds zero-mass vertices
    made by split_edge or pinch, next to vertices of positive mass."""
    for i in range(4):
        g = corpus_graph(i, 5, 7)
        u, v, _ = g.edges[i % len(g.edges)]
        yield split_edge(g, (u, v), [0.25, 0.5, 0.25]), VertexSet.of([0])
        x = neumann_eigenvalue(g).eigenvector
        pinched = pinch(g, x)
        # ground the negative vertices only, so the inserted crossings stay inside
        yield pinched.graph, VertexSet.of(np.flatnonzero(x < 0.0))


class TestDecisionTree:
    """The enumerations of psi and psi2 walk a decision tree of Kron
    eliminations over stacks that are cut to bound memory."""

    @pytest.mark.parametrize("name", sorted(TREE_TIE_GRAPHS))
    def test_stack_cuts_never_change_the_result_on_ties(self, name, monkeypatch):
        self._same_with_tiny_stacks(TREE_TIE_GRAPHS[name], VertexSet.of([0]), monkeypatch)

    def test_stack_cuts_never_change_the_result_on_the_corpus(self, monkeypatch):
        for i in range(8):
            g = corpus_graph(i, 3, 8)
            self._same_with_tiny_stacks(g, corpus_boundary(g, i), monkeypatch)

    @staticmethod
    def _same_with_tiny_stacks(g, s, monkeypatch):
        results = []
        for entries in (content.CHUNK_ENTRIES, 16):
            monkeypatch.setattr(content, "CHUNK_ENTRIES", entries)
            results.append((dirichlet_content_exact(g, s), neumann_content_exact(g)))
        (psi, psi2), (psi_cut, psi2_cut) = results
        assert psi.value.hex() == psi_cut.value.hex() and psi.witness_a == psi_cut.witness_a
        assert psi2.value.hex() == psi2_cut.value.hex()
        assert (psi2.witness_a, psi2.witness_b) == (psi2_cut.witness_a, psi2_cut.witness_b)

    @pytest.mark.parametrize("name", sorted(TREE_TIE_GRAPHS))
    def test_ties_against_the_oracles(self, name):
        g = TREE_TIE_GRAPHS[name]
        self._agrees_with_psi_oracle(g, VertexSet.of([0]))
        ratio, _, a, b = tie_winner(psi2_candidates(g))
        res = neumann_content_exact(g)
        assert res.value == pytest.approx(ratio, rel=1e-12)
        assert (res.witness_a.members, res.witness_b.members) == (tuple(a), tuple(b))

    def test_split_interiors_against_the_oracle(self):
        cases = list(split_interior_cases())
        assert len(cases) >= 5
        for g, s in cases:
            assert len(components(g, (v for v in range(g.vertex_count) if v not in s))) > 1
            self._agrees_with_psi_oracle(g, s)

    def test_zero_mass_interiors_against_the_oracle(self):
        for g, s in zero_mass_cases():
            interior_masses = [g.masses[v] for v in range(g.vertex_count) if v not in s]
            assert 0.0 in interior_masses and max(interior_masses) > 0.0
            self._agrees_with_psi_oracle(g, s)

    def test_zero_interior_mass(self):
        g = split_edge(path_graph([1.0, 1.0], [2.0]), (0, 1), [0.5, 0.25, 0.25])
        with pytest.raises(errors.ZeroInteriorMass):
            dirichlet_content_exact(g, VertexSet.of([0, 1]))

    @staticmethod
    def _agrees_with_psi_oracle(g, s):
        ratio, _, a = tie_winner(psi_candidates(g, s))
        res = dirichlet_content_exact(g, s)
        assert res.value == pytest.approx(ratio, rel=1e-12)
        assert res.witness_a.members == a


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


UNIFORM_FAMILIES = (
    [uniform(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 13)]
    + [uniform(n, itertools.combinations(range(n), 2)) for n in range(3, 11)]
    + [uniform(n, [(0, v) for v in range(1, n)]) for n in range(3, 11)]
    + [uniform(n, [(v, n - 1) for v in range(n - 1)]) for n in (4, 7)]
    + [grid(r, c) for (r, c) in [(2, 2), (2, 3), (3, 3), (2, 5), (2, 7)]]
)


def crossing_indicators(g) -> np.ndarray:
    """One row per mask of the vertices but the last, one column per edge:
    1 where the edge crosses from the mask to the rest."""
    u, v, _ = g.edge_arrays
    masks = np.arange(1 << (g.vertex_count - 1), dtype=np.int64)
    return ((masks[:, None] >> u) ^ (masks[:, None] >> v)) & 1


def assert_cuts_within_summation_error(table, exact, edge_count):
    # the table and the oracle each sum at most edge_count nonnegative
    # conductances, so each is within (edge_count - 1) roundoffs of the cut
    bound = 2 * max(edge_count - 1, 1) * 2.0 ** -53
    assert np.all(np.abs(table - exact) <= bound * exact)


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

    def test_chunks_never_change_the_result(self, monkeypatch):
        # chunks of 16 masks split every graph with 6 or more vertices
        graphs = [corpus_graph(i, 6, 10) for i in range(12)] + list(UNIFORM_FAMILIES)
        results = []
        for entries in (content.CHUNK_ENTRIES, 16):
            monkeypatch.setattr(content, "CHUNK_ENTRIES", entries)
            results.append([isoperimetric_exact(g) for g in graphs])
        for whole, cut in zip(*results):
            assert whole.value.hex() == cut.value.hex()
            assert whole.witness_a == cut.witness_a

    def test_cut_table_against_crossing_indicators(self):
        for i in range(24):
            g = corpus_graph(i, 2, 11)
            table = content._cut_by_mask(g.conductance_matrix)
            assert_cuts_within_summation_error(table, crossing_indicators(g) @ g.edge_arrays[2],
                                               g.edge_count)
        # integer conductances sum exactly in any order
        for g in UNIFORM_FAMILIES:
            assert np.array_equal(content._cut_by_mask(g.conductance_matrix),
                                  crossing_indicators(g) @ g.edge_arrays[2])

    def test_cut_table_at_weight_ratio_1e16_against_exact_rationals(self):
        # a cut taken as deg(A) - 2 W(A, A) loses the unit conductances here
        for seed in range(20):
            g = stiff_graph(seed, 1e16, 1e16)
            table = content._cut_by_mask(g.conductance_matrix)
            conductances = [Fraction(k) for k in g.edge_arrays[2]]
            exact = np.array([float(sum(k for k, c in zip(conductances, row) if c))
                              for row in crossing_indicators(g)])
            assert_cuts_within_summation_error(table, exact, g.edge_count)

    def test_mass_table_matches_the_bitwise_loop(self):
        # phi's and psi2's table: each mass adds the lowest bit last, the
        # order in which psi2's walk, from the highest id down, decides them
        masses = [2.0 ** (7 * i) / 3.0 for i in range(-5, 6)]
        table = _mass_by_mask(np.array(masses))
        for mask in range(1, 1 << len(masses)):
            low = mask & -mask
            assert table[mask] == table[mask ^ low] + masses[low.bit_length() - 1]
        assert table[0] == 0.0

    def test_psi_mass_table_adds_the_highest_bit_last(self):
        # psi's table: each mass is the running sum of its bits from the
        # lowest up, the order in which psi's walk decides the vertices
        masses = [2.0 ** (7 * i) / 3.0 for i in range(-5, 6)]
        table = _running_mass_by_mask(np.array(masses))
        for mask in range(1, 1 << len(masses)):
            high = 1 << (mask.bit_length() - 1)
            assert table[mask] == table[mask ^ high] + masses[high.bit_length() - 1]
        assert table[0] == 0.0
        # the sums round, so the two orders give two tables
        assert not np.array_equal(table, _mass_by_mask(np.array(masses)))


class TestGuardSizes:
    def test_psi2_at_the_guard(self):
        g = random_graph(NEUMANN_ENUM_LIMIT, 0.4, (0.1, 10.0), (0.1, 10.0), seed=5)
        res = neumann_content_exact(g)
        a, b = res.witness_a.members, res.witness_b.members
        expected = (1 / g.mass_of(res.witness_a) + 1 / g.mass_of(res.witness_b)) \
            * oracle_energy(oracle_laplacian(g), a, b)
        assert res.value == pytest.approx(expected, rel=1e-10)
        sweep = neumann_content_sweep(g, neumann_eigenvalue(g).eigenvector)
        assert res.value <= sweep.value * (1 + 1e-12)

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


def sweep_pairs(x):
    """The sweep's (A, B) pairs of a potential x, A's threshold outer,
    both in increasing order."""
    values = sorted(set(float(v) for v in x))
    return [(VertexSet.of(np.flatnonzero(x <= t_minus)), VertexSet.of(np.flatnonzero(x >= t_plus)))
            for t_minus in values if t_minus < 0.0 for t_plus in values if t_plus >= 0.0]


def pair_route_sweep(g, x):
    """The sweep posed pair by pair, as it was before the elimination:
    each pair's energy from `pinned_pairs` (its own network per pair,
    every C eliminated in id order), each side's mass from `mass_of`,
    the same tie rule. Returns (value, A, B)."""
    pairs = sweep_pairs(x)
    energies = pinned_pairs(g, pairs)
    failed = errors.first_error(energies)
    if failed is not None:
        raise failed
    nb = sum(1 for v in set(float(v) for v in x) if v >= 0.0)
    ratios = np.array([(1.0 / g.mass_of(a) + 1.0 / g.mass_of(b)) * e
                       for (a, b), e in zip(pairs, energies)])
    # pair i * nb + j has rank i * nb + (nb - 1 - j): A's keys rise, B's fall
    ranks = np.arange(len(pairs)) // nb * nb + (nb - 1 - np.arange(len(pairs)) % nb)
    best = _RunningMin()
    best.offer(ratios, ranks)
    value, rank = best.winner
    i, j = divmod(rank, nb)
    return (value, *pairs[i * nb + nb - 1 - j])


def sum_in_order(values) -> float:
    """The left-to-right sum of floats, one add at a time."""
    total = 0.0
    for v in values:
        total += v
    return total


def one_a_at_a_time_sweep(g, x):
    """The sweep with one network per A, built alone: A's rows added to a
    terminal alpha one by one in x order, then one `kron_step` per vertex
    after A, the energy read at each B's first vertex as alpha's
    conductances to B summed in order. A's mass is summed in x order and
    B's from the last vertex back, and the tie rule is the sweep's.
    Returns ({rank: ratio} of every pair, value, A, B)."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    w = g.conductance_matrix[order[:, None], order]
    mass = g.mass_vector[order].tolist()
    n = len(xs)
    levels = sorted(set(xs.tolist()))
    a_sizes = [int(np.count_nonzero(xs <= t)) for t in levels if t < 0.0]
    b_starts = [int(np.count_nonzero(xs < t)) for t in levels if t >= 0.0]
    nb = len(b_starts)
    ratios = {}
    for i, a in enumerate(a_sizes):
        net = np.zeros((n - a + 1, n - a + 1, 1))
        net[:-1, :-1, 0] = w[a:, a:]
        for v in range(a):
            net[-1, :-1, 0] += w[v, a:]
            net[:-1, -1, 0] += w[v, a:]
        done = 0
        for j, b in enumerate(b_starts):
            for p in range(done, b - a):
                kron_step(net[p, p + 1:], net[p + 1:, p + 1:])
            done = b - a
            energy = sum_in_order(net[-1, b - a:-1, 0].tolist())
            ratios[i * nb + nb - 1 - j] = (1.0 / sum_in_order(mass[:a])
                                           + 1.0 / sum_in_order(mass[b:][::-1])) * energy
    best = _RunningMin()
    best.offer(np.array(list(ratios.values())), np.array(list(ratios)))
    value, rank = best.winner
    i, j = divmod(rank, nb)
    return (ratios, value, VertexSet.of(order[:a_sizes[i]]),
            VertexSet.of(order[b_starts[nb - 1 - j]:]))


class TestSweepElimination:
    """The sweep eliminates every A's network in x order with pivots taken
    as sums; it must agree with the pair-by-pair route on ordinary
    weights, stay within 1e-15 of a 60-digit solve at stiff weights, and
    not depend on how its stack is cut."""

    @staticmethod
    def potentials(g):
        """The fundamental mode, then the same with ties (rounded to one
        digit) and with its smallest entry set to an exact zero."""
        x = neumann_eigenvalue(g).eigenvector
        rounded = np.round(x / np.abs(x).max(), 1)
        zeroed = x.copy()
        zeroed[np.argmin(np.abs(x))] = 0.0
        return [f for f in (x, rounded, zeroed) if (f < 0.0).any() and (f > 0.0).any()]

    def test_against_the_pair_route(self):
        ties = zeros = 0
        for i in range(40):
            g = corpus_graph(i, 3, 12)
            for x in self.potentials(g):
                ties += len(set(x.tolist())) < len(x)
                zeros += 0.0 in x
                res = neumann_content_sweep(g, x)
                value, a, b = pair_route_sweep(g, x)
                assert res.value == pytest.approx(value, rel=1e-14, abs=0.0)
                assert (res.witness_a, res.witness_b) == (a, b)
        assert ties >= 20 and zeros >= 20

    def test_bit_for_bit_as_one_a_at_a_time(self, monkeypatch):
        offered = {}

        class Recording(_RunningMin):
            def offer(self, ratios, keys):
                offered.update(zip(keys.tolist(), ratios.tolist()))
                super().offer(ratios, keys)

        monkeypatch.setattr(content, "_RunningMin", Recording)
        for i in range(40):
            g = corpus_graph(i, 3, 12)
            for x in self.potentials(g):
                offered.clear()
                res = neumann_content_sweep(g, x)
                ratios, value, a, b = one_a_at_a_time_sweep(g, x)
                assert {k: r.hex() for k, r in offered.items()} == \
                    {k: r.hex() for k, r in ratios.items()}, i
                assert res.value.hex() == value.hex(), i
                assert (res.witness_a, res.witness_b) == (a, b), i

    @pytest.mark.parametrize("ratio", [1e6, 1e12, 1e16])
    def test_stiff_weights_against_mpmath(self, ratio):
        mpmath = pytest.importorskip("mpmath")
        rng = Xorshift64Star(int(np.log10(ratio)))
        swept = 0
        for seed in range(40):
            g = stiff_graph(seed, ratio, ratio)
            x = random_vector(rng, g.vertex_count, -1.0, 1.0)
            try:
                res = neumann_content_sweep(g, x)
            except errors.SignCondition:
                continue
            with mpmath.workdps(60):
                energy = mp_energy_fn(mpmath, g)
                exact = {(a, b): (1 / sum(mpmath.mpf(g.masses[v]) for v in a)
                                  + 1 / sum(mpmath.mpf(g.masses[v]) for v in b))
                         * energy(a.members, b.members) for a, b in sweep_pairs(x)}
            floor = min(exact.values())
            assert abs(res.value - floor) <= 1e-15 * floor, seed
            won = exact[res.witness_a, res.witness_b]
            assert abs(res.value - won) <= 1e-15 * won, seed
            swept += 1
        assert swept >= 30

    def test_stack_cuts_never_change_a_bit(self, monkeypatch):
        graphs = [corpus_graph(i, 3, 12) for i in range(12)]
        graphs += [random_graph(30, 0.2, (0.1, 10.0), (0.1, 10.0), seed=s) for s in range(3)]
        runs = []
        for entries in (content.CHUNK_ENTRIES, 2000, 16):
            monkeypatch.setattr(content, "CHUNK_ENTRIES", entries)
            runs.append([neumann_content_sweep(g, x) for g in graphs
                         for x in self.potentials(g)])
        for whole, *cut in zip(*runs):
            for res in cut:
                assert res.value.hex() == whole.value.hex()
                assert (res.witness_a, res.witness_b) == (whole.witness_a, whole.witness_b)

    def test_huge_conductances_keep_a_representable_value(self):
        # r_j r_k at an eliminated vertex is 1e600, but the reduced
        # conductance 1e300 / 3 is a double, and so are psi and psi2
        g = path_graph([1.0] * 4, [1e300, 1e300, 1e300])
        res = neumann_content_sweep(g, np.array([-1.0, -0.5, 0.5, 1.0]))
        ends = VertexSet.of([0]), VertexSet.of([3])
        assert (res.witness_a, res.witness_b) == ends
        assert res.value == pytest.approx(2.0 / effective_resistance(g, *ends), rel=1e-15)
        value, a, b = pair_route_sweep(g, np.array([-1.0, -0.5, 0.5, 1.0]))
        assert res.value == pytest.approx(value, rel=1e-15) and (a, b) == ends
        psi2 = neumann_content_exact(g)
        assert psi2.value == pytest.approx(res.value, rel=1e-15)
        assert (psi2.witness_a, psi2.witness_b) == ends
        # A = {2, 3}: 1/R(S, A) = 1e300 / 2 over mu(A) = 2
        psi = dirichlet_content_exact(g, VertexSet.of([0]))
        assert psi.value == pytest.approx(2.5e299, rel=1e-15)
        assert psi.witness_a == VertexSet.of([2, 3])

    def test_overflow_is_a_typed_error(self):
        # A = {0, 1} meets vertex 2 through 2 x 1.7e308, past the largest double
        g = WeightedGraph((1.0,) * 4, ((0, 2, 1.7e308), (1, 2, 1.7e308), (2, 3, 1.0)))
        with pytest.raises(errors.NotRepresentable):
            neumann_content_sweep(g, np.array([-1.0, -1.0, 0.5, 1.0]))
        # vertex 1's pivot overflows: dropping its fill would read 2.0
        with pytest.raises(errors.NotRepresentable):
            neumann_content_sweep(overflowing_pivot_graph(), np.array([-1.0, 0.5, 1.0]))


def leaf_stack(rng, m, k=3):
    """A random (k, k, m) stack of networks with k - 2 vertices left (one
    by default), its terminals' masses and keys: conductances spread over
    six decades, some exactly 0 (an empty terminal, a vertex that meets
    neither terminal), and B's key 0 in some networks."""
    w = 10.0 ** rng.uniform(-3.0, 3.0, (k, k, m))
    w[rng.random((k, k, m)) < 0.15] = 0.0
    net = w + w.transpose(1, 0, 2)
    mu = rng.uniform(0.0, 3.0, (2, m))
    key = rng.integers(0, 1 << 20, (2, m))
    key[1, rng.random(m) < 0.3] = 0
    return net, mu, key


def outcome(content_of, *args):
    """(value's hex, witnesses), or (error class, message) for a typed
    error."""
    try:
        res = content_of(*args)
    except errors.HardySpectralError as exc:
        return type(exc), str(exc)
    return res.value.hex(), res.witness_a, res.witness_b


def psi_walk_cases():
    """(graph, boundary) pairs for psi's walk against its former route."""
    for i in range(40):
        g = corpus_graph(i)
        yield g, corpus_boundary(g, i)
    for g in (*TREE_TIE_GRAPHS.values(), *LAST_VERTEX_TIE_GRAPHS.values()):
        yield g, VertexSet.of([0])
    yield from zero_mass_cases()
    # an interior of zero-mass vertices only
    yield split_edge(path_graph([1.0, 1.0], [2.0]), (0, 1), [0.5, 0.25, 0.25]), VertexSet.of([0, 1])
    for ratio in (1e3, 1e6, 1e9, 1e12):
        for seed in range(20):
            yield stiff_graph(seed, ratio, ratio), VertexSet.of([0])
    for _, g in extreme_weight_fuzz():
        if g is not None:
            yield g, VertexSet.of([0])


LAST_VERTEX_TIE_GRAPHS = {
    **TIE_GRAPHS,
    "star-0.1": WeightedGraph((1.0,) * 5, tuple((0, v, 0.1) for v in range(1, 5))),
}


class TestClosedFormLeaves:
    """The trees score their last vertex from three entries of each
    network instead of building the (2, 2) leaf networks: psi2 in
    neumann_content_exact, psi in _last_two, and the former route in
    generic_tree._leaves. The reference builds the leaf networks:
    generic_tree._branch with kron_step (branch_leaves), also patched
    into the former routes, psi_by_generic_tree and psi2_by_generic_tree.

    Against the mutation that rewrites psi2's leaf elimination as
    a * b / d: the pivot test (through its representable 1e200 triangle),
    the tie test on the star of conductance 0.1 and both of
    TestPsi2Walk's former-route tests fail. The n = 2 test cannot: its
    one eliminated leaf has an empty A, so a = 0 and both forms give 0;
    it pins the value and witness of the smallest psi2."""

    def test_bit_for_bit_as_branch_children(self):
        rng = np.random.default_rng(11)
        m = 64
        runs = [np.arange(m) < m, np.arange(m) < 0, (np.arange(m) >= 5) & (np.arange(m) < 40),
                rng.random(m) < 0.5]
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(20):
                net, mu, key = leaf_stack(rng, m)
                masks = [psi_options(key, 0), psi2_options(key, 0)]
                masks += [[(keep, None), (keep, 0), (~keep, 1)] for keep in runs]
                for choices in masks:
                    got = generic_tree._leaves(net, mu, key, 0.5, 1 << 21, choices)
                    ref = branch_leaves(net, mu, key, 0.5, 1 << 21, choices)
                    for g, r in zip(got, ref):
                        assert g.shape == r.shape and g.tobytes() == r.tobytes()

    def test_zero_and_overflowing_pivots_raise_and_huge_conductances_do_not(self):
        # vertex 0, the last psi2 decides, meets only 1, through 1e-300; once
        # 1 is eliminated with 2 (1e300) in A or B, its fills 1e-300 / 1e300
        # * 1e300 underflow to 0, so 0's pivot is 0
        zero = WeightedGraph((1.0,) * 4, ((0, 1, 1e-300), (1, 2, 1e300), (2, 3, 1.0)))
        for psi2 in (neumann_content_exact, psi2_by_generic_tree):
            with pytest.raises(errors.NotRepresentable, match="overflowed"):
                psi2(zero)
        # the last vertex decided meets both terminals through 1e308, so its
        # pivot overflows: interior {0, 1} in id order for psi, and the ids
        # from the highest down for psi2
        psi_graph = WeightedGraph((1.0,) * 3, ((0, 1, 1e308), (0, 2, 1.0), (1, 2, 1e308)))
        psi2_graph = WeightedGraph((1.0,) * 3, ((0, 1, 1e308), (0, 2, 1e308), (1, 2, 1.0)))
        with pytest.raises(errors.NotRepresentable, match="overflowed"):
            dirichlet_content_exact(psi_graph, VertexSet.of([2]))
        with pytest.raises(errors.NotRepresentable, match="overflowed"):
            neumann_content_exact(psi2_graph)
        # at 1e200 only the product a * b overflows, which the division
        # first never forms: the contents scale with the conductances
        def contents(scale):
            g = WeightedGraph((1.0,) * 3, ((0, 1, scale), (0, 2, 0.5 * scale), (1, 2, scale)))
            return dirichlet_content_exact(g, VertexSet.of([2])), neumann_content_exact(g)

        for unit, big in zip(contents(1.0), contents(1e200)):
            assert big.value == pytest.approx(1e200 * unit.value, rel=1e-14)
            assert (big.witness_a, big.witness_b) == (unit.witness_a, unit.witness_b)

    def test_root_is_the_leaf_level(self):
        # an interior of one vertex: its energy is its conductance to S
        g = path_graph([1.0, 0.3, 2.0], [0.1, 0.2])
        res = dirichlet_content_exact(g, VertexSet.of([0, 2]))
        assert res.value.hex() == ((0.1 + 0.2) / 0.3).hex() and res.witness_a.members == (1,)

    def test_psi2_of_two_vertices(self):
        g = WeightedGraph((0.3, 0.7), ((0, 1, 0.1),))
        res = neumann_content_exact(g)
        assert res.value.hex() == ((1.0 / 0.3 + 1.0 / 0.7) * (0.0 + 0.1)).hex()
        assert (res.witness_a.members, res.witness_b.members) == ((0,), (1,))

    @pytest.mark.parametrize("name", sorted(LAST_VERTEX_TIE_GRAPHS))
    def test_ties_at_the_last_vertex_pick_the_smallest_key(self, name, monkeypatch):
        # star, boundary {0}: every set of leaves ties, so {1} beats {1, 4},
        # which differs from it only in the last vertex decided. In psi2 the
        # last vertex decided is 0: on the star it is eliminated between
        # the tied pairs of leaves, and the winner ({1}, {2}) reads
        # 0.1 / 0.2 * 0.1, where 0.1 * 0.1 / 0.2 is an ulp above
        g = LAST_VERTEX_TIE_GRAPHS[name]
        s = VertexSet.of([0])
        got = dirichlet_content_exact(g, s), neumann_content_exact(g)
        monkeypatch.setattr(generic_tree, "_leaves", branch_leaves)
        ref = psi_by_generic_tree(g, s), psi2_by_generic_tree(g)
        for a, b in zip(got, ref):
            assert a.value.hex() == b.value.hex()
            assert (a.witness_a, a.witness_b) == (b.witness_a, b.witness_b)
        _, _, a = smallest_key_in_tie_class(psi_candidates(g, s))
        _, _, a2, b2 = smallest_key_in_tie_class(psi2_candidates(g))
        assert got[0].witness_a.members == a
        assert (got[1].witness_a.members, got[1].witness_b.members) == (tuple(a2), tuple(b2))


class TestPsiWalk:
    """psi walks its own binary tree (dirichlet_content_exact): stacks of
    networks and keys only, masses from a table read at the leaves, and
    the last two vertices scored in closed form (content._last_two). The
    reference is psi's former route, the generic walk
    generic_tree._tree_minimum.

    Against the mutation that rewrites either elimination of _last_two
    as a * b / d (the fills of the second-to-last vertex, or the last
    vertex's), test_closed_form_is_branch_then_leaves fails."""

    @pytest.mark.parametrize("entries", [content.CHUNK_ENTRIES, 16])
    def test_same_bits_and_errors_as_the_former_route(self, entries, monkeypatch):
        monkeypatch.setattr(content, "CHUNK_ENTRIES", entries)
        kinds = set()
        for g, s in psi_walk_cases():
            got = outcome(dirichlet_content_exact, g, s)
            assert got == outcome(psi_by_generic_tree, g, s)
            kinds.add(got[0] if isinstance(got[0], type) else "value")
        assert kinds == {"value", errors.NotRepresentable, errors.ZeroInteriorMass}

    def test_closed_form_is_branch_then_leaves(self):
        rng = np.random.default_rng(17)
        bits = np.int64(1) << np.array([21, 22])
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(20):
                net, mu, key = leaf_stack(rng, 64, k=4)
                energy, got_key = content._last_two(net, key[0], bits)
                children = generic_tree._branch(net, mu, key, 0.5, bits[0],
                                                psi_options(key, 1))
                ref, _, ref_key = generic_tree._leaves(*children, 0.5, bits[1],
                                                       psi_options(key, 0))
                assert energy.shape == ref.shape and energy.tobytes() == ref.tobytes()
                assert got_key.tobytes() == ref_key[0].tobytes()

    def test_zero_and_overflowing_pivots_at_the_second_to_last_vertex_raise(self):
        # interior {0, 1, 2}: once 0 is eliminated, vertex 1's only
        # conductance, 1e-300 to it, leaves a fill of 1e-300 / 1e300 * 1e300,
        # which underflows to 0, so 1's pivot is 0
        zero = WeightedGraph((1.0,) * 4, ((0, 1, 1e-300), (0, 3, 1e300), (2, 3, 1.0)))
        # interior {0, 1}: vertex 0 meets 1 and S through 1e308
        overflowing = WeightedGraph((1.0,) * 3, ((0, 1, 1e308), (0, 2, 1e308), (1, 2, 1.0)))
        for g in (zero, overflowing):
            s = VertexSet.of([g.vertex_count - 1])
            for psi in (dirichlet_content_exact, psi_by_generic_tree):
                with pytest.raises(errors.NotRepresentable, match="overflowed"):
                    psi(g, s)

    def test_no_stack_of_children_passes_chunk_entries(self, monkeypatch):
        # every elimination half is half of its stack's children; at
        # interior 16 the stacks near the leaves are cut
        halves = []

        def step(r, rest):
            halves.append(rest.size)
            kron_step(r, rest)

        monkeypatch.setattr(content, "kron_step", step)
        g = random_graph(17, 0.3, (0.1, 10.0), (0.1, 10.0), seed=5)
        dirichlet_content_exact(g, VertexSet.of([0]))
        assert 2 * max(halves) <= content.CHUNK_ENTRIES < 4 * max(halves)

    @pytest.mark.parametrize("interior", [1, 2, 3])
    def test_small_interiors_against_the_former_route(self, interior):
        # roots at k = 3, 4 and 5: scored at once, scored at once from two
        # vertices, and one level above the closed form
        for seed in range(20):
            g = random_graph(interior + 1 + seed % 3, 0.5, (0.1, 10.0), (0.1, 10.0), seed=seed)
            s = VertexSet.of(range(interior, g.vertex_count))
            assert outcome(dirichlet_content_exact, g, s) == outcome(
                psi_by_generic_tree, g, s)


def psi2_walk_cases():
    """Graphs for psi2's walk against its former route: the corpus, the tie
    graphs, stiff graphs, random graphs of 2 to 12 vertices, the
    extreme-weight fuzz and one graph past each guard."""
    for i in range(40):
        yield corpus_graph(i)
    for graphs in (TIE_GRAPHS, TREE_TIE_GRAPHS, LAST_VERTEX_TIE_GRAPHS):
        yield from graphs.values()
    for ratio in (1e3, 1e6, 1e9, 1e12):
        for seed in range(20):
            yield stiff_graph(seed, ratio, ratio)
    for n in range(2, NEUMANN_ENUM_LIMIT + 1):
        for seed in range(2):
            yield random_graph(n, 0.4, (0.1, 10.0), (0.1, 10.0), seed=seed)
    for _, g in extreme_weight_fuzz():
        if g is not None:
            yield g
    yield WeightedGraph((1.0,), ())
    yield random_graph(NEUMANN_ENUM_LIMIT + 1, 0.4, (0.1, 10.0), (0.1, 10.0), seed=0)
    yield split_edge(path_graph([1.0, 1.0], [2.0]), (0, 1), [0.5, 0.5])


def pair_count(n):
    """The unordered pairs of disjoint nonempty sets of n vertices: of the
    3^n labellings by (neither, A, B), those with A or B empty are dropped
    (2 * 2^n - 1 of them) and the rest come in mirror pairs."""
    return (3 ** n - 2 ** (n + 1) + 1) // 2


class TestPsi2Walk:
    """psi2 walks its own three-way tree (neumann_content_exact): stacks
    of networks and (2, m) keys only, at most one network per stack with
    B empty, always the first, masses from a table read at the leaves, and
    the last vertex scored in closed form. The reference is psi2's former
    route, the generic walk generic_tree._tree_minimum.

    Against the mutation that gives the network with B empty an A child,
    and the one that lets it be eliminated with two vertices left (k = 4),
    the former-route test and test_scores_each_unordered_pair_once
    fail."""

    @pytest.mark.parametrize("entries", [content.CHUNK_ENTRIES, 16])
    def test_same_bits_and_errors_as_the_former_route(self, entries, monkeypatch):
        # at 16 entries every stack is cut to one network, so a network's
        # bits must not depend on its stack; n = 9 already has rows of ten
        # conductances, and n = 10 to 12 would take half a minute there
        monkeypatch.setattr(content, "CHUNK_ENTRIES", entries)
        kinds = set()
        for g in psi2_walk_cases():
            if entries == 16 and 9 < g.vertex_count <= NEUMANN_ENUM_LIMIT:
                continue
            got = outcome(neumann_content_exact, g)
            assert got == outcome(psi2_by_generic_tree, g)
            kinds.add(got[0] if isinstance(got[0], type) else "value")
        assert kinds == {"value", errors.NotRepresentable, errors.EmptySet, errors.TooLarge,
                         errors.ZeroMass}

    def test_scores_each_unordered_pair_once(self, monkeypatch):
        keys = []

        class Counting(_RunningMin):
            def offer(self, ratios, keys_of):
                keys.append(keys_of)
                super().offer(ratios, keys_of)

        monkeypatch.setattr(content, "_RunningMin", Counting)
        monkeypatch.setattr(generic_tree, "_RunningMin", Counting)
        for n in range(2, NEUMANN_ENUM_LIMIT + 1):
            g = random_graph(n, 0.4, (0.1, 10.0), (0.1, 10.0), seed=n)
            routes = (neumann_content_exact, psi2_by_generic_tree) if n <= 9 else (
                neumann_content_exact,)
            for psi2 in routes:
                keys.clear()
                psi2(g)
                scored = np.concatenate(keys)
                a, b = scored >> n, scored & ((1 << n) - 1)
                assert scored.size == np.unique(scored).size == pair_count(n)
                assert (a != 0).all() and (a & b == 0).all() and (a < b).all()

    def test_no_stack_of_children_passes_chunk_entries(self, monkeypatch):
        # kron_step gets the first part of a stack's children, a view of
        # the one copy that holds them all; at n = 12 the stacks near the
        # leaves are cut
        children = []

        def step(r, rest):
            children.append(rest.base.size)
            kron_step(r, rest)

        monkeypatch.setattr(content, "kron_step", step)
        neumann_content_exact(random_graph(NEUMANN_ENUM_LIMIT, 0.4, (0.1, 10.0), (0.1, 10.0),
                                           seed=5))
        assert 2 * max(children) > content.CHUNK_ENTRIES >= max(children)

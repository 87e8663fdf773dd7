import numpy as np
import pytest

from hardy_spectral import (VertexSet, WeightedGraph, components, dirichlet_eigenvalue,
                            dirichlet_eigenvalues, harmonic_extension, laplacian,
                            neumann_eigenvalue, path_graph, pinch,
                            rayleigh_quotient, run_suite)
from hardy_spectral import errors, spectral, suite
from hardy_spectral.graph import interior_of
from hardy_spectral.rng import Xorshift64Star
from hardy_spectral.suite import _random_mixed_sign_f, _worst_sides

from conftest import corpus_boundary, corpus_graph, random_vector, stiff_graph

GOLDEN = (3 - 5 ** 0.5) / 2  # smallest eigenvalue of [[2,-1],[-1,1]]
UNIFORM_N3_DIRICHLET = 0.19806226419516171  # smallest eig of the N=3 interior block


class TestLaplacian:
    def test_single_edge(self):
        g = WeightedGraph((1.0, 1.0), ((0, 1, 2.0),))
        lap = laplacian(g)
        assert lap.tolist() == [[2.0, -2.0], [-2.0, 2.0]]
        assert g.mass_vector.tolist() == [1.0, 1.0]
        assert np.diag(lap).tolist() == [2.0, 2.0]

    def test_p3(self, p3):
        lap = laplacian(p3)
        assert lap.tolist() == [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]

    def test_assembled_once_and_read_only(self, p3):
        lap = laplacian(p3)
        assert laplacian(p3) is lap
        with pytest.raises(ValueError):
            lap[0, 0] = 5.0

    def test_rows_sum_to_zero(self):
        for i in range(10):
            g = corpus_graph(i)
            lap = laplacian(g)
            assert np.abs(lap.sum(axis=1)).max() <= 1e-12


class TestNeumann:
    def test_two_node_closed_form(self, two_node):
        # kappa * (1/mu_a + 1/mu_b) = 3 * 1.5
        res = neumann_eigenvalue(two_node)
        assert res.eigenvalue == pytest.approx(4.5, rel=1e-12)

    def test_p3(self, p3):
        assert neumann_eigenvalue(p3).eigenvalue == pytest.approx(1.0, rel=1e-10)

    def test_triangle(self, triangle):
        assert neumann_eigenvalue(triangle).eigenvalue == pytest.approx(3.0, rel=1e-10)

    def test_mass_orthogonality_and_residual(self):
        for i in range(20):
            g = corpus_graph(i)
            res = neumann_eigenvalue(g)
            lap, mass = laplacian(g), np.diag(g.mass_vector)
            x = res.eigenvector
            mx = mass @ x
            assert abs(x @ mass @ np.ones(g.vertex_count)) <= 1e-10 * np.abs(mx).sum()
            assert np.linalg.norm(lap @ x - res.eigenvalue * mx) <= \
                1e-9 * np.linalg.norm(lap @ x)
            assert res.eigenvalue > 0.0

    def test_sign_convention(self):
        for i in range(10):
            x = neumann_eigenvalue(corpus_graph(i)).eigenvector
            assert x[int(np.argmax(np.abs(x)))] > 0.0

    def test_zero_mass_rejected(self):
        g = WeightedGraph((0.0, 1.0), ((0, 1, 1.0),))
        with pytest.raises(errors.ZeroMass):
            neumann_eigenvalue(g)

    def test_disconnected_rejected(self):
        with pytest.raises(errors.Disconnected):
            neumann_eigenvalue(WeightedGraph((1.0, 1.0, 1.0, 1.0), ((0, 1, 1.0), (2, 3, 1.0))))


class TestDirichlet:
    def test_one_by_one(self):
        g = WeightedGraph((5.0, 1.0), ((0, 1, 1.0),))
        res = dirichlet_eigenvalue(g, VertexSet.of([0]))
        assert res.eigenvalue == pytest.approx(1.0, rel=1e-12)

    def test_p3_boundary_v0(self, p3):
        res = dirichlet_eigenvalue(p3, VertexSet.of([0]))
        assert res.eigenvalue == pytest.approx(GOLDEN, rel=1e-10)
        assert res.eigenvector[0] == 0.0

    def test_uniform_n3_path(self):
        g = path_graph([0, 1, 1, 1], [1, 1, 1])
        res = dirichlet_eigenvalue(g, VertexSet.of([0]))
        assert res.eigenvalue == pytest.approx(UNIFORM_N3_DIRICHLET, rel=1e-10)

    def test_boundary_mass_never_enters(self):
        heavy = path_graph([1e9, 1, 1], [1, 1])
        zero = path_graph([0, 1, 1], [1, 1])
        s = VertexSet.of([0])
        assert dirichlet_eigenvalue(heavy, s).eigenvalue == pytest.approx(
            dirichlet_eigenvalue(zero, s).eigenvalue, rel=1e-12)

    def test_zero_padding_and_residual(self):
        for i in range(20):
            g = corpus_graph(i)
            s = corpus_boundary(g, i)
            res = dirichlet_eigenvalue(g, s)
            assert all(res.eigenvector[v] == 0.0 for v in s)
            assert res.eigenvalue > 0.0
            lap = laplacian(g)
            interior = [v for v in range(g.vertex_count) if v not in set(s.members)]
            sub = lap[np.ix_(interior, interior)]
            xi = res.eigenvector[interior]
            mi = g.mass_vector[interior]
            assert np.linalg.norm(sub @ xi - res.eigenvalue * mi * xi) <= \
                1e-9 * max(np.linalg.norm(sub @ xi), 1e-300)

    def test_bad_boundaries(self, p3):
        with pytest.raises(errors.BadBoundary):
            dirichlet_eigenvalue(p3, VertexSet.of([]))
        with pytest.raises(errors.BadBoundary):
            dirichlet_eigenvalue(p3, VertexSet.of([0, 1, 2]))

    def test_zero_interior_mass_rejected(self):
        g = path_graph([1, 0, 1], [1, 1])
        with pytest.raises(errors.ZeroMass):
            dirichlet_eigenvalue(g, VertexSet.of([0]))

    def test_monotone_in_boundary(self):
        # enlarging the boundary can only raise the eigenvalue
        rng = Xorshift64Star(61)
        for i in range(20):
            g = corpus_graph(i)
            n = g.vertex_count
            small = corpus_boundary(g, i)
            if len(small) >= n - 1:
                continue
            extra = [v for v in range(n) if v not in set(small.members)]
            grown = small.union(VertexSet.of(
                rng.sample_without_replacement(extra, 1)))
            if len(grown) >= n:
                continue
            lam_small = dirichlet_eigenvalue(g, small).eigenvalue
            lam_grown = dirichlet_eigenvalue(g, grown).eigenvalue
            assert lam_small <= lam_grown + 1e-10

    def test_pinched_graph_boundaries_cover_zero_mass(self):
        # every zero-mass vertex a pinch inserts lands in both one-sided
        # boundary sets, so the interiors stay strictly positive
        rng = Xorshift64Star(67)
        for i in range(10):
            g = corpus_graph(i)
            f = [rng.uniform_in(-1, 1) for _ in range(g.vertex_count)]
            f[0], f[1] = -1.0, 1.0
            p = pinch(g, f)
            zero_mass = {v for v, m in enumerate(p.graph.masses) if m == 0.0}
            assert zero_mass <= set(p.nonpositive_set)
            assert zero_mass <= set(p.nonnegative_set)
            for boundary in (p.nonpositive_set, p.nonnegative_set):
                res = dirichlet_eigenvalue(p.graph, boundary)
                assert res.eigenvalue > 0.0


class TestHarmonicExtension:
    def test_linear_interpolation(self, p3):
        x = harmonic_extension(p3, {0: 0.0, 2: 1.0})
        assert x[1] == pytest.approx(0.5, rel=1e-12)

    def test_all_fixed_returns_input(self, p3):
        x = harmonic_extension(p3, {0: 3.0, 1: -1.0, 2: 2.0})
        assert x.tolist() == [3.0, -1.0, 2.0]

    def test_star_center_is_neighbor_average(self):
        star = WeightedGraph((1.0, 1.0, 1.0, 1.0),
                             ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
        x = harmonic_extension(star, {1: 0.0, 2: 3.0, 3: 3.0})
        assert x[0] == pytest.approx(2.0, rel=1e-12)

    def test_empty_fixed_rejected(self, p3):
        with pytest.raises(errors.EmptyFixedSet):
            harmonic_extension(p3, {})

    def test_minimizes_energy(self):
        # any perturbation of the free values can only raise the energy
        rng = Xorshift64Star(71)
        for i in range(10):
            g = corpus_graph(i)
            fixed = {0: 1.0, g.vertex_count - 1: -1.0}
            x = harmonic_extension(g, fixed)
            lap = laplacian(g)
            base = x @ lap @ x
            for _ in range(5):
                y = x + random_vector(rng, g.vertex_count, -0.1, 0.1)
                for v, val in fixed.items():
                    y[v] = val
                assert y @ lap @ y >= base - 1e-12


class TestRayleighQuotient:
    def test_eigenvector_attains_eigenvalue(self, two_node):
        res = neumann_eigenvalue(two_node)
        assert rayleigh_quotient(two_node, res.eigenvector) == pytest.approx(
            res.eigenvalue, rel=1e-10)

    def test_interior_indicator_on_p3(self, p3):
        lam = rayleigh_quotient(p3, np.array([0.0, 1.0, 0.0]), VertexSet.of([0]))
        assert lam == pytest.approx(2.0, rel=1e-12)
        assert lam >= dirichlet_eigenvalue(p3, VertexSet.of([0])).eigenvalue

    def test_scale_invariant(self, p3):
        x = np.array([0.0, 1.0, 2.0])
        assert rayleigh_quotient(p3, 7.5 * x) == pytest.approx(
            rayleigh_quotient(p3, x), rel=1e-12)

    def test_zero_vector_rejected(self, p3):
        with pytest.raises(errors.ZeroVector):
            rayleigh_quotient(p3, np.zeros(3))

    def test_boundary_violation(self, p3):
        with pytest.raises(errors.BoundaryViolated):
            rayleigh_quotient(p3, np.array([0.5, 1.0, 0.0]), VertexSet.of([0]))

    def test_variational_upper_bound(self):
        # random feasible vectors never undercut the computed eigenvalues
        rng = Xorshift64Star(41)
        for i in range(10):
            g = corpus_graph(i)
            n = g.vertex_count
            lam2 = neumann_eigenvalue(g).eigenvalue
            mass = g.mass_vector
            for _ in range(100):
                x = random_vector(rng, n)
                x = x - (x @ mass) / mass.sum()  # M-orthogonal to constants
                assert rayleigh_quotient(g, x) >= lam2 - 1e-9
            s = corpus_boundary(g, i)
            lam = dirichlet_eigenvalue(g, s).eigenvalue
            for _ in range(100):
                x = random_vector(rng, n)
                for v in s:
                    x[v] = 0.0
                assert rayleigh_quotient(g, x, s) >= lam - 1e-9


class TestScaleCovariance:
    def test_conductance_scaling(self):
        for i in range(8):
            g = corpus_graph(i)
            c = 3.7
            scaled = WeightedGraph(g.masses,
                                   tuple((u, v, c * k) for (u, v, k) in g.edges))
            assert neumann_eigenvalue(scaled).eigenvalue == pytest.approx(
                c * neumann_eigenvalue(g).eigenvalue, rel=1e-10)
            s = corpus_boundary(g, i)
            assert dirichlet_eigenvalue(scaled, s).eigenvalue == pytest.approx(
                c * dirichlet_eigenvalue(g, s).eigenvalue, rel=1e-10)

    def test_mass_scaling(self):
        for i in range(8):
            g = corpus_graph(i)
            c = 2.25
            scaled = WeightedGraph(tuple(c * m for m in g.masses), g.edges)
            assert neumann_eigenvalue(scaled).eigenvalue == pytest.approx(
                neumann_eigenvalue(g).eigenvalue / c, rel=1e-10)


def spider(legs: int, length: int, seed: int) -> tuple[WeightedGraph, int, list[set[int]]]:
    """Unit-weight spider with shuffled ids: (graph, centre id, the legs'
    id sets)."""
    n = 1 + legs * length
    ids = Xorshift64Star(seed).sample_without_replacement(list(range(n)), n)
    edges, leg_sets = [], []
    for leg in range(legs):
        chain = [0] + [1 + leg * length + j for j in range(length)]
        edges += [(ids[a], ids[b]) for a, b in zip(chain, chain[1:])]
        leg_sets.append({ids[v] for v in chain[1:]})
    edges = tuple(sorted((min(u, v), max(u, v), 1.0) for u, v in edges))
    return WeightedGraph((1.0,) * n, edges), ids[0], leg_sets


class TestSplitInterior:
    """A boundary that cuts the interior into pieces: each piece is its own
    eigenproblem, and the ground state must live on one piece only."""

    CASES = [spider(3, 4, 1), spider(4, 3, 0), spider(5, 4, 0),
             (path_graph([1.0] * 5, [1.0] * 4), 2, [{0, 1}, {3, 4}])]

    @pytest.mark.parametrize("graph,centre,pieces", CASES,
                             ids=["spider-3x4", "spider-4x3", "spider-5x4", "path-5"])
    def test_tied_pieces_lowest_id_wins(self, graph, centre, pieces):
        boundary = VertexSet.of([centre])
        rep = run_suite(graph, boundary=boundary, suites=["path-reduction"])
        assert rep.all_hold, rep.checks
        x = dirichlet_eigenvalue(graph, boundary).eigenvector
        support = set(np.flatnonzero(x).tolist())
        assert support == min(pieces, key=min)
        assert np.all(x >= 0.0)

    def test_smallest_piece_eigenvalue_wins(self):
        # boundary {1} leaves {0} (eigenvalue 1) and the path {2, 3, 4}
        # (eigenvalue 2 - 2 cos(pi/7)), which holds the ground state
        g = path_graph([1.0] * 5, [1.0] * 4)
        res = dirichlet_eigenvalue(g, VertexSet.of([1]))
        assert res.eigenvalue == pytest.approx(2 - 2 * np.cos(np.pi / 7), rel=1e-13)
        assert set(np.flatnonzero(res.eigenvector).tolist()) == {2, 3, 4}


class TestStiffGraphs:
    """Seeded 7-vertex graphs whose conductances (and masses) are 1 or
    1e3. eigh alone leaves the small eigenvector differences across the
    stiff edges wrong enough to fail a path reduction."""

    @pytest.mark.parametrize("mass_ratio", [1.0, 1e3])
    def test_every_report_holds(self, mass_ratio):
        for seed in range(100):
            g = stiff_graph(seed, 1e3, mass_ratio)
            rep = run_suite(g, boundary=VertexSet.of([0]), seed=seed)
            assert rep.all_hold, (seed, [c for c in rep.checks if not c.holds])

    def test_eigenvalues_match_mpmath_at_ratio_1e6(self):
        # without the inverse-iteration polish, eigh's eigenvectors give
        # errors up to 7e-8 (lambda2) and 3e-10 (Dirichlet) on these graphs
        mpmath = pytest.importorskip("mpmath")

        def oracle(g, vertices, k):
            # k-th smallest eigenvalue of M^-1/2 L M^-1/2 on `vertices`
            a = mpmath.matrix(len(vertices), len(vertices))
            for i, u in enumerate(vertices):
                for j, v in enumerate(vertices):
                    lap_uv = (sum(mpmath.mpf(c) for (p, q, c) in g.edges if u in (p, q))
                              if u == v else
                              -sum(mpmath.mpf(c) for (p, q, c) in g.edges if {p, q} == {u, v}))
                    a[i, j] = lap_uv / mpmath.sqrt(mpmath.mpf(g.masses[u]) * g.masses[v])
            return float(sorted(mpmath.eigsy(a, eigvals_only=True))[k])

        for seed in range(20):
            g = stiff_graph(seed, 1e6, 1e6)
            with mpmath.workdps(50):
                lam_d = oracle(g, list(range(1, g.vertex_count)), 0)
                lam_2 = oracle(g, list(range(g.vertex_count)), 1)
            assert dirichlet_eigenvalue(g, VertexSet.of([0])).eigenvalue == \
                pytest.approx(lam_d, rel=1e-10, abs=0.0)
            assert neumann_eigenvalue(g).eigenvalue == pytest.approx(lam_2, rel=1e-10, abs=0.0)

    def test_unresolved_fundamental_mode_is_a_typed_error(self):
        # at ratio 1e16 a unit conductance is below the rounding of its
        # stiff neighbours, and the second mode comes out one-signed
        g = stiff_graph(1, 1e16, 1e16)
        with pytest.raises(errors.NoConvergence):
            neumann_eigenvalue(g)
        rep = run_suite(g, boundary=VertexSet.of([0]), suites=["neumann", "cheeger", "pinch"])
        assert [c.name for c in rep.checks] == ["neumann", "cheeger", "pinch"]
        assert not any(c.holds for c in rep.checks)


class TestBatchedDirichlet:
    """dirichlet_eigenvalues stacks the pieces of many problems by size;
    a problem's answer must not depend on the batch it is solved in."""

    @staticmethod
    def same(a, b):
        return (a.eigenvalue == b.eigenvalue and a.residual == b.residual
                and np.array_equal(a.eigenvector, b.eigenvector) and a.boundary == b.boundary)

    def test_batch_matches_solo_bit_for_bit(self):
        rng = Xorshift64Star(401)
        problems = []
        for i in range(30):
            g = corpus_graph(i)
            for _ in range(5):
                p = pinch(g, _random_mixed_sign_f(rng, g.vertex_count))
                problems += [(p.graph, p.nonnegative_set), (p.graph, p.nonpositive_set)]
        for seed in range(20):
            g = stiff_graph(seed, 1e9, 1e9)
            problems += [(g, VertexSet.of([0])), (g, corpus_boundary(g, seed))]
        batch = dirichlet_eigenvalues(problems)
        assert len(batch) == len(problems) == 340
        for (g, boundary), res in zip(problems, batch):
            assert self.same(res, dirichlet_eigenvalue(g, boundary))

    def test_failing_problem_keeps_the_others_solo(self):
        # the 1e-17 edge vanishes next to 1 on the diagonal, so pinching it
        # leaves the piece {1, 2, 3} with an exactly singular L_PP; the
        # third potential's size-3 piece shares its stack
        g = path_graph([1.0] * 4, [1e-17, 1.0, 1.0])
        fs = [[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0]]
        pinched = [pinch(g, f) for f in fs]
        problems = [(p.graph, side) for p in pinched
                    for side in (p.nonnegative_set, p.nonpositive_set)]
        problems.insert(2, (g, VertexSet.of([])))  # fails its guard
        batch = dirichlet_eigenvalues(problems)
        assert isinstance(batch[2], errors.BadBoundary)
        assert isinstance(batch[4], errors.NotPositiveDefinite)
        for i in (0, 1, 3, 5, 6):
            assert self.same(batch[i], dirichlet_eigenvalue(*problems[i]))
        # each potential keeps its own outcome, hence its own pinch row
        worst = _worst_sides(g, fs)
        assert isinstance(worst[1], errors.NotPositiveDefinite)
        assert [worst[0], worst[2]] == [_worst_sides(g, [fs[0]])[0], _worst_sides(g, [fs[2]])[0]]

    def test_one_stacked_eigh_per_piece_size(self, monkeypatch):
        pinched, stacks = [], []

        def counted_pinch(graph, f):
            pinched.append(pinch(graph, f))
            return pinched[-1]

        def counted_eigenpairs(blocks, ground, mass, k):
            if k == 0:
                stacks.append(blocks.shape)
            return eigenpairs(blocks, ground, mass, k)

        eigenpairs = spectral._eigenpairs
        monkeypatch.setattr(suite, "pinch", counted_pinch)
        monkeypatch.setattr(spectral, "_eigenpairs", counted_eigenpairs)
        g = corpus_graph(7, 8, 8)
        rep = run_suite(g, suites=["pinch"], seed=3)
        assert rep.all_hold and len(rep.checks) == 11 and len(pinched) == 11
        sizes = [len(piece) for p in pinched for side in (p.nonnegative_set, p.nonpositive_set)
                 for piece in components(p.graph, interior_of(p.graph, side))]
        assert len(sizes) > len(set(sizes))
        assert sorted(shape[1] for shape in stacks) == sorted(set(sizes))
        assert sum(shape[0] for shape in stacks) == len(sizes)

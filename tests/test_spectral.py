import numpy as np
import pytest

from hardy_spectral import (VertexSet, WeightedGraph, dirichlet_eigenvalue,
                            harmonic_extension, laplacian, neumann_eigenvalue,
                            path_graph, pinch, quadratic_form,
                            rayleigh_quotient)
from hardy_spectral import errors
from hardy_spectral.rng import Xorshift64Star

from conftest import corpus_boundary, corpus_graph, random_vector

GOLDEN = (3 - 5 ** 0.5) / 2  # smallest eigenvalue of [[2,-1],[-1,1]]
UNIFORM_N3_DIRICHLET = 0.19806226419516171  # smallest eig of the N=3 interior block


class TestLaplacian:
    def test_single_edge(self):
        g = WeightedGraph((1.0, 1.0), ((0, 1, 2.0),))
        lap, mass, deg = laplacian(g)
        assert lap.tolist() == [[2.0, -2.0], [-2.0, 2.0]]
        assert mass.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert deg.tolist() == [[2.0, 0.0], [0.0, 2.0]]

    def test_p3(self, p3):
        lap, _, _ = laplacian(p3)
        assert lap.tolist() == [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]

    def test_assembled_once_and_read_only(self, p3):
        lap, _, _ = laplacian(p3)
        assert laplacian(p3)[0] is lap
        with pytest.raises(ValueError):
            lap[0, 0] = 5.0

    def test_rows_sum_to_zero(self):
        for i in range(10):
            g = corpus_graph(i)
            lap, _, _ = laplacian(g)
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
            lap, mass, _ = laplacian(g)
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
        g = WeightedGraph((1.0, 1.0, 1.0, 1.0), ((0, 1, 1.0), (2, 3, 1.0)))
        with pytest.raises(errors.Disconnected):
            neumann_eigenvalue(g)


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
            lap, _, _ = laplacian(g)
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
            lap, _, _ = laplacian(g)
            base = quadratic_form(lap, x)
            for _ in range(5):
                y = x + random_vector(rng, g.vertex_count, -0.1, 0.1)
                for v, val in fixed.items():
                    y[v] = val
                assert quadratic_form(lap, y) >= base - 1e-12


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

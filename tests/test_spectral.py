import sys
from fractions import Fraction

import numpy as np
import pytest

from hardy_spectral import (VertexSet, WeightedGraph, components, dirichlet_eigenvalue,
                            harmonic_extension, laplacian, neumann_eigenvalue,
                            path_graph, pinch, random_graph, rayleigh_quotient, run_suite)
from hardy_spectral import errors, spectral, suite
from hardy_spectral import graph as graph_module
from hardy_spectral.cli import main
from hardy_spectral.graph import conductance_to, quantize_zeros
from hardy_spectral.rng import Xorshift64Star
from hardy_spectral.wgr import serialize_wgr

from conftest import (EXTREME_SCALES, WEIGHT_SCALES, corpus_boundary, corpus_graph,
                      edge_energy, extreme_weight_fuzz, mixed_sign_fs, oracle_laplacian,
                      random_vector, sample_without_replacement, scaled_by_powers_of_two,
                      stiff_graph, worst_sides)

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

    def test_read_only(self, p3):
        lap = laplacian(p3)
        with pytest.raises(ValueError):
            lap[0, 0] = 5.0

    def test_degrees_are_the_diagonal_bit_for_bit(self):
        graphs = [corpus_graph(i) for i in range(100)]
        graphs += [g for _t, g in extreme_weight_fuzz() if g is not None]
        for g in graphs:
            degrees = np.array([g.degree(v) for v in range(g.vertex_count)])
            assert degrees.tobytes() == np.diag(laplacian(g)).tobytes(), g

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
            lap, mass = oracle_laplacian(g), np.diag(g.mass_vector)
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

    def test_one_vertex_rejected(self):
        with pytest.raises(errors.DimensionMismatch, match="at least two vertices"):
            neumann_eigenvalue(WeightedGraph((1.0,), ()))

    def test_eigenvalue_past_the_doubles(self):
        # lambda2 = 2e308: the polish's energy overflows from its first step
        with pytest.raises(errors.NotRepresentable, match="the eigenvalue overflows"):
            neumann_eigenvalue(path_graph([1.0, 1.0], [1e308]))

    @pytest.mark.parametrize("cap, steps", [(64, [29, 2, 4]), (5, [5, 2, 4])],
                             ids=["cap64", "cap5"])
    def test_a_stack_matches_solo_as_its_rows_settle(self, monkeypatch, cap, steps):
        # k = 1 on one stack of three 7-vertex graphs whose polish settles
        # after 29, 2 and 4 steps: the stack solves only the rows still
        # moving, and each row is its solo call's, bit for bit. At a cap
        # of 5 steps the first row stops at the cap beside rows that settle
        monkeypatch.setattr(spectral, "MAX_POLISH_STEPS", cap)
        graphs = [stiff_graph(9, 1e9, 1e9), corpus_graph(0, 7, 7), stiff_graph(5, 1e9, 1e9)]
        solved = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: (solved.append(len(a)), solve(a, b))[1])

        def eigenpairs(gs):
            return spectral._eigenpairs(np.stack([g.conductance_matrix for g in gs]),
                                        np.zeros((len(gs), 7)),
                                        np.stack([g.mass_vector for g in gs]), 1)

        solo = []
        for g in graphs:
            solved.clear()
            solo.append((*eigenpairs([g]), len(solved)))
        assert [n for *_, n in solo] == steps
        solved.clear()
        lam, x = eigenpairs(graphs)
        assert solved == [3] * 2 + [2] * 2 + [1] * (steps[0] - 4)
        for i, (lam_i, x_i, _steps) in enumerate(solo):
            assert lam[i] == lam_i[0] and x[i].tobytes() == x_i[0].tobytes()


class TestReadOnlyEigenvector:
    def test_writes_raise(self, p3, monkeypatch):
        # the eigenvector is read-only whether or not its sign was flipped
        flips = []

        def spy(x, canonical=spectral._canonical_sign):
            y = canonical(x)
            flips.append(y is not x)
            return y

        monkeypatch.setattr(spectral, "_canonical_sign", spy)
        path5 = path_graph([1.0] * 5, [1.0] * 4)
        results = [neumann_eigenvalue(corpus_graph(0)), neumann_eigenvalue(p3),
                   # the interior {0, 1} + {3, 4}, in two pieces
                   dirichlet_eigenvalue(path5, VertexSet.of([2]))]
        assert set(flips) == {False, True}
        for res in results:
            with pytest.raises(ValueError, match="read-only"):
                res.eigenvector[0] = 1.0


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
            lap = oracle_laplacian(g)
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
                sample_without_replacement(rng, extra, 1)))
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_fixed_value_is_a_typed_error(self, p3, bad):
        # NaN or inf once spread to every free vertex with no error
        for fixed, vertex in (({0: bad, 2: 1.0}, 0), ({2: bad, 0: 1.0, 1: bad}, 1)):
            with pytest.raises(errors.NonFinitePotential) as info:
                harmonic_extension(p3, fixed)
            assert info.value.vertex == vertex

    def test_minimizes_energy(self):
        # any perturbation of the free values can only raise the energy
        rng = Xorshift64Star(71)
        for i in range(10):
            g = corpus_graph(i)
            fixed = {0: 1.0, g.vertex_count - 1: -1.0}
            x = harmonic_extension(g, fixed)
            base = edge_energy(g, x)
            for _ in range(5):
                y = x + random_vector(rng, g.vertex_count, -0.1, 0.1)
                for v, val in fixed.items():
                    y[v] = val
                assert edge_energy(g, y) >= base - 1e-12


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

    def test_no_scale_of_x_leaves_the_doubles(self):
        # x goes to max |x| in [1/2, 1) first, exactly: 1e200 squared once
        # overflowed to inf / inf = NaN (with RuntimeWarnings, errors in
        # this suite), and 1e-200 squared underflowed to a zero norm
        g = path_graph([1.0, 1.0, 1.0], [1.0, 2.0])
        assert rayleigh_quotient(g, [1e200, -1e200, 0.0]) == 3.0
        assert rayleigh_quotient(g, [1e-200, 0.0, 0.0]) == 1.0
        rng = Xorshift64Star(43)
        for i in range(10):
            g = corpus_graph(i)
            s = corpus_boundary(g, i)
            x = random_vector(rng, g.vertex_count)
            pinned = np.where(g.row(s), 0.0, x)
            for e in (600, -600):
                assert rayleigh_quotient(g, np.ldexp(x, e)) == rayleigh_quotient(g, x)
                assert (rayleigh_quotient(g, np.ldexp(pinned, e), s)
                        == rayleigh_quotient(g, pinned, s))

    def test_no_scale_of_the_weights_leaves_the_doubles(self):
        # at 5e-324 the norm once underflowed to 0 (a NotRepresentable inf),
        # and at 1e-310 the quotient lost bits to the subnormals
        for weight in (5e-324, 1e-310):
            g = WeightedGraph((weight, weight), ((0, 1, weight),))
            assert rayleigh_quotient(g, [1.0, -1.0]) == 2.0
        rng = Xorshift64Star(47)
        for i in range(10):
            g = corpus_graph(i)
            s = corpus_boundary(g, i)
            x = random_vector(rng, g.vertex_count)
            pinned = np.where(g.row(s), 0.0, x)
            for mass_exp, kappa_exp in WEIGHT_SCALES:
                scaled = scaled_by_powers_of_two(g, mass_exp, kappa_exp)
                assert rayleigh_quotient(scaled, x) == np.ldexp(rayleigh_quotient(g, x),
                                                                kappa_exp - mass_exp)
                assert rayleigh_quotient(scaled, pinned, s) == np.ldexp(
                    rayleigh_quotient(g, pinned, s), kappa_exp - mass_exp)

    def test_no_spread_of_the_weights_leaves_the_doubles(self):
        # a weight whose term vanishes (a boundary vertex's mass, a stiff
        # edge whose ends hold equal values) sets no scale for the others
        cases = [(path_graph([1e300, 1e-30], [1.0]), [0.0, 1.0]),
                 (path_graph([1e300, 3e-20, 3e-20], [1.0, 2.0]), [0.0, 1.0, 0.7]),
                 (path_graph([1e-300, 1e-300, 1e-300], [1e308, 3e-20]), [1.0, 1.0, 0.3]),
                 (path_graph([1e-300, 1.0, 3e-20], [1e308, 3e-20]), [0.5, 0.5, -0.25]),
                 (path_graph([5e-324, 1.0, 1e300], [5e-324, 1e-300]), [1.0, 1e-160, 0.0])]
        for g, x in cases:
            u = [Fraction(value) for value in x]
            exact = (sum(Fraction(k) * (u[a] - u[b]) ** 2 for a, b, k in g.edges)
                     / sum(Fraction(m) * value ** 2 for m, value in zip(g.masses, u)))
            assert abs(Fraction(rayleigh_quotient(g, x)) - exact) <= exact * 2.0 ** -50
            if x[0] == 0.0:
                assert rayleigh_quotient(g, x, VertexSet.of([0])) == rayleigh_quotient(g, x)
        # one term a sum, so both sums are exact: the subnormal quotient is
        # rounded once, by the division, where rounding to 53 bits first
        # and then onto the subnormals gives one ulp more
        mass, kappa = 8.07309952170507e307, 1.450339366649287
        assert (rayleigh_quotient(path_graph([mass, 1.0], [kappa]), [1.0, 0.0])
                == float(Fraction(kappa) / Fraction(mass)) == 1.7965087173147717e-308)

    def test_a_quotient_past_the_doubles_is_a_typed_error(self):
        g = WeightedGraph((1e-300, 1e-300), ((0, 1, 1e300),))
        with pytest.raises(errors.NotRepresentable, match="leaves double precision"):
            rayleigh_quotient(g, [1.0, -1.0])

    def test_zero_vector_rejected(self, p3):
        with pytest.raises(errors.ZeroVector):
            rayleigh_quotient(p3, np.zeros(3))

    def test_boundary_violation(self, p3):
        with pytest.raises(errors.BoundaryViolated):
            rayleigh_quotient(p3, np.array([0.5, 1.0, 0.0]), VertexSet.of([0]))

    def test_boundary_off_the_graph(self, p3):
        with pytest.raises(errors.LengthMismatch, match="vertex id 5 out of range for n=3"):
            rayleigh_quotient(p3, [0.0, 1.0, 2.0], VertexSet.of([5]))

    def test_boundary_of_every_vertex_leaves_a_zero_vector(self, p3):
        with pytest.raises(errors.ZeroVector):
            rayleigh_quotient(p3, np.zeros(3), VertexSet.of([0, 1, 2]))

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
    @pytest.mark.parametrize("mass_exp, kappa_exp", EXTREME_SCALES)
    def test_extreme_powers_of_two(self, mass_exp, kappa_exp):
        # every eigenvalue scales by 2^(kappa_exp - mass_exp); the polish's
        # mass * y * y once went subnormal or overflowed at these scales
        factor = 2.0 ** (kappa_exp - mass_exp)
        for i in range(6):
            g, s = corpus_graph(i), corpus_boundary(corpus_graph(i), i)
            scaled = scaled_by_powers_of_two(g, mass_exp, kappa_exp)
            assert neumann_eigenvalue(scaled).eigenvalue == pytest.approx(
                factor * neumann_eigenvalue(g).eigenvalue, rel=1e-15, abs=0.0)
            assert dirichlet_eigenvalue(scaled, s).eigenvalue == pytest.approx(
                factor * dirichlet_eigenvalue(g, s).eigenvalue, rel=1e-15, abs=0.0)

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
    ids = sample_without_replacement(Xorshift64Star(seed), list(range(n)), n)
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

    @staticmethod
    def oracle(mpmath, g, vertices, k):
        # k-th smallest eigenvalue of M^-1/2 L M^-1/2 on `vertices`
        a = mpmath.matrix(len(vertices), len(vertices))
        for i, u in enumerate(vertices):
            for j, v in enumerate(vertices):
                lap_uv = (sum(mpmath.mpf(c) for (p, q, c) in g.edges if u in (p, q))
                          if u == v else
                          -sum(mpmath.mpf(c) for (p, q, c) in g.edges if {p, q} == {u, v}))
                a[i, j] = lap_uv / mpmath.sqrt(mpmath.mpf(g.masses[u]) * g.masses[v])
        return float(sorted(mpmath.eigsy(a, eigvals_only=True))[k])

    def test_eigenvalues_match_mpmath_at_ratio_1e6(self):
        # without the inverse-iteration polish, eigh's eigenvectors give
        # errors up to 7e-8 (lambda2) and 3e-10 (Dirichlet) on these graphs
        mpmath = pytest.importorskip("mpmath")
        for seed in range(20):
            g = stiff_graph(seed, 1e6, 1e6)
            with mpmath.workdps(50):
                lam_d = self.oracle(mpmath, g, list(range(1, g.vertex_count)), 0)
                lam_2 = self.oracle(mpmath, g, list(range(g.vertex_count)), 1)
            assert dirichlet_eigenvalue(g, VertexSet.of([0])).eigenvalue == \
                pytest.approx(lam_d, rel=1e-10, abs=0.0)
            assert neumann_eigenvalue(g).eigenvalue == pytest.approx(lam_2, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("ratio", [1e9, 1e12])
    def test_eigenvalues_match_mpmath_until_the_polish_settles(self, ratio):
        # two fixed polish steps left errors up to 3.0 (lambda2) and 0.015
        # (Dirichlet) on these graphs
        mpmath = pytest.importorskip("mpmath")
        for seed in range(40):
            g = stiff_graph(seed, ratio, ratio)
            with mpmath.workdps(60):
                lam_d = self.oracle(mpmath, g, list(range(1, g.vertex_count)), 0)
                lam_2 = self.oracle(mpmath, g, list(range(g.vertex_count)), 1)
            assert dirichlet_eigenvalue(g, VertexSet.of([0])).eigenvalue == \
                pytest.approx(lam_d, rel=1e-6, abs=0.0), seed
            assert neumann_eigenvalue(g).eigenvalue == \
                pytest.approx(lam_2, rel=1e-6, abs=0.0), seed

    def test_slow_polish_at_ratio_1e9_holds_every_row(self):
        # two polish steps left this lambda2 at 3.772e-9, and verify then
        # reported a counterexample to the theorem
        g = stiff_graph(14, 1e9, 1e9)
        assert neumann_eigenvalue(g).eigenvalue == pytest.approx(1.063250107425869e-9, rel=1e-9)
        rep = run_suite(g, boundary=VertexSet.of([0]), seed=14)
        assert rep.all_hold, [c for c in rep.checks if not c.holds]

    @pytest.mark.parametrize("masses, edges", [
        # each once gave a RuntimeWarning: in the mass-weighted dot, the
        # polish's norm, the eigenvalue's energy and the residual
        ((1e-160, 1e300, 1e-160, 1e300, 1e20, 1.0),
         ((0, 1, 1e-300), (0, 3, 1e-300), (0, 5, 1e-20), (1, 2, 1e20), (1, 3, 1.0),
          (1, 4, 1e-300), (2, 4, 1e-20), (3, 5, 1e20))),
        ((1e300, 1.0), ((0, 1, 1e-300),)),
        ((1e160, 1e300, 1e160), ((0, 1, 1.0), (1, 2, 1.0))),
        ((1e-20, 1e160, 1e-20, 1.0), ((0, 1, 1e300), (0, 2, 1e160), (0, 3, 1e-20),
                                      (2, 3, 1e-160))),
        ((1e20, 1e160, 1.0), ((0, 1, 1e300), (0, 2, 1e160))),
        ((1.0, 1.0), ((0, 1, 1e160),)),
    ])
    def test_weights_at_the_ends_of_double_range(self, masses, edges):
        # every solve gives a finite eigenvalue or a typed error; a
        # RuntimeWarning is an error under the test settings
        g = WeightedGraph(masses, edges)
        for solve in (neumann_eigenvalue, lambda g: dirichlet_eigenvalue(g, VertexSet.of([0]))):
            try:
                assert 0.0 < solve(g).eigenvalue < np.inf
            except errors.HardySpectralError:
                pass
        assert len(run_suite(g, boundary=VertexSet.of([0])).checks) > 0

    def test_unresolved_fundamental_mode_is_a_typed_error(self):
        # at ratio 1e16 a unit conductance is below the rounding of its
        # stiff neighbours, and the second mode comes out one-signed
        g = stiff_graph(122, 1e16, 1e16)
        with pytest.raises(errors.NoConvergence):
            neumann_eigenvalue(g)
        rep = run_suite(g, boundary=VertexSet.of([0]), suites=["neumann", "cheeger", "pinch"])
        assert [c.name for c in rep.checks] == ["neumann", "cheeger", "pinch"]
        assert not any(c.holds for c in rep.checks)


class TestBatchedDirichlet:
    """A run solves the pieces of every side of every potential in few
    stacks; a potential's answer must not depend on the batch it
    is solved in."""

    @staticmethod
    def same(a, b):
        if isinstance(a, errors.HardySpectralError):
            return type(a) is type(b) and str(a) == str(b)
        return a == b

    def test_batch_matches_solo_bit_for_bit(self):
        rng = Xorshift64Star(401)
        graphs = [corpus_graph(i) for i in range(30)]
        graphs += [stiff_graph(seed, 1e9, 1e9) for seed in range(20)]
        cases = []
        for g in graphs:
            fs = list(mixed_sign_fs(rng, g.vertex_count, 5))
            fs.append(quantize_zeros(neumann_eigenvalue(g).eigenvector))
            cases.append((g, fs))
        # a sparse 32-vertex graph whose shifted potentials leave pieces of
        # 9-15 vertices, padded to 16 beside pieces of other sizes
        g = random_graph(32, 0.05, (0.1, 10.0), (0.1, 10.0), seed=3)
        fs = mixed_sign_fs(Xorshift64Star(409), g.vertex_count, 6)
        fs = [f - np.quantile(f, q) for f, q in zip(fs, [0.2, 0.3, 0.4, 0.6, 0.7, 0.8])]
        fs.append(np.array(quantize_zeros(neumann_eigenvalue(g).eigenvector)))
        sizes = [len(piece) for f in fs for side in (f < 0.0, f > 0.0)
                 for piece in components(g, np.flatnonzero(side).tolist())]
        assert sum(9 <= size < 16 for size in sizes) >= 3 and max(sizes) > 16
        cases.append((g, fs))
        for g, fs in cases:
            batch = worst_sides(g, fs)
            assert len(batch) == len(fs)
            for f, worst in zip(fs, batch):
                assert self.same(worst, worst_sides(g, [f])[0])

    def test_failing_problem_keeps_the_others_solo(self):
        # the 1e-17 edge vanishes next to 1 on the diagonal, so pinching it
        # leaves the piece {1, 2, 3} with an exactly singular L_PP; the
        # third potential's size-3 piece shares its stack
        g = path_graph([1.0] * 4, [1e-17, 1.0, 1.0])
        fs = [[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0]]
        # each potential keeps its own outcome, hence its own pinch row
        worst = worst_sides(g, fs)
        assert isinstance(worst[1], errors.NotPositiveDefinite)
        assert [worst[0], worst[2]] == [worst_sides(g, [fs[0]])[0], worst_sides(g, [fs[2]])[0]]

    def test_small_pieces_share_one_padded_stack(self, monkeypatch, tmp_path):
        potentials, stacks, held, built = [], [], [], []

        def recorded_pinched_sides(graph, fs):
            potentials.extend(fs)
            return pinched_sides(graph, fs)

        def counted_eigenpairs(blocks, ground, mass, k, pad=None):
            if k == 0:
                stacks.append(blocks.shape)
                # the vertices each problem of the stack holds, pads aside
                held.extend([blocks.shape[1]] * len(blocks) if pad is None
                            else (~pad).sum(axis=1).tolist())
            return eigenpairs(blocks, ground, mass, k, pad)

        pinched_sides, eigenpairs = suite.pinched_sides, spectral._eigenpairs
        monkeypatch.setattr(suite, "pinched_sides", recorded_pinched_sides)
        monkeypatch.setattr(spectral, "_eigenpairs", counted_eigenpairs)
        g = corpus_graph(7, 8, 8)
        rep = run_suite(g, suites=["pinch"], seed=3)
        assert rep.all_hold and len(rep.checks) == 11 and len(potentials) == 11
        # a side's pieces are components of the parent graph, {f < 0} or {f > 0}
        sizes = [len(piece) for f in np.array(potentials) for side in (f < 0.0, f > 0.0)
                 for piece in components(g, np.flatnonzero(side).tolist())]
        # a one-vertex piece is solved in closed form and never reaches the
        # stacks; every other piece of at most min(SMALL_PIECE, n - 1)
        # vertices is padded to that width, and each larger size keeps a
        # stack of its own
        assert 1 in sizes and min(held) >= 2
        sizes = [size for size in sizes if size >= 2]
        assert len(set(sizes)) > 1
        small = min(spectral.SMALL_PIECE, g.vertex_count - 1)
        widths = [small] + sorted({size for size in sizes if size > small})
        assert sorted(shape[1] for shape in stacks) == widths
        assert sum(shape[0] for shape in stacks) == len(sizes) == len(held)
        assert sorted(held) == sorted(sizes)

        # the constructor validates every graph once: a pinch or ressum run
        # builds no graph after the parse, and no module calls `pinch`
        validate, original_pinch, pinched = graph_module.validate, graph_module.pinch, []
        monkeypatch.setattr(graph_module, "validate", lambda g: (built.append(g), validate(g)))
        for module in [m for name, m in sys.modules.items() if name.startswith("hardy_spectral")]:
            for key, value in list(vars(module).items()):
                if value is original_pinch:
                    monkeypatch.setattr(module, key, lambda *args: (pinched.append(args),
                                                                   original_pinch(*args))[1])
        path = tmp_path / "g.wgr"
        path.write_text(serialize_wgr(g), encoding="utf-8")
        for suites in ("pinch", "ressum"):
            built.clear()
            assert main(["verify", str(path), "--suite", suites, "--seed", "3"]) == 0
            assert len(built) == 1
        assert pinched == []

    def test_one_padded_stack_up_to_16_vertices(self, monkeypatch):
        # SMALL_PIECE = 16 was measured best on sparse 32-40 vertex graphs:
        # each ground_modes call makes one stack of width min(16, n - 1)
        # for its pieces of 2 to that many vertices, and one stack per
        # distinct larger size
        calls = []

        def recorded_ground_modes(graph, sides, ground):
            sizes = [len(piece) for side in sides for piece in components(
                graph, np.flatnonzero(side).tolist())]
            calls.append((graph.vertex_count, sizes, []))
            return ground_modes(graph, sides, ground)

        def counted_eigenpairs(blocks, ground, mass, k, pad=None):
            if k == 0:
                calls[-1][2].append(blocks.shape[1])
            return eigenpairs(blocks, ground, mass, k, pad)

        ground_modes, eigenpairs = suite.ground_modes, spectral._eigenpairs
        monkeypatch.setattr(suite, "ground_modes", recorded_ground_modes)
        monkeypatch.setattr(spectral, "_eigenpairs", counted_eigenpairs)
        g = random_graph(36, 0.02, (0.1, 10.0), (0.1, 10.0), seed=3)
        rep = run_suite(g, boundary=VertexSet.of([0]),
                        suites=["pinch", "ressum", "path-reduction"], samples=2, seed=1)
        # the run's pinched sides and its Dirichlet problem; the level-set
        # quotient path poses no call of its own
        assert rep.all_hold and len(calls) == 1
        assert sum(9 <= size < 16 for size in calls[0][1]) >= 3
        assert max(calls[0][1]) > 16
        for n, sizes, widths in calls:
            t = min(16, n - 1)
            want = [t] if any(2 <= size <= t for size in sizes) else []
            assert sorted(widths) == sorted(want + list({size for size in sizes if size > t}))


class TestPaddedPieces:
    """`ground_modes` solves a one-vertex piece in closed form where its
    eigenvalue is a positive normal double with a finite whitened entry,
    and pads every other piece of at most min(SMALL_PIECE, n - 1) =
    min(16, n - 1) vertices to that width. Each problem must keep the outcome of its pieces solved alone
    and unpadded: the typed error and message, or the same piece, its
    eigenvalue within 1e-14 relative and its eigenvector close up to
    sign, with exactly the piece's length."""

    @staticmethod
    def each_piece(g, sides, ground):
        """Every piece of every side posed as a problem of its own, with its
        side's ground row."""
        posed = [(piece, row) for side, row in zip(sides, ground)
                 for piece in components(g, np.flatnonzero(side).tolist())]
        pieces = np.zeros((len(posed), g.vertex_count), dtype=bool)
        for k, (piece, _) in enumerate(posed):
            pieces[k, piece] = True
        return pieces, np.array([row for _, row in posed]).reshape(-1, g.vertex_count)

    @staticmethod
    def unpadded(g, side, ground):
        modes = []
        for piece in components(g, np.flatnonzero(side).tolist()):
            try:
                lam, x = spectral._eigenpairs(g.conductance_matrix[np.ix_(piece, piece)][None],
                                              ground[piece][None], g.mass_vector[piece][None], 0)
            except errors.HardySpectralError as exc:
                return exc
            modes.append((piece, float(lam[0]), x[0]))
        floor = min(lam for _, lam, _ in modes)
        return next(mode for mode in modes if mode[1] <= floor * (1.0 + spectral.TIE_RTOL))

    def assert_unpadded(self, g, sides, ground):
        got = spectral.ground_modes(g, sides, ground)
        assert len(got) == len(sides)
        for side, row, mode in zip(sides, ground, got):
            want = self.unpadded(g, side, row)
            if isinstance(want, errors.HardySpectralError):
                assert type(mode) is type(want) and str(mode) == str(want)
                continue
            (piece, lam, x), (ref_piece, ref_lam, ref_x) = mode, want
            assert piece == ref_piece and len(x) == len(piece)
            assert lam == pytest.approx(ref_lam, rel=1e-14, abs=0.0)
            x = x if x @ ref_x > 0.0 else -x
            assert np.abs(x - ref_x).max() <= 1e-12 * np.abs(ref_x).max()
        return got

    def test_no_problems(self):
        g = corpus_graph(4)
        n = g.vertex_count
        assert spectral.ground_modes(g, np.zeros((0, n), dtype=bool), np.zeros((0, n))) == []
        # a side with no vertex has no mode to give, not its neighbour's
        sides = np.zeros((3, n), dtype=bool)
        sides[[0, 2], 1] = True
        with pytest.raises(ValueError):
            spectral.ground_modes(g, sides, conductance_to(g, ~sides))

    def test_corpus_sides(self):
        rng = np.random.default_rng(7)
        padded = lone = 0
        for i in range(40):
            g = corpus_graph(i, 3, 12)
            n = g.vertex_count
            sides = rng.random((6, n)) < 0.5
            sides[:, rng.integers(n, size=6)] = False  # never all of V
            sides = sides[sides.any(axis=1)]
            ground = conductance_to(g, ~sides)
            got = self.assert_unpadded(g, sides, ground)
            padded += sum(len(piece) < min(spectral.SMALL_PIECE, n - 1) for piece, _, _ in got)
            # every piece, the closed-form ones among them, against the lone route
            got = self.assert_unpadded(g, *self.each_piece(g, sides, ground))
            lone += sum(len(piece) == 1 for piece, _, _ in got)
        assert padded >= 100 and lone >= 100

    def test_sparse_sides_with_mid_size_pieces(self):
        # sides of sparse 20-40 vertex graphs leave pieces of 9-15
        # vertices, each padded to 16 in one stack with the smaller ones
        rng = np.random.default_rng(13)
        mid = 0
        for seed in range(10):
            n = int(rng.integers(20, 41))
            g = random_graph(n, 0.05, (0.1, 10.0), (0.1, 10.0), seed=seed)
            sides = rng.random((8, n)) < rng.uniform(0.5, 0.8, size=(8, 1))
            sides = sides[sides.any(axis=1) & ~sides.all(axis=1)]
            ground = conductance_to(g, ~sides)
            self.assert_unpadded(g, sides, ground)
            got = self.assert_unpadded(g, *self.each_piece(g, sides, ground))
            mid += sum(9 <= len(piece) < 16 for piece, _, _ in got)
        assert mid >= 20

    def test_one_vertex_pieces_are_exact(self):
        # sparse sides leave many one-vertex pieces {v}; each mode is
        # lam = ground / mass and x = [mass ** -0.5] to the last bit
        rng = np.random.default_rng(11)
        lone = 0
        for seed in range(10):
            n = int(rng.integers(20, 41))
            g = random_graph(n, 0.05, (0.1, 10.0), (0.1, 10.0), seed=seed)
            sides = rng.random((6, n)) < 0.5
            pieces, ground = self.each_piece(g, sides, conductance_to(g, ~sides))
            for (piece, lam, x), row in zip(spectral.ground_modes(g, pieces, ground), ground):
                if len(piece) == 1:
                    [v] = piece
                    assert lam == row[v] / g.masses[v]
                    assert x.tolist() == [g.masses[v] ** -0.5]
                    lone += 1
        assert lone >= 100

    def test_lone_vertex_below_the_normal_doubles_keeps_the_stacked_route(self):
        # lam = 1e-300 / 1e300 underflows to 0.0, which the closed form
        # must not answer: the stacked route's polish overflows instead
        g = path_graph([1.0, 1e300], [1e-300])
        with pytest.raises(errors.NoConvergence) as got:
            dirichlet_eigenvalue(g, VertexSet.of([0]))
        assert str(got.value) == "inverse iteration overflowed in double precision"

    @pytest.mark.parametrize("size", [1, 3])
    def test_identical_pieces_lowest_id_wins(self, size):
        # a path whose middle vertex is pinned leaves two mirror copies of
        # a path on `size` vertices; problem 1 poses the upper copy alone
        # and problem 2 lowers its ground, so it wins there
        n = 2 * size + 1
        g = path_graph([2.0] * size + [1.0] + [2.0] * size, [3.0] * (n - 1))
        low, high = list(range(size)), list(range(size + 1, n))
        sides = np.ones((3, n), dtype=bool)
        sides[:, size] = False
        sides[1, low] = False
        ground = conductance_to(g, ~sides)
        ground[2, size + 1] *= 0.5
        got = self.assert_unpadded(g, sides, ground)
        assert [piece for piece, _, _ in got] == [low, high, high]
        assert got[0][1] == pytest.approx(got[1][1], rel=spectral.TIE_RTOL, abs=0.0)
        assert got[2][1] < got[0][1]

    def test_lone_vertex_with_no_ground_is_singular(self):
        g = path_graph([1.0] * 4, [1.0, 2.0, 3.0])
        sides = np.array([[False, False, False, True], [True, True, False, False]])
        ground = conductance_to(g, ~sides)
        ground[0, 3] = 0.0
        got = self.assert_unpadded(g, sides, ground)
        assert isinstance(got[0], errors.NotPositiveDefinite) and not isinstance(
            got[1], errors.HardySpectralError)

    def test_pad_ground_stays_within_the_doubles(self):
        # the piece {0, 1} has a whitened diagonal entry of 1.5e308, so
        # twice it overflows; the pad must stay finite and above lambda
        g = path_graph([1.0] * 4, [1.0, 1.0, 1.0])
        sides = np.array([[True, True, False, False], [True, True, False, False],
                          [False, True, False, True]])
        ground = np.zeros((3, 4))
        ground[0, 0], ground[1, 0] = 1.5e308, 9.5e307
        ground[2, [1, 3]] = 1.0, 1.7e308
        whitened = (g.conductance_matrix[:2, :2].sum(1) + ground[:2, :2]) / g.mass_vector[:2]
        assert 9e307 < whitened.max(axis=1).min() and whitened.max() < 1.8e308
        got = self.assert_unpadded(g, sides, ground)
        assert not isinstance(got[0], errors.HardySpectralError)
        assert not isinstance(got[1], errors.HardySpectralError)
        assert got[0][1] == pytest.approx(1.0, rel=1e-12)

    def test_pad_entries_of_the_start_vector_are_zeroed(self, monkeypatch):
        # eigh happens to return exact zeros on these pads; a start vector
        # that is not zero there must give the same bits all the same
        g = random_graph(12, 0.15, (0.1, 10.0), (0.1, 10.0), seed=3)
        sides = np.zeros((3, 12), dtype=bool)
        sides[0, [1, 2, 3]], sides[1, [4, 5]], sides[2, 6:] = True, True, True
        ground = conductance_to(g, ~sides)
        want = spectral.ground_modes(g, sides, ground)
        eigen = spectral.jacobi_eigen

        def off_on_the_pads(whitened):
            values, vectors = eigen(whitened)
            # a pad is a decoupled row past its piece's first vertex
            off_diagonal = whitened * (1.0 - np.eye(whitened.shape[-1]))
            pads = ~(off_diagonal != 0.0).any(axis=-1)
            pads[:, 0] = False
            vectors[pads] += 1e-3
            return values, vectors

        monkeypatch.setattr(spectral, "jacobi_eigen", off_on_the_pads)
        got = spectral.ground_modes(g, sides, ground)
        assert any(len(piece) < min(spectral.SMALL_PIECE, 11) for piece, _, _ in want)
        for (piece, lam, x), (ref_piece, ref_lam, ref_x) in zip(got, want):
            assert piece == ref_piece and lam == ref_lam and np.array_equal(x, ref_x)


class TestPinchRoute:
    """A run solves the pinched sides on the parent graph's arrays.
    The reference route builds each pinched graph and solves its two sides
    as boundary problems; both must give the same typed error, or values
    within 1e-14 relative."""

    @staticmethod
    def reference(graph, f):
        try:
            p = pinch(graph, f)
            # the negative side (pinned on f >= 0), then the positive side
            sides = [dirichlet_eigenvalue(p.graph, boundary)
                     for boundary in (p.nonnegative_set, p.nonpositive_set)]
        except errors.HardySpectralError as exc:
            return exc
        return max(side.eigenvalue for side in sides)

    def assert_agree(self, graph, fs):
        worst = worst_sides(graph, fs)
        assert len(worst) == len(fs)
        for f, got in zip(fs, worst):
            want = self.reference(graph, f)
            if isinstance(want, errors.HardySpectralError):
                assert type(got) is type(want) and str(got) == str(want)
            else:
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_corpus_potentials(self):
        rng = Xorshift64Star(613)
        zeros = 0
        for i in range(30):
            g = corpus_graph(i)
            n = g.vertex_count
            fs = [quantize_zeros(neumann_eigenvalue(g).eigenvector)]
            fs += list(mixed_sign_fs(rng, n, 10))
            # exact zeros: a vertex on the zero set grounds its neighbours
            fs += [[0.0 if v == i % n else x for v, x in enumerate(fs[-1])]]
            zeros += sum(x == 0.0 for f in fs for x in f)
            self.assert_agree(g, fs)
        assert zeros >= 30

    def test_pinched_ground_matches_the_pinched_graph(self):
        # each side vertex's ground is its conductance to the zero set of
        # the pinched graph: segments at crossing edges and edges to exact zeros
        rng = Xorshift64Star(619)
        crossings = zeros = 0
        for i in range(30):
            g = corpus_graph(i)
            n = g.vertex_count
            fs = list(mixed_sign_fs(rng, n, 4))
            fs += [[0.0 if v in (i % n, (i + 1) % n) else x for v, x in enumerate(f)]
                   for f in fs[:2]]
            fs = [f for f in fs if min(f) < 0.0 < max(f)]
            sides, ground, failed = graph_module.pinched_sides(g, fs)
            assert failed == [None] * len(fs)
            assert sides.shape == (len(fs), 2, n) and ground.shape == (len(fs), n)
            for j, row in enumerate(ground):
                f = np.array(fs[j])
                assert sides[j].tolist() == [(f < 0.0).tolist(), (f > 0.0).tolist()]
                p = pinch(g, f)
                to_zero = p.graph.conductance_matrix[:, list(p.zero_set.members)]
                for v in np.flatnonzero(f).tolist():
                    assert row[v] == pytest.approx(to_zero[v].sum(), rel=1e-15, abs=0.0)
                alone = graph_module.pinched_sides(g, fs[j:j + 1])[1]
                assert alone[0].tobytes() == row.tobytes()
                crossings += p.graph.vertex_count - n
                zeros += int((f == 0.0).sum())
        assert crossings >= 100 and zeros >= 30

    def test_failing_piece_and_typed_errors(self):
        g = path_graph([1.0] * 4, [1e-17, 1.0, 1.0])
        fs = [[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0],
              [0.0, 1.0, 2.0, 0.0], [-1e-300, 1e300, 1.0, 1.0], [-1.0, -0.0, 0.0, 1.0]]
        self.assert_agree(g, fs)
        worst = worst_sides(g, fs)
        assert [type(w) for w in worst[1:5]] == [
            errors.NotPositiveDefinite, float, errors.SignCondition, errors.SignCondition]
        no_mass = WeightedGraph((1.0, 0.0, 1.0), ((0, 1, 1.0), (1, 2, 1.0)))
        self.assert_agree(no_mass, [[-1.0, 0.0, 1.0]])
        assert [type(w) for w in worst_sides(no_mass, [[-1.0, 0.0, 1.0]])] == [errors.ZeroMass]
        # a potential of the wrong length fails the whole stack with the
        # error `pinch` raises on it, which is checked before the masses
        for graph, good, bad in ((g, fs, [1.0, 2.0, 3.0]), (no_mass, [[-1.0, 0.0, 1.0]], [-1.0, 1.0])):
            want = self.reference(graph, bad)
            assert type(want) is errors.DimensionMismatch
            with pytest.raises(errors.DimensionMismatch) as got:
                worst_sides(graph, [*good[:3], bad, *good[3:]])
            assert str(got.value) == str(want)

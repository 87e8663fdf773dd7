import numpy as np
import pytest

from hardy_spectral import (VertexSet, WeightedGraph, dirichlet_content_exact,
                            dirichlet_eigenvalue, effective_resistance,
                            hardy_path, isoperimetric_exact,
                            level_set_quotient, neumann_content_exact,
                            neumann_content_sweep, neumann_eigenvalue,
                            path_graph, pinch)
from hardy_spectral import errors
from hardy_spectral.content import (EXACT_ENUMERATION, PATH_TAILSET,
                                    SWEEP_HEURISTIC)
from hardy_spectral.graph import quantize_zeros
from hardy_spectral.rng import Xorshift64Star
from hardy_spectral.suite import _worst_sides

from conftest import (corpus_boundary, corpus_graph, corpus_path, mixed_sign_fs,
                      sample_without_replacement)


class TestHardyPath:
    def test_single_edge(self):
        res = hardy_path(path_graph([0, 1], [1]))
        assert res.hardy == pytest.approx(1.0)
        assert res.witness_a.members == (1,)
        assert res.method == PATH_TAILSET

    def test_uniform_n3(self):
        # tail candidates score 1*3, 2*2, 3*1
        res = hardy_path(path_graph([0, 1, 1, 1], [1, 1, 1]))
        assert res.hardy == pytest.approx(4.0)
        assert res.witness_a.members == (2, 3)

    def test_weighted(self):
        # candidates 1*(3+1) and (1 + 1/2)*1
        res = hardy_path(path_graph([0, 3, 1], [1, 2]))
        assert res.hardy == pytest.approx(4.0)
        assert res.witness_a.members == (1, 2)

    def test_smallest_k_wins_ties(self, p3):
        # both tails score 2; the earlier (larger) tail is reported
        res = hardy_path(p3)
        assert res.hardy == pytest.approx(2.0)
        assert res.witness_a.members == (1, 2)

    def test_not_a_path(self, triangle):
        with pytest.raises(errors.NotAPath):
            hardy_path(triangle)

    def test_zero_interior_mass(self):
        with pytest.raises(errors.ZeroInteriorMass):
            hardy_path(path_graph([1, 0, 0], [1, 1]))

    def test_zero_interior_masses_allowed_if_not_all(self):
        res = hardy_path(path_graph([0, 0, 1], [1, 1]))
        assert res.hardy == pytest.approx(2.0)

    @staticmethod
    def scan(g):
        """Reference: one pass over prefix resistances and suffix masses,
        keeping the first strict maximum."""
        n = g.vertex_count
        total, suffix_mass = 0.0, [0.0] * n
        for i in range(n - 1, 0, -1):
            total += g.masses[i]
            suffix_mass[i] = total
        best_h, best_k, prefix_r = -1.0, -1, 0.0
        for k in range(1, n):
            prefix_r += 1.0 / g.edges[k - 1][2]
            if prefix_r * suffix_mass[k] > best_h:
                best_h, best_k = prefix_r * suffix_mass[k], k
        return 1.0 / best_h, tuple(range(best_k, n))

    def test_matches_the_sequential_scan_bit_for_bit(self):
        # wide weights, zero masses and unit-weight ties
        rng = Xorshift64Star(77)
        for i in range(300):
            n = 2 + rng.below(20)
            pick = lambda: (1.0 if i % 3 == 0 else  # noqa: E731
                            10.0 ** rng.uniform_in(-8.0, 8.0))
            masses = [0.0 if rng.below(3) == 0 else pick() for _ in range(n)]
            masses[-1] = pick()
            g = path_graph(masses, [pick() for _ in range(n - 1)])
            res = hardy_path(g)
            value, witness = self.scan(g)
            assert res.value.hex() == value.hex() and res.witness_a.members == witness


class TestDirichletContent:
    def test_single_edge(self):
        g = path_graph([0, 1], [1])
        res = dirichlet_content_exact(g, VertexSet.of([0]))
        assert res.value == pytest.approx(1.0)
        assert res.witness_a.members == (1,)
        assert res.method == EXACT_ENUMERATION

    def test_p3_tie_breaks_to_smaller_key(self, p3):
        # {v2} and {v1,v2} both score 1/2; the smaller bitmask wins
        res = dirichlet_content_exact(p3, VertexSet.of([0]))
        assert res.value == pytest.approx(0.5)
        assert res.witness_a.members == (2,)

    def test_agrees_with_tailset_scan_on_random_paths(self):
        for i in range(40):
            g = corpus_path(i)
            fast = hardy_path(g)
            slow = dirichlet_content_exact(g, VertexSet.of([0]))
            assert fast.value == pytest.approx(slow.value, rel=1e-10)
            assert fast.witness_a == slow.witness_a

    def test_witness_reproduces_value(self):
        for i in range(15):
            g = corpus_graph(i)
            s = corpus_boundary(g, i)
            res = dirichlet_content_exact(g, s)
            r = effective_resistance(g, s, res.witness_a)
            assert res.value == pytest.approx(
                1.0 / (r * g.mass_of(res.witness_a)), rel=1e-10)

    def test_zero_mass_subsets_skipped(self):
        # the middle vertex alone would give an infinite ratio
        g = path_graph([1, 0, 1], [1, 1])
        res = dirichlet_content_exact(g, VertexSet.of([0]))
        assert 2 in res.witness_a.members
        assert res.value > 0.0

    def test_guard(self):
        g = path_graph([1.0] * 23, [1.0] * 22)
        with pytest.raises(errors.TooLarge):
            dirichlet_content_exact(g, VertexSet.of([0]))

    def test_bad_boundary(self, p3):
        with pytest.raises(errors.BadBoundary):
            dirichlet_content_exact(p3, VertexSet.of([]))


class TestUnrepresentableContent:
    def test_underflowed_value_is_a_typed_error(self):
        # psi2 = 2e-300 * 1e-300 and phi = 1e-300 / 1e300 underflow to 0,
        # which would be reported as 0 and crash ContentResult.hardy
        g = WeightedGraph((1e300, 1e300), ((0, 1, 1e-300),))
        for solve in (neumann_content_exact, isoperimetric_exact):
            with pytest.raises(errors.NotRepresentable, match="not positive and finite"):
                solve(g)

    def test_overflowed_value_is_a_typed_error(self):
        # psi2 = 1e300 * (1 + 1e300) and phi = 1e300 / 1e-300 overflow, so
        # every ratio is inf; and the path's product 1e-300 * 1e-300
        # underflows to 0 before it is inverted
        g = WeightedGraph((1.0, 1e-300), ((0, 1, 1e300),))
        for solve in (neumann_content_exact, isoperimetric_exact,
                      lambda g: dirichlet_content_exact(g, VertexSet.of([0])), hardy_path):
            with pytest.raises(errors.NotRepresentable, match="value inf is not positive"):
                solve(g)

    def test_zero_mass_tail_past_an_overflowing_resistance(self):
        # 1 / 1e-310 overflows, but the tail beyond it has no mass: it
        # scores 0 (not inf * 0 = NaN), and the first tail wins with 1
        res = hardy_path(path_graph([1.0, 1.0, 0.0], [1.0, 1e-310]))
        assert (res.value, res.witness_a.members) == (1.0, (1, 2))


class TestNeumannContent:
    def test_two_node_single_pair(self, two_node):
        res = neumann_content_exact(two_node)
        assert res.value == pytest.approx(4.5)
        assert res.witness_a.members == (0,)
        assert res.witness_b.members == (1,)
        assert res.hardy == pytest.approx(1 / 4.5)

    def test_p3_endpoints(self, p3):
        res = neumann_content_exact(p3)
        assert res.value == pytest.approx(1.0)
        assert (res.witness_a.members, res.witness_b.members) == ((0,), (2,))

    def test_triangle(self, triangle):
        # every shape of pair scores exactly 3; first pair in canonical
        # order is kept
        res = neumann_content_exact(triangle)
        assert res.value == pytest.approx(3.0)
        assert (res.witness_a.members, res.witness_b.members) == ((0,), (1,))

    def test_witness_reproduces_value(self):
        for i in range(10):
            g = corpus_graph(i)
            res = neumann_content_exact(g)
            r = effective_resistance(g, res.witness_a, res.witness_b)
            expected = (1.0 / g.mass_of(res.witness_a)
                        + 1.0 / g.mass_of(res.witness_b)) / r
            assert res.value == pytest.approx(expected, rel=1e-10)

    def test_witness_a_has_smaller_key(self):
        for i in range(10):
            res = neumann_content_exact(corpus_graph(i))
            assert res.witness_a.canonical_key < res.witness_b.canonical_key

    def test_guard(self):
        g = path_graph([1.0] * 13, [1.0] * 12)
        with pytest.raises(errors.TooLarge):
            neumann_content_exact(g)

    def test_zero_mass_rejected(self):
        g = path_graph([0.0, 1.0], [1.0])
        with pytest.raises(errors.ZeroMass):
            neumann_content_exact(g)

    def test_one_vertex(self):
        with pytest.raises(errors.EmptySet):
            neumann_content_exact(WeightedGraph((1.0,), ()))


class TestNeumannSweep:
    def test_two_node_is_exact(self, two_node):
        x = neumann_eigenvalue(two_node).eigenvector
        assert neumann_content_sweep(two_node, x).value == pytest.approx(4.5)

    def test_p3_finds_the_endpoints(self, p3):
        res = neumann_content_sweep(p3, neumann_eigenvalue(p3).eigenvector)
        assert res.value == pytest.approx(1.0)
        assert res.method == SWEEP_HEURISTIC
        assert (res.witness_a.members, res.witness_b.members) == ((2,), (0,))

    def test_never_below_exact(self):
        for i in range(25):
            g = corpus_graph(i)
            exact = neumann_content_exact(g).value
            sweep = neumann_content_sweep(g, neumann_eigenvalue(g).eigenvector).value
            assert sweep >= exact - 1e-12

    def test_wrong_shape_rejected(self, p3):
        with pytest.raises(errors.DimensionMismatch):
            neumann_content_sweep(p3, np.array([-1.0, 1.0]))

    def test_one_signed_potential_rejected(self, p3):
        # without both strict signs there is no (A, B) pair to score
        for x in ([0.0, 1.0, 2.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 0.0]):
            with pytest.raises(errors.SignCondition):
                neumann_content_sweep(p3, np.array(x))


class TestIsoperimetric:
    def test_two_node(self):
        g = path_graph([1, 1], [1])
        assert isoperimetric_exact(g).value == pytest.approx(1.0)

    def test_p3_cut_enumeration(self, p3):
        # the three bipartitions score 1, 2, 1; vertex-0 side reported
        res = isoperimetric_exact(p3)
        assert res.value == pytest.approx(1.0)
        assert res.witness_a.members == (0,)

    def test_triangle(self, triangle):
        assert isoperimetric_exact(triangle).value == pytest.approx(2.0)

    def test_cut_conductance_is_inverse_partition_resistance(self):
        rng = Xorshift64Star(113)
        for i in range(15):
            g = corpus_graph(i)
            res = isoperimetric_exact(g)
            a = res.witness_a
            comp = a.complement(g.vertex_count)
            cut = res.value * min(g.mass_of(a), g.mass_of(comp))
            assert cut == pytest.approx(
                1.0 / effective_resistance(g, a, comp), rel=1e-10)

    def test_partition_restricted_content_sandwich(self):
        # pointwise max <= sum <= 2*max relates the isoperimetric ratio to
        # the pair content restricted to bipartitions
        for i in range(15):
            g = corpus_graph(i)
            n = g.vertex_count
            phi = isoperimetric_exact(g).value
            psi2 = neumann_content_exact(g).value
            restricted = min(
                (1.0 / g.mass_of(a) + 1.0 / g.mass_of(a.complement(n)))
                / effective_resistance(g, a, a.complement(n))
                for a in (VertexSet.from_mask((t << 1) | 1)
                          for t in range(2 ** (n - 1) - 1)))
            assert phi <= restricted + 1e-12
            assert restricted <= 2.0 * phi + 1e-12
            assert psi2 <= restricted + 1e-12
            assert phi >= psi2 / 2.0 - 1e-9

    def test_guard(self):
        g = path_graph([1.0] * 21, [1.0] * 20)
        with pytest.raises(errors.TooLarge):
            isoperimetric_exact(g)


class TestLevelSetQuotient:
    def test_monotone_path_is_identity(self):
        g = path_graph([0.5, 1.5, 2.5], [2.0, 3.0])
        quotient, levels = level_set_quotient(g, VertexSet.of([0]),
                                              np.array([0.0, 1.0, 4.0]))
        assert quotient == g
        assert levels == [0.0, 1.0, 4.0]

    def test_star_collapses_symmetric_leaves(self):
        star = WeightedGraph((1.0, 1.0, 1.0, 1.0),
                             ((0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)))
        s = VertexSet.of([0])
        res = dirichlet_eigenvalue(star, s)
        quotient, levels = level_set_quotient(star, s, res.eigenvector)
        assert quotient.masses == (1.0, 1.0, 2.0)
        assert [k for (_, _, k) in quotient.edges] == pytest.approx([1.0, 2.0])
        lam = dirichlet_eigenvalue(quotient, VertexSet.of([0])).eigenvalue
        assert lam == pytest.approx(res.eigenvalue, rel=1e-10)

    def test_preserves_dirichlet_eigenvalue_on_random_graphs(self):
        for i in range(25):
            g = corpus_graph(i)
            s = corpus_boundary(g, i)
            res = dirichlet_eigenvalue(g, s)
            quotient, _ = level_set_quotient(g, s, res.eigenvector)
            lam = dirichlet_eigenvalue(quotient, VertexSet.of([0])).eigenvalue
            assert lam == pytest.approx(res.eigenvalue, rel=1e-8)

    def test_negated_ground_state_is_flipped(self, p3):
        s = VertexSet.of([0])
        res = dirichlet_eigenvalue(p3, s)
        a, _ = level_set_quotient(p3, s, res.eigenvector)
        b, _ = level_set_quotient(p3, s, -res.eigenvector)
        assert a == b

    def test_mixed_signs_rejected(self, p3):
        with pytest.raises(errors.MixedSigns):
            level_set_quotient(p3, VertexSet.of([0]), np.array([0.0, 1.0, -1.0]))

    def test_boundary_not_zero_rejected(self, p3):
        with pytest.raises(errors.BoundaryNotZero):
            level_set_quotient(p3, VertexSet.of([0]), np.array([1.0, 1.0, 2.0]))

    def test_all_zero_rejected(self, p3):
        with pytest.raises(errors.ZeroVector):
            level_set_quotient(p3, VertexSet.of([0]), np.zeros(3))


class TestSandwiches:
    def test_dirichlet_bound_on_small_corpus(self):
        for i in range(30):
            g = corpus_graph(i)
            s = corpus_boundary(g, i)
            lam = dirichlet_eigenvalue(g, s).eigenvalue
            psi = dirichlet_content_exact(g, s).value
            assert psi / 4.0 <= lam * (1 + 1e-9)
            assert lam <= psi * (1 + 1e-9)

    def test_neumann_bound_on_small_corpus(self):
        for i in range(30):
            g = corpus_graph(i)
            lam2 = neumann_eigenvalue(g).eigenvalue
            psi2 = neumann_content_exact(g).value
            assert psi2 / 4.0 <= lam2 * (1 + 1e-9)
            assert lam2 <= psi2 * (1 + 1e-9)

    def test_cheeger_bounds_on_small_corpus(self):
        for i in range(30):
            g = corpus_graph(i)
            lam2 = neumann_eigenvalue(g).eigenvalue
            phi = isoperimetric_exact(g).value
            worst = max(g.degree(v) / g.masses[v] for v in range(g.vertex_count))
            assert lam2 / 2.0 <= phi * (1 + 1e-9)
            assert phi <= np.sqrt(2.0 * lam2 * worst) * (1 + 1e-9)


class TestPinchingLemma:
    def test_eigenvector_pinch_attains_lambda2(self):
        for i in range(15):
            g = corpus_graph(i)
            res = neumann_eigenvalue(g)
            [worst] = _worst_sides(g, [quantize_zeros(res.eigenvector)])
            assert worst == pytest.approx(res.eigenvalue, rel=1e-8, abs=1e-10)

    def test_random_pinches_never_beat_lambda2(self):
        rng = Xorshift64Star(127)
        for i in range(10):
            g = corpus_graph(i)
            lam2 = neumann_eigenvalue(g).eigenvalue
            fs = mixed_sign_fs(rng, g.vertex_count, 10)
            for worst in _worst_sides(g, fs):
                assert worst >= lam2 - 1e-8


class TestResistanceSumLemma:
    def test_detour_through_zero_set_never_shortens(self):
        rng = Xorshift64Star(131)
        for i in range(20):
            g = corpus_graph(i)
            [f] = mixed_sign_fs(rng, g.vertex_count, 1)
            p = pinch(g, f)
            neg, pos = p.negative_set, p.positive_set
            a = VertexSet.of(sample_without_replacement(
                rng, list(neg.members), 1 + rng.below(len(neg))))
            b = VertexSet.of(sample_without_replacement(
                rng, list(pos.members), 1 + rng.below(len(pos))))
            lhs = (effective_resistance(p.graph, a, p.zero_set)
                   + effective_resistance(p.graph, b, p.zero_set))
            assert lhs <= effective_resistance(p.graph, a, b) + 1e-10


class TestScaleCovariance:
    def test_conductance_scaling_scales_contents(self):
        c = 5.5
        for i in range(8):
            g = corpus_graph(i)
            scaled = WeightedGraph(g.masses,
                                   tuple((u, v, c * k) for (u, v, k) in g.edges))
            s = corpus_boundary(g, i)
            base_d = dirichlet_content_exact(g, s)
            scal_d = dirichlet_content_exact(scaled, s)
            assert scal_d.value == pytest.approx(c * base_d.value, rel=1e-10)
            assert scal_d.witness_a == base_d.witness_a
            base_n = neumann_content_exact(g)
            scal_n = neumann_content_exact(scaled)
            assert scal_n.value == pytest.approx(c * base_n.value, rel=1e-10)
            assert (scal_n.witness_a, scal_n.witness_b) == \
                (base_n.witness_a, base_n.witness_b)
            base_i = isoperimetric_exact(g)
            scal_i = isoperimetric_exact(scaled)
            assert scal_i.value == pytest.approx(c * base_i.value, rel=1e-10)
            assert scal_i.witness_a == base_i.witness_a

    def test_mass_scaling_divides_contents(self):
        c = 3.0
        for i in range(8):
            g = corpus_graph(i)
            scaled = WeightedGraph(tuple(c * m for m in g.masses), g.edges)
            assert neumann_content_exact(scaled).value == pytest.approx(
                neumann_content_exact(g).value / c, rel=1e-10)
            assert isoperimetric_exact(scaled).value == pytest.approx(
                isoperimetric_exact(g).value / c, rel=1e-10)

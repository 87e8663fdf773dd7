import math
from fractions import Fraction

import numpy as np
import pytest

from hardy_spectral import (VertexSet, WeightedGraph, dirichlet_content_exact,
                            dirichlet_eigenvalue, effective_resistance,
                            hardy_path, isoperimetric_exact,
                            level_set_quotient, neumann_content_exact,
                            neumann_content_sweep, neumann_eigenvalue,
                            path_graph, pinch, random_graph, run_suite)
from hardy_spectral import content, errors
from hardy_spectral.content import (PATH_MAX_STEPS, PATH_SETTLE_RTOL, _prefix_sums, _RunningMin,
                                    hardy_path_eigenvalue, level_set_path)
from hardy_spectral.graph import quantize_zeros
from hardy_spectral.rng import Xorshift64Star
from hardy_spectral.spectral import TIE_RTOL

from conftest import (WEIGHT_SCALES, corpus_boundary, corpus_graph, corpus_path,
                      extreme_weight_fuzz, mixed_sign_fs, path_eigenvalue_mp,
                      sample_without_replacement, scaled_by_powers_of_two, stiff_graph,
                      worst_sides)

EPS = np.finfo(float).eps


class TestHardyPath:
    def test_single_edge(self):
        res = hardy_path(path_graph([0, 1], [1]))
        assert res.hardy == pytest.approx(1.0)
        assert res.witness_a.members == (1,)

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

    def test_shortest_tail_wins_ties(self, p3):
        # both tails score 2; the shortest tail, of smallest key, is
        # reported, as by dirichlet_content_exact
        res = hardy_path(p3)
        assert res.hardy == pytest.approx(2.0)
        assert res.witness_a.members == (2,)

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
        then the shortest tail whose ratio is within TIE_RTOL of the
        smallest."""
        n = g.vertex_count
        total, suffix_mass = 0.0, [0.0] * n
        for i in range(n - 1, 0, -1):
            total += g.masses[i]
            suffix_mass[i] = total
        ratios, prefix_r = {}, 0.0
        for k in range(1, n):
            prefix_r += 1.0 / g.edges[k - 1][2]
            if suffix_mass[k] > 0.0:
                ratios[k] = 1.0 / (prefix_r * suffix_mass[k])
        floor = min(ratios.values())
        k = max(k for k, r in ratios.items() if r <= floor * (1.0 + TIE_RTOL))
        return ratios[k], tuple(range(k, n))

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

    def test_no_scale_of_the_weights_leaves_the_doubles(self):
        # 1 / 5e-324 once overflowed, so every tail scored 0
        res = hardy_path(path_graph([0.0, 5e-324, 5e-324], [5e-324, 5e-324]))
        assert (res.value, res.witness_a.members) == (0.5, (2,))
        # resistances 2^1993 apart: the smallest, which wins, keeps its bits
        g = path_graph([1e300, 1.0, 0.0, 0.0], [1e300, 1e-300, 1e300])
        res = hardy_path(g)
        assert (res.value, res.witness_a.members) == self.scan(g)
        # resistances 2^2083 apart, more than one scale holds: the first,
        # which wins, is not lost to the subnormals
        cases = [([0.0, 2.0 ** 1023, 2.0 ** -1074], [2.0 ** 1023, 2.0 ** -1060]),
                 ([0.0, 8.98846567431158e307, 0.0], [1.7e308, 5e-324]),
                 ([0.0, 1e301, 2.2250738585072014e-308], [4.5e307, 2.2250738585072014e-308])]
        for masses, kappas in cases:
            res = hardy_path(path_graph(masses, kappas))
            exact = min((1 / (sum(1 / Fraction(k) for k in kappas[:i])
                              * sum(map(Fraction, masses[i:]))), tuple(range(i, len(masses))))
                        for i in range(1, len(masses)) if any(masses[i:]))
            assert abs(Fraction(res.value) - exact[0]) <= exact[0] * 2.0 ** -50
            assert res.witness_a.members == exact[1]
        for i in range(40):
            g = corpus_path(i)
            res = hardy_path(g)
            for mass_exp, kappa_exp in WEIGHT_SCALES:
                scaled = hardy_path(scaled_by_powers_of_two(g, mass_exp, kappa_exp))
                assert scaled.value == math.ldexp(res.value, kappa_exp - mass_exp)
                assert scaled.witness_a == res.witness_a


class TestDirichletContent:
    def test_single_edge(self):
        g = path_graph([0, 1], [1])
        res = dirichlet_content_exact(g, VertexSet.of([0]))
        assert res.value == pytest.approx(1.0)
        assert res.witness_a.members == (1,)

    def test_p3_tie_breaks_to_smaller_key(self, p3):
        # {v2} and {v1,v2} both score 1/2; the smaller bitmask wins
        res = dirichlet_content_exact(p3, VertexSet.of([0]))
        assert res.value == pytest.approx(0.5)
        assert res.witness_a.members == (2,)

    @staticmethod
    def near_tie_paths(count: int):
        """Paths of 3-6 vertices whose weights come from a few short
        decimals, so that distinct tails often score within rounding of
        each other."""
        rng = np.random.default_rng(0)
        weights = [0.1, 0.2, 0.3, 0.6, 0.7, 1.1]
        for _ in range(count):
            n = int(rng.integers(3, 7))
            yield path_graph(list(rng.choice(weights, n)), list(rng.choice(weights, n - 1)))

    def test_agrees_with_tailset_scan_on_random_paths(self):
        for g in [*map(corpus_path, range(40)), *self.near_tie_paths(400)]:
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

    def test_a_nan_ratio_is_a_typed_error(self):
        # a NaN ratio places nowhere in the running minimum, so a larger
        # ratio could win: the sweep's (1/1e-310 + 1/2) * 0 is inf * 0,
        # and the exact tree's leaves meet the same on fuzz draws 318 and
        # 350 (mpmath gives 350's psi2 = 1.0)
        best = _RunningMin()
        with pytest.raises(errors.NotRepresentable, match="ratio is NaN"):
            best.offer(np.array([2.0, np.nan, 1.0]), np.arange(3))
        g = path_graph([1e-310, 1.0, 1.0], [5e-324, 5e-324])
        with pytest.raises(errors.NotRepresentable, match="ratio is NaN"):
            neumann_content_sweep(g, np.array([-1.0, 0.5, 1.0]))
        draws = dict(extreme_weight_fuzz())
        for t in (318, 350):
            with pytest.raises(errors.NotRepresentable, match="ratio is NaN"):
                neumann_content_exact(draws[t])


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

    def test_one_vertex(self):
        with pytest.raises(errors.EmptySet, match="two vertices"):
            isoperimetric_exact(WeightedGraph((1.0,), ()))

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


def quotient_arrays(g: WeightedGraph, boundary: VertexSet) -> tuple:
    """(masses, conductances, levels) of the level-set quotient path of
    the ground state of (g, boundary)."""
    return level_set_path(g, boundary, dirichlet_eigenvalue(g, boundary).eigenvector)


class TestHardyPathEigenvalue:
    """The quotient path's eigenvalue by inverse iteration with its Hardy
    operator, from the level values: a Rayleigh quotient and a
    Collatz-Wielandt enclosure, or None for the dense route."""

    @staticmethod
    def cases():
        for i in range(40):
            g = corpus_graph(i)
            yield f"corpus {i}", g, corpus_boundary(g, i)
        for seed in range(40):
            for e in range(3, 17):
                yield f"stiff {seed} 1e{e}", stiff_graph(seed, 10.0 ** e, 10.0 ** e), \
                    VertexSet.of([0])

    def test_value_and_enclosure_against_mpmath(self):
        # the value within 4 eps of the 50-digit eigenvalue, which the
        # enclosure holds; the enclosure is the settled ratios widened by
        # (N + 1) eps each way, no wider
        settled = 0
        for name, g, boundary in self.cases():
            try:
                masses, conductances, levels = quotient_arrays(g, boundary)
            except errors.HardySpectralError:  # no mode, or no quotient
                continue
            found = hardy_path_eigenvalue(masses, conductances, levels)
            if found is None:
                continue
            settled += 1
            value, lower, upper = found
            exact = path_eigenvalue_mp(masses, conductances, value)
            assert abs(value - exact) <= 4 * EPS * exact, name
            assert lower <= exact <= upper and lower <= value <= upper, name
            widen = (len(conductances) + 1) * EPS
            assert upper - lower <= (PATH_SETTLE_RTOL + 2.5 * widen) * lower, name
        assert settled >= 550

    def test_every_corpus_quotient_settles_from_its_levels(self):
        # the level values are the quotient's ground state up to the
        # mode's error, so no corpus path needs the dense route; a flat
        # start needs up to 16 steps, or more
        for i in range(40):
            g = corpus_graph(i)
            masses, conductances, levels = quotient_arrays(g, corpus_boundary(g, i))
            assert hardy_path_eigenvalue(masses, conductances, levels) is not None, i
        for seed in range(12):
            g = random_graph(32 + seed % 9, 0.02, (0.1, 10.0), (0.1, 10.0), seed=seed)
            masses, conductances, levels = quotient_arrays(g, VertexSet.of([seed % 5]))
            assert hardy_path_eigenvalue(masses, conductances, levels) is not None, seed

    def test_near_degenerate_path_falls_back_to_the_dense_route(self):
        # stiff_graph(3, 1e9, 1e9)'s quotient has lambda1 / lambda2 =
        # 1 - 4e-5: power iteration cannot settle within PATH_MAX_STEPS,
        # so the row reads the dense eigen stack's value, bit for bit
        g, boundary = stiff_graph(3, 1e9, 1e9), VertexSet.of([0])
        masses, conductances, levels = quotient_arrays(g, boundary)
        assert hardy_path_eigenvalue(masses, conductances, levels) is None
        dense = dirichlet_eigenvalue(path_graph(masses, conductances), VertexSet.of([0]))
        (row,) = run_suite(g, boundary=boundary, suites=["path-reduction"], samples=0).checks
        assert row.lhs == dense.eigenvalue == 0.9999817427480884

    def test_a_vanishing_term_sets_no_scale(self):
        # the stiff edge's difference of the rounded y is 0, and its term,
        # at the largest power of two, must not set the energy's scale,
        # which would drop the soft edge's term below the doubles. The
        # determinant cancels 1e600 against c 1e300, so the oracle runs at
        # 800 digits
        for c in (1e-10, 1e-15, 1e-20):
            masses, conductances = [1.0, 1.0, 1.0], [c, 1e300]
            value, lower, upper = hardy_path_eigenvalue(masses, conductances, [0.0, 1.0, 1.0])
            exact = path_eigenvalue_mp(masses, conductances, value, digits=800)
            assert lower <= value <= upper, c
            assert abs(value - exact) <= 4 * EPS * exact, c

    def test_steps_stop_at_the_cap(self, monkeypatch):
        # the same path settles once the cap allows its steps
        g = stiff_graph(0, 1e9, 1e9)
        masses, conductances, levels = quotient_arrays(g, VertexSet.of([0]))
        assert hardy_path_eigenvalue(masses, conductances, levels) is None
        monkeypatch.setattr(content, "PATH_MAX_STEPS", 4 * PATH_MAX_STEPS)
        value, lower, upper = hardy_path_eigenvalue(masses, conductances, levels)
        assert lower <= value <= upper

    def test_no_scale_of_the_weights_leaves_the_doubles(self):
        # masses, conductances and the start times powers of two move
        # every number of the iteration by a power of two, so the value
        # and enclosure scale exactly, or leave the normal doubles as a
        # None
        for i in range(0, 40, 3):
            g = corpus_graph(i)
            masses, conductances, levels = quotient_arrays(g, corpus_boundary(g, i))
            base = np.array(hardy_path_eigenvalue(masses, conductances, levels))
            for mass_exp, kappa_exp in WEIGHT_SCALES + [(1000, -1000), (-1000, 1000), (0, 1000)]:
                scaled = hardy_path_eigenvalue(np.ldexp(masses, mass_exp),
                                               np.ldexp(conductances, kappa_exp),
                                               np.ldexp(levels, kappa_exp))
                with np.errstate(over="ignore"):
                    want = np.ldexp(base, kappa_exp - mass_exp)
                if not (np.finfo(float).tiny <= want.min() <= want.max() < np.inf):
                    assert scaled is None
                else:
                    assert np.array_equal(scaled, want), (i, mass_exp, kappa_exp)

    def test_extreme_weight_fuzz_quotients_raise_no_warning(self):
        # RuntimeWarnings are errors here; every quotient that settles
        # keeps its value inside its enclosure, against mpmath
        answered = 0
        for t, g in extreme_weight_fuzz():
            if g is None:  # construction refused it
                continue
            try:
                masses, conductances, levels = quotient_arrays(g, VertexSet.of([0]))
            except errors.HardySpectralError:  # no mode, or no quotient
                continue
            found = hardy_path_eigenvalue(masses, conductances, levels)
            if found is not None:
                answered += 1
                value, lower, upper = found
                exact = path_eigenvalue_mp(masses, conductances, value)
                assert lower <= exact <= upper and lower <= value <= upper, t
        assert answered >= 20

    def test_refuses_what_is_not_positive_and_finite(self):
        for masses, conductances in (([1.0, 0.0], [1.0]), ([1.0, 1.0], [0.0]),
                                     ([1.0, 1.0], [math.inf]), ([1.0, math.inf], [1.0])):
            assert hardy_path_eigenvalue(masses, conductances, [0.0, 1.0]) is None
        assert hardy_path_eigenvalue([1.0, 1.0], [1.0], [0.0, 0.0]) is None
        # a value past the normal doubles
        assert hardy_path_eigenvalue([1.0, 1e300], [1e-300], [0.0, 1.0]) is None

    @pytest.mark.parametrize("masses, conductances, start", [
        # one mass too few, which numpy's broadcasting alone reads as a 3-vertex path
        ([1.0, 1.0], [1.0, 1.0], [0.0, 1.0, (1.0 + math.sqrt(5.0)) / 2.0]),
        # one conductance for two edges
        ([1.0, 1.0, 1.0], [1.0], [0.0, 1.0, 1.0]),
        # one mass too many
        ([1.0, 1.0, 1.0, 1.0], [1.0, 1.0], [0.0, 1.0, 1.0]),
        # one start value too few
        ([1.0, 1.0, 1.0], [1.0, 1.0], [0.0, 1.0]),
    ], ids=["mass-too-few", "conductance-too-few", "mass-too-many", "start-too-few"])
    def test_lengths_follow_path_graph(self, masses, conductances, start):
        # N + 1 masses, N conductances and N + 1 start values, as path_graph asks
        with pytest.raises(errors.LengthMismatch):
            hardy_path_eigenvalue(masses, conductances, start)

    def test_prefix_sums_against_exact_sums(self):
        # terms spread over twice the range of the doubles, as the
        # products m_j x_j can be, against Fraction sums: prefix j (j + 1
        # terms, j additions) within j eps / 2 relative, the first within
        # eps / 2. A high sum before the largest term keeps its own shift
        mantissa, power = _prefix_sums(np.ones(3), np.array([0, 1030, 3200]))
        assert mantissa.tolist() == [0.5] * 3 and power.tolist() == [1, 1031, 3201]
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(1, 40))
            fraction = rng.uniform(0.25, 2.0, k)
            exponent = rng.integers(-2200, 2200, k).astype(np.int32)
            mantissa, power = _prefix_sums(fraction, exponent)
            assert ((0.5 <= mantissa) & (mantissa < 1.0)).all()
            total = Fraction(0)
            for j in range(k):
                total += Fraction(float(fraction[j])) * Fraction(2) ** int(exponent[j])
                got = Fraction(float(mantissa[j])) * Fraction(2) ** int(power[j])
                assert abs(got - total) <= total * Fraction(max(j, 1) * EPS / 2 * 1.01)


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
            [worst] = worst_sides(g, [quantize_zeros(res.eigenvector)])
            assert worst == pytest.approx(res.eigenvalue, rel=1e-8, abs=1e-10)

    def test_random_pinches_never_beat_lambda2(self):
        rng = Xorshift64Star(127)
        for i in range(10):
            g = corpus_graph(i)
            lam2 = neumann_eigenvalue(g).eigenvalue
            fs = mixed_sign_fs(rng, g.vertex_count, 10)
            for worst in worst_sides(g, fs):
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

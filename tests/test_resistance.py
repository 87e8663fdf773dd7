import pytest

from hardy_spectral import (VertexSet, WeightedGraph, contract,
                            effective_resistance, path_graph)
from hardy_spectral import errors
from hardy_spectral.rng import Xorshift64Star

from conftest import corpus_graph, resistance_via_pseudoinverse


def contracted_resistance(g, a: VertexSet, b: VertexSet) -> float:
    """Oracle route: contract both sets and measure the singleton
    resistance, tracking the id shifts the contractions introduce."""
    g1, a_id = contract(g, a)
    a_set = set(a.members)
    survivors = [v for v in range(g.vertex_count) if v not in a_set]
    remap = {v: i for i, v in enumerate(survivors)}
    b1 = VertexSet.of(remap[v] for v in b)
    g2, b_id = contract(g1, b1)
    b_set = set(b1.members)
    survivors2 = [v for v in range(g1.vertex_count) if v not in b_set]
    remap2 = {v: i for i, v in enumerate(survivors2)}
    return effective_resistance(g2, VertexSet.of([remap2[a_id]]), VertexSet.of([b_id]))


def random_disjoint_pair(rng, n):
    ids = rng.sample_without_replacement(list(range(n)), 2 + rng.below(n - 1))
    cut = 1 + rng.below(len(ids) - 1)
    return VertexSet.of(ids[:cut]), VertexSet.of(ids[cut:])


class TestFixtures:
    def test_series_law(self, p3):
        r = effective_resistance(p3, VertexSet.of([0]), VertexSet.of([2]))
        assert r == pytest.approx(2.0, rel=1e-12)

    def test_single_edge(self):
        g = WeightedGraph((1.0, 1.0), ((0, 1, 4.0),))
        assert effective_resistance(g, VertexSet.of([0]), VertexSet.of([1])) == \
            pytest.approx(0.25, rel=1e-12)
        assert resistance_via_pseudoinverse(g, 0, 1) == pytest.approx(0.25, rel=1e-9)

    def test_triangle_single_pair(self, triangle):
        # series 1 + parallel with the direct edge: 1/R = 1 + 1/2
        r = effective_resistance(triangle, VertexSet.of([0]), VertexSet.of([1]))
        assert r == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert resistance_via_pseudoinverse(triangle, 0, 1) == \
            pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_triangle_set_pair(self, triangle):
        # contracting {a,b} leaves two unit edges in parallel
        r = effective_resistance(triangle, VertexSet.of([0, 1]), VertexSet.of([2]))
        assert r == pytest.approx(0.5, rel=1e-12)

    def test_masses_are_irrelevant(self, p3):
        heavy = WeightedGraph((9.0, 0.0, 4.0), p3.edges)
        assert effective_resistance(heavy, VertexSet.of([0]), VertexSet.of([2])) == \
            effective_resistance(p3, VertexSet.of([0]), VertexSet.of([2]))


class TestErrors:
    def test_overlap(self, p3):
        with pytest.raises(errors.SetsOverlap):
            effective_resistance(p3, VertexSet.of([0, 1]), VertexSet.of([1]))

    def test_empty(self, p3):
        with pytest.raises(errors.EmptySet):
            effective_resistance(p3, VertexSet.of([]), VertexSet.of([1]))


class TestOracleAgreement:
    def test_pseudoinverse_matches_solve(self):
        rng = Xorshift64Star(101)
        for i in range(30):
            g = corpus_graph(i, n_lo=3, n_hi=10)
            n = g.vertex_count
            a = rng.below(n)
            b = (a + 1 + rng.below(n - 1)) % n
            direct = effective_resistance(g, VertexSet.of([a]), VertexSet.of([b]))
            assert direct == pytest.approx(
                resistance_via_pseudoinverse(g, a, b), rel=1e-9)

    def test_contraction_equivalence(self):
        rng = Xorshift64Star(103)
        for i in range(25):
            g = corpus_graph(i)
            a, b = random_disjoint_pair(rng, g.vertex_count)
            assert effective_resistance(g, a, b) == pytest.approx(
                contracted_resistance(g, a, b), rel=1e-10)

    def test_symmetry(self):
        rng = Xorshift64Star(107)
        for i in range(25):
            g = corpus_graph(i)
            a, b = random_disjoint_pair(rng, g.vertex_count)
            assert effective_resistance(g, a, b) == pytest.approx(
                effective_resistance(g, b, a), rel=1e-12)

    def test_enlarging_a_set_never_raises_resistance(self):
        rng = Xorshift64Star(109)
        for i in range(25):
            g = corpus_graph(i)
            n = g.vertex_count
            a, b = random_disjoint_pair(rng, n)
            outside = [v for v in range(n)
                       if v not in set(a.members) and v not in set(b.members)]
            if not outside:
                continue
            bigger = a.union(VertexSet.of(
                rng.sample_without_replacement(outside, 1)))
            assert effective_resistance(g, bigger, b) <= \
                effective_resistance(g, a, b) + 1e-12

    def test_no_free_vertices_uses_cut_conductance(self, triangle):
        # A u B = V: the energy is the crossing conductance, no solve involved
        r = effective_resistance(triangle, VertexSet.of([0, 1]), VertexSet.of([2]))
        assert r == 1.0 / (1.0 + 1.0)
        g = path_graph([1, 1, 1], [2.0, 5.0])
        assert effective_resistance(g, VertexSet.of([0, 1]), VertexSet.of([2])) == \
            pytest.approx(0.2, rel=1e-12)


class _SeriesParallel:
    """Random series-parallel two-terminal networks with their closed-form
    reduction tracked alongside."""

    def __init__(self, rng):
        self.rng = rng
        self.counter = 0

    def leaf(self):
        self.counter += 1
        s, t = ("v", self.counter, 0), ("v", self.counter, 1)
        k = self.rng.uniform_in(0.1, 10.0)
        return [(s, t, k)], s, t, 1.0 / k

    def build(self, depth):
        if depth == 0 or self.rng.below(3) == 0:
            return self.leaf()
        e1, s1, t1, r1 = self.build(depth - 1)
        e2, s2, t2, r2 = self.build(depth - 1)
        if self.rng.below(2) == 0:  # series: t1 becomes s2
            mapping = {s2: t1}
            e2 = [(mapping.get(u, u), mapping.get(v, v), k) for (u, v, k) in e2]
            return e1 + e2, s1, t2, r1 + r2
        mapping = {s2: s1, t2: t1}  # parallel
        e2 = [(mapping.get(u, u), mapping.get(v, v), k) for (u, v, k) in e2]
        return e1 + e2, s1, t1, 1.0 / (1.0 / r1 + 1.0 / r2)

    def as_graph(self, edges, s, t):
        names = sorted({u for e in edges for u in e[:2]} - {s, t})
        index = {s: 0, t: 1, **{u: i + 2 for i, u in enumerate(names)}}
        acc = {}
        for (u, v, k) in edges:
            a, b = sorted((index[u], index[v]))
            acc[(a, b)] = acc.get((a, b), 0.0) + k  # merge parallel edges
        g = WeightedGraph((1.0,) * len(index),
                          tuple((a, b, k) for (a, b), k in sorted(acc.items())))
        return g


def test_series_parallel_reduction_matches_closed_form():
    for seed in range(20):
        sp = _SeriesParallel(Xorshift64Star(2000 + seed))
        edges, s, t, expected = sp.build(depth=4)
        g = sp.as_graph(edges, s, t)
        r = effective_resistance(g, VertexSet.of([0]), VertexSet.of([1]))
        assert r == pytest.approx(expected, rel=1e-10)

import tracemalloc

import numpy as np
import pytest

from hardy_spectral import (VertexSet, WeightedGraph, contract,
                            effective_resistance, path_graph, pinch,
                            random_graph, run_suite, spectral, split_edge, suite)
from hardy_spectral import errors
from hardy_spectral.graph import conductance_to, pinched_sides
from hardy_spectral.resistance import kron_slots, pinned_energies
from hardy_spectral.rng import BLOCK, Xorshift64Star, irwin_hall
from hardy_spectral.suite import (DEFAULT_SAMPLES, DEFAULT_TOLERANCE, Quantities, _draws,
                                  blank_report)

from conftest import (corpus_graph, resistance_via_pseudoinverse, sample_without_replacement,
                      stiff_graph)
from test_energy_kernel import mp_energy_fn


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


def as_mask(sets, n):
    """Boolean rows (len(sets), n) of vertex sets."""
    mask = np.zeros((len(sets), n), dtype=bool)
    for i, x in enumerate(sets):
        mask[i, list(x.members)] = True
    return mask


def as_set(mask):
    return VertexSet.of(np.flatnonzero(mask))


def random_disjoint_pair(rng, n):
    ids = sample_without_replacement(rng, list(range(n)), 2 + rng.below(n - 1))
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

    def test_checks_run_in_order(self, p3):
        # ids in range, then both sets nonempty, then disjoint
        with pytest.raises(errors.LengthMismatch, match="out of range"):
            effective_resistance(p3, VertexSet.of([0, 3]), VertexSet.of([]))
        with pytest.raises(errors.LengthMismatch, match="out of range"):
            effective_resistance(p3, VertexSet.of([1, 5]), VertexSet.of([1]))
        with pytest.raises(errors.EmptySet, match="two nonempty sets"):
            effective_resistance(p3, VertexSet.of([1]), VertexSet.of([]))
        with pytest.raises(errors.SetsOverlap) as exc:
            effective_resistance(p3, VertexSet.of([0, 1, 2]), VertexSet.of([2, 1]))
        assert str(exc.value) == "sets share vertices [1, 2]"

    @pytest.mark.parametrize("ids", [[-1], [3], [0, 7]])
    def test_out_of_range_id(self, p3, ids):
        # a negative id is refused when the set is built, an id past the
        # last vertex by the range check, which comes before the bitmask
        # of the overlap check
        with pytest.raises(errors.BadRange if min(ids) < 0 else errors.LengthMismatch):
            effective_resistance(p3, VertexSet.of(ids), VertexSet.of([1]))


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
                sample_without_replacement(rng, outside, 1)))
            assert effective_resistance(g, bigger, b) <= \
                effective_resistance(g, a, b) + 1e-12

    def test_no_free_vertices_uses_cut_conductance(self, triangle):
        # A u B = V: the energy is the crossing conductance, no solve involved
        r = effective_resistance(triangle, VertexSet.of([0, 1]), VertexSet.of([2]))
        assert r == 1.0 / (1.0 + 1.0)
        g = path_graph([1, 1, 1], [2.0, 5.0])
        assert effective_resistance(g, VertexSet.of([0, 1]), VertexSet.of([2])) == \
            pytest.approx(0.2, rel=1e-12)


class TestPinnedStacks:
    """`pinned_energies` solves every problem of a call in one stack, the
    largest C first; each energy must come out bit for bit as the same
    problem's alone, in a stack of larger and smaller C."""

    def test_a_stack_never_changes_a_bit(self):
        graphs = [corpus_graph(i, 3, 12) for i in range(20)]
        graphs += [stiff_graph(s, 1e16, 1e16) for s in range(20)]
        rng = Xorshift64Star(113)
        for g in graphs:
            n = g.vertex_count
            pairs = [random_disjoint_pair(rng, n) for _ in range(8)]
            held = as_mask([a for a, _ in pairs], n)
            free = ~(held | as_mask([b for _, b in pairs], n))
            ground = np.array([g.conductance_matrix[:, b.members].sum(axis=1) for _, b in pairs])
            alone = [pinned_energies(g, held[i:i + 1], free[i:i + 1], ground[i:i + 1])[0]
                     for i in range(len(pairs))]
            whole = pinned_energies(g, held, free, ground)
            backwards = pinned_energies(g, held[::-1], free[::-1], ground[::-1])[::-1]
            assert len(set(free.sum(axis=1).tolist())) > 1
            for got in (whole, backwards):
                assert [e.hex() for e in got] == [e.hex() for e in alone], g

    def test_kron_slots_split_or_alone_never_changes_a_bit(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            c, m = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            w = rng.uniform(0.0, 2.0, (c + 2, c + 2, m)) * (rng.random((c + 2, c + 2, m)) < 0.7)
            net = w + w.transpose(1, 0, 2)
            starts = np.sort(rng.integers(0, c + 1, m))
            whole = net.copy()
            kron_slots(whole, starts, 0, c)
            split = net.copy()
            cuts = np.sort(rng.integers(0, c + 1, int(rng.integers(1, 3))))
            for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, c]):
                kron_slots(split, starts, lo, hi)
            assert split.tobytes() == whole.tobytes(), trial
            for i in range(m):
                alone = net[:, :, i:i + 1].copy()
                kron_slots(alone, starts[i:i + 1], 0, c)
                assert alone.tobytes() == whole[:, :, i:i + 1].tobytes(), (trial, i)

    def test_kron_slots_zero_pivot_poisons_its_network_alone(self):
        rng = np.random.default_rng(23)
        w = rng.uniform(0.5, 2.0, (6, 6, 4))
        net = w + w.transpose(1, 0, 2)
        starts = np.array([0, 1, 1, 3])
        net[1, 2:, 1] = net[2:, 1, 1] = 0.0  # network 1's first slot meets nothing after it
        got = net.copy()
        with np.errstate(invalid="ignore"):
            kron_slots(got, starts, 0, 4)
        assert np.isnan(got[4, 5, 1])
        for i in (0, 2, 3):
            alone = net[:, :, i:i + 1].copy()
            kron_slots(alone, starts[i:i + 1], 0, 4)
            assert np.isfinite(alone[4, 5, 0])
            assert alone.tobytes() == got[:, :, i:i + 1].tobytes(), i

    def test_no_problems(self):
        g = corpus_graph(0)
        n = g.vertex_count
        none = np.zeros((0, n), dtype=bool)
        assert pinned_energies(g, none, none, np.zeros((0, n))) == []

    def test_conductance_to_sums_each_row_alone(self):
        g = corpus_graph(8, 3, 12)
        n = g.vertex_count
        rng = Xorshift64Star(9)
        sets = as_mask([random_disjoint_pair(rng, n)[1] for _ in range(6)], n)
        want = np.array([g.conductance_matrix[:, np.flatnonzero(x)].sum(axis=1) for x in sets])
        got = conductance_to(g, sets)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert [conductance_to(g, x[None])[0].tobytes() for x in sets] == \
            [row.tobytes() for row in got]

    def test_conductance_to_copies_no_matrix_per_row(self):
        # 30 rows at n = 200: a masked copy of W per row would be 9.6 MB
        g = random_graph(200, 0.02, (0.1, 10.0), (0.1, 10.0), seed=7)
        sets = irwin_hall(Xorshift64Star(11).words(12 * 30 * 200).reshape(30, 200, 12)) > 0.0
        g.edge_arrays, g.conductance_matrix  # cached before the count starts
        tracemalloc.start()
        try:
            got = conductance_to(g, sets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (30, 200) and peak < 1_000_000


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


def sequential_f(rng, n):
    """One potential drawn one value at a time: gaussian-like values
    recentred to mean zero."""
    f = [float(irwin_hall(rng.words(12))) for _ in range(n)]
    mean = 0.0
    for x in f:
        mean += x
    mean /= n
    return [x - mean for x in f]


def reference_subset(word, side):
    """A nonempty subset of a side (a VertexSet of s members) from one
    word: bit i of 1 + x % (2^s - 1) picks the side's i-th smallest
    vertex, where x is the word itself for s <= 64, and for a larger side
    `below(2^s - 1)` of a stream seeded with the word."""
    members = sorted(side.members)
    top = (1 << len(members)) - 1
    pick = 1 + (word % top if len(members) <= 64 else Xorshift64Star(word).below(top))
    return VertexSet.of(v for i, v in enumerate(members) if pick >> i & 1)


def reference_draws(graph, seed, pinch_first=False, samples=DEFAULT_SAMPLES,
                    stream=Xorshift64Star):
    """The draws of `run_suite`, one at a time, made with `pinch`: the
    pinch suite's potentials if `pinch_first` (as when both suites run),
    each from 12n outputs and never drawn again, then per ressum sample f
    from 12n outputs and one word each for A and
    B, read whether or not the pinch succeeds; then the pinched graph, A
    from its negative set and B from its positive set, or the pinch's
    typed error. Returns (pinch potentials, ressum draws)."""
    rng = stream(seed)
    n = graph.vertex_count
    pinch_fs = [sequential_f(rng, n) for _ in range(samples if pinch_first else 0)]
    draws = []
    for _ in range(samples):
        f = sequential_f(rng, n)
        words = rng.words(2).tolist()
        try:
            p = pinch(graph, f)
        except errors.HardySpectralError as exc:
            draws.append(exc)
            continue
        draws.append((p, *map(reference_subset, words, (p.negative_set, p.positive_set))))
    return pinch_fs, draws


def posed_ressum(graph, wanted, samples, seed):
    """ressum's part of the posing step (`suite._pose`) of a run of
    `wanted`, with no boundary: its draws and per-sample errors."""
    report = blank_report(graph, seed, DEFAULT_TOLERANCE)
    return Quantities(graph, None, report, (wanted, samples, seed)).get("ressum_draws")


def drawn_samples(draws, failures):
    """ressum's draws as `_pose` makes them, one sample at a time: the
    pinch's typed error, or (sides, A, B): the sides {f < 0} and {f > 0}
    as boolean rows (2, n), and A and B as VertexSets."""
    sides, _, a, b = draws
    pinched = zip(sides, map(as_set, a), map(as_set, b))
    out = [exc if exc is not None else next(pinched) for exc in failures]
    assert next(pinched, None) is None
    return out


class FlatStream(Xorshift64Star):
    """The stream of `Xorshift64Star(seed)` with every output at a
    position in [lo, hi) replaced by one fixed word."""

    def __init__(self, seed, lo, hi):
        super().__init__(seed)
        self.made, self.lo, self.hi = 0, lo, hi

    def _block(self):
        self.made += BLOCK
        return super()._block()

    def words(self, count):
        start = self.made - (len(self._out) - self._pos)
        out = super().words(count).copy()
        at = np.arange(start, start + count)
        out[(at >= self.lo) & (at < self.hi)] = np.uint64(0x5DEECE66D)
        return out


@pytest.fixture
def ressum_run(monkeypatch):
    """run_suite(graph, **kwargs) with the ressum energies recorded as the
    suite posed them, in one `pinned_energies` call (with no problems
    when no draw pinched): the report, then per draw that pinched (A, B)
    as VertexSets and [1/R(A, Z), 1/R(B, Z), 1/R(A, B)]."""
    calls = []

    def recorded(graph, held, free, ground):
        out = pinned_energies(graph, held, free, ground)
        calls.append((held, out))
        return out

    monkeypatch.setattr(suite, "pinned_energies", recorded)

    def run(graph, **kwargs):
        calls.clear()
        report = run_suite(graph, **kwargs)
        # three problems per draw: A and B on their sides, then A against B
        [(held, out)] = calls
        assert np.array_equal(held[2::3], held[::3])
        return report, [((as_set(a), as_set(b)), [e_a, e_b, e_ab]) for a, b, e_a, e_b, e_ab
                        in zip(held[::3], held[1::3], out[::3], out[1::3], out[2::3])]

    return run


def pinched_energies(p, a, b):
    """[1/R(A, Z), 1/R(B, Z), 1/R(A, B)] on the pinched graph itself."""
    return [1.0 / effective_resistance(p.graph, x, y)
            for x, y in ((a, p.zero_set), (b, p.zero_set), (a, b))]


class TestRessumRoute:
    """`ressum` poses its resistances on the parent graph's arrays: each
    side as its boolean row with its pinched ground, R(A, B) on the parent
    itself (series law). The reference route builds each pinched graph;
    both must draw the same sets, give energies within 1e-13 relative,
    and give the same error rows."""

    def assert_agree(self, ressum_run, graph, seed):
        report, drawn = ressum_run(graph, suites=["ressum"], seed=seed)
        _, want = reference_draws(graph, seed)
        rows = [c for c in report.checks if c.name.startswith("ressum_")]
        assert len(rows) == len(want) == DEFAULT_SAMPLES
        posed = iter(drawn)
        for row, draw in zip(rows, want):
            if isinstance(draw, errors.HardySpectralError):
                assert (row.relation, row.reason) == ("error", str(draw))
                continue
            p, a, b = draw
            (got_a, got_b), energies = next(posed)
            assert (got_a, got_b) == (a, b)
            assert energies == pytest.approx(pinched_energies(p, a, b), rel=1e-13, abs=0.0)
            assert row.relation == "<=" and row.holds
        assert next(posed, None) is None

    def test_corpus_graphs(self, ressum_run):
        for i in range(30):
            self.assert_agree(ressum_run, corpus_graph(i), seed=700 + i)

    def test_zero_mass_vertex_gives_the_pinch_error_rows(self, ressum_run):
        parent = corpus_graph(4)
        g = split_edge(parent, parent.edges[0][:2], [0.25, 0.75])
        assert 0.0 in g.masses
        self.assert_agree(ressum_run, g, seed=5)
        report, _ = ressum_run(g, suites=["ressum"], seed=5)
        assert {c.relation for c in report.checks} == {"error"}


class TestStiffRessum:
    """`ressum`'s energies at stiff weights against the 60-digit oracle on
    each pinched graph."""

    @pytest.mark.parametrize("ratio", [1e3, 1e6, 1e9, 1e12, 1e16])
    def test_energies_against_mpmath(self, ressum_run, ratio):
        mpmath = pytest.importorskip("mpmath")
        for s in range(20):
            g = stiff_graph(s, ratio, ratio)
            _, drawn = ressum_run(g, boundary=VertexSet.of([0]), seed=s)
            want = [d for d in reference_draws(g, s, pinch_first=True)[1]
                    if not isinstance(d, errors.HardySpectralError)]
            assert len(drawn) == len(want)
            with mpmath.workdps(60):
                for ((a, b), energies), (p, a2, b2) in zip(drawn, want):
                    assert (a, b) == (a2, b2)
                    energy = mp_energy_fn(mpmath, p.graph)
                    for (x, y), got in zip(((a, p.zero_set), (b, p.zero_set), (a, b)),
                                           energies):
                        exact = energy(x.members, y.members)
                        assert abs(got - exact) <= 1e-14 * exact, (s, x, y)

    def test_no_false_counterexample_at_ratio_1e16(self):
        # the pinched graph's solve once failed seeds 38 and 78 on rounding,
        # and a LAPACK solve once made 23 rows errors
        for s in range(100):
            report = run_suite(stiff_graph(s, 1e16, 1e16), boundary=VertexSet.of([0]), seed=s)
            rows = [c for c in report.checks if c.name.startswith("ressum_")]
            assert len(rows) == DEFAULT_SAMPLES
            assert not [c.name for c in rows if c.relation == "<=" and not c.holds], s
            assert not [c.name for c in rows if c.relation == "error"], s


class TestDraws:
    """`_draws` batches the pinch suite's potentials and reads `ressum`'s
    samples at a fixed stride of 12n + 2 outputs, and `_pose` pinches
    them; every potential, set and error must be the one the one-at-a-time
    reference draws, bit for bit."""

    def assert_same(self, graph, seed, samples=DEFAULT_SAMPLES):
        pinch_fs = _draws(graph, ["pinch", "ressum"], samples, seed)[0]
        draws, failures = posed_ressum(graph, ["pinch", "ressum"], samples, seed)
        sides, ground, a, b = draws
        want_fs, want = reference_draws(graph, seed, pinch_first=True, samples=samples)
        assert pinch_fs.shape == (samples, graph.vertex_count)
        assert pinch_fs.tobytes() == np.array(want_fs, dtype=float).tobytes()
        assert a.shape == b.shape == ground.shape and a.dtype == b.dtype == bool
        ressum = drawn_samples(draws, failures)
        assert len(ressum) == len(want) == samples
        pinched = []
        for got, draw in zip(ressum, want):
            if isinstance(draw, errors.HardySpectralError):
                assert type(got) is type(draw) and str(got) == str(draw)
                continue
            p, a, b = draw
            got_sides, got_a, got_b = got
            f = np.array(p.f_extended[:graph.vertex_count])
            assert got_sides.tobytes() == np.stack([f < 0.0, f > 0.0]).tobytes()
            assert (got_a, got_b) == (a, b)
            pinched.append(f)
        # the pinched_sides rows of the draws that pinched, in order
        want_sides, want_ground, want_failed = pinched_sides(graph, pinched)
        assert want_failed == [None] * len(pinched)
        assert ground.shape == (len(pinched), graph.vertex_count)
        assert sides.tobytes() == want_sides.tobytes()
        assert ground.tobytes() == want_ground.tobytes()
        return ressum

    def test_corpus_graphs(self):
        for i in range(30):
            self.assert_same(corpus_graph(i), seed=800 + i)

    def test_failed_pinches_keep_the_stride(self):
        # a crossing of the 1.7e308 edge overflows a segment conductance,
        # so exactly the draws whose f changes sign across it fail; every
        # other sample is the one drawn at its place on a path that never
        # fails
        g = path_graph([1.0] * 6, [1.0, 1.0, 1.7e308, 1.0, 1.0])
        plain = path_graph([1.0] * 6, [1.0] * 5)
        failures = 0
        for seed in range(10):
            for draw, other in zip(self.assert_same(g, seed), self.assert_same(plain, seed)):
                crosses = isinstance(draw, errors.SignCondition)
                if not crosses:
                    (neg, pos), a, b = draw
                    assert not (neg[2] and pos[3] or pos[2] and neg[3])
                    assert draw[0].tobytes() == other[0].tobytes() and (a, b) == other[1:]
                failures += crosses
        assert 10 <= failures <= 90

    def test_every_pinch_failing(self, monkeypatch):
        parent = corpus_graph(4)
        g = split_edge(parent, parent.edges[0][:2], [0.25, 0.75])
        ressum = self.assert_same(g, seed=5)
        assert all(isinstance(d, errors.ZeroMass) for d in ressum)
        # the masses fail every pinch whatever f is: the run still reads
        # the pinch suite's potentials and ressum's samples in one read,
        # and no row pinched
        reads = []

        class Recorded(Xorshift64Star):
            def words(self, count):
                reads.append(count)
                return super().words(count)

        monkeypatch.setattr(suite, "Xorshift64Star", Recorded)
        rows, _ = posed_ressum(g, ["pinch", "ressum"], DEFAULT_SAMPLES, 5)
        n = g.vertex_count
        assert reads == [DEFAULT_SAMPLES * 12 * n + DEFAULT_SAMPLES * (12 * n + 2)]
        assert [r.shape for r in rows] == [(0, 2, n), (0, n), (0, n), (0, n)]

    def test_sides_of_64_and_65_vertices(self):
        # a side of up to 64 vertices takes its word as the mask, and a
        # side of 65 or more the word's own stream
        g = path_graph([1.0] * 128, [1.0] * 127)
        sizes = set()
        for seed in range(6):
            for sides, _, _ in self.assert_same(g, seed):
                sizes |= set(sides.sum(axis=1).tolist())
        assert {64, 65} <= sizes

    def test_one_read_and_one_pinch_call(self, monkeypatch):
        # on 130 vertices a side always exceeds 64, and the 1.7e308 edge
        # fails some pinches; still every sample is read in one `words`
        # call of the run's stream and pinched in one `pinched_sides` call.
        # Each side's own stream (seeded with its word) makes one `below`
        # draw
        g = path_graph([1.0] * 130, [1.0] * 64 + [1.7e308] + [1.0] * 64)
        pinched, streams = [], []

        class Recorded(Xorshift64Star):
            def __init__(self, seed):
                super().__init__(seed)
                self.reads = []
                streams.append(self)

            def words(self, count):
                self.reads.append(count)
                return super().words(count)

        def counted(graph, potentials):
            pinched.append(len(potentials))
            return pinched_sides(graph, potentials)

        monkeypatch.setattr(suite, "pinched_sides", counted)
        failures = 0
        for seed in range(4):
            ressum = self.assert_same(g, seed, samples=20)
            failures += sum(isinstance(d, errors.HardySpectralError) for d in ressum)
        assert failures >= 4
        monkeypatch.setattr(suite, "Xorshift64Star", Recorded)
        for seed in range(4):
            pinched.clear()
            streams.clear()
            posed_ressum(g, ["ressum"], 20, seed)
            assert streams[0].reads == [20 * (12 * 130 + 2)] and pinched == [20]
            assert len(streams) > 1
            assert [len(side.reads) for side in streams[1:]] == [1] * (len(streams) - 1)

    def test_a_row_without_both_signs_fails_its_sample(self, monkeypatch):
        g = corpus_graph(3)
        n = g.vertex_count
        # the third ressum sample's f reads 12n equal words, so every value
        # is the same: that sample fails, and every other one is as drawn
        # from the plain stream
        start = 2 * (12 * n + 2)
        flat = lambda seed: FlatStream(seed, start, start + 12 * n)  # noqa: E731
        monkeypatch.setattr(suite, "Xorshift64Star", flat)
        got = drawn_samples(*posed_ressum(g, ["ressum"], DEFAULT_SAMPLES, 4))
        _, want = reference_draws(g, 4, stream=flat)
        monkeypatch.undo()
        plain = drawn_samples(*posed_ressum(g, ["ressum"], DEFAULT_SAMPLES, 4))
        assert len(got) == len(want) == DEFAULT_SAMPLES
        assert isinstance(got[2], errors.SignCondition) and str(got[2]) == str(want[2])
        for i in (0, 1, *range(3, DEFAULT_SAMPLES)):
            (sides, a, b), (p, a2, b2), (sides3, a3, b3) = got[i], want[i], plain[i]
            f = np.array(p.f_extended[:n])
            assert sides.tobytes() == np.stack([f < 0.0, f > 0.0]).tobytes() == sides3.tobytes()
            assert (a, b) == (a2, b2) == (a3, b3)

    def test_a_flat_pinch_potential_fails_its_row(self, monkeypatch):
        g = corpus_graph(3)
        n = g.vertex_count
        # the third pinch potential reads 12n equal words, so every value is
        # the same: its row is the SignCondition of `zero_crossings`, no
        # potential is drawn in its place, and every other row, ressum's
        # too, is as drawn from the plain stream
        start = 2 * 12 * n
        monkeypatch.setattr(suite, "Xorshift64Star",
                            lambda seed: FlatStream(seed, start, start + 12 * n))
        got = run_suite(g, suites=["pinch", "ressum"], seed=4).checks
        monkeypatch.undo()
        plain = run_suite(g, suites=["pinch", "ressum"], seed=4).checks
        assert [c.name for c in got] == [c.name for c in plain]
        at = [c.name for c in got].index("pinch_random_03")
        assert got[at].relation == "error"
        assert got[at].reason == str(errors.SignCondition("potential must take both strict signs"))
        assert plain[at].relation == ">=" and plain[at].holds
        assert got[:at] + got[at + 1:] == plain[:at] + plain[at + 1:]

    def test_a_failure_mid_batch_keeps_the_draws_around_it(self):
        g = path_graph([1.0] * 6, [1.0, 1.0, 1.7e308, 1.0, 1.0])
        inside = 0
        for seed in range(10):
            failed = [isinstance(d, errors.SignCondition) for d in self.assert_same(g, seed)]
            inside += any(failed[i] and not failed[i - 1] and not failed[i + 1]
                          for i in range(1, len(failed) - 1))
        assert inside >= 3

    def test_no_samples(self):
        g = corpus_graph(0)
        pinch_fs = _draws(g, ["pinch", "ressum"], 0, 3)[0]
        rows, failures = posed_ressum(g, ["pinch", "ressum"], 0, 3)
        assert pinch_fs.shape == (0, g.vertex_count) and failures == []
        n = g.vertex_count
        assert [r.shape for r in rows] == [(0, 2, n), (0, n), (0, n), (0, n)]
        assert posed_ressum(WeightedGraph((1.0,), ()), ["pinch", "ressum"], 0, 3)[1] == []

    @pytest.mark.parametrize("wanted", [["pinch"], ["ressum"], ["pinch", "ressum"]])
    def test_one_vertex_draws_nothing(self, wanted):
        with pytest.raises(errors.SignCondition):
            _draws(WeightedGraph((1.0,), ()), wanted, 1, 3)

    def test_run_suite_reads_once(self, monkeypatch):
        # pinch and ressum share one `_draws` call, made when the first of
        # them runs, and one `words` call of the run's stream; the run's
        # potentials, the mode's first, go to one `pinched_sides` call, and
        # its boundary-pinned problems on the graph to one `ground_modes`
        # call, the run's only one (the level-set quotient path is solved
        # by its Hardy operator). A run without pinch or ressum builds no
        # stream and pinches nothing
        g = corpus_graph(3)
        n = g.vertex_count
        calls, streams, pinched, grounded = [], [], [], []

        class Recorded(Xorshift64Star):
            def __init__(self, seed):
                super().__init__(seed)
                self.reads = []
                streams.append(self)

            def words(self, count):
                self.reads.append(count)
                return super().words(count)

        def counted(*args):
            calls.append(args)
            return draws(*args)

        def counted_pinch(graph, potentials):
            pinched.append(len(potentials))
            return pinched_sides(graph, potentials)

        def counted_modes(graph, sides, ground):
            grounded.append((graph, len(sides)))
            return ground_modes(graph, sides, ground)

        draws, ground_modes = suite._draws, spectral.ground_modes
        monkeypatch.setattr(suite, "_draws", counted)
        monkeypatch.setattr(suite, "Xorshift64Star", Recorded)
        monkeypatch.setattr(suite, "pinched_sides", counted_pinch)
        for module in (suite, spectral):
            monkeypatch.setattr(module, "ground_modes", counted_modes)
        rep = run_suite(g, boundary=VertexSet.of([0]), seed=2, samples=7)
        names = [c.name for c in rep.checks]
        assert "pinch_random_07" in names and "ressum_07" in names
        assert rep.all_hold
        assert len(calls) == 1 and [s.reads for s in streams] == [[7 * (24 * n + 2)]]
        assert pinched == [1 + 7 + 7]
        # the Dirichlet problem, then both sides of the mode and 7 potentials
        assert grounded == [(g, 1 + 2 * 8)]
        calls.clear()
        streams.clear()
        pinched.clear()
        grounded.clear()
        run_suite(g, boundary=VertexSet.of([0]), seed=2, samples=7,
                  suites=["dirichlet", "neumann", "cheeger", "path-reduction"])
        assert calls == [] and streams == [] and pinched == []
        assert grounded == [(g, 1)]

    def test_only_the_wanted_suites_draw(self):
        g = corpus_graph(1)
        pinch_fs, ressum_fs, words = _draws(g, ["pinch"], 4, 9)
        assert len(pinch_fs) == 4 and len(ressum_fs) == len(words) == 0
        assert posed_ressum(g, ["pinch"], 4, 9) is None
        ressum = drawn_samples(*posed_ressum(g, ["ressum"], 4, 9))
        _, want = reference_draws(g, 9, samples=4)
        assert [(a, b) for _, a, b in ressum] == [(a, b) for _, a, b in want]

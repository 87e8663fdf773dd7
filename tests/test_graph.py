import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_spectral import (VertexSet, WeightedGraph, components, contract,
                            dirichlet_content_exact, dirichlet_eigenvalue,
                            effective_resistance, level_set_quotient, neumann_content_sweep,
                            neumann_eigenvalue, path_graph, pinch, random_graph,
                            rayleigh_quotient, serialize_wgr, split_edge, validate)
from hardy_spectral import errors
from hardy_spectral.graph import interior_of, pinched_sides, quantize_zeros, zero_crossings
from hardy_spectral.rng import Xorshift64Star
from hardy_spectral.spectral import harmonic_extension
from hardy_spectral.suite import _worst_sides
from hardy_spectral.wgr import parse_wgr

from conftest import (WEIGHT_RANGE, corpus_graph, edge_energy, mixed_sign_fs, random_vector,
                      sample_without_replacement)

# Every entry point that takes a vertex id from its caller, each passed
# one id v at one place, on the path 0 - 1 - 2 of ID_GRAPH; v = 1 makes
# every call valid. A set is passed as built by hand, not by
# VertexSet.of, so that the entry point's own check is the one tested.
# Results come back in a form that == compares bit for bit.
ID_GRAPH = path_graph([1.0, 2.0, 4.0], [1.0, 3.0])
ID_ENTRIES = {
    "WeightedGraph": lambda g, v: WeightedGraph(g.masses, ((0, v, 1.0), (1, 2, 3.0))),
    "label": lambda g, v: g.label(v),
    "degree": lambda g, v: g.degree(v),
    "mass_of": lambda g, v: g.mass_of(VertexSet((v,))),
    "row": lambda g, v: g.row([v]).tolist(),
    "split_edge-u": lambda g, v: split_edge(g, (v, 2), [0.25, 0.75]),
    "split_edge-v": lambda g, v: split_edge(g, (0, v), [0.25, 0.75]),
    "contract": lambda g, v: contract(g, VertexSet((v, 2))),
    "interior_of": lambda g, v: interior_of(g, VertexSet((v,))).tolist(),
    "dirichlet_eigenvalue": lambda g, v: dirichlet_eigenvalue(
        g, VertexSet((v,))).eigenvector.tolist(),
    "dirichlet_content_exact": lambda g, v: dirichlet_content_exact(g, VertexSet((v,))),
    "level_set_quotient": lambda g, v: level_set_quotient(g, VertexSet((v,)), [1.0, 0.0, 2.0]),
    "effective_resistance-a": lambda g, v: effective_resistance(
        g, VertexSet((v,)), VertexSet((0,))),
    "effective_resistance-b": lambda g, v: effective_resistance(
        g, VertexSet((0,)), VertexSet((v,))),
    "rayleigh_quotient": lambda g, v: rayleigh_quotient(g, [1.0, 0.0, 2.0], VertexSet((v,))),
    "harmonic_extension": lambda g, v: harmonic_extension(g, {0: 1.0, v: 0.0}).tolist(),
    "serialize_wgr": lambda g, v: serialize_wgr(g, VertexSet((v,))),
}
NOT_INTEGERS = [1.7, 0.9, -0.5, math.nan, math.inf, "2", None]


def names_a_vertex(v, n: int) -> bool:
    return not isinstance(v, str) and math.isfinite(v) and v == int(v) and 0 <= v < n


class TestVertexSet:
    def test_of_sorts_and_dedupes(self):
        assert VertexSet.of([3, 1, 1, 0]).members == (0, 1, 3)

    def test_canonical_key_is_bitmask(self):
        assert VertexSet.of([0, 2]).canonical_key == 0b101
        assert VertexSet.from_mask(0b101).members == (0, 2)

    def test_negative_mask_is_a_typed_error(self):
        # a negative mask has infinitely many set bits, and decoding one
        # never ended; a subprocess with a timeout turns a hang into a failure
        script = ("from hardy_spectral import VertexSet, errors\n"
                  "try:\n"
                  "    VertexSet.from_mask(-1)\n"
                  "except errors.BadRange as exc:\n"
                  "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("mask -1 is negative")

    def test_negative_mask_is_a_typed_error_in_process(self):
        with pytest.raises(errors.BadRange, match="mask -1 is negative"):
            VertexSet.from_mask(-1)

    @pytest.mark.parametrize("entry, bad", [
        *(pytest.param("VertexSet.of", bad, id=str(bad)) for bad in NOT_INTEGERS + [0.7, "1"]),
        *(pytest.param(entry, bad, id=f"{entry}-{bad}")
          for entry in ID_ENTRIES for bad in (0.7, math.nan, "1")),
    ])
    def test_an_id_that_is_no_integer_is_a_typed_error(self, entry, bad):
        # int() truncated 1.7 to 1, so an id could name the wrong vertex
        call = ID_ENTRIES.get(entry, lambda g, v: VertexSet.of([v, 3]))
        with pytest.raises(errors.BadRange, match=re.escape(f"vertex id {bad!r} is not an integer")):
            call(ID_GRAPH, bad)

    def test_a_text_id_reads_as_text(self):
        with pytest.raises(errors.BadRange) as info:
            VertexSet.of(["1"])
        assert str(info.value) == "vertex id '1' is not an integer"

    @pytest.mark.parametrize("entry", ID_ENTRIES)
    @pytest.mark.parametrize("v", [3, -1, 3.0, 10 ** 30], ids=["3", "-1", "3.0", "10**30"])
    def test_an_id_off_the_graph_is_one_typed_error(self, entry, v):
        with pytest.raises(errors.LengthMismatch) as exc:
            ID_ENTRIES[entry](ID_GRAPH, v)
        # the constructor names the edge that holds the id
        where = f"edge (0,{int(v)})" if entry == "WeightedGraph" else f"vertex id {int(v)}"
        assert str(exc.value) == f"{where} out of range for n=3"

    @pytest.mark.parametrize("entry", ID_ENTRIES)
    @pytest.mark.parametrize("v", [1.0, np.float64(1.0), np.int64(1), True],
                             ids=["1.0", "float64", "int64", "True"])
    def test_an_integral_id_acts_as_its_int(self, entry, v):
        assert ID_ENTRIES[entry](ID_GRAPH, v) == ID_ENTRIES[entry](ID_GRAPH, 1)

    @settings(max_examples=150, deadline=None)
    @given(entry=st.sampled_from(sorted(ID_ENTRIES)),
           v=st.one_of(st.integers(-3, 6), st.floats(), st.text(max_size=2)))
    def test_any_id_gives_a_result_or_a_typed_error(self, entry, v):
        # components is left out: it keeps its own range check, one per
        # call, and takes ids only from the library's own arrays
        try:
            ID_ENTRIES[entry](ID_GRAPH, v)
        except errors.HardySpectralError as exc:
            if not names_a_vertex(v, 3):
                assert isinstance(exc, (errors.BadRange, errors.LengthMismatch))
        else:
            assert names_a_vertex(v, 3)

    def test_integral_ids_of_any_type_are_kept(self):
        assert VertexSet.of([2.0, np.int64(0), np.float64(1.0), True]).members == (0, 1, 2)
        assert VertexSet.of(np.array([3, 1], dtype=np.uint8)).members == (1, 3)

    @pytest.mark.parametrize("ids", [[-1], [3, -2, 5], np.array([0, -7])])
    def test_negative_id_is_a_typed_error(self, ids):
        # canonical_key and isdisjoint would raise a bare "negative shift count"
        with pytest.raises(errors.BadRange, match="is negative"):
            VertexSet.of(ids)

    def test_complement(self):
        assert VertexSet.of([1]).complement(3).members == (0, 2)

    def test_disjoint_and_union(self):
        a, b = VertexSet.of([0, 1]), VertexSet.of([2])
        assert a.isdisjoint(b)
        assert a.union(b).members == (0, 1, 2)
        assert not a.isdisjoint(VertexSet.of([1]))


def scanned_components(graph, vertices):
    """Components of the induced subgraph by one scan of every edge, then
    a walk from each vertex in id order."""
    adj = {v: [] for v in sorted(set(vertices))}
    for u, v, _k in graph.edges:
        if u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    seen, out = set(), []
    for root in adj:
        if root not in seen:
            seen.add(root)
            stack, comp = [root], []
            while stack:
                comp.append(x := stack.pop())
                fresh = [y for y in adj[x] if y not in seen]
                seen.update(fresh)
                stack += fresh
            out.append(sorted(comp))
    return out


class TestComponents:
    def test_matches_an_edge_scan(self):
        rng = Xorshift64Star(19)
        for i in range(30):
            g = corpus_graph(i)
            n = g.vertex_count
            assert components(g) == scanned_components(g, range(n)) == [list(range(n))]
            for _ in range(10):
                # a random subset, with repeats, in no particular order
                vertices = [rng.below(n) for _ in range(rng.below(2 * n))]
                assert components(g, vertices) == scanned_components(g, vertices)

    @pytest.mark.parametrize("vertices", [[-1, 0], [0, 3]])
    def test_ids_outside_the_graph(self, vertices):
        g = path_graph([1.0] * 3, [1.0, 1.0])
        with pytest.raises(errors.LengthMismatch):
            components(g, vertices)


class TestValidate:
    def test_minimal_connected_graph_ok(self):
        validate(WeightedGraph((1.0, 1.0), ((0, 1, 1.0),)))

    def test_no_edges_is_disconnected(self):
        with pytest.raises(errors.Disconnected) as exc:
            WeightedGraph((1.0, 1.0), ())
        assert exc.value.components == [[0], [1]]

    def test_zero_conductance(self):
        with pytest.raises(errors.NonPositiveConductance):
            WeightedGraph((1.0, 1.0), ((0, 1, 0.0),))

    def test_negative_mass(self):
        with pytest.raises(errors.NegativeMass):
            WeightedGraph((1.0, -0.5), ((0, 1, 1.0),))

    def test_self_loop(self):
        with pytest.raises(errors.SelfLoop):
            WeightedGraph((1.0, 1.0), ((0, 1, 1.0), (1, 1, 2.0)))

    def test_duplicate_edge(self):
        with pytest.raises(errors.DuplicateEdge):
            WeightedGraph((1.0, 1.0), ((0, 1, 1.0), (1, 0, 2.0)))

    def test_zero_mass_is_allowed(self):
        validate(WeightedGraph((0.0, 1.0), ((0, 1, 1.0),)))

    @pytest.mark.parametrize("masses, edges, labels, message", [
        ((), (), None, "at least one vertex"),
        ((1.0, 1.0), ((0, 1, 1.0),), ("a",), "labels length"),
        ((1.0, 1.0), ((0, 2, 1.0),), None, r"edge \(0,2\) out of range for n=2"),
    ])
    def test_shape_errors(self, masses, edges, labels, message):
        with pytest.raises(errors.LengthMismatch, match=message):
            WeightedGraph(masses, edges, labels)

    def test_invalid_graph_cannot_be_constructed(self):
        with pytest.raises(errors.Disconnected) as exc:
            WeightedGraph((1.0, 1.0, 1.0), ((0, 1, 1.0),))
        assert exc.value.components == [[0, 1], [2]]

    @pytest.mark.parametrize("k", [math.inf, math.nan])
    def test_non_finite_conductance(self, k):
        with pytest.raises(errors.NonPositiveConductance):
            WeightedGraph((1, 1, 1), ((0, 1, k), (1, 2, 1)))

    @pytest.mark.parametrize("m", [math.inf, math.nan])
    def test_non_finite_mass(self, m):
        with pytest.raises(errors.NegativeMass):
            WeightedGraph((1, m, 1), ((0, 1, 1), (1, 2, 1)))

    def test_total_mass_past_the_doubles(self):
        # each mass is finite, but their sum is not: every report of the
        # graph would hold mass_total = inf
        with pytest.raises(errors.TotalMassOverflow):
            WeightedGraph((1.7e308, 1.0, 1.7e308), ((0, 1, 1.0), (1, 2, 1.0)))
        validate(WeightedGraph((1.7e308, 1.0, 0.0), ((0, 1, 1.0), (1, 2, 1.0))))

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_construction_matches_an_independent_oracle(self, data):
        nx = pytest.importorskip("networkx")
        n = data.draw(st.integers(1, 5))
        vertex = st.integers(0, n - 1)
        # a spanning tree, extra pairs (self-loops and repeats allowed), at
        # most one pair dropped, each pair in either orientation
        pairs = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
        pairs += data.draw(st.lists(st.tuples(vertex, vertex), max_size=2))
        if pairs and data.draw(st.booleans()):
            del pairs[data.draw(st.integers(0, len(pairs) - 1))]
        edges = [((v, u) if data.draw(st.booleans()) else (u, v))
                 + (data.draw(st.sampled_from([0.5, 2.0])),) for (u, v) in pairs]
        masses = data.draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=n, max_size=n))
        # at most one mass or conductance out of range (a zero mass is valid)
        bad = st.sampled_from([-1.0, 0.0, math.inf, -math.inf, math.nan])
        spot = data.draw(st.sampled_from([None, "mass", "edge"]))
        if spot == "mass":
            masses[data.draw(st.integers(0, n - 1))] = data.draw(bad)
        elif spot == "edge" and edges:
            i = data.draw(st.integers(0, len(edges) - 1))
            edges[i] = edges[i][:2] + (data.draw(bad),)

        keys = [frozenset((u, v)) for (u, v, _k) in edges]
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from((u, v) for (u, v, _k) in edges)
        valid = (all(math.isfinite(m) and m >= 0 for m in masses)
                 and all(math.isfinite(k) and k > 0 for (_u, _v, k) in edges)
                 and all(u != v for (u, v, _k) in edges)
                 and len(set(keys)) == len(keys)
                 and nx.is_connected(nxg))
        if valid:
            WeightedGraph(tuple(masses), tuple(edges))
        else:
            with pytest.raises(errors.GraphValidationError):
                WeightedGraph(tuple(masses), tuple(edges))


class TestPathGraph:
    def test_single_edge(self):
        g = path_graph([1, 1], [1])
        assert g.edges == ((0, 1, 1.0),)

    def test_uniform_dirichlet_path(self):
        g = path_graph([0, 1, 1, 1], [1, 1, 1])
        assert g.vertex_count == 4
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))

    def test_weights_land_on_the_right_edges(self):
        g = path_graph([0, 3, 1], [1, 2])
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))
        assert g.masses == (0.0, 3.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(errors.LengthMismatch):
            path_graph([1, 1, 1], [1])

    def test_degree_reads_the_laplacian_and_checks_the_id(self):
        g = path_graph([1, 1, 1], [1.5, 2.0])
        assert [g.degree(v) for v in range(3)] == [1.5, 3.5, 2.0]
        for v in (-1, 3):
            with pytest.raises(errors.LengthMismatch):
                g.degree(v)

    @pytest.mark.parametrize("labels", [None, ("a", "b", "c")])
    def test_label_and_mass_of_check_the_id(self, labels):
        g = WeightedGraph((1.0, 2.0, 4.0), ((0, 1, 1.0), (1, 2, 1.0)), labels)
        assert g.mass_of(VertexSet.of([0, 2])) == 5.0
        assert [g.label(v) for v in range(3)] == list(labels or ("v0", "v1", "v2"))
        for v in (-1, 3, 5):
            with pytest.raises(errors.LengthMismatch,
                               match=f"vertex id {v} out of range for n=3"):
                g.label(v)
            with pytest.raises(errors.LengthMismatch,
                               match=f"vertex id {v} out of range for n=3"):
                g.mass_of(VertexSet((v,)))


class TestRandomGraph:
    def test_two_vertices_forces_the_edge(self):
        g = random_graph(2, 0.0, (1, 1), (1, 1), seed=11)
        assert [e[:2] for e in g.edges] == [(0, 1)]

    @pytest.mark.parametrize("seed", [0, 1, 7, 11])
    def test_two_vertices_draw_two_masses_then_one_conductance(self, seed):
        # the tree and the candidate pairs read no stream word at n = 2
        rng = Xorshift64Star(seed)
        masses = (rng.uniform_in(*WEIGHT_RANGE), rng.uniform_in(*WEIGHT_RANGE))
        edges = ((0, 1, rng.uniform_in(*WEIGHT_RANGE)),)
        g = random_graph(2, 0.5, WEIGHT_RANGE, WEIGHT_RANGE, seed)
        assert g == WeightedGraph(masses, edges)

    def test_p_zero_leaves_a_spanning_tree(self):
        g = random_graph(5, 0.0, WEIGHT_RANGE, WEIGHT_RANGE, seed=7)
        assert g.edge_count == 4
        validate(g)

    def test_bit_identical_for_equal_seeds(self):
        a = random_graph(6, 0.4, WEIGHT_RANGE, WEIGHT_RANGE, seed=123)
        b = random_graph(6, 0.4, WEIGHT_RANGE, WEIGHT_RANGE, seed=123)
        assert a == b
        c = random_graph(6, 0.4, WEIGHT_RANGE, WEIGHT_RANGE, seed=124)
        assert a != c

    def test_weights_respect_ranges(self):
        g = random_graph(8, 0.7, (2.0, 3.0), (0.5, 0.6), seed=42)
        assert all(2.0 <= m < 3.0 for m in g.masses)
        assert all(0.5 <= k < 0.6 for (_, _, k) in g.edges)

    def test_always_connected(self):
        for seed in range(30):
            g = random_graph(3 + seed % 6, 0.2, WEIGHT_RANGE, WEIGHT_RANGE, seed=seed)
            assert len(components(g)) == 1

    @pytest.mark.parametrize("kwargs", [
        dict(n=1, edge_probability=0.5),
        dict(n=4, edge_probability=1.5),
        dict(n=4, edge_probability=-0.1),
        dict(n=4, edge_probability=0.5, mass_range=(2.0, 1.0)),
        dict(n=4, edge_probability=0.5, conductance_range=(0.0, 1.0)),
    ])
    def test_bad_ranges(self, kwargs):
        full = dict(n=4, edge_probability=0.5, mass_range=(0.1, 1.0),
                    conductance_range=(0.1, 1.0), seed=1)
        full.update(kwargs)
        with pytest.raises(errors.BadRange):
            random_graph(**full)


class TestSplitEdge:
    def test_half_half_doubles_conductance(self):
        g = WeightedGraph((1.0, 1.0), ((0, 1, 1.0),))
        s = split_edge(g, (0, 1), [0.5, 0.5])
        assert s.masses == (1.0, 1.0, 0.0)
        assert s.edges == ((0, 2, 2.0), (1, 2, 2.0))

    def test_identity_split(self):
        g = WeightedGraph((1.0, 1.0), ((0, 1, 1.0),))
        assert split_edge(g, (0, 1), [1.0]) == g

    def test_uneven_fractions(self):
        g = WeightedGraph((1.0, 1.0), ((0, 1, 1.0),))
        s = split_edge(g, (0, 1), [0.25, 0.75])
        assert s.edges == ((0, 2, 4.0), (1, 2, 1.0 / 0.75))

    def test_missing_edge(self):
        g = path_graph([1, 1, 1], [1, 1])
        with pytest.raises(errors.NoSuchEdge):
            split_edge(g, (0, 2), [0.5, 0.5])

    @pytest.mark.parametrize("edge", [(1,), ()])
    def test_edge_of_fewer_than_two_vertices_is_a_typed_error(self, edge):
        # tuple unpacking once raised a bare ValueError
        g = path_graph([1, 1, 1], [1, 1])
        with pytest.raises(errors.BadRange, match="does not name two vertices"):
            split_edge(g, edge, [0.5, 0.5])

    @pytest.mark.parametrize("fractions", [[0.5, 0.6], [0.5, -0.5, 1.0], []])
    def test_bad_fractions(self, fractions):
        g = WeightedGraph((1.0, 1.0), ((0, 1, 1.0),))
        with pytest.raises(errors.FractionsInvalid):
            split_edge(g, (0, 1), fractions)

    def test_quadratic_form_preserved_under_linear_extension(self):
        # single split edge, extension values placed at cumulative fractions
        g = WeightedGraph((1.0, 1.0), ((0, 1, 2.0),))
        fr = [0.2, 0.3, 0.5]
        s = split_edge(g, (0, 1), fr)
        x = np.array([1.0, 5.0])
        y = np.array([1.0, 5.0,
                      1.0 + 4.0 * 0.2,
                      1.0 + 4.0 * 0.5])
        assert edge_energy(s, y) == pytest.approx(edge_energy(g, x), rel=1e-12)

    def test_quadratic_form_preserved_on_random_graphs(self):
        # the minimum-energy extension of x onto the split graph attains
        # exactly the original energy
        rng = Xorshift64Star(5)
        for i in range(20):
            g = corpus_graph(i)
            u, v, _ = g.edges[rng.below(g.edge_count)]
            fr = [0.3, 0.3, 0.4]
            s = split_edge(g, (u, v), fr)
            x = random_vector(rng, g.vertex_count)
            y = harmonic_extension(s, {w: x[w] for w in range(g.vertex_count)})
            assert edge_energy(s, y) == pytest.approx(
                edge_energy(g, x), rel=1e-12, abs=1e-12)


class TestContract:
    def test_singleton_of_last_vertex_is_identity(self, p3):
        g, merged = contract(p3, VertexSet.of([2]))
        assert merged == 2
        assert g == p3

    def test_triangle_pair_merges_parallel_edges(self, triangle):
        g, merged = contract(triangle, VertexSet.of([0, 1]))
        assert merged == 1
        assert g.edges == ((0, 1, 2.0),)
        assert g.masses == (1.0, 2.0)

    def test_path_endpoints(self, p3):
        g, merged = contract(p3, VertexSet.of([0, 2]))
        assert g.vertex_count == 2
        assert g.edges == ((0, 1, 2.0),)

    def test_mass_preserved(self):
        rng = Xorshift64Star(17)
        for i in range(15):
            g = corpus_graph(i)
            k = 1 + rng.below(g.vertex_count - 1)
            vs = VertexSet.of(sample_without_replacement(
                rng, list(range(g.vertex_count)), k))
            contracted, _ = contract(g, vs)
            assert contracted.total_mass == pytest.approx(g.total_mass, rel=1e-12)

    def test_empty_set(self, p3):
        with pytest.raises(errors.EmptySet):
            contract(p3, VertexSet.of([]))

    def test_out_of_range_id(self, p3):
        with pytest.raises(errors.LengthMismatch, match="vertex id 3 out of range for n=3"):
            contract(p3, VertexSet.of([1, 3]))


class TestSurgeryLabels:
    """Each surgery names the vertices it makes from the labels of a
    parsed graph."""

    @pytest.fixture
    def labelled(self):
        graph, _ = parse_wgr("vertex a 1\nvertex b 2\nvertex c 3\nedge a b 1\nedge b c 1\n")
        return graph

    def test_split_edge(self, labelled):
        assert split_edge(labelled, (0, 1), [0.25, 0.25, 0.5]).labels == (
            "a", "b", "c", "a*b.0", "a*b.1")

    def test_contract(self, labelled):
        graph, merged = contract(labelled, VertexSet.of([0, 2]))
        assert graph.labels == ("b", "a+c") and merged == 1

    def test_pinch(self, labelled):
        p = pinch(labelled, [-1.0, 1.0, 2.0])
        assert p.graph.labels == ("a", "b", "c", "axb")
        assert p.zero_set.members == (3,)


class TestPinch:
    def test_crossing_at_quarter_point(self):
        g = WeightedGraph((1.0, 1.0), ((0, 1, 1.0),))
        p = pinch(g, [-1.0, 3.0])
        assert p.graph.masses == (1.0, 1.0, 0.0)
        assert p.graph.edges == ((0, 2, 4.0), (1, 2, pytest.approx(4.0 / 3.0)))
        assert p.f_extended == (-1.0, 3.0, 0.0)
        assert p.zero_set.members == (2,)

    def test_zero_vertex_needs_no_insertion(self, p3):
        p = pinch(p3, [1.0, 0.0, -1.0])
        assert p.graph == p3
        assert p.zero_set.members == (1,)
        assert p.nonpositive_set.members == (1, 2)
        assert p.nonnegative_set.members == (0, 1)

    def test_symmetric_crossing(self):
        g = WeightedGraph((1.0, 1.0), ((0, 1, 1.0),))
        p = pinch(g, [1.0, -1.0])
        assert p.graph.edges == ((0, 2, 2.0), (1, 2, 2.0))

    def test_sign_condition(self, p3):
        with pytest.raises(errors.SignCondition):
            pinch(p3, [1.0, 2.0, 0.0])

    def test_matches_a_per_edge_reference(self):
        # the same arithmetic as the array code, one edge at a time
        def reference(g, f):
            masses, edges, values = list(g.masses), [], list(f)
            for (u, v, k) in g.edges:
                fu, fv = f[u], f[v]
                if fu > fv:
                    u, v, fu, fv = v, u, fv, fu
                if fu < 0.0 < fv:
                    alpha = -fu / (fv - fu)
                    s = len(masses)
                    masses.append(0.0)
                    values.append(0.0)
                    edges += [(u, s, k / alpha), (s, v, k / (1.0 - alpha))]
                else:
                    edges.append((u, v, k))
            return WeightedGraph(tuple(masses), tuple(edges)), tuple(values)

        rng = Xorshift64Star(37)
        for i in range(40):
            g = corpus_graph(i)
            f = [rng.uniform_in(-1, 1) for _ in range(g.vertex_count)]
            f[rng.below(g.vertex_count)] = 0.0
            f[0], f[1] = -1.0, 1.0
            p = pinch(g, f)
            graph, values = reference(g, f)
            assert (p.graph.masses, p.graph.edges, p.f_extended) == \
                (graph.masses, graph.edges, values)

    def test_wrong_length_is_a_dimension_mismatch(self, p3):
        # the same error class as every other potential-taking function
        for f in ([1.0, -1.0], [1.0, 0.0, -1.0, 2.0]):
            with pytest.raises(errors.DimensionMismatch):
                pinch(p3, f)

    def test_zero_mass_input_rejected(self):
        g = WeightedGraph((0.0, 1.0), ((0, 1, 1.0),))
        with pytest.raises(errors.ZeroMass):
            pinch(g, [1.0, -1.0])

    def test_unresolvable_crossing_rejected(self):
        g = WeightedGraph((1.0, 1.0), ((0, 1, 1.0),))
        with pytest.raises(errors.SignCondition):
            pinch(g, [-1.0, 1e-300])

    def test_partition_structure(self):
        rng = Xorshift64Star(23)
        for i in range(25):
            g = corpus_graph(i)
            n = g.vertex_count
            f = [rng.uniform_in(-1, 1) for _ in range(n)]
            f[0], f[1] = -abs(f[0]) - 0.1, abs(f[1]) + 0.1
            p = pinch(g, f)
            n2 = p.graph.vertex_count
            assert p.nonpositive_set.union(p.nonnegative_set).members == tuple(range(n2))
            both = set(p.nonpositive_set) & set(p.nonnegative_set)
            assert VertexSet.of(both) == p.zero_set
            # inserted vertices all have zero mass
            for v in range(n, n2):
                assert p.graph.masses[v] == 0.0
                assert isinstance(p.origin[v], tuple)

    def test_no_edge_between_strict_signs(self):
        rng = Xorshift64Star(29)
        for i in range(25):
            g = corpus_graph(i)
            f = [rng.uniform_in(-1, 1) for _ in range(g.vertex_count)]
            f[0], f[1] = -1.0, 1.0
            p = pinch(g, f)
            neg, pos = set(p.negative_set), set(p.positive_set)
            for (u, v, _k) in p.graph.edges:
                assert not (u in neg and v in pos)
                assert not (u in pos and v in neg)

    def test_energy_preserved(self):
        rng = Xorshift64Star(31)
        for i in range(25):
            g = corpus_graph(i)
            f = [rng.uniform_in(-1, 1) for _ in range(g.vertex_count)]
            f[0], f[1] = -1.0, 1.0
            p = pinch(g, f)
            assert edge_energy(p.graph, p.f_extended) == pytest.approx(
                edge_energy(g, f), rel=1e-10)

    @pytest.mark.parametrize("masses", [(1.0,) * 4, (1.0, 0.0, 1.0, 1.0)])
    def test_zero_crossings_of_a_stack_as_one_at_a_time(self, masses):
        # the masses are checked once for the whole stack; every row keeps
        # the first error `pinch` raises on it alone. A row that is not n
        # finite values fails the whole stack with `pinch`'s error on it
        g = WeightedGraph(masses, ((0, 1, 1e-17), (1, 2, 1.0), (2, 3, 1.0)))
        fs = np.array([[-1.0, -1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 0.0],
                       [-1e-300, 1e300, 1.0, 1.0], [-1.0, -0.0, 0.0, 1.0]])
        for potentials in (fs, list(fs), [x.tolist() for x in fs]):
            f, at_u, at_v, failed = zero_crossings(g, potentials)
            assert len(failed) == len(potentials)
            for i, x in enumerate(potentials):
                try:
                    p = pinch(g, x)
                except errors.HardySpectralError as exc:
                    assert type(failed[i]) is type(exc) and str(failed[i]) == str(exc)
                    continue
                assert failed[i] is None
                assert f[i].tolist() == list(p.f_extended[:4])
        if 0.0 in masses:
            assert [type(e) for e in failed] == [errors.ZeroMass] * 4
        else:
            assert [type(e) for e in failed] == [
                type(None), errors.SignCondition, errors.SignCondition, type(None)]
        for bad in ([math.nan, -1.0, 1.0, 1.0], [-1.0, 1.0, math.inf, -math.inf], [1.0, 2.0]):
            with pytest.raises((errors.NonFinitePotential, errors.DimensionMismatch)) as alone:
                pinch(g, bad)
            with pytest.raises(type(alone.value)) as stacked:
                zero_crossings(g, [*fs[:2], bad, *fs[2:]])
            assert str(stacked.value) == str(alone.value)


def test_zero_crossings_of_a_mixed_stack():
    # a quantize_zeros list, ndarray rows and a row without both signs:
    # each row keeps `pinch`'s error on it alone. A row of n + 1 values, a
    # NaN row or an inf row fails the whole stack with `pinch`'s error on
    # it, which names its first bad vertex; of several, the first row's
    g = corpus_graph(4)
    n = g.vertex_count
    rng = Xorshift64Star(47)
    mode = neumann_eigenvalue(g).eigenvector
    nan_row = random_vector(rng, n)
    nan_row[[1, 4]] = math.nan, math.inf
    inf_row = random_vector(rng, n)
    inf_row[[2, 5]] = -math.inf, math.nan
    potentials = [quantize_zeros(mode), random_vector(rng, n), list(random_vector(rng, n + 1)),
                  nan_row, np.abs(random_vector(rng, n)), inf_row, mode]
    good = [0, 1, 4, 6]
    stack = [potentials[i] for i in good]
    f, at_u, at_v, failed = zero_crossings(g, stack)
    assert f.shape == (len(stack), n)
    assert at_u.shape == at_v.shape == (len(f), g.edge_count)
    for i, x in enumerate(stack):
        try:
            p = pinch(g, x)
        except errors.HardySpectralError as exc:
            assert type(failed[i]) is type(exc) and str(failed[i]) == str(exc)
            continue
        assert failed[i] is None
        assert f[i].tolist() == list(p.f_extended[:n])
    assert [type(e).__name__ for e in failed] == ["NoneType", "NoneType", "SignCondition", "NoneType"]
    raised = []
    for bad in (2, 3, 5):
        with pytest.raises(errors.HardySpectralError) as alone:
            pinch(g, potentials[bad])
        with pytest.raises(type(alone.value)) as stacked:
            zero_crossings(g, [x for i, x in enumerate(potentials) if i in good or i == bad])
        assert str(stacked.value) == str(alone.value)
        raised.append(stacked.value)
    assert [type(e).__name__ for e in raised] == [
        "DimensionMismatch", "NonFinitePotential", "NonFinitePotential"]
    assert (raised[1].vertex, raised[2].vertex) == (1, 2)
    assert str(raised[2]) == str(errors.NonFinitePotential(2, -math.inf))
    with pytest.raises(errors.DimensionMismatch) as first:
        zero_crossings(g, potentials)
    assert str(first.value) == str(raised[0])


class TestStackCheck:
    """A stack of potentials is checked once: one row that is not n
    finite values makes `zero_crossings` and `pinched_sides` raise the
    class, message and vertex that `pinch` raises on that row alone."""

    G = corpus_graph(4)
    N = G.vertex_count
    GOOD = mixed_sign_fs(Xorshift64Star(53), N, 4)

    def bad_rows(self):
        row = self.GOOD[0]
        nan, inf, minus_inf = (row.copy() for _ in range(3))
        nan[[2, 3]] = math.nan, math.inf
        inf[0] = math.inf
        minus_inf[self.N - 1] = -math.inf
        return [nan, inf, minus_inf.tolist(), row[:-1], row.tolist() + [1.0],
                np.stack([row, row])]

    @pytest.mark.parametrize("at", range(6))
    def test_one_bad_row_fails_the_stack_as_pinch_fails_it(self, at):
        bad = self.bad_rows()[at]
        with pytest.raises((errors.NonFinitePotential, errors.DimensionMismatch)) as alone:
            pinch(self.G, bad)
        # a later bad row of another kind does not decide the error
        later = [math.nan] * (self.N + 2)
        for stack in ([bad], [*self.GOOD[:2], bad, *self.GOOD[2:]], [self.GOOD[0], bad, later]):
            for check in (zero_crossings, pinched_sides):
                with pytest.raises(type(alone.value)) as stacked:
                    check(self.G, stack)
                assert str(stacked.value) == str(alone.value)
                assert getattr(stacked.value, "vertex", None) == getattr(alone.value, "vertex", None)

    def test_a_stack_of_rows_of_the_wrong_width(self):
        with pytest.raises(errors.DimensionMismatch) as alone:
            pinch(self.G, self.GOOD[0, :-1])
        for check in (zero_crossings, pinched_sides):
            with pytest.raises(errors.DimensionMismatch) as stacked:
                check(self.G, self.GOOD[:, :-1])
            assert str(stacked.value) == str(alone.value)

def test_zero_crossings_of_no_potentials():
    g = corpus_graph(2)
    f, at_u, at_v, failed = zero_crossings(g, [])
    assert f.shape == (0, g.vertex_count) and failed == []
    assert at_u.shape == at_v.shape == (0, g.edge_count)


def test_quantize_zeros():
    assert quantize_zeros([1.0, 1e-15, -1e-15, -0.5]) == [1.0, 0.0, 0.0, -0.5]
    assert quantize_zeros([0.0, 0.0]) == [0.0, 0.0]
    assert quantize_zeros([1.0, 1e-9]) == [1.0, 1e-9]


class TestNonFinitePotential:
    """A potential with a NaN or infinite entry is a typed error that names
    its first bad vertex, at every entry point that takes a potential."""

    G = path_graph([1.0] * 4, [1e-17, 1.0, 1.0])

    @staticmethod
    def assert_names(exc, vertex):
        assert type(exc) is errors.NonFinitePotential and exc.vertex == vertex
        assert f"at vertex {vertex};" in str(exc)

    def test_pinch(self):
        with pytest.raises(errors.NonFinitePotential) as info:
            pinch(self.G, [math.nan, -1.0, 1.0, 1.0])
        self.assert_names(info.value, 0)
        # the shape is checked first
        with pytest.raises(errors.DimensionMismatch):
            pinch(self.G, [math.nan, -1.0, 1.0])

    def test_worst_sides(self):
        # one bad potential fails the whole stack; a good one solves in a
        # stack as it does alone
        good = [-1.0, -1.0, 1.0, 1.0]
        for bad, vertex in (([math.nan, -1.0, 1.0, 1.0], 0),
                            ([-1.0, 1.0, math.inf, -math.inf], 2)):
            with pytest.raises(errors.NonFinitePotential) as info:
                _worst_sides(self.G, [good, bad, good])
            self.assert_names(info.value, vertex)
        with pytest.raises(errors.DimensionMismatch):
            _worst_sides(self.G, [good, [math.nan, 1.0]])
        assert _worst_sides(self.G, [good, good]) == 2 * _worst_sides(self.G, [good])

    def test_rayleigh_quotient(self):
        with pytest.raises(errors.NonFinitePotential) as info:
            rayleigh_quotient(self.G, [1.0, math.nan, 1.0, 1.0])
        self.assert_names(info.value, 1)

    def test_neumann_content_sweep(self):
        with pytest.raises(errors.NonFinitePotential) as info:
            neumann_content_sweep(path_graph([1.0] * 3, [1.0, 2.0]), [math.nan, -1.0, 1.0])
        self.assert_names(info.value, 0)

    def test_level_set_quotient(self):
        with pytest.raises(errors.NonFinitePotential) as info:
            level_set_quotient(self.G, VertexSet.of([0]), [0.0, 1.0, math.nan, 2.0])
        self.assert_names(info.value, 2)

"""Laws every report must obey, checked against the library itself: no
second implementation is needed, since each law relates two runs of the
library on graphs whose answers are known to agree or to be ordered.

Each law runs the suites of conftest.LAW_SUITES with samples=0 on corpus
graphs; pinch and ressum are left out because their draws depend on
vertex order.
"""

import numpy as np

from hardy_spectral import VertexSet, WeightedGraph, contract

from conftest import (LAW_RTOL, MONOTONE, corpus_graph, law_report,
                      monotonicity_violations)

GRAPHS = 100


def relabelled(g: WeightedGraph, perm: list) -> WeightedGraph:
    """g with each vertex v renamed perm[v]."""
    masses = [0.0] * g.vertex_count
    for v, m in enumerate(g.masses):
        masses[perm[v]] = m
    return WeightedGraph(tuple(masses), tuple((perm[u], perm[v], k) for u, v, k in g.edges))


def witness_sets(witnesses: dict, n: int) -> dict:
    """A report's witnesses in a form that compares as the quantities
    define them: psi2's pair unordered, phi's set as its bipartition, and
    None for a witness the report lacks."""
    w = {k: frozenset(ids) for k, ids in witnesses.items()}
    phi = w.get("phi_a")
    return {"psi_dirichlet": w.get("psi_dirichlet_a"),
            "psi2": {w.get("psi2_a"), w.get("psi2_b")},
            "phi": None if phi is None else {phi, frozenset(range(n)) - phi}}


def test_relabelling_moves_nothing_but_the_witnesses():
    rng = np.random.default_rng(11)
    mismatches = []
    for i in range(GRAPHS):
        g = corpus_graph(i)
        n = g.vertex_count
        perm = rng.permutation(n)
        b = int(rng.integers(n))
        base = law_report(g, VertexSet.of([b]))
        moved = law_report(relabelled(g, perm.tolist()), VertexSet.of([int(perm[b])]))

        if base.quantities.keys() != moved.quantities.keys():
            mismatches.append((i, "quantities", sorted(base.quantities), sorted(moved.quantities)))
        for name, value in base.quantities.items():
            other = moved.quantities.get(name, np.nan)
            if not abs(other - value) <= LAW_RTOL * max(abs(value), abs(other)):
                mismatches.append((i, name, value, other))
        if {c.name: c.holds for c in base.checks} != {c.name: c.holds for c in moved.checks}:
            mismatches.append((i, "holds"))
        mapped = {k: [perm[v] for v in ids] for k, ids in base.witnesses.items()}
        if witness_sets(mapped, n) != witness_sets(moved.witnesses, n):
            mismatches.append((i, "witnesses"))
    assert not mismatches, f"graphs {sorted({m[0] for m in mismatches})}: {mismatches}"


def test_rayleigh_monotonicity():
    # a raised conductance never lowers, and a raised mass never raises,
    # lambda, psi, lambda2, psi2 or phi (Courant-Fischer for the pencil;
    # Doyle & Snell, ch. 1.4)
    found = monotonicity_violations([corpus_graph(i) for i in range(GRAPHS)],
                                    np.random.default_rng(5))
    assert not found, found


def test_contraction_never_lowers_a_quantity():
    # merging two vertices restricts every test function to one value on
    # both and every set to hold both or neither, and shorts them, which
    # lowers no resistance's reciprocal: lambda, psi, lambda2, psi2 and phi
    # never fall (Doyle & Snell, ch. 1.4). `contract` keeps the survivors'
    # order, so the boundary {0} stays vertex 0
    rng = np.random.default_rng(3)
    boundary = VertexSet.of([0])
    found, compared = [], 0
    for i in range(150):
        g = corpus_graph(i)
        if g.vertex_count < 4:
            continue
        pair = rng.choice(np.arange(1, g.vertex_count), size=2, replace=False)
        merged, _ = contract(g, VertexSet.of(pair.tolist()))
        base = law_report(g, boundary).quantities
        moved = law_report(merged, boundary).quantities
        for name in MONOTONE:
            if name in base and name in moved:
                compared += 1
                change = (moved[name] - base[name]) / base[name]
                if change < -LAW_RTOL:
                    found.append((i, pair.tolist(), name, change))
    assert compared == 125 * len(MONOTONE)
    assert not found, found

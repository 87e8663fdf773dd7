"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to watch them stream).

The shared corpus is 200 seeded random connected graphs with 3..8 vertices,
weights in [0.1, 10], each carrying a random proper boundary set. All
tolerances are pinned here and nowhere else.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from hardy_spectral import (VertexSet, dirichlet_content_exact,
                            dirichlet_eigenvalue, effective_resistance,
                            hardy_path, isoperimetric_exact,
                            level_set_quotient, neumann_content_exact,
                            neumann_eigenvalue, pinch)
from hardy_spectral.graph import quantize_zeros
from hardy_spectral.rng import Xorshift64Star

from conftest import (corpus_boundary, corpus_graph, corpus_path,  # noqa: F401
                      mixed_sign_fs, p3, resistance_via_pseudoinverse,
                      sample_without_replacement, worst_sides)
from test_resistance import contracted_resistance

CORPUS_SIZE = 200


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


@pytest.fixture(scope="module")
def corpus():
    return [(corpus_graph(i), corpus_boundary(corpus_graph(i), i))
            for i in range(CORPUS_SIZE)]


def test_criterion_01_dirichlet_sandwich(corpus):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for g, s in corpus:
        lam = dirichlet_eigenvalue(g, s).eigenvalue
        psi = dirichlet_content_exact(g, s).value
        ok &= psi / 4.0 <= lam * (1 + 1e-8)
        ok &= lam <= psi * (1 + 1e-8)
        worst = max(worst, lam / psi)
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 60.0
    _verdict(1, "dirichlet sandwich", ok,
             f"{CORPUS_SIZE} graphs in {elapsed:.1f}s, max lambda/psi {worst:.3f}")


def test_criterion_02_neumann_sandwich(corpus):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for g, _ in corpus:
        lam2 = neumann_eigenvalue(g).eigenvalue
        psi2 = neumann_content_exact(g).value
        ok &= psi2 / 4.0 <= lam2 * (1 + 1e-8)
        ok &= lam2 <= psi2 * (1 + 1e-8)
        worst = max(worst, lam2 / psi2)
    elapsed = time.perf_counter() - start
    ok &= elapsed <= 120.0
    _verdict(2, "neumann sandwich", ok,
             f"{CORPUS_SIZE} graphs in {elapsed:.1f}s, max lambda2/psi2 {worst:.3f}")


def test_criterion_03_tightness_witness(p3):
    lam2 = neumann_eigenvalue(p3).eigenvalue
    psi2 = neumann_content_exact(p3).value
    ok = abs(lam2 - 1.0) <= 1e-9 and abs(psi2 - 1.0) <= 1e-9 \
        and abs(lam2 - psi2) <= 1e-9
    _verdict(3, "tight path instance", ok, f"lambda2={lam2!r} psi2={psi2!r}")


def test_criterion_04_path_lemma_equivalence():
    ok = True
    for i in range(100):
        g = corpus_path(i)
        fast = hardy_path(g)
        slow = dirichlet_content_exact(g, VertexSet.of([0]))
        ok &= abs(fast.value - slow.value) <= 1e-10 * abs(slow.value)
        ok &= fast.witness_a == slow.witness_a
    _verdict(4, "path tail-set scan equals enumeration", ok, "100 random paths")


def test_criterion_05_resistance_oracles():
    rng = Xorshift64Star(211)
    ok = True
    for i in range(100):
        g = corpus_graph(i, n_lo=3, n_hi=10)
        n = g.vertex_count
        a = rng.below(n)
        b = (a + 1 + rng.below(n - 1)) % n
        direct = effective_resistance(g, VertexSet.of([a]), VertexSet.of([b]))
        pinv = resistance_via_pseudoinverse(g, a, b)
        ok &= abs(direct - pinv) <= 1e-9 * abs(pinv)
        ids = sample_without_replacement(rng, list(range(n)), 2 + rng.below(n - 1))
        cut = 1 + rng.below(len(ids) - 1)
        sa, sb = VertexSet.of(ids[:cut]), VertexSet.of(ids[cut:])
        via_sets = effective_resistance(g, sa, sb)
        via_contraction = contracted_resistance(g, sa, sb)
        ok &= abs(via_sets - via_contraction) <= 1e-10 * abs(via_contraction)
    _verdict(5, "resistance oracle agreement", ok, "100 random graphs")


def test_criterion_06_pinching_lemma():
    rng = Xorshift64Star(223)
    ok = True
    worst_gap = 0.0
    for i in range(50):
        g = corpus_graph(i)
        res = neumann_eigenvalue(g)
        [attained] = worst_sides(g, [quantize_zeros(res.eigenvector)])
        worst_gap = max(worst_gap, abs(attained - res.eigenvalue))
        ok &= abs(attained - res.eigenvalue) <= 1e-8
        fs = mixed_sign_fs(rng, g.vertex_count, 50)
        for worst_side in worst_sides(g, fs):
            ok &= worst_side >= res.eigenvalue - 1e-8
    _verdict(6, "pinching lemma", ok,
             f"50 graphs x 50 draws, max eigenvector gap {worst_gap:.2e}")


def test_criterion_07_resistance_sum_lemma():
    rng = Xorshift64Star(227)
    ok = True
    for i in range(100):
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
        ok &= lhs <= effective_resistance(p.graph, a, b) + 1e-10
    _verdict(7, "resistance-sum lemma", ok, "100 random pinches")


def test_criterion_08_cheeger_display(corpus):
    ok = True
    for g, _ in corpus:
        lam2 = neumann_eigenvalue(g).eigenvalue
        phi = isoperimetric_exact(g).value
        worst = max(g.degree(v) / g.masses[v] for v in range(g.vertex_count))
        ok &= lam2 / 2.0 <= phi * (1 + 1e-9)
        ok &= phi <= np.sqrt(2.0 * lam2 * worst) * (1 + 1e-9)
    _verdict(8, "isoperimetric two-sided bound", ok, f"{CORPUS_SIZE} graphs")


def test_criterion_09_level_set_reduction():
    ok = True
    worst_gap = 0.0
    for i in range(50):
        g = corpus_graph(i)
        s = corpus_boundary(g, i)
        res = dirichlet_eigenvalue(g, s)
        quotient, _ = level_set_quotient(g, s, res.eigenvector)
        lam = dirichlet_eigenvalue(quotient, VertexSet.of([0])).eigenvalue
        gap = abs(lam - res.eigenvalue) / max(res.eigenvalue, 1e-300)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 1e-8
    _verdict(9, "level-set path reduction", ok,
             f"50 instances, max relative gap {worst_gap:.2e}")


def test_criterion_10_report_determinism(tmp_path):
    target = tmp_path / "instance.wgr"
    # a RuntimeWarning marks a number that went wrong silently, as in process
    python = [sys.executable, "-W", "error::RuntimeWarning"]
    gen = [*python, "-m", "hardy_spectral.cli", "gen", "random",
           "--n", "7", "--p", "0.5", "--seed", "77", "-o", str(target)]
    subprocess.run(gen, check=True)
    verify = [*python, "-m", "hardy_spectral.cli", "verify", str(target),
              "--suite", "all", "--seed", "11"]
    first = subprocess.run(verify, capture_output=True)
    second = subprocess.run(verify, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and len(first.stdout) > 0)
    _verdict(10, "byte-identical verify reports", ok,
             f"{len(first.stdout)} bytes")

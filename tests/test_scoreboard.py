"""Accuracy scoreboard: counts of report rows that are false with no typed
error, each asserted at or below its pin (run with -s to print them).

The pins are a ratchet. A change that lowers a count lowers its pin with
it; no change raises one. A row "holds" or is an error row (relation
"error"); every other row is a wrong verdict that no error flagged.
"""

import math
import re
from collections import Counter

import numpy as np
import pytest

from hardy_spectral import VertexSet, WeightedGraph, run_suite
from hardy_spectral.report import ERROR

from conftest import extreme_weight_fuzz_reports, monotonicity_violations, stiff_graph

FUZZ_PIN = 15
FAMILY_PINS = {1e9: 2, 1e12: 4}
STIFF_MONOTONICITY_PIN = 1
FAMILIES = ["complete", "cycle", "star", "path-mid", "grid", "barbell"]
GRAPHS_PER_FAMILY = 60


def _score(name: str, count: int, pin: int, detail: str) -> None:
    print(f"SCOREBOARD [{name}]: {count} (pin {pin}) - {detail}")
    assert count <= pin, f"{name}: {count} rows above the pin {pin}: {detail}"


def _false_rows(report) -> list:
    return [c.name for c in report.checks if c.relation != ERROR and not c.holds]


def family_graph(family: str, n: int, rng: np.random.Generator, ratio: float) -> WeightedGraph:
    """One graph of the stiff family scan: masses, then conductances in the
    family's edge order, each exp(uniform(0, ln ratio))."""
    if family == "complete":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif family == "cycle":
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif family == "star":
        pairs = [(0, v) for v in range(1, n)]
    elif family == "path-mid":
        order = list(range(1, n))
        order.insert((n - 1) // 2, 0)
        pairs = list(zip(order, order[1:]))
    elif family == "grid":  # 3 rows of w, vertex row * w + col
        w = max(2, n // 3)
        n = 3 * w
        pairs = ([(r * w + c, r * w + c + 1) for r in range(3) for c in range(w - 1)]
                 + [(r * w + c, (r + 1) * w + c) for r in range(2) for c in range(w)])
    else:  # barbell: cliques on 0..h-1 and h..n-1, joined by (h-1, h)
        h = n // 2
        pairs = ([(u, v) for u in range(h) for v in range(u + 1, h)]
                 + [(u, v) for u in range(h, n) for v in range(u + 1, n)] + [(h - 1, h)])
    masses = np.exp(rng.uniform(0.0, math.log(ratio), n))
    kappas = np.exp(rng.uniform(0.0, math.log(ratio), len(pairs)))
    return WeightedGraph(tuple(masses.tolist()),
                         tuple((u, v, k) for (u, v), k in zip(pairs, kappas.tolist())))


def test_extreme_weight_fuzz_false_rows():
    false, reasons = [], Counter()
    for t, report in extreme_weight_fuzz_reports():
        false += [(t, name) for name in _false_rows(report)]
        # one reason per kind: edges, vertices and values blanked out
        reasons.update(re.sub(r"\(\d+,\d+\)|\d[\w.+-]*", "#", c.reason)
                       for c in report.checks if c.relation == ERROR)
    for reason, count in reasons.most_common():
        print(f"SCOREBOARD fuzz error rows: {count} {reason}")
    _score("fuzz false rows", len(false), FUZZ_PIN,
           f"on graphs {sorted({t for t, _ in false})}")


@pytest.mark.parametrize("ratio", sorted(FAMILY_PINS))
def test_stiff_family_scan_false_rows(ratio):
    rng = np.random.default_rng(7)
    false = []
    for family in FAMILIES:
        for i in range(GRAPHS_PER_FAMILY):
            g = family_graph(family, int(rng.integers(4, 10)), rng, ratio)
            report = run_suite(g, boundary=VertexSet.of([0]), samples=3, seed=i)
            false += [f"{family} #{i} {name}" for name in _false_rows(report)]
    _score(f"family scan false rows at ratio {ratio:g}", len(false), FAMILY_PINS[ratio],
           ", ".join(false))


def test_stiff_monotonicity_violations():
    # conftest.monotonicity_violations' recipe on stiff_graph(i, 1e9, 1e9),
    # i < 100, with a fresh default_rng(5)
    found = monotonicity_violations([stiff_graph(i, 1e9, 1e9) for i in range(100)],
                                    np.random.default_rng(5))
    _score("stiff monotonicity violations at ratio 1e9", len(found), STIFF_MONOTONICITY_PIN,
           ", ".join(f"#{i} {name} moves {change:.2g} relative with a raised {kind}"
                     for i, kind, name, change in found))

"""Independent correctness checks for verify reports.

Nothing here imports the library under test. Laplacians are built from
the benchmark's own edge lists, eigenvalues come from
scipy.linalg.eigh(L, M), resistances from numpy.linalg.solve, and the
small-graph minima from brute force. Each function returns a list of
problems; an empty list means the report passed.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import scipy.linalg

from workloads import ALL_SUITES, Graph, Workload

# Eigenvalue agreement, relative to the largest generalized eigenvalue:
# a backward-stable eigensolver is accurate to a few eps times the norm.
EIG_RTOL = 1e-9
# Agreement of a content value with its recomputation, relative.
VALUE_RTOL = 1e-9
# Slack for inequalities against oracle eigenvalues, relative.
BOUND_RTOL = 1e-8
BRUTE_FORCE_MAX_N = 7


def expected_rows(workload: Workload) -> list[str]:
    """Check-row names a report of this workload must hold, in order."""
    names = {
        "dirichlet": ["dirichlet_lower", "dirichlet_upper"],
        "neumann": ["neumann_lower", "neumann_upper", "sweep_sound"],
        "cheeger": ["cheeger_lower", "cheeger_upper"],
        "pinch": ["pinch_eigenvector"]
                 + [f"pinch_random_{i:02d}" for i in range(1, workload.samples + 1)],
        "ressum": [f"ressum_{i:02d}" for i in range(1, workload.samples + 1)],
        "path-reduction": ["path_reduction"],
    }
    suites = workload.suites or ALL_SUITES
    return [row for s in ALL_SUITES if s in suites for row in names[s]]


class Oracle:
    """Reference quantities of one generated graph."""

    def __init__(self, g: Graph):
        n = g.n
        lap = np.zeros((n, n))
        for (u, v, k) in g.edges:
            lap[u, v] -= k
            lap[v, u] -= k
            lap[u, u] += k
            lap[v, v] += k
        self.g = g
        self.lap = lap
        self.mass = np.array(g.masses)
        self.interior = [v for v in range(n) if v != g.boundary]
        neumann = scipy.linalg.eigh(lap, np.diag(self.mass), eigvals_only=True)
        ii = np.ix_(self.interior, self.interior)
        dirichlet = scipy.linalg.eigh(lap[ii], np.diag(self.mass[self.interior]),
                                      eigvals_only=True)
        self.lambda2 = float(neumann[1])
        self.lambda2_scale = float(neumann[-1])
        self.lambda_dirichlet = float(dirichlet[0])
        self.lambda_dirichlet_scale = float(dirichlet[-1])
        self.worst_degree_ratio = float(np.max(np.diag(lap) / self.mass))

    def energy(self, ones, zeros) -> float:
        """Minimum energy of a potential that is 1 on `ones` and 0 on
        `zeros` (the reciprocal of their effective resistance)."""
        lap = self.lap
        fixed = set(ones) | set(zeros)
        free = [v for v in range(self.g.n) if v not in fixed]
        x = np.zeros(self.g.n)
        x[list(ones)] = 1.0
        if free:
            rhs = -lap[np.ix_(free, list(ones))].sum(axis=1)
            x[free] = np.linalg.solve(lap[np.ix_(free, free)], rhs)
        return float(x @ lap @ x)

    def mass_of(self, vs) -> float:
        return float(sum(self.mass[v] for v in vs))

    def psi2_ratio(self, a, b) -> float:
        return (1.0 / self.mass_of(a) + 1.0 / self.mass_of(b)) * self.energy(a, b)

    def psi_ratio(self, a) -> float:
        return self.energy(a, [self.g.boundary]) / self.mass_of(a)

    def phi_ratio(self, a) -> float:
        inside = set(a)
        cut = sum(k for (u, v, k) in self.g.edges if (u in inside) != (v in inside))
        total = float(self.mass.sum())
        return cut / min(self.mass_of(a), total - self.mass_of(a))

    def brute_force(self) -> dict[str, float]:
        """psi2, psi and phi as plain minima over every candidate set."""
        n = self.g.n
        psi2 = math.inf
        for labels in itertools.product((0, 1, 2), repeat=n):
            a = [v for v in range(n) if labels[v] == 1]
            b = [v for v in range(n) if labels[v] == 2]
            if a and b and a[0] < b[0]:
                psi2 = min(psi2, self.psi2_ratio(a, b))
        subsets = [[v for v in range(n) if mask >> v & 1] for mask in range(1, (1 << n) - 1)]
        phi = min(self.phi_ratio(a) for a in subsets)
        psi = min(self.psi_ratio(a) for a in subsets if self.g.boundary not in a)
        return {"psi2": psi2, "psi_dirichlet": psi, "phi": phi}


def _close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


def _le(a: float, b: float) -> bool:
    return a <= b + BOUND_RTOL * max(abs(a), abs(b))


def _row_slack(row: dict, tol: float) -> float:
    def le(lhs, rhs):
        return rhs * (1.0 + tol) + tol - lhs
    if row["relation"] == "<=":
        return le(row["lhs"], row["rhs"])
    if row["relation"] == ">=":
        return le(row["rhs"], row["lhs"])
    return min(le(row["lhs"], row["rhs"]), le(row["rhs"], row["lhs"]))


def check_report(text: str, workload: Workload, oracle: Oracle) -> list[str]:
    """Every independent check on one verify report."""
    problems = []
    doc = json.loads(text)
    q, w, rows, tol = doc["quantities"], doc["witnesses"], doc["checks"], doc["tolerance"]

    names = [r["name"] for r in rows]
    if names != expected_rows(workload):
        problems.append(f"check rows {names} != expected {expected_rows(workload)}")
    for r in rows:
        if r["relation"] == "error":
            problems.append(f"error row {r['name']}: {r['reason']}")
            continue
        slack = _row_slack(r, tol)
        if slack != r["slack"] or r["holds"] != (slack >= 0.0) or not r["holds"]:
            problems.append(f"row {r['name']} slack {r['slack']} holds {r['holds']}, "
                            f"recomputed slack {slack}")

    lam2, lam_d = oracle.lambda2, oracle.lambda_dirichlet
    if "lambda2" in q and not _close(q["lambda2"], lam2, EIG_RTOL, oracle.lambda2_scale):
        problems.append(f"lambda2 {q['lambda2']!r} != eigh {lam2!r}")
    if "lambda_dirichlet" in q and not _close(q["lambda_dirichlet"], lam_d, EIG_RTOL,
                                              oracle.lambda_dirichlet_scale):
        problems.append(f"lambda_dirichlet {q['lambda_dirichlet']!r} != eigh {lam_d!r}")
    for r in rows:
        if r["name"] == "path_reduction" and not _close(
                r["rhs"], lam_d, EIG_RTOL, oracle.lambda_dirichlet_scale):
            problems.append(f"path_reduction rhs {r['rhs']!r} != eigh {lam_d!r}")
        if r["name"].startswith("pinch_"):
            if not _close(r["rhs"], lam2, EIG_RTOL, oracle.lambda2_scale):
                problems.append(f"{r['name']} rhs {r['rhs']!r} != eigh {lam2!r}")
            if not _le(lam2, r["lhs"]):
                problems.append(f"{r['name']}: pinched side {r['lhs']!r} < lambda2 {lam2!r}")

    if "psi2" in q:
        psi2 = q["psi2"]
        if not (_le(psi2 / 4.0, lam2) and _le(lam2, psi2)):
            problems.append(f"neumann sandwich fails: psi2 {psi2!r}, eigh lambda2 {lam2!r}")
        a, b = w["psi2_a"], w["psi2_b"]
        if not a or not b or set(a) & set(b):
            problems.append(f"psi2 witnesses {a}, {b} are not disjoint nonempty sets")
        elif not _close(oracle.psi2_ratio(a, b), psi2, VALUE_RTOL):
            problems.append(f"psi2 witness ratio {oracle.psi2_ratio(a, b)!r} != {psi2!r}")
        if not _close(q["h2"] * psi2, 1.0, VALUE_RTOL):
            problems.append(f"h2 {q['h2']!r} is not 1/psi2")
        if not psi2 <= q["psi2_sweep"] * (1.0 + tol) + tol:
            problems.append(f"psi2 {psi2!r} > psi2_sweep {q['psi2_sweep']!r}")
    if "psi_dirichlet" in q:
        psi = q["psi_dirichlet"]
        if not (_le(psi / 4.0, lam_d) and _le(lam_d, psi)):
            problems.append(f"dirichlet sandwich fails: psi {psi!r}, eigh lambda {lam_d!r}")
        a = w["psi_dirichlet_a"]
        if not a or oracle.g.boundary in a:
            problems.append(f"psi witness {a} is empty or meets the boundary")
        elif not _close(oracle.psi_ratio(a), psi, VALUE_RTOL):
            problems.append(f"psi witness ratio {oracle.psi_ratio(a)!r} != {psi!r}")
    if "phi" in q:
        phi = q["phi"]
        upper = math.sqrt(2.0 * lam2 * oracle.worst_degree_ratio)
        if not (_le(lam2 / 2.0, phi) and _le(phi, upper)):
            problems.append(f"cheeger bounds fail: phi {phi!r}, eigh lambda2 {lam2!r}")
        a = w["phi_a"]
        if not a or len(a) == oracle.g.n:
            problems.append(f"phi witness {a} is not a proper nonempty set")
        elif not _close(oracle.phi_ratio(a), phi, VALUE_RTOL):
            problems.append(f"phi witness ratio {oracle.phi_ratio(a)!r} != {phi!r}")

    if oracle.g.n <= BRUTE_FORCE_MAX_N:
        for name, value in oracle.brute_force().items():
            if name in q and not _close(q[name], value, VALUE_RTOL):
                problems.append(f"{name} {q[name]!r} != brute-force minimum {value!r}")
    return problems

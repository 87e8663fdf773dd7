"""Verification suites: recompute every bound the library promises on one
graph and report each comparison as a tolerance-aware check.

Suites run one after another on the calling thread, in the fixed order of
ALL_SUITES. All random draws happen up front from the seeded generator,
LAPACK is deterministic for a fixed build, and every tie is decided
within a window, so a report depends only on the inputs and the seed.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import errors
from ._version import __version__
from .content import (dirichlet_content_exact, isoperimetric_exact,
                      level_set_quotient, neumann_content_exact,
                      neumann_content_sweep)
from .graph import VertexSet, WeightedGraph, pinch, quantize_zeros
from .report import (Check, VerificationReport, check_eq, check_error,
                     check_ge, check_le)
from .resistance import pair_energies
from .rng import Xorshift64Star
from .spectral import (SpectralResult, dirichlet_eigenvalue, dirichlet_eigenvalues,
                       neumann_eigenvalue)

ALL_SUITES = ("dirichlet", "neumann", "cheeger", "pinch", "ressum", "path-reduction")

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SAMPLES = 10


def _random_mixed_sign_f(rng: Xorshift64Star, n: int) -> list[float]:
    """Gaussian-like values recentered to mean zero, redrawn in the
    (practically impossible) event every recentered value has one sign.
    Raises SignCondition, drawing nothing, for n < 2: one value recentred
    is exactly 0."""
    if n < 2:
        raise errors.SignCondition("a potential takes both strict signs only on "
                                   "two or more vertices")
    while True:
        f = [rng.gaussian_like() for _ in range(n)]
        mean = sum(f) / n
        f = [x - mean for x in f]
        if any(x > 0.0 for x in f) and any(x < 0.0 for x in f):
            return f


def _random_nonempty_subset(rng: Xorshift64Star, vs: VertexSet) -> VertexSet:
    members = list(vs.members)
    mask = 1 + rng.below((1 << len(members)) - 1)
    return VertexSet.of(members[i] for i in range(len(members)) if (mask >> i) & 1)


def _worst_sides(graph: WeightedGraph, potentials: list) -> list:
    """For each potential f: pinch at f's zero set and take the larger of
    the two one-sided boundary-pinned eigenvalues, or the typed error of
    the pinch, else of the negative side, else of the positive side. All
    sides are solved in one `dirichlet_eigenvalues` call."""
    pinched = []
    for f in potentials:
        try:
            pinched.append(pinch(graph, f))
        except errors.HardySpectralError as exc:
            pinched.append(exc)
    sides = iter(dirichlet_eigenvalues(
        [(p.graph, boundary) for p in pinched if not isinstance(p, errors.HardySpectralError)
         for boundary in (p.nonnegative_set, p.nonpositive_set)]))
    out = []
    for p in pinched:
        if isinstance(p, errors.HardySpectralError):
            out.append(p)
            continue
        negative, positive = next(sides), next(sides)
        failed = errors.first_error([negative, positive])
        out.append(max(negative.eigenvalue, positive.eigenvalue) if failed is None else failed)
    return out


@dataclass
class _Contribution:
    quantities: dict[str, float] = field(default_factory=dict)
    witnesses: dict[str, list[int]] = field(default_factory=dict)
    timing_ms: dict[str, float] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)


# how each quantity is solved, given the memo that holds the others
_SOLVERS = {
    "lambda2": lambda q: neumann_eigenvalue(q.graph),
    "psi2": lambda q: neumann_content_exact(q.graph),
    "psi2_sweep": lambda q: neumann_content_sweep(q.graph, q.get("lambda2").eigenvector),
    "phi": lambda q: isoperimetric_exact(q.graph),
    "lambda_dirichlet": lambda q: dirichlet_eigenvalue(q.graph, q.pinned()),
    "psi_dirichlet": lambda q: dirichlet_content_exact(q.graph, q.pinned()),
}


class Quantities:
    """The quantities `verify` and `analyze` report for one graph and
    boundary, each solved at most once, on first use. A typed failure is
    kept too: asking again raises it again instead of solving again. A
    quantity enters a report only through `record`."""

    def __init__(self, graph: WeightedGraph, boundary: Optional[VertexSet]):
        self.graph = graph
        self.boundary = boundary
        self._solved: dict[str, tuple[object, float]] = {}

    def pinned(self) -> VertexSet:
        if self.boundary is None:
            raise errors.BadBoundary("no boundary set given")
        return self.boundary

    def get(self, name: str):
        """The result for `name` (a key of _SOLVERS), or its typed error."""
        if name not in self._solved:
            start = time.perf_counter()
            try:
                result = _SOLVERS[name](self)
            except errors.HardySpectralError as exc:
                result = exc
            self._solved[name] = (result, (time.perf_counter() - start) * 1000.0)
        result = self._solved[name][0]
        if isinstance(result, errors.HardySpectralError):
            raise result
        return result

    def record(self, into, name: str):
        """Solve `name` and write its value, witnesses and solve time into
        `into` (a report or a suite's contribution); return the result."""
        result = self.get(name)
        into.timing_ms[name] = self._solved[name][1]
        if isinstance(result, SpectralResult):
            into.quantities[name] = result.eigenvalue
            return result
        into.quantities[name] = result.value
        if name == "psi2":
            into.quantities["h2"] = result.hardy
        if name != "psi2_sweep":  # the sweep's level sets are not reported
            into.witnesses[f"{name}_a"] = list(result.witness_a.members)
            if result.witness_b is not None:
                into.witnesses[f"{name}_b"] = list(result.witness_b.members)
        return result


def blank_report(graph: WeightedGraph, seed: Optional[int],
                 tolerance: float) -> VerificationReport:
    """A report on `graph` with nothing recorded yet."""
    return VerificationReport(
        tool_version=__version__, seed=seed, tolerance=tolerance,
        graph_summary={"vertex_count": graph.vertex_count,
                       "edge_count": graph.edge_count,
                       "mass_total": graph.total_mass})


def run_suite(graph: WeightedGraph, *,
              boundary: Optional[VertexSet] = None,
              suites: Optional[list[str]] = None,
              tolerance: float = DEFAULT_TOLERANCE,
              seed: int = 0,
              samples: int = DEFAULT_SAMPLES) -> VerificationReport:
    """Run the requested verification suites and collect a report.

    Enumeration guards and solver failures do not abort the run; they show
    up as failed checks carrying the error message.
    """
    wanted = list(ALL_SUITES) if suites is None else list(suites)
    for s in wanted:
        if s not in ALL_SUITES:
            raise ValueError(f"unknown suite {s!r}; known: {', '.join(ALL_SUITES)}")

    report = blank_report(graph, seed, tolerance)

    # the fundamental mode is solved up front, so it comes first in the
    # report; a suite that needs it and finds it failed reports the error
    q = Quantities(graph, boundary)
    if any(s in wanted for s in ("neumann", "cheeger", "pinch")):
        with contextlib.suppress(errors.HardySpectralError):
            q.record(report, "lambda2")

    # all randomness drawn here, in a fixed order; a graph too small for
    # any draw fails the suites that need one
    rng = Xorshift64Star(seed)
    pinch_fs = []
    ressum_draws = []
    no_draws = None
    try:
        if "pinch" in wanted:
            pinch_fs = [_random_mixed_sign_f(rng, graph.vertex_count)
                        for _ in range(samples)]
        if "ressum" in wanted:
            for _ in range(samples):
                f = _random_mixed_sign_f(rng, graph.vertex_count)
                try:
                    p = pinch(graph, f)
                    a = _random_nonempty_subset(rng, p.negative_set)
                    b = _random_nonempty_subset(rng, p.positive_set)
                    ressum_draws.append((p, a, b))
                except errors.HardySpectralError as exc:
                    ressum_draws.append(exc)
    except errors.SignCondition as exc:
        no_draws = exc

    def suite_dirichlet() -> _Contribution:
        c = _Contribution()
        lam = q.record(c, "lambda_dirichlet").eigenvalue
        psi = q.record(c, "psi_dirichlet")
        c.checks.append(check_le("dirichlet_lower", psi.value / 4.0, lam, tolerance))
        c.checks.append(check_le("dirichlet_upper", lam, psi.value, tolerance))
        return c

    def suite_neumann() -> _Contribution:
        c = _Contribution()
        lambda2 = q.get("lambda2").eigenvalue
        try:
            psi2 = q.record(c, "psi2")
        except errors.TooLarge as exc:
            psi2 = None
            c.checks.append(check_error("neumann", str(exc)))
        sweep = q.record(c, "psi2_sweep")
        if psi2 is None:
            # beyond the guard the sweep still bounds lambda2 from above,
            # because psi2 <= psi2_sweep
            c.checks.append(check_le("neumann_upper_sweep", lambda2, sweep.value, tolerance))
            return c
        c.checks.append(check_le("neumann_lower", psi2.value / 4.0, lambda2, tolerance))
        c.checks.append(check_le("neumann_upper", lambda2, psi2.value, tolerance))
        c.checks.append(check_le("sweep_sound", psi2.value, sweep.value, tolerance))
        return c

    def suite_cheeger() -> _Contribution:
        c = _Contribution()
        lambda2 = q.get("lambda2").eigenvalue
        phi = q.record(c, "phi")
        worst = max(graph.degree(v) / graph.masses[v] for v in range(graph.vertex_count))
        c.checks.append(check_le("cheeger_lower", lambda2 / 2.0, phi.value, tolerance))
        c.checks.append(check_le("cheeger_upper", phi.value,
                                 math.sqrt(2.0 * lambda2 * worst), tolerance))
        return c

    def suite_pinch() -> _Contribution:
        if no_draws is not None:
            raise no_draws
        c = _Contribution()
        mode = q.get("lambda2")
        lambda2 = mode.eigenvalue
        worst = _worst_sides(graph, [quantize_zeros(mode.eigenvector)] + pinch_fs)
        for i, worst_side in enumerate(worst):
            name = f"pinch_random_{i:02d}" if i else "pinch_eigenvector"
            if isinstance(worst_side, errors.HardySpectralError):
                c.checks.append(check_error(name, str(worst_side)))
            elif i:
                c.checks.append(check_ge(name, worst_side, lambda2, tolerance))
            else:
                c.checks.append(check_eq(name, worst_side, lambda2, tolerance))
        return c

    def suite_ressum() -> _Contribution:
        if no_draws is not None:
            raise no_draws
        c = _Contribution()
        energies = iter(pair_energies(
            [(p.graph, x, y) for p, a, b in
             (d for d in ressum_draws if not isinstance(d, errors.HardySpectralError))
             for x, y in ((a, p.zero_set), (b, p.zero_set), (a, b))]))
        for i, draw in enumerate(ressum_draws, start=1):
            name = f"ressum_{i:02d}"
            # 1/R(A, Z), 1/R(B, Z) and 1/R(A, B), or the draw's pinch error
            found = ([draw] if isinstance(draw, errors.HardySpectralError)
                     else [next(energies) for _ in range(3)])
            failed = errors.first_error(found)
            if failed is not None:
                c.checks.append(check_error(name, str(failed)))
                continue
            a_z, b_z, a_b = found
            c.checks.append(check_le(name, 1.0 / a_z + 1.0 / b_z, 1.0 / a_b, tolerance))
        return c

    def suite_path_reduction() -> _Contribution:
        c = _Contribution()
        try:
            res = q.get("lambda_dirichlet")
            quotient, _levels = level_set_quotient(graph, boundary, res.eigenvector)
            lam_path = dirichlet_eigenvalue(quotient, VertexSet.of([0])).eigenvalue
            c.checks.append(check_eq("path_reduction", lam_path, res.eigenvalue, tolerance))
        except errors.HardySpectralError as exc:
            c.checks.append(check_error("path_reduction", str(exc)))
        return c

    runners = {
        "dirichlet": suite_dirichlet,
        "neumann": suite_neumann,
        "cheeger": suite_cheeger,
        "pinch": suite_pinch,
        "ressum": suite_ressum,
        "path-reduction": suite_path_reduction,
    }

    def guarded(fn: Callable[[], _Contribution]) -> _Contribution:
        try:
            return fn()
        except errors.HardySpectralError as exc:
            return _Contribution(checks=[check_error(fn.__name__.removeprefix("suite_"),
                                                     str(exc))])

    contributions = [guarded(runners[s]) for s in ALL_SUITES if s in wanted]

    for c in contributions:
        report.quantities.update(c.quantities)
        report.witnesses.update(c.witnesses)
        report.timing_ms.update(c.timing_ms)
        report.checks.extend(c.checks)
    return report

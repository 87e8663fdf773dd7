"""Verification suites: recompute every bound the library promises on one
graph and report each comparison as a tolerance-aware check.

Suites are independent and may run on a small thread pool (capped by the
HARDY_SPECTRAL_THREADS environment variable, default 1); all random draws
happen up front on the calling thread and results merge in a fixed order,
so a report depends only on the inputs and the seed.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import errors
from ._version import __version__
from .content import (dirichlet_content_exact, isoperimetric_exact,
                      level_set_quotient, neumann_content_exact,
                      neumann_content_sweep)
from .graph import (PinchedGraph, VertexSet, WeightedGraph, pinch,
                    quantize_zeros, validate)
from .report import (Check, VerificationReport, check_eq, check_error,
                     check_ge, check_le)
from .resistance import effective_resistance
from .rng import Xorshift64Star
from .spectral import dirichlet_eigenvalue, neumann_eigenvalue

ALL_SUITES = ("dirichlet", "neumann", "cheeger", "pinch", "ressum", "path-reduction")

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SAMPLES = 10


def _worker_count() -> int:
    raw = os.environ.get("HARDY_SPECTRAL_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _random_mixed_sign_f(rng: Xorshift64Star, n: int) -> list[float]:
    """Gaussian-like values recentered to mean zero, redrawn in the
    (practically impossible) event every recentered value has one sign."""
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


def _pinch_sides(graph: WeightedGraph, f) -> tuple[PinchedGraph, float]:
    """Pinch at f's zero set and return the larger of the two one-sided
    boundary-pinned eigenvalues."""
    p = pinch(graph, f)
    lam_neg = dirichlet_eigenvalue(p.graph, p.nonnegative_set).eigenvalue
    lam_pos = dirichlet_eigenvalue(p.graph, p.nonpositive_set).eigenvalue
    return p, max(lam_neg, lam_pos)


@dataclass
class _Contribution:
    quantities: dict[str, float] = field(default_factory=dict)
    witnesses: dict[str, list[int]] = field(default_factory=dict)
    timing_ms: dict[str, float] = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)


def _timed(timing_ms: dict[str, float], name: str, fn: Callable):
    start = time.perf_counter()
    value = fn()
    timing_ms[name] = (time.perf_counter() - start) * 1000.0
    return value


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
    validate(graph)
    wanted = list(ALL_SUITES) if suites is None else list(suites)
    for s in wanted:
        if s not in ALL_SUITES:
            raise ValueError(f"unknown suite {s!r}; known: {', '.join(ALL_SUITES)}")

    report = VerificationReport(
        tool_version=__version__,
        seed=seed,
        tolerance=tolerance,
        graph_summary={
            "vertex_count": graph.vertex_count,
            "edge_count": graph.edge_count,
            "mass_total": graph.total_mass,
        },
    )

    # shared fundamental mode, computed once up front
    needs_lambda2 = any(s in wanted for s in ("neumann", "cheeger", "pinch"))
    lambda2 = None
    eigvec = None
    lambda2_error: Optional[str] = None
    shared = _Contribution()
    if needs_lambda2:
        try:
            res = _timed(shared.timing_ms, "lambda2", lambda: neumann_eigenvalue(graph))
            lambda2 = res.eigenvalue
            eigvec = res.eigenvector
            shared.quantities["lambda2"] = lambda2
        except errors.HardySpectralError as exc:
            lambda2_error = str(exc)

    # all randomness drawn here, in a fixed order
    rng = Xorshift64Star(seed)
    pinch_fs = []
    if "pinch" in wanted:
        pinch_fs = [_random_mixed_sign_f(rng, graph.vertex_count)
                    for _ in range(samples)]
    ressum_draws = []
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

    def suite_dirichlet() -> _Contribution:
        c = _Contribution()
        if boundary is None:
            c.checks.append(check_error("dirichlet", "no boundary set given"))
            return c
        lam = _timed(c.timing_ms, "lambda_dirichlet",
                     lambda: dirichlet_eigenvalue(graph, boundary)).eigenvalue
        c.quantities["lambda_dirichlet"] = lam
        psi = _timed(c.timing_ms, "psi_dirichlet", lambda: dirichlet_content_exact(graph, boundary))
        c.quantities["psi_dirichlet"] = psi.value
        c.witnesses["psi_dirichlet_a"] = list(psi.witness_a.members)
        c.checks.append(check_le("dirichlet_lower", psi.value / 4.0, lam, tolerance))
        c.checks.append(check_le("dirichlet_upper", lam, psi.value, tolerance))
        return c

    def suite_neumann() -> _Contribution:
        c = _Contribution()
        if lambda2 is None:
            c.checks.append(check_error("neumann", lambda2_error or "no fundamental mode"))
            return c
        try:
            psi2 = _timed(c.timing_ms, "psi2", lambda: neumann_content_exact(graph))
        except errors.TooLarge as exc:
            psi2 = None
            c.checks.append(check_error("neumann", str(exc)))
        else:
            c.quantities["psi2"] = psi2.value
            c.quantities["h2"] = psi2.hardy
            c.witnesses["psi2_a"] = list(psi2.witness_a.members)
            c.witnesses["psi2_b"] = list(psi2.witness_b.members)
        sweep = _timed(c.timing_ms, "psi2_sweep", lambda: neumann_content_sweep(graph))
        c.quantities["psi2_sweep"] = sweep.value
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
        if lambda2 is None:
            c.checks.append(check_error("cheeger", lambda2_error or "no fundamental mode"))
            return c
        phi = _timed(c.timing_ms, "phi", lambda: isoperimetric_exact(graph))
        c.quantities["phi"] = phi.value
        c.witnesses["phi_a"] = list(phi.witness_a.members)
        worst = max(graph.degree(v) / graph.masses[v] for v in range(graph.vertex_count))
        c.checks.append(check_le("cheeger_lower", lambda2 / 2.0, phi.value, tolerance))
        c.checks.append(check_le("cheeger_upper", phi.value,
                                 math.sqrt(2.0 * lambda2 * worst), tolerance))
        return c

    def suite_pinch() -> _Contribution:
        c = _Contribution()
        if lambda2 is None:
            c.checks.append(check_error("pinch", lambda2_error or "no fundamental mode"))
            return c
        try:
            _, worst_side = _pinch_sides(graph, quantize_zeros(eigvec))
            c.checks.append(check_eq("pinch_eigenvector", worst_side, lambda2, tolerance))
        except errors.HardySpectralError as exc:
            c.checks.append(check_error("pinch_eigenvector", str(exc)))
        for i, f in enumerate(pinch_fs, start=1):
            name = f"pinch_random_{i:02d}"
            try:
                _, worst_side = _pinch_sides(graph, f)
                c.checks.append(check_ge(name, worst_side, lambda2, tolerance))
            except errors.HardySpectralError as exc:
                c.checks.append(check_error(name, str(exc)))
        return c

    def suite_ressum() -> _Contribution:
        c = _Contribution()
        for i, draw in enumerate(ressum_draws, start=1):
            name = f"ressum_{i:02d}"
            if isinstance(draw, Exception):
                c.checks.append(check_error(name, str(draw)))
                continue
            p, a, b = draw
            try:
                to_zero = (effective_resistance(p.graph, a, p.zero_set)
                           + effective_resistance(p.graph, b, p.zero_set))
                across = effective_resistance(p.graph, a, b)
                c.checks.append(check_le(name, to_zero, across, tolerance))
            except errors.HardySpectralError as exc:
                c.checks.append(check_error(name, str(exc)))
        return c

    def suite_path_reduction() -> _Contribution:
        c = _Contribution()
        if boundary is None:
            c.checks.append(check_error("path_reduction", "no boundary set given"))
            return c
        try:
            res = dirichlet_eigenvalue(graph, boundary)
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
    ordered = [s for s in ALL_SUITES if s in wanted]
    thunks = [runners[s] for s in ordered]

    def guarded(fn: Callable[[], _Contribution]) -> _Contribution:
        try:
            return fn()
        except errors.HardySpectralError as exc:
            c = _Contribution()
            c.checks.append(check_error(fn.__name__.removeprefix("suite_"), str(exc)))
            return c

    workers = _worker_count()
    if workers > 1 and len(thunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            contributions = list(pool.map(guarded, thunks))
    else:
        contributions = [guarded(t) for t in thunks]

    for c in [shared] + contributions:
        report.quantities.update(c.quantities)
        report.witnesses.update(c.witnesses)
        report.timing_ms.update(c.timing_ms)
        report.checks.extend(c.checks)
    return report

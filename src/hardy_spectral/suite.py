"""Verification suites: recompute every bound the library promises on one
graph and report each comparison as a tolerance-aware check.

Suites run one after another on the calling thread, in the fixed order of
ALL_SUITES. All random draws happen up front, in one read of the seeded
generator (`_draws`): the pinch suite's potentials, 12n outputs each,
then `ressum`'s samples at a fixed stride of 12n + 2 outputs each. Every
potential is made from its 12n outputs the same way and is never drawn
again; ressum's are pinched with one `pinched_sides` call. LAPACK is
deterministic for a fixed build, and every tie is decided within a
window, so a report depends only on the inputs and the seed.
No suite builds a pinched graph: the suites only pose the sides and
ground rows of `graph.pinched_sides`, the pinch suite to
`spectral.ground_modes` and `ressum` to `resistance.pinned_energies`,
all of a run's resistances in one call (R(A, B) on the graph itself, by
the series law), its sets boolean rows from the draw to the elimination.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Optional

import numpy as np

from . import errors
from ._version import __version__
from .content import (dirichlet_content_exact, isoperimetric_exact,
                      level_set_quotient, neumann_content_exact,
                      neumann_content_sweep)
from .graph import (VertexSet, WeightedGraph, conductance_to, pinched_sides,
                    quantize_zeros)
from .report import (VerificationReport, check_eq, check_error, check_ge,
                     check_le)
from .resistance import pinned_energies
from .rng import Xorshift64Star, irwin_hall
from .spectral import (SpectralResult, dirichlet_eigenvalue, ground_modes,
                       neumann_eigenvalue)

ALL_SUITES = ("dirichlet", "neumann", "cheeger", "pinch", "ressum", "path-reduction")

DEFAULT_TOLERANCE = 1e-9
DEFAULT_SAMPLES = 10


def _potentials(words: np.ndarray) -> np.ndarray:
    """One potential per row of `words` (count, 12n): `irwin_hall` on each
    12 outputs, then the row minus its mean, summed strictly left to
    right as in `irwin_hall`."""
    f = irwin_hall(words.reshape(len(words), words.shape[1] // 12, 12))
    return f - np.add.accumulate(f, axis=1)[:, -1:] / f.shape[1]


def _random_nonempty_subset(rng: Xorshift64Star, side: np.ndarray) -> np.ndarray:
    """A nonempty subset of a side (a boolean row over the vertices), as
    a boolean row: bit i of 1 + below(2^s - 1), s the side's size, picks
    the side's i-th smallest vertex."""
    members = np.flatnonzero(side)
    pick = 1 + rng.below((1 << members.size) - 1)
    subset = np.zeros_like(side)
    subset[[v for i, v in enumerate(members.tolist()) if pick >> i & 1]] = True
    return subset


def _nonempty_subsets(sides: np.ndarray, words: np.ndarray) -> np.ndarray:
    """A nonempty subset of each side (a boolean row over the vertices,
    of at least one member), as boolean rows, from the word at the same
    place in `words`. A side of s <= 64 members takes what
    `_random_nonempty_subset` draws when `below` reads that word: bit i
    of 1 + word % (2^s - 1) picks the side's i-th smallest vertex. A
    larger side takes `_random_nonempty_subset` on `Xorshift64Star(word)`."""
    size = sides.sum(axis=-1)
    # a side past 64 members is read as 64 here and replaced below
    top = np.uint64(0xFFFFFFFFFFFFFFFF) >> (64 - np.minimum(size, 64)).astype(np.uint64)
    mask = np.uint64(1) + words % top
    rank = np.maximum(np.cumsum(sides, axis=-1) - 1, 0).astype(np.uint64)
    subsets = sides & (mask[..., None] >> rank & np.uint64(1) == 1)
    for at in zip(*np.nonzero(size > 64)):
        subsets[at] = _random_nonempty_subset(Xorshift64Star(int(words[at])), sides[at])
    return subsets


def _draws(graph: WeightedGraph, wanted: list, samples: int, seed: int) -> tuple:
    """All the randomness of a run, in one read of the stream seeded with
    `seed`: if "pinch" is wanted, 12n outputs for each of its `samples`
    potentials; then, if "ressum" is wanted, `samples` samples of 12n + 2
    outputs each: 12n for a potential f, then one word for A, a subset of
    {f < 0}, and one for B, a subset of {f > 0} (see `_nonempty_subsets`).
    (A and B are the pinched graph's negative and positive sets: its
    inserted vertices all have the value 0.) Both suites make a potential
    from its 12n outputs by `_potentials`, and none is drawn again: one
    without both strict signs fails its sample with its pinch's
    SignCondition, as any other failed pinch does. So every sample is
    read at once, and ressum's are pinched with one `pinched_sides`
    call; a sample whose pinch fails keeps that typed error and leaves
    its two words unused (on a graph with a zero-mass vertex every sample
    fails with the same ZeroMass). Raises SignCondition when a draw is
    needed on fewer than two vertices.

    Returns (pinch potentials as rows, ressum's draws, per ressum sample
    None or its pinch's typed error). The draws are (sides, ground, A,
    B): the `pinched_sides` rows of the d samples that pinched, in sample
    order, then A and B as boolean rows (d, n); they are None, and the
    errors empty, unless "ressum" is wanted."""
    n = graph.vertex_count
    pinch, ressum = (samples if s in wanted else 0 for s in ("pinch", "ressum"))
    if n < 2 and pinch + ressum:
        # one value recentred is exactly 0
        raise errors.SignCondition("a potential takes both strict signs only on "
                                   "two or more vertices")
    words = Xorshift64Star(seed).words(pinch * 12 * n + ressum * (12 * n + 2))
    pinch_fs = _potentials(words[:pinch * 12 * n].reshape(pinch, 12 * n))
    if "ressum" not in wanted:
        return pinch_fs, None, []
    words = words[pinch * 12 * n:].reshape(samples, 12 * n + 2)
    sides, ground, failures = pinched_sides(graph, _potentials(words[:, :-2]))
    ok = np.array([exc is None for exc in failures], dtype=bool)
    a, b = _nonempty_subsets(sides, words[ok, -2:]).swapaxes(0, 1)
    return pinch_fs, (sides, ground, a, b), failures


def _worst_sides(graph: WeightedGraph, potentials: list) -> list:
    """For each potential f: pinch at f's zero set and take the larger of
    the two one-sided boundary-pinned eigenvalues, or the typed error of
    the pinch (see `pinched_sides`), else of the negative side, else of
    the positive side, all sides solved in one `ground_modes` call."""
    sides, ground, failed = pinched_sides(graph, potentials)
    # every potential that pinches poses its negative side, then its positive
    modes = iter(ground_modes(graph, sides.reshape(-1, graph.vertex_count),
                              np.repeat(ground, 2, axis=0)))
    out = []
    for exc in failed:
        if exc is None:
            negative, positive = next(modes), next(modes)
            exc = errors.first_error([negative, positive])
        out.append(max(negative[1], positive[1]) if exc is None else exc)
    return out


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
    quantity enters `report` only through `record`, at once, so a suite
    that fails later still keeps the quantities it solved."""

    def __init__(self, graph: WeightedGraph, boundary: Optional[VertexSet],
                 report: VerificationReport):
        self.graph = graph
        self.boundary = boundary
        self.report = report
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

    def record(self, name: str):
        """Solve `name` and write its value, witnesses and solve time into
        the report; return the result."""
        result = self.get(name)
        self.report.timing_ms[name] = self._solved[name][1]
        if isinstance(result, SpectralResult):
            self.report.quantities[name] = result.eigenvalue
            return result
        self.report.quantities[name] = result.value
        if name == "psi2":
            self.report.quantities["h2"] = result.hardy
        if name != "psi2_sweep":  # the sweep's level sets are not reported
            self.report.witnesses[f"{name}_a"] = list(result.witness_a.members)
            if result.witness_b is not None:
                self.report.witnesses[f"{name}_b"] = list(result.witness_b.members)
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
    up as failed checks carrying the error message. A suite that raises
    leaves one failed row under its own name in place of its rows, and
    keeps the quantities it solved before the failure.
    """
    wanted = list(ALL_SUITES) if suites is None else list(suites)
    for s in wanted:
        if s not in ALL_SUITES:
            raise ValueError(f"unknown suite {s!r}; known: {', '.join(ALL_SUITES)}")
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")

    report = blank_report(graph, seed, tolerance)
    add = report.checks.append

    # the fundamental mode is solved up front, so it comes first in the
    # report; a suite that needs it and finds it failed reports the error
    q = Quantities(graph, boundary, report)
    if any(s in wanted for s in ("neumann", "cheeger", "pinch")):
        with contextlib.suppress(errors.HardySpectralError):
            q.record("lambda2")

    # all randomness drawn here, in a fixed order; a graph too small for
    # any draw fails the suites that need one
    no_draws = None
    try:
        pinch_fs, ressum_draws, ressum_failures = _draws(graph, wanted, samples, seed)
    except errors.SignCondition as exc:
        no_draws = exc

    def suite_dirichlet() -> None:
        lam = q.record("lambda_dirichlet").eigenvalue
        psi = q.record("psi_dirichlet")
        add(check_le("dirichlet_lower", psi.value / 4.0, lam, tolerance))
        add(check_le("dirichlet_upper", lam, psi.value, tolerance))

    def suite_neumann() -> None:
        lambda2 = q.get("lambda2").eigenvalue
        try:
            psi2 = q.record("psi2")
        except errors.TooLarge as exc:
            psi2 = None
            add(check_error("neumann", str(exc)))
        sweep = q.record("psi2_sweep")
        if psi2 is None:
            # beyond the guard the sweep still bounds lambda2 from above,
            # because psi2 <= psi2_sweep
            add(check_le("neumann_upper_sweep", lambda2, sweep.value, tolerance))
            return
        add(check_le("neumann_lower", psi2.value / 4.0, lambda2, tolerance))
        add(check_le("neumann_upper", lambda2, psi2.value, tolerance))
        add(check_le("sweep_sound", psi2.value, sweep.value, tolerance))

    def suite_cheeger() -> None:
        lambda2 = q.get("lambda2").eigenvalue
        phi = q.record("phi")
        worst = float(np.max(np.diag(graph.laplacian_matrix) / graph.mass_vector))
        # 2 lambda2 worst can pass the doubles where its root does not; the
        # root of the product with worst / 4^e, times 2^e, is exact, so it
        # is the plain root wherever the product is a normal double
        e = math.frexp(worst)[1] // 2
        upper = math.ldexp(math.sqrt(2.0 * lambda2 * math.ldexp(worst, -2 * e)), e)
        add(check_le("cheeger_lower", lambda2 / 2.0, phi.value, tolerance))
        add(check_le("cheeger_upper", phi.value, upper, tolerance))

    def suite_pinch() -> None:
        if no_draws is not None:
            raise no_draws
        mode = q.get("lambda2")
        lambda2 = mode.eigenvalue
        worst = _worst_sides(graph, [quantize_zeros(mode.eigenvector), *pinch_fs])
        for i, worst_side in enumerate(worst):
            name = f"pinch_random_{i:02d}" if i else "pinch_eigenvector"
            if isinstance(worst_side, errors.HardySpectralError):
                add(check_error(name, str(worst_side)))
            elif i:
                add(check_ge(name, worst_side, lambda2, tolerance))
            else:
                add(check_eq(name, worst_side, lambda2, tolerance))

    def suite_ressum() -> None:
        if no_draws is not None:
            raise no_draws
        sides, pinched, a, b = ressum_draws
        n = graph.vertex_count
        # per draw 1/R(A, Z) and 1/R(B, Z) on their sides, then 1/R(A, B)
        # on the parent (series law), B held at 0; problem 3i + j is the
        # j-th of draw i
        held = np.stack([a, b, a], axis=1).reshape(-1, n)
        free = np.stack([sides[:, 0] & ~a, sides[:, 1] & ~b, ~(a | b)], axis=1).reshape(-1, n)
        ground = np.stack([pinched, pinched, conductance_to(graph, b)], axis=1).reshape(-1, n)
        energies = iter(pinned_energies(graph, held, free, ground))
        for i, exc in enumerate(ressum_failures, start=1):
            name = f"ressum_{i:02d}"
            # 1/R(A, Z), 1/R(B, Z) and 1/R(A, B), or the draw's pinch error
            found = [exc] if exc is not None else [next(energies) for _ in range(3)]
            failed = errors.first_error(found)
            if failed is not None:
                add(check_error(name, str(failed)))
                continue
            a_z, b_z, a_b = found
            add(check_le(name, 1.0 / a_z + 1.0 / b_z, 1.0 / a_b, tolerance))

    def suite_path_reduction() -> None:
        res = q.get("lambda_dirichlet")
        quotient, _levels = level_set_quotient(graph, boundary, res.eigenvector)
        lam_path = dirichlet_eigenvalue(quotient, VertexSet.of([0])).eigenvalue
        add(check_eq("path_reduction", lam_path, res.eigenvalue, tolerance))

    runners = {
        "dirichlet": suite_dirichlet,
        "neumann": suite_neumann,
        "cheeger": suite_cheeger,
        "pinch": suite_pinch,
        "ressum": suite_ressum,
        "path-reduction": suite_path_reduction,
    }

    for name in ALL_SUITES:
        if name in wanted:
            start = len(report.checks)
            try:
                runners[name]()
            except errors.HardySpectralError as exc:
                del report.checks[start:]
                add(check_error(name.replace("-", "_"), str(exc)))
    return report

"""Verification suites: recompute every bound the library promises on one
graph and report each comparison as a tolerance-aware check.

Suites run one after another on the calling thread, in the fixed order of
ALL_SUITES, each yielding its rows, which enter the report whole. After
the fundamental mode, solved up front, a run poses its randomness, its
pinching work and its boundary-pinned eigenproblems once, on first use,
as one entry of the `Quantities` memo (`_pose`), the only route to
lambda(G, S) for `verify` and `analyze` alike: one read of the seeded
generator (`_draws`), the pinch suite's potentials, 12n outputs each,
then `ressum`'s samples at a fixed stride of 12n + 2 outputs each; one
`pinched_sides` call on the mode and every potential; and one
`ground_modes` stack for lambda(G, S) and both sides of every pinch suite
potential. A row of either call does not depend on the others, so each
suite's rows are the ones it gives alone. The path-reduction suite reads
the level-set quotient path as arrays (`content.level_set_path`) and
solves it, vertex 0 pinned, with its Hardy operator
(`content.hardy_path_eigenvalue`); only a path that does not settle, or
whose numbers leave the doubles, is built as a graph and solved by
`spectral.dirichlet_eigenvalue`, the library's one-problem route. Every
potential is made from its 12n outputs the same way and is never drawn
again. LAPACK is deterministic for a fixed build, and every tie is
decided within a window, so a report depends only on the inputs and the
seed. No suite builds a pinched graph: the pinched sides and ground rows
go to `spectral.ground_modes` for the pinch suite and to
`resistance.pinned_energies` for `ressum`, all of a run's resistances in
one call (R(A, B) on the graph itself, by the series law), its sets
boolean rows from the draw to the elimination.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Optional

import numpy as np

from . import errors
from ._version import __version__
from .content import (dirichlet_content_exact, hardy_path_eigenvalue,
                      isoperimetric_exact, level_set_path,
                      neumann_content_exact, neumann_content_sweep)
from .graph import (VertexSet, WeightedGraph, conductance_to, path_graph,
                    pinched_sides, quantize_zeros)
from .report import (VerificationReport, check_eq, check_error, check_ge,
                     check_le)
from .resistance import pinned_energies
from .rng import Xorshift64Star, irwin_hall
from .spectral import (SpectralResult, dirichlet_eigenvalue, finish_dirichlet,
                       ground_modes, neumann_eigenvalue, pose_dirichlet)

ALL_SUITES = ("dirichlet", "neumann", "cheeger", "pinch", "ressum", "path-reduction")
# the suites that need a boundary; `verify` pins vertex 0 when none is given
BOUNDARY_SUITES = ("dirichlet", "path-reduction")

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
    SignCondition, as any other failed pinch does (see `_pose`). Raises
    SignCondition when a draw is needed on fewer than two vertices.

    Returns the pinch suite's potentials and ressum's, as rows, and
    ressum's two words per sample (samples, 2); a suite not wanted has
    no rows."""
    n = graph.vertex_count
    pinch, ressum = (samples if s in wanted else 0 for s in ("pinch", "ressum"))
    if n < 2 and pinch + ressum:
        # one value recentred is exactly 0
        raise errors.SignCondition("a potential takes both strict signs only on "
                                   "two or more vertices")
    words = Xorshift64Star(seed).words(pinch * 12 * n + ressum * (12 * n + 2))
    pinch_fs = _potentials(words[:pinch * 12 * n].reshape(pinch, 12 * n))
    words = words[pinch * 12 * n:].reshape(ressum, 12 * n + 2)
    return pinch_fs, _potentials(words[:, :-2]), words[:, -2:]


def _per_draw(failures: list, results, k: int):
    """For each draw of `failures` (None or its pinch's typed error, as
    `pinched_sides` gives them): the draw's first typed error, else None,
    and its k results, read in order from `results` for each draw that
    pinched (a draw that failed has none)."""
    results = iter(results)
    for exc in failures:
        found = [] if exc is not None else [next(results) for _ in range(k)]
        yield errors.first_error([exc, *found]), found


def _pose(q: Quantities, wanted: list, samples: int, seed: int) -> dict:
    """A run's pinching work and boundary-pinned eigenproblems, posed once
    each. After the one stream read (`_draws`), one `pinched_sides` call
    takes the mode (if "pinch" is wanted and lambda2 solved), then the
    pinch suite's potentials, then ressum's; one `ground_modes` call takes
    the Dirichlet problem (if a suite of BOUNDARY_SUITES is wanted and
    `pose_dirichlet` poses it), then both sides, negative first, of
    each pinch suite potential that pinched. Neither call's rows depend on
    the others of the call, so each result is the one a call of its own
    gives.

    Returns each part of the run by its name in the memo, its result or the
    typed error that stopped it, or None if no wanted suite needs it:
    "lambda_dirichlet", its SpectralResult; "pinch_modes", the
    `ground_modes` entries of the pinch suite's sides, negative then
    positive for each potential that pinched, and per potential None or
    its pinch's typed error; and "ressum_draws", ressum's draws and per
    sample None or its pinch's typed error; both suites read them by
    `_per_draw`. A failed draw stops both the pinch suite and ressum, a
    failed lambda2 the pinch suite (after the draw), and a problem that
    does not pose lambda_dirichlet, each with its own error. The draws are (sides, ground, A, B): the
    `pinched_sides` rows of the d samples that pinched, in sample order,
    then A and B as boolean rows (d, n) from each such sample's two words
    by `_nonempty_subsets`. A sample whose pinch fails leaves its words
    unused (on a graph with a zero-mass vertex every sample fails with the
    same ZeroMass)."""
    graph = q.graph
    n = graph.vertex_count
    dirichlet = pinch = ressum = None
    # (sides, ground) of the one ground_modes call, in order
    problems = [(np.zeros((0, n), dtype=bool), np.zeros((0, n)))]
    wants_dirichlet = any(s in wanted for s in BOUNDARY_SUITES)
    if wants_dirichlet:
        try:
            problems.append(pose_dirichlet(graph, q.pinned()))
        except errors.HardySpectralError as exc:
            dirichlet = exc
    if "pinch" in wanted or "ressum" in wanted:
        try:
            pinch_fs, ressum_fs, words = _draws(graph, wanted, samples, seed)
        except errors.HardySpectralError as exc:
            pinch = ressum = exc
        else:
            if "pinch" in wanted:
                try:
                    mode = [quantize_zeros(q.get("lambda2").eigenvector)]
                except errors.HardySpectralError as exc:
                    pinch, pinch_fs = exc, pinch_fs[:0]
                else:
                    pinch_fs = np.concatenate([mode, pinch_fs])
            sides, ground, failed = pinched_sides(graph, np.concatenate([pinch_fs, ressum_fs]))
            pinch_failed, ressum_failed = failed[:len(pinch_fs)], failed[len(pinch_fs):]
            d = sum(exc is None for exc in pinch_failed)
            problems.append((sides[:d].reshape(-1, n), np.repeat(ground[:d], 2, axis=0)))
            if "ressum" in wanted:
                ok = np.array([exc is None for exc in ressum_failed], dtype=bool)
                a, b = _nonempty_subsets(sides[d:], words[ok]).swapaxes(0, 1)
                ressum = (sides[d:], ground[d:], a, b), ressum_failed
    rows, to_zero = (np.concatenate(part) for part in zip(*problems))
    modes = iter(ground_modes(graph, rows, to_zero))
    if wants_dirichlet and dirichlet is None:
        try:
            dirichlet = finish_dirichlet(graph, next(modes))
        except errors.HardySpectralError as exc:
            dirichlet = exc
    if "pinch" in wanted and pinch is None:
        pinch = list(modes), pinch_failed
    return {"lambda_dirichlet": dirichlet, "pinch_modes": pinch, "ressum_draws": ressum}


# how each quantity, and each part of a run, is solved, given the memo
# that holds the others
_SOLVERS = {
    "lambda2": lambda q: neumann_eigenvalue(q.graph),
    "psi2": lambda q: neumann_content_exact(q.graph),
    "psi2_sweep": lambda q: neumann_content_sweep(q.graph, q.get("lambda2").eigenvector),
    "phi": lambda q: isoperimetric_exact(q.graph),
    "psi_dirichlet": lambda q: dirichlet_content_exact(q.graph, q.pinned()),
    "posed": lambda q: _pose(q, *q.run),
    "lambda_dirichlet": lambda q: q.get("posed")["lambda_dirichlet"],
    "pinch_modes": lambda q: q.get("posed")["pinch_modes"],
    "ressum_draws": lambda q: q.get("posed")["ressum_draws"],
}


class Quantities:
    """The quantities `verify` and `analyze` report for one graph and
    boundary, and the parts of the run behind them, each solved at most
    once, on first use, into one memo. A typed failure, raised or returned
    by its solver, is kept too: asking again raises it again instead of
    solving again. A quantity enters `report` only through `record`, at
    once, so a suite that fails later still keeps the quantities it
    solved. The memo holds results only, and `record` times its own `get`
    call: every reported quantity is first asked for by its `record`, so
    that time is its solve, with any part of the run it solves first.
    lambda_dirichlet, "pinch_modes" and "ressum_draws" are read from the
    run's posing step ("posed": `_pose` on `run` = (wanted suites,
    samples, seed)), whose time lambda_dirichlet carries; `analyze`
    passes the run of a Dirichlet-only `verify` with no samples."""

    def __init__(self, graph: WeightedGraph, boundary: Optional[VertexSet],
                 report: VerificationReport, run: tuple):
        self.graph = graph
        self.boundary = boundary
        self.report = report
        self.run = run
        self._solved: dict[str, object] = {}

    def pinned(self) -> VertexSet:
        if self.boundary is None:
            raise errors.BadBoundary("no boundary set given")
        return self.boundary

    def get(self, name: str):
        """The result for `name` (a key of _SOLVERS); raises its typed
        error instead."""
        if name not in self._solved:
            try:
                self._solved[name] = _SOLVERS[name](self)
            except errors.HardySpectralError as exc:
                self._solved[name] = exc
        result = self._solved[name]
        if isinstance(result, errors.HardySpectralError):
            raise result
        return result

    def record(self, name: str):
        """Solve `name` and write its value, witnesses and solve time into
        the report; return the result."""
        start = time.perf_counter()
        result = self.get(name)
        self.report.timing_ms[name] = (time.perf_counter() - start) * 1000.0
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
    keeps the quantities it solved before the failure. An unknown suite,
    samples < 0 or a tolerance outside [0, 1) raise BadRequest at once.
    """
    wanted = list(ALL_SUITES) if suites is None else list(suites)
    for s in wanted:
        if s not in ALL_SUITES:
            raise errors.BadRequest(f"unknown suite {s!r}; known: {', '.join(ALL_SUITES)}")
    if samples < 0:
        raise errors.BadRequest(f"samples must be >= 0, got {samples}")
    if not 0.0 <= tolerance < 1.0:
        raise errors.BadRequest(f"tolerance must be >= 0 and < 1, got {tolerance!r}")

    report = blank_report(graph, seed, tolerance)

    # the fundamental mode is solved up front, so it comes first in the
    # report; a suite that needs it and finds it failed reports the error
    q = Quantities(graph, boundary, report, (wanted, samples, seed))
    if any(s in wanted for s in ("neumann", "cheeger", "pinch")):
        with contextlib.suppress(errors.HardySpectralError):
            q.record("lambda2")

    def suite_dirichlet():
        lam = q.record("lambda_dirichlet").eigenvalue
        psi = q.record("psi_dirichlet")
        yield check_le("dirichlet_lower", psi.value / 4.0, lam, tolerance)
        yield check_le("dirichlet_upper", lam, psi.value, tolerance)

    def suite_neumann():
        lambda2 = q.get("lambda2").eigenvalue
        try:
            psi2 = q.record("psi2").value
        except errors.TooLarge as exc:
            # beyond the guard the sweep still bounds lambda2 from above,
            # because psi2 <= psi2_sweep
            yield check_error("neumann", str(exc))
            yield check_le("neumann_upper_sweep", lambda2, q.record("psi2_sweep").value,
                           tolerance)
            return
        sweep = q.record("psi2_sweep").value
        yield check_le("neumann_lower", psi2 / 4.0, lambda2, tolerance)
        yield check_le("neumann_upper", lambda2, psi2, tolerance)
        yield check_le("sweep_sound", psi2, sweep, tolerance)

    def suite_cheeger():
        lambda2 = q.get("lambda2").eigenvalue
        phi = q.record("phi")
        worst = float(np.max(graph.degrees / graph.mass_vector))
        # 2 lambda2 worst can pass the doubles where its root does not; the
        # root of the product with worst / 4^e, times 2^e, is exact, so it
        # is the plain root wherever the product is a normal double
        e = math.frexp(worst)[1] // 2
        upper = math.ldexp(math.sqrt(2.0 * lambda2 * math.ldexp(worst, -2 * e)), e)
        yield check_le("cheeger_lower", lambda2 / 2.0, phi.value, tolerance)
        yield check_le("cheeger_upper", phi.value, upper, tolerance)

    def suite_pinch():
        modes, failures = q.get("pinch_modes")
        lambda2 = q.get("lambda2").eigenvalue
        # per draw the negative side's mode, then the positive side's
        for i, (failed, sides) in enumerate(_per_draw(failures, modes, 2)):
            name = f"pinch_random_{i:02d}" if i else "pinch_eigenvector"
            if failed is not None:
                yield check_error(name, str(failed))
                continue
            worst = max(side[1] for side in sides)
            yield (check_ge if i else check_eq)(name, worst, lambda2, tolerance)

    def suite_ressum():
        (sides, pinched, a, b), failures = q.get("ressum_draws")
        n = graph.vertex_count
        # per draw 1/R(A, Z) and 1/R(B, Z) on their sides, then 1/R(A, B)
        # on the parent (series law), B held at 0; problem 3i + j is the
        # j-th of draw i
        held = np.stack([a, b, a], axis=1).reshape(-1, n)
        free = np.stack([sides[:, 0] & ~a, sides[:, 1] & ~b, ~(a | b)], axis=1).reshape(-1, n)
        ground = np.stack([pinched, pinched, conductance_to(graph, b)], axis=1).reshape(-1, n)
        energies = pinned_energies(graph, held, free, ground)
        # per draw 1/R(A, Z), 1/R(B, Z) and 1/R(A, B)
        for i, (failed, found) in enumerate(_per_draw(failures, energies, 3), start=1):
            name = f"ressum_{i:02d}"
            if failed is not None:
                yield check_error(name, str(failed))
                continue
            a_z, b_z, a_b = found
            yield check_le(name, 1.0 / a_z + 1.0 / b_z, 1.0 / a_b, tolerance)

    def suite_path_reduction():
        res = q.get("lambda_dirichlet")
        masses, conductances, levels = level_set_path(graph, boundary, res.eigenvector)
        found = hardy_path_eigenvalue(masses, conductances, levels)
        if found is not None:
            lam = found[0]
        else:
            # a near-degenerate path, or numbers past the doubles
            lam = dirichlet_eigenvalue(path_graph(masses, conductances),
                                       VertexSet.of([0])).eigenvalue
        yield check_eq("path_reduction", lam, res.eigenvalue, tolerance)

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
            # a suite's rows enter whole: one that raises leaves no row of
            # its own but its one error row
            try:
                report.checks += list(runners[name]())
            except errors.HardySpectralError as exc:
                report.checks.append(check_error(name.replace("-", "_"), str(exc)))
    return report

"""Laplacian assembly and the two generalized eigenproblems.

Both problems reduce to ordinary symmetric eigenproblems by whitening with
the diagonal mass matrix: the fundamental (Neumann) eigenvalue is the
second-smallest eigenvalue of M^{-1/2} L M^{-1/2}, and the boundary-pinned
(Dirichlet) eigenvalue is the smallest eigenvalue of the same whitening
applied to the interior principal submatrix. The interior splits into
connected pieces, each its own eigenproblem. `ground_modes` solves the
boundary-pinned problems on one graph's arrays, each posed as
`resistance.pinned_energies` poses its own: a boolean row over the
vertices and a ground row (each vertex's conductance to the vertices
held at 0). A one-vertex piece {v} gets its exact pair, ground_v / mu_v
and mu_v^{-1/2}, wherever that eigenvalue is a positive normal double.
Every other piece goes to a stack, with one stacked eigh and one stacked
solve per polish step for each: one stack holds every piece of at most
SMALL_PIECE = 16 vertices, padded with decoupled vertices to one width
that depends only on the graph, and each larger size has a stack of its
own. A stack pays about 45 us of fixed numpy work whatever its size,
which outweighs the few microseconds of LAPACK work a padded matrix of up
to 16 vertices adds; on sparse 32-40 vertex graphs 16 measured best of
8 to 32, and wider pads cost more than the stacks they save.
A problem's result does not depend on the others of its call, so a
`verify` run (`suite._pose`) makes one stream read, one pinch and one
boundary-pinned stack: the Dirichlet problem as `pose_dirichlet` poses
it and both sides of every pinch suite potential go to one `ground_modes`
call, and `finish_dirichlet` turns the Dirichlet problem's entry into
its result; `analyze` poses its one Dirichlet problem the same way.
`dirichlet_eigenvalue` is the same three steps for one problem alone, as
the public API uses it, and as the path-reduction suite does for a
level-set quotient path that its Hardy operator
(`content.hardy_path_eigenvalue`) does not settle.

LAPACK's eigh leaves every eigenvector entry wrong by about eps * ||L||,
which on stiff graphs swamps the small differences across stiff edges. So
each eigenvector is polished by inverse iteration on the Laplacian, whose
M-matrix solves keep those differences, and the eigenvalue is its
Rayleigh quotient with the energy summed over the edges, where no terms
cancel. On stiff graphs eigh's vector can be noise at the scale of the
eigenvalue, so each problem is polished until it settles (`_eigenpairs`).
Values equal in exact arithmetic may still differ in the last
ulps, so every choice among them (the piece that carries the Dirichlet
mode, the entry that fixes a sign) treats values within the relative
window TIE_RTOL as tied and gives the lowest vertex id the win.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import errors
from .graph import (VertexSet, WeightedGraph, as_potential, conductance_to,
                    interior_of, require_positive_mass, row_components)
from .linalg import cholesky_solve, jacobi_eigen

TIE_RTOL = 64 * np.finfo(float).eps
MAX_POLISH_STEPS = 64
SETTLE_RTOL = 4 * np.finfo(float).eps
_TINY, _LARGEST = np.finfo(float).tiny, np.finfo(float).max
# pieces of at most this many vertices share one padded eigen stack (see
# the module docstring for why 16)
SMALL_PIECE = 16


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Eigenvalue and full-length eigenvector (zero on any boundary, of
    unit mass norm, read-only)."""

    eigenvalue: float
    eigenvector: np.ndarray


def laplacian(graph: WeightedGraph) -> np.ndarray:
    """L = D - W, read-only, built on each call: no solver needs L whole.
    D holds `graph.degrees`, W's row sums, so L's rows sum to zero."""
    lap = np.diag(graph.degrees) - graph.conductance_matrix
    lap.flags.writeable = False
    return lap


def _canonical_sign(x: np.ndarray) -> np.ndarray:
    """x, read-only, flipped so its largest-magnitude entry (lowest id on
    ties) is positive."""
    mag = np.abs(x)
    i = int(np.argmax(mag >= np.max(mag) * (1.0 - TIE_RTOL)))
    x = -x if x[i] < 0.0 else x
    x.flags.writeable = False
    return x


def _mass_dot(mass: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (g, s) stacks, shape (g, 1), each the
    same dot product as on one row alone."""
    return (mass[:, None, :] @ y[:, :, None])[:, 0]


def _eigenpairs(w: np.ndarray, ground: np.ndarray, mass: np.ndarray, k: int,
                pad: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """The k-th smallest eigenpairs of a stack of problems L_PP x = lam M_P x,
    one per piece P: `w` (g, s, s) holds the conductance blocks W_PP,
    `ground` (g, s) the conductance from each vertex to the vertices off
    its piece, which are held at zero, and `mass` (g, s) the masses.
    L_PP's diagonal is built as W_PP 1 + ground, a sum of nonnegative
    terms. Returns the eigenvalues (g,) and the eigenvectors (g, s), of
    unit mass norm: eigh on the whitened stack, then inverse iteration
    until each problem settles. k = 1 is the Neumann mode (the piece is
    all of V): its solves ground the first vertex and remove the constant
    mode. A
    solve or its norm past the doubles raises NoConvergence, and a
    whitened block or an eigenvalue past them NotRepresentable.

    `pad` (g, s) marks padding vertices, passed with no conductances, no
    ground and mass 1; pad=None says there are none and skips all pad
    work, with the same bits as an all-False mask. Each pad is given a
    ground strictly above its piece's lowest eigenvalue, which is at most
    any whitened diagonal entry (the Rayleigh quotient of e_i): twice the
    piece's largest, clamped to the positive doubles, so a pad is never
    singular or infinite and adds no typed error. eigh's start vector is
    zeroed on the pads, so the polish keeps them at 0 and the energy sees
    only the piece.

    The eigenvalue is the energy as a sum of nonnegative terms,
    0.5 * sum W_PP (x_i - x_j)^2 + sum ground x_i^2, formed after every
    step. A problem settles, and is not solved again, once a step lowers
    it by at most SETTLE_RTOL relative; as lam starts at inf, a finite
    energy takes 2 to MAX_POLISH_STEPS steps. Every step works on each
    problem alone, so its result does not depend on the stack it is in."""
    d = 1.0 / np.sqrt(mass)
    with np.errstate(over="ignore", invalid="ignore"):
        degree = w.sum(axis=-1) + ground
        if pad is not None:
            # each piece's largest whitened diagonal entry (a pad's is 0)
            top = (degree * (d * d)).max(axis=1, keepdims=True)
            degree = np.where(pad, np.minimum(np.maximum(2.0 * top, _TINY), _LARGEST), degree)
        blocks = -w
        diagonal = np.arange(w.shape[-1])
        blocks[:, diagonal, diagonal] = degree
        whitened = blocks * (d[:, :, None] * d[:, None, :])
        if not np.isfinite(whitened).all():
            raise errors.NotRepresentable("the mass-whitened Laplacian overflows double precision")
        x = d * jacobi_eigen(whitened)[1][:, :, k]
        if pad is not None:
            x[pad] = 0.0
        lam = np.full(len(x), np.inf)
        # the rows still moving, read and written through one index: all
        # of them as a slice, so every read is a view, until one settles;
        # then the ids of the rest, so a settled row is not solved again
        live = slice(None)
        for _ in range(MAX_POLISH_STEPS):
            m = mass[live]
            try:
                y = np.linalg.solve(blocks[live, k:, k:], (m * x[live])[:, k:, None])[:, :, 0]
            except np.linalg.LinAlgError:
                raise errors.NotPositiveDefinite() from None
            if k:  # the grounded first vertex
                y = np.concatenate((np.zeros((len(y), 1)), y), axis=1)
            # each y to max |y| in [1/4, 1/2) by a power of two (~e is
            # -1 - e), which is exact, so that neither mass * y nor
            # mass * y * y overflows or goes subnormal. The Neumann solve
            # grounds y[0] = 0, so the mass-weighted mean lies between y's
            # extremes and its removal leaves max |y| in [1/8, 1): one
            # scaling serves both sums
            y = np.ldexp(y, ~np.frexp(np.abs(y).max(axis=1, keepdims=True))[1])
            if k:
                y -= _mass_dot(m, y) / m.sum(axis=1, keepdims=True)
            norm = np.sqrt(_mass_dot(m, y * y))
            # a y past the doubles gives a norm of inf or NaN, an all-zero y 0
            if not 0.0 < norm.min() <= norm.max() < np.inf:
                raise errors.NoConvergence("inverse iteration overflowed in double precision")
            y = y / norm
            diff = y[:, :, None] - y[:, None, :]
            energy = (0.5 * (w[live] * diff * diff).reshape(len(y), -1).sum(axis=1)
                      + (ground[live] * (y * y)).sum(axis=1))
            # before the write: while live is a slice, lam[live] is a view
            moving = lam[live] - energy > SETTLE_RTOL * energy
            x[live], lam[live] = y, energy
            if not moving.all():
                live = np.arange(len(x))[live][moving]
                if not live.size:
                    break
    if not lam.max() < np.inf:  # a sum of nonnegative terms: inf, never NaN
        raise errors.NotRepresentable("the eigenvalue overflows double precision")
    return lam, x


def neumann_eigenvalue(graph: WeightedGraph) -> SpectralResult:
    """Fundamental vibration mode: min of x^T L x / x^T M x over x with
    x^T M 1 = 0. Requires all masses positive and a connected graph."""
    n = graph.vertex_count
    if n < 2:
        raise errors.DimensionMismatch("need at least two vertices")
    require_positive_mass(graph)

    lam, x = _eigenpairs(graph.conductance_matrix[None], np.zeros((1, n)),
                         graph.mass_vector[None], 1)
    lam, x = float(lam[0]), _canonical_sign(x[0])
    # the exact mode is positive and takes both signs (it is mass-orthogonal
    # to the constants); weights too stiff for doubles can break either
    if not (lam > 0.0 and np.any(x > 0.0) and np.any(x < 0.0)):
        raise errors.NoConvergence(
            f"fundamental mode not resolved in double precision (lambda2 = {lam!r})")
    return SpectralResult(lam, x)


def _piece_modes(graph: WeightedGraph, ground: np.ndarray, pieces: list, width: int) -> list:
    """(piece, eigenvalue, eigenvector on the piece) for each (problem i,
    piece) of `pieces` from one `_eigenpairs` stack of `width` vertices,
    a piece with fewer being padded up to it: each pad slot gathers the
    piece's first vertex, and the pad mask then gives it no conductances,
    no ground and mass 1. A stack with no pad slot builds no pad mask and
    is passed on as gathered, with pad=None. A stack that raises a typed
    error is solved again one piece at a time, padded the same way, so the
    error lands only on the piece that causes it."""
    row = np.array([i for i, _ in pieces])[:, None]
    idx = np.array([piece + piece[:1] * (width - len(piece)) for _, piece in pieces])
    w, to_zero, mass = (graph.conductance_matrix[idx[:, :, None], idx[:, None, :]],
                        ground[row, idx], graph.mass_vector[idx])
    pad = None
    if min(len(piece) for _, piece in pieces) < width:
        pad = np.arange(width) >= np.array([len(piece) for _, piece in pieces])[:, None]
        w = np.where(pad[:, :, None] | pad[:, None, :], 0.0, w)
        to_zero, mass = np.where(pad, 0.0, to_zero), np.where(pad, 1.0, mass)
    try:
        lam, x = _eigenpairs(w, to_zero, mass, 0, pad)
    except errors.HardySpectralError as exc:
        if len(pieces) == 1:
            return [exc]
        return [mode for one in pieces for mode in _piece_modes(graph, ground, [one], width)]
    return [(piece, lam_i, x_i[:len(piece)])
            for (_, piece), lam_i, x_i in zip(pieces, lam.tolist(), x)]


def ground_modes(graph: WeightedGraph, sides: np.ndarray, ground: np.ndarray) -> list:
    """The boundary-pinned modes of many problems on `graph` at once.
    Problem i solves the vertices of the boolean row sides[i], which
    holds at least one vertex, and pins every other vertex to zero;
    ground[i] gives each vertex's conductance to the pinned vertices.
    Every connected piece of a side is its own eigenproblem.

    A one-vertex piece {v} has the exact mode lam = ground[i, v] / mass[v],
    x = [mass[v] ** -0.5], tested for all such pieces of the call in one
    array expression: it is taken wherever lam is a positive normal
    double and the whitened entry ground * (1 / sqrt(mass))**2 is finite,
    else the piece is stacked like the others, so a zero ground still
    raises NotPositiveDefinite and an underflow is never a 0.0
    eigenvalue. Every other piece is solved in few stacks
    (`_piece_modes`): every piece of at most t = min(SMALL_PIECE, n - 1)
    = min(16, n - 1) vertices is padded to t, and each larger size has its
    own stack. t depends on the graph alone, so a piece's result does not
    depend on the other pieces of the call, and a piece that fails fails
    only its own problem. Each side is split into pieces by one walk of
    its boolean row (`row_components`).

    Returns, per problem, the typed error of its first failing piece, else
    (piece, eigenvalue, eigenvector on the piece) for the lowest-id piece
    among those whose eigenvalue ties the smallest, so the mode never
    mixes decoupled blocks and keeps one sign. A call whose problems are
    one piece each returns the modes in order, with nothing to pick.
    """
    splits = [row_components(graph, side) for side in sides]
    if not all(splits):
        raise ValueError("every side must hold at least one vertex")
    pieces = [(i, piece) for i, split in enumerate(splits) for piece in split]
    modes = [None] * len(pieces)
    lone = [j for j, (_, piece) in enumerate(pieces) if len(piece) == 1]
    if lone:
        vertex = [pieces[j][1][0] for j in lone]
        to_zero, mass = ground[[pieces[j][0] for j in lone], vertex], graph.mass_vector[vertex]
        with np.errstate(all="ignore"):
            exact = to_zero / mass
            closed = ((_TINY <= exact) & (exact <= _LARGEST)
                      & np.isfinite(to_zero * (1.0 / np.sqrt(mass)) ** 2))
        # x by the C library's pow on each float: numpy's vectorised power
        # may round it less closely
        for j, closed_j, lam_j, mass_j in zip(lone, closed.tolist(), exact.tolist(),
                                              mass.tolist()):
            if closed_j:
                modes[j] = (pieces[j][1], lam_j, np.array([mass_j ** -0.5]))
    small = min(SMALL_PIECE, graph.vertex_count - 1)
    stacks: dict[int, list] = defaultdict(list)
    for j, (_, piece) in enumerate(pieces):
        if modes[j] is None:
            stacks[max(len(piece), small)].append(j)
    for width, js in stacks.items():
        for j, mode in zip(js, _piece_modes(graph, ground, [pieces[j] for j in js], width)):
            modes[j] = mode
    if len(pieces) == len(splits):  # one piece per problem: nothing to pick
        return modes
    # each problem's first failing piece, else its first piece within
    # TIE_RTOL of its smallest eigenvalue: a failed piece counts as -inf
    lam = np.array([-np.inf if isinstance(mode, errors.HardySpectralError) else mode[1]
                    for mode in modes])
    problem = np.array([i for i, _ in pieces], dtype=np.intp)
    floor = np.full(len(splits), np.inf)
    np.minimum.at(floor, problem, lam)
    win = np.flatnonzero(lam <= floor[problem] * (1.0 + TIE_RTOL))
    return [modes[j] for j in win[np.searchsorted(problem[win], np.arange(len(splits)))].tolist()]


def pose_dirichlet(graph: WeightedGraph, boundary: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """The boundary-pinned problem on `boundary` as one `ground_modes`
    problem: the interior as a boolean row (1, n) and its ground W(., S)
    (1, n). Raises what `interior_of` raises, then ZeroMass at the first
    interior vertex without positive mass; boundary masses never enter."""
    inside = interior_of(graph, boundary)[None]
    require_positive_mass(graph, np.flatnonzero(inside[0]).tolist())
    return inside, conductance_to(graph, ~inside)


def finish_dirichlet(graph: WeightedGraph, mode) -> SpectralResult:
    """The result of a problem posed by `pose_dirichlet`, from its entry
    of `ground_modes`: raises its typed error, else zero-pads the piece's
    eigenvector onto the rest of the graph, canonically signed."""
    if isinstance(mode, errors.HardySpectralError):
        raise mode
    piece, lam, x_piece = mode
    x = np.zeros(graph.vertex_count)
    x[piece] = x_piece
    return SpectralResult(lam, _canonical_sign(x))


def dirichlet_eigenvalue(graph: WeightedGraph, boundary: VertexSet) -> SpectralResult:
    """The smallest eigenvalue over potentials pinned to zero on the
    boundary, solved on the interior principal submatrix by `ground_modes`,
    with W(., S) as the ground: `pose_dirichlet`, then `finish_dirichlet`.

    Boundary masses never enter, so zero-mass vertices are fine there, but
    every interior vertex needs positive mass. The returned eigenvector is
    zero-padded onto the boundary (it is an eigenvector of the interior
    submatrix, not of L).
    """
    inside, ground = pose_dirichlet(graph, boundary)
    return finish_dirichlet(graph, *ground_modes(graph, inside, ground))


def harmonic_extension(graph: WeightedGraph, fixed: Mapping[int, float]) -> np.ndarray:
    """Minimum-energy potential agreeing with `fixed`.

    The free values solve L_FF x_F = -L_FB x_B, an SPD system whenever the
    graph is connected and at least one vertex is fixed. A fixed value of
    NaN or inf raises NonFinitePotential at the first such vertex.
    """
    if not fixed:
        raise errors.EmptyFixedSet("need at least one fixed vertex")
    held = graph.row(fixed)
    x = np.zeros(len(held))
    for v, val in fixed.items():
        x[int(v)] = float(val)
    as_potential(graph, x)  # NonFinitePotential at the first bad fixed vertex
    free = np.flatnonzero(~held)
    if free.size:
        lap = laplacian(graph)
        fixed_ids = np.flatnonzero(held)
        rhs = -(lap[np.ix_(free, fixed_ids)] @ x[fixed_ids])
        x[free] = cholesky_solve(lap[np.ix_(free, free)], rhs)
    return x


def _largest_exponent(exponent: np.ndarray, product: np.ndarray) -> int:
    """The largest of `exponent` where `product` is nonzero, else 0."""
    live = exponent[product != 0.0]
    return int(live.max()) if live.size else 0


def _scaled_quotient(k, d, m, x) -> float:
    """sum k d^2 / sum m x^2 over four arrays, each given as the
    (mantissa, exponent) pair np.frexp gives, rounded once, by the
    division, onto the subnormals too; inf or 0 past the doubles (callers
    silence the overflow warning). Each term is formed on the mantissas
    of its factors at the power of two, 2^-top, that puts its sum's
    largest nonzero term in [1/8, 1): a vanishing term sets no scale, no
    weight takes a term out of the doubles, and one over 2^1019 below the
    largest loses bits only far below the sum's last. Where no term
    leaves the normal doubles unscaled, the sums are the unscaled sums'
    bits times 2^-top."""
    (fk, ek), (fd, ed), (fm, em), (fx, ex) = k, d, m, x
    energy_exp, norm_exp = ek + 2 * ed, em + 2 * ex
    energy_top = _largest_exponent(energy_exp, fk * fd)
    norm_top = _largest_exponent(norm_exp, fm * fx)
    energy = np.ldexp(fk * (fd * fd), energy_exp - energy_top).sum()
    norm = np.ldexp(fm * (fx * fx), norm_exp - norm_top).sum()
    scale = energy_top - norm_top
    if scale >= 0:
        return float(np.ldexp(energy / norm, scale))
    lift = max(scale, -1000)
    return float(np.ldexp(energy, lift) / np.ldexp(norm, lift - scale))


def rayleigh_quotient(graph: WeightedGraph, x: np.ndarray,
                      boundary: Optional[VertexSet] = None) -> float:
    """x^T L x / x^T M x; an upper bound on the matching eigenvalue for any
    feasible x. With a boundary, x must vanish there exactly. x is first
    scaled by a power of two to max |x| in [1/2, 1), which is exact and
    leaves the quotient as it is, and each sum is taken at a power of two
    of its own (`_scaled_quotient`), so no weight leaves the doubles before
    the quotient does. ZeroVector if x vanishes on every vertex of
    positive mass; NotRepresentable if the quotient overflows."""
    x = as_potential(graph, x)
    if boundary is not None:
        for v in np.flatnonzero(graph.row(boundary)).tolist():
            if x[v] != 0.0:
                raise errors.BoundaryViolated(f"x[{v}] = {x[v]!r} on the boundary")
    mass = graph.mass_vector
    if not x[mass > 0.0].any():
        raise errors.ZeroVector("mass-weighted norm of x is zero")
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    # x^T L x summed over the edges, so no terms cancel
    u, v, k = graph.edge_arrays
    with np.errstate(over="ignore"):
        quotient = _scaled_quotient(np.frexp(k), np.frexp(x[u] - x[v]), np.frexp(mass),
                                    np.frexp(x))
    if not 0.0 <= quotient < np.inf:
        raise errors.NotRepresentable(
            f"the Rayleigh quotient {quotient!r} leaves double precision")
    return quotient

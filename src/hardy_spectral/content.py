"""Resistance-based content quantities that pin the Laplacian eigenvalues
to within a factor of four.

The one-sided content of (G, S) is the minimum over nonempty vertex sets A
disjoint from S of R(S,A)^{-1} / mu(A); its reciprocal (the extremal
resistance-mass product) is the classical Hardy-style quantity. The
two-sided content minimizes (mu(A)^{-1} + mu(B)^{-1}) / R(A,B) over
disjoint nonempty pairs. Both are computed by exact enumeration behind
explicit size guards; paths get an O(N) tail-set scan, and a level-set
sweep of the fundamental eigenvector provides a cheap upper bound for the
two-sided quantity on larger graphs. A path pinned at vertex 0 also gets
its eigenvalue from its Hardy operator, the inverse of its Laplacian,
which sums the same prefix resistances and suffix masses as the scan.

Both enumerations walk a decision tree over the vertices, one vertex per
level: a vertex either joins a terminal node (A, or B for the two-sided
quantity) or is eliminated by Kron reduction. Sets that share a prefix
share its eliminations. Every elimination is `resistance.kron_step`,
the one step behind every energy of the library: it only adds
nonnegative terms (`w_ik += (w_ij / d_j) w_jk`, with `d_j` a sum of
conductances), so nothing cancels. Each enumeration walks its own tree,
depth first over stacks of partial networks that carry only their keys:
each level copies a stack once for all of its children, eliminates one
part by kron_step and merges the others into a terminal; a stack is cut
in half while its children would exceed CHUNK_ENTRIES numbers, keeping
only a running minimum. The leaves are scored in closed form from a few
entries of each network, each choice's energy a sum of them, or for an
elimination theirs plus kron_step's fill, `resistance.kron_fill`, so the
leaf networks are never built, and masses are read at the leaves from
one table over the masks (_mass_by_mask), each summed from its lowest
bit up. psi's tree is a full binary one (dirichlet_content_exact), its
last two vertices scored together from their six entries (_last_two).
psi2's is three-way (neumann_content_exact), with A opened only once B
is nonempty: just one network of a stack, its first, can have B empty,
and the children it may not have are sliced off. Its last vertex is
scored from three entries. The level-set
sweep eliminates through `resistance.kron_slots`, as every pinned
problem does, along one path per set A: in the potential's order every
A is a prefix and every B a suffix, so one pass reads the energies of
all of A's pairs.
The isoperimetric constant needs no energy: one table holds the cut of
every mask, grown one vertex at a time by adding conductances, and the
masks of A are scored against it and the same table of masses in
chunks of the same bound.

Ties are decided by the canonical keys (A's, then B's), never by the
order of the arithmetic: every ratio within the relative window TIE_RTOL
of the minimum counts as tied and the smallest key wins, so witnesses are
identical across runs and schedules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import errors
from .graph import (VertexSet, WeightedGraph, as_potential, check_path_lengths, conductance_to,
                    interior_of, is_canonical_path, path_graph,
                    require_both_signs, require_positive_mass)
from .resistance import kron_fill, kron_slots, kron_step
from .spectral import _LARGEST, _TINY, TIE_RTOL, _scaled_quotient

DIRICHLET_ENUM_LIMIT = 20
NEUMANN_ENUM_LIMIT = 12
ISOPERIMETRIC_ENUM_LIMIT = 20

LEVEL_GROUP_RTOL = 1e-9

# hardy_path_eigenvalue's cap on its steps and the relative width of the
# eigenvalue's enclosure at which it stops
PATH_MAX_STEPS = 16
PATH_SETTLE_RTOL = 1e-15

# Upper bound on the numbers gathered for one stack of partial networks
# or one chunk of cut masks, which bounds the enumerations' working
# memory (2^15 doubles = 256 KiB).
CHUNK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class ContentResult:
    """An extremal ratio plus the set (or pair) achieving it. `value` is
    always the eigenvalue-comparable form, positive and finite (else
    NotRepresentable); `hardy` is its reciprocal, finite too (else
    NotRepresentable)."""

    value: float
    witness_a: VertexSet
    witness_b: Optional[VertexSet]

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not (0.0 < self.value < math.inf):
            raise errors.NotRepresentable(
                f"content value {self.value!r} is not positive and finite in double precision")
        if not 1.0 / self.value < math.inf:
            raise errors.NotRepresentable(
                f"content value {self.value!r} has no finite reciprocal in double precision")

    @property
    def hardy(self) -> float:
        return 1.0 / self.value


def _mass_by_mask(masses: np.ndarray) -> np.ndarray:
    """mu(mask) for every mask of the vertices, each summed as
    mu(mask without its highest bit) + mu(highest bit): the running sum
    of its bits from the lowest up. The masks whose highest bit is b are
    filled in one step, from the lowest b up. psi, psi2 and phi all read
    it."""
    out = np.zeros(1 << len(masses))
    for b, m in enumerate(masses):
        np.add(out[:1 << b], m, out=out[1 << b:2 << b])
    return out


def _cut_by_mask(w: np.ndarray) -> np.ndarray:
    """W(M, V \\ M) for every mask M of the vertices but the last, given
    the conductance matrix w.

    The table grows one vertex j at a time over the masks of 0..j-1 and
    only ever adds conductances: cut(M u {j}) = cut(M) + W(j, {0..j-1} \\ M)
    and cut(M) += W(j, M), where the complement of M among 0..j-1 is the
    reversed index. The tables W(i, .) of the vertices still to come grow
    the same way, W(i, M u {j}) = W(i, M) + w_ij. A sum past the doubles
    is inf, a cut that never wins.
    """
    n = len(w)
    cut = np.zeros(1 << (n - 1))
    ahead = np.zeros((n, 1))  # W(i, M) for i >= j, over the masks M of 0..j-1
    with np.errstate(over="ignore"):
        for j in range(n - 1):
            size = 1 << j
            own, ahead = ahead[0], ahead[1:]
            np.add(cut[:size], own[::-1], out=cut[size:2 * size])  # j joins M
            cut[:size] += own  # j joins the other side
            grown = np.empty((n - 1 - j, 2 * size))
            grown[:, :size] = ahead
            np.add(ahead, w[j + 1:, j, None], out=grown[:, size:])
            ahead = grown
        cut += ahead[0]  # the last vertex is never in M
    return cut


class _RunningMin:
    """Minimum over batches of (ratio, key) candidates with distinct
    integer keys, where candidates within TIE_RTOL of the smallest ratio
    tie and the smallest key wins.

    The result does not depend on how the batches are cut: every candidate
    that could still win is kept, as a front sorted by key whose ratios
    fall as the keys rise (a candidate with a smaller key and a ratio as
    small always beats it). The front holds distinct doubles inside the
    window, so it stays short even when millions of sets tie.
    """

    def __init__(self):
        self.floor = math.inf
        self.ratios = np.empty(0)
        self.keys = np.empty(0, dtype=np.int64)

    def offer(self, ratios: np.ndarray, keys: np.ndarray) -> None:
        """Merge one batch; ratios[i] belongs to the candidate keys[i]. A
        NaN ratio, which no comparison can place, raises NotRepresentable
        (min gives NaN whenever a ratio is NaN)."""
        if ratios.size == 0:
            return
        low = float(ratios.min())
        if math.isnan(low):
            raise errors.NotRepresentable("a content ratio is NaN in double precision")
        self.floor = min(self.floor, low)
        cutoff = self.floor * (1.0 + TIE_RTOL)
        near = ratios <= cutoff
        if not near.any():  # the floor held and nothing new came near it
            return
        ratios = np.concatenate([self.ratios, ratios[near]])
        keys = np.concatenate([self.keys, keys[near]])
        near = ratios <= cutoff  # a lower floor can drop part of the front
        order = np.lexsort((ratios[near], keys[near]))
        ratios, keys = ratios[near][order], keys[near][order]
        # a candidate stays only if its ratio is below that of every
        # candidate with a smaller key; the smallest key always stays, so
        # ratios that all overflowed to inf still give a winner
        stays = np.concatenate(([True], ratios[1:] < np.minimum.accumulate(ratios[:-1])))
        self.ratios, self.keys = ratios[stays], keys[stays]

    @property
    def winner(self) -> Optional[tuple[float, int]]:
        """(ratio, key) of the winning candidate, or None if none came."""
        if not self.ratios.size:
            return None
        return float(self.ratios[0]), int(self.keys[0])


def _prefix_sums(fraction: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The prefix sums of the positive terms fraction * 2^exponent, with
    fraction <= 2, each as (mantissa, exponent) by np.frexp's rule.

    The sums run in order, times 2^shift, a power of two, which is exact:
    first at the shift that puts the first term in (0, 2]; where a term
    could take a sum to 2^1023 there, the sums that reach it are taken
    again, each at the shift that puts its own largest term near
    2^(1022 - n.bit_length()), which keeps it at most 2^1023 and far
    above the subnormals. So no scale of the terms, nor their spread,
    takes a sum out of the doubles.
    """
    n = len(fraction)
    shift = -exponent[0]
    if exponent.max() + shift < 1022 - n.bit_length():  # no sum reaches 2^1022
        mantissa, power = np.frexp(np.cumsum(np.ldexp(fraction, exponent + shift)))
        return mantissa, power - shift
    shift = np.full(n, shift)
    with np.errstate(over="ignore"):
        total = np.cumsum(np.ldexp(fraction, exponent + shift))
    high = ~(total < 2.0 ** 1023)
    # the high sums are a tail and the running largest exponent does not
    # fall, so the sums of one shift are a run [a, end), and no term up
    # to its end overflows there
    top = 1022 - n.bit_length() - np.maximum.accumulate(exponent)
    for t in np.unique(top[high]):
        run = np.flatnonzero(high & (top == t))
        a, end = run[0], run[-1] + 1
        shift[a:end] = t
        total[a:end] = np.cumsum(np.ldexp(fraction[:end], exponent[:end] + t))[a:]
    mantissa, power = np.frexp(total)
    return mantissa, power - shift


def hardy_path(path: WeightedGraph) -> ContentResult:
    """Tail-set scan of a path with boundary vertex 0.

    On a path the extremal set is always a tail {v_k, ..., v_N}, so the
    extremal resistance-mass product is max_k (sum_{i<=k} 1/kappa_i) *
    (sum_{i>=k} mu_i), found in one pass over prefix resistances and
    suffix masses. Ratios within TIE_RTOL tie and the shortest tail wins:
    the tails nest, so it is the one of smallest canonical key, the rule of
    dirichlet_content_exact.
    """
    if not is_canonical_path(path):
        raise errors.NotAPath("expected edges exactly (0,1), (1,2), ...")
    n = path.vertex_count
    if all(m == 0.0 for m in path.masses[1:]):
        raise errors.ZeroInteriorMass("every interior mass is zero")

    # entry k - 1 belongs to the tail {v_k, ..., v_N}, keyed by its length;
    # both sums run in order, the resistances by _prefix_sums, so no scale
    # of the weights, nor their spread, takes one out of the doubles. Each
    # ratio is formed on mantissas and scaled back. A tail of zero mass
    # scores inf; a ratio past the doubles is 0 or inf, which ContentResult
    # rejects.
    _u, _v, kappa = path.edge_arrays
    fraction, exponent = np.frexp(kappa)  # 1/kappa is 1/fraction * 2^-exponent
    resistance, rexp = _prefix_sums(1.0 / fraction, -exponent)
    suffix_mass, mexp = np.frexp(np.cumsum(path.masses[:0:-1])[::-1])
    with np.errstate(over="ignore", divide="ignore"):
        best = _RunningMin()
        best.offer(np.ldexp(1.0 / (resistance * suffix_mass), -rexp - mexp),
                   np.arange(n - 1, 0, -1))
    value, size = best.winner
    return ContentResult(value=value, witness_a=VertexSet.of(range(n - size, n)), witness_b=None)


def hardy_path_eigenvalue(masses, conductances,
                          start) -> Optional[tuple[float, float, float]]:
    """The smallest eigenvalue of the path on vertices 0..N with vertex 0
    pinned, masses[i] at vertex i (masses[0] never enters) and
    conductances[i - 1] on edge (i - 1, i), by inverse iteration from the
    potential `start` (start[0] never enters).

    With vertex 0 pinned, the inverse of L_PP is the Green's function
    G_ij = r_min(i, j), r_i = sum_{l <= i} 1/c_l, so a step y = G M x is
    the Hardy operator y_i = sum_{l <= i} (1/c_l) sum_{j >= l} m_j x_j: a
    reversed cumulative sum, a division by the conductances and a
    cumulative sum, each sum by _prefix_sums on mantissas and exponents.
    Every term is positive, so nothing cancels, and no scale of the
    weights leaves the doubles. For any x > 0 the Collatz-Wielandt ratios
    enclose the eigenvalue, min_i x_i / y_i <= lambda <= max_i x_i / y_i;
    the steps stop once they agree to PATH_SETTLE_RTOL, relative. A start
    near the ground state, such as the level values of a level-set
    quotient, settles in a few steps.

    Returns (value, lower, upper): the Rayleigh quotient of the last y,
    with the energy summed over the edges, and the enclosure of the last
    step, widened by (N + 1) eps each way: each ratio is rounded at most
    2N + 1 times by eps / 2, and the widening once more. None if the path
    has no edge, if a mass, conductance or start value is not positive
    and finite, if the ratios have not settled after PATH_MAX_STEPS steps
    (a near-degenerate path), or if a result is not a positive normal
    double. Raises LengthMismatch unless there are N + 1 masses, N
    conductances and N + 1 start values (`graph.check_path_lengths`, the
    rule of `graph.path_graph`).
    """
    check_path_lengths(conductances, masses, start)
    m = np.asarray(masses, dtype=float)[1:]
    c = np.asarray(conductances, dtype=float)
    x = np.asarray(start, dtype=float)[1:]
    given = np.concatenate((m, c, x))
    if not (c.size and 0.0 < given.min() <= given.max() < np.inf):
        return None
    fm, em = np.frexp(m)
    fc, ec = np.frexp(c)
    fx, ex = np.frexp(x)
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(PATH_MAX_STEPS):
            fs, es = _prefix_sums((fm * fx)[::-1], (em + ex)[::-1])
            fy, ey = _prefix_sums(fs[::-1] / fc, es[::-1] - ec)
            # the ratios x_i / y_i, each near lambda, at one power of two
            power = ex[-1] - ey[-1]
            ratio = np.ldexp(fx / fy, ex - ey - power)
            lower, upper = ratio.min(), ratio.max()
            fx, ex = fy, ey
            if upper - lower <= PATH_SETTLE_RTOL * lower:
                break
        else:
            return None
        # y's energy summed over the edges. Each difference is of two
        # neighbours of the rounded y at the upper one's power of two:
        # exact where they are within a factor of 2, else rounded once, so
        # the energy is that of the y whose norm is summed. (sum_i s_i^2 /
        # c_i from the suffix sums is the energy of G M x before y's
        # rounding, against the norm after it: 4.4 eps off the 50-digit
        # value on stiff_graph(35, 1e6, 1e6); this form stays in 2.1 eps.)
        fd = fy.copy()
        fd[1:] -= np.ldexp(fy[:-1], ey[:-1] - ey[1:])
        fd, ed = np.frexp(fd)
        value = _scaled_quotient((fc, ec), (fd, ed + ey), (fm, em), (fy, ey))
        widen = (len(c) + 1) * np.finfo(float).eps
        lower, upper = np.ldexp([lower * (1.0 - widen), upper * (1.0 + widen)], power).tolist()
    if not (_TINY <= min(value, lower) and max(value, upper) <= _LARGEST):
        return None
    return value, lower, upper


def _last_two(net: np.ndarray, key: np.ndarray, bits) -> tuple[np.ndarray, np.ndarray]:
    """The leaves below a stack of psi's networks with two vertices left
    (k = 4), or one (k = 3, a root), as (energy, key) with no network
    below the stack built: the last vertex's merges into A, then its
    eliminations, each over the first vertex's merges, then its
    eliminations. bits holds each vertex's key bit.

    With two vertices left a network has six entries: c between them,
    a1, s1 and a2, s2 from each to A and to S, and e between A and S.
    Merging the first into A leaves one vertex with r0 = a2 + c, r1 = s2
    and e' = e + s1; eliminating it adds kron_step's fills (x / d * (d /
    d)) * y, `kron_fill`, with the pivot d = (c + a1) + s1 in row order,
    to a2, s2 and e. A network with one vertex left has the three entries
    r0, r1 and e' itself. The last vertex then merges into A, e' + r1, or
    is eliminated, e' + kron_fill(r0, r1, r0 + r1). A pivot of 0 or inf
    gives NaN."""
    if len(net) == 3:
        r0, r1, e = net[0, 1], net[0, 2], net[1, 2]
        last = bits[0]
    else:
        c, a1, s1, a2, s2, e = net[0, 1], net[0, 2], net[0, 3], net[1, 2], net[1, 3], net[2, 3]
        d = (c + a1) + s1
        r0 = np.concatenate((a2 + c, a2 + kron_fill(c, a1, d)))
        r1 = np.concatenate((s2, s2 + kron_fill(c, s1, d)))
        e = np.concatenate((e + s1, e + kron_fill(a1, s1, d)))
        key, last = np.concatenate((key | bits[0], key)), bits[1]
    energy = np.concatenate((e + r1, e + kron_fill(r0, r1, r0 + r1)))
    return energy, np.concatenate((key | last, key))


def dirichlet_content_exact(graph: WeightedGraph, boundary: VertexSet) -> ContentResult:
    """Minimum of R(S,A)^{-1} / mu(A) over nonempty A disjoint from the
    boundary, by enumerating all subsets of the interior.

    The boundary is collapsed into one grounded node S, and the interior
    is taken in id order: each vertex merges into A or is eliminated. The
    full binary tree is walked depth first over stacks of partial
    networks that carry only their keys, as psi2's three-way tree in
    neumann_content_exact does. Each level builds both halves of a
    stack's children from one copy: in the first the vertex's row is
    added to A's row and column, in the second it is eliminated by
    kron_step. A stack whose children would exceed CHUNK_ENTRIES numbers
    is cut in half first, and the deferred half is copied. The last two
    vertices are scored in closed form by _last_two. At a leaf the
    reduced A-S conductance is the energy 1/R(S, A), and mu(A) is read
    from one table over the masks (_mass_by_mask), summed from the
    lowest bit up, the order the vertices are decided. Zero-mass
    subsets are skipped (their ratio is +inf). An energy that is not
    finite (an overflow, or a pivot of 0 or inf) raises NotRepresentable.
    Guarded at interior size 20.
    """
    inside = interior_of(graph, boundary)[None]
    interior = np.flatnonzero(inside[0])
    f = interior.size
    if f > DIRICHLET_ENUM_LIMIT:
        raise errors.TooLarge(f, DIRICHLET_ENUM_LIMIT)

    # Keys are masks of positions in the interior. The interior is sorted,
    # so they order sets as canonical keys do, and they fit an int64
    # whatever the vertex ids are. The terminals are A, then S.
    net = np.zeros((f + 2, f + 2))
    net[:f, :f] = graph.conductance_matrix[interior[:, None], interior]
    # W(v, S); an inf one poisons its energies
    net[:f, -1] = net[-1, :f] = conductance_to(graph, ~inside)[0, interior]
    bits = np.int64(1) << np.arange(f)
    best = _RunningMin()
    pending = [(net[:, :, None], np.zeros(1, dtype=np.int64))]
    with np.errstate(over="ignore", invalid="ignore"):
        mass = _mass_by_mask(graph.mass_vector[interior])
        while pending:
            net, key = pending.pop()
            k, _, m = net.shape
            if k <= 4:
                energy, key = _last_two(net, key, bits[f + 2 - k:])
                if not np.isfinite(energy).all():
                    raise errors.NotRepresentable(
                        "a reduced conductance overflowed in double precision")
                mu = mass[key]
                keep = mu > 0.0
                best.offer(energy[keep] / mu[keep], key[keep])
            elif m > 1 and 2 * m * (k - 1) ** 2 > CHUNK_ENTRIES:
                pending.append((net[..., m // 2:].copy(), key[m // 2:].copy()))
                pending.append((net[..., :m // 2], key[:m // 2]))
            else:
                row, rest = net[0, 1:], net[1:, 1:]
                out = np.concatenate((rest, rest), axis=2)
                merged = out[..., :m]
                merged[-2] += row
                merged[:, -2] += row
                kron_step(row, out[..., m:])
                pending.append((out, np.concatenate((key | bits[f + 2 - k], key))))
    winner = best.winner
    if winner is None:
        raise errors.ZeroInteriorMass("every interior subset has zero mass")
    value, key = winner
    witness = VertexSet.of(v for p, v in enumerate(interior) if int(key) >> p & 1)
    return ContentResult(value=value, witness_a=witness, witness_b=None)


def neumann_content_exact(graph: WeightedGraph) -> ContentResult:
    """Minimum of (mu(A)^{-1} + mu(B)^{-1}) / R(A,B) over disjoint nonempty
    pairs.

    Each unordered pair is scored once, oriented so that A has the smaller
    canonical key, which for disjoint sets means B holds the largest vertex
    of A u B. The vertices are taken from the highest id down, and each is
    eliminated or merges into A or B: the first vertex that is not
    eliminated goes to B, and A opens only once B is nonempty. The tree is
    walked depth first over stacks of partial networks that carry only
    their keys, (2, m) masks of A and B; a stack whose children would
    exceed CHUNK_ENTRIES numbers is cut in half first, and the deferred
    half is copied.

    Only a network whose decided vertices were all eliminated has B empty,
    so a stack holds at most one, and always first (the spine): children
    come in the order eliminated, merged into A, merged into B, and a cut
    keeps network 0 in the first half. Each level is one copy of the
    stack, sliced so that the spine gets no A child, nor an elimination
    unless two vertices would remain to fill both sides. The first part
    is eliminated by kron_step; a merge adds the vertex's row to the
    terminal's row and column. So no leaf has B
    empty: the last vertex is scored in closed form from three entries,
    r0 and r1 to A and B and e between them, as e + kron_fill(r0, r1, r0 +
    r1), e + r1 and e + r0, and the leaves with A empty are skipped. The
    energy is the reduced A-B conductance 1/R(A, B); mu(A) and mu(B) are
    read at the leaves from psi's and phi's table (_mass_by_mask), summed
    from the lowest bit up. An energy that is not finite (an overflow,
    or a pivot of 0 or inf) raises NotRepresentable. Guarded at n = 12.
    """
    n = graph.vertex_count
    if n > NEUMANN_ENUM_LIMIT:
        raise errors.TooLarge(n, NEUMANN_ENUM_LIMIT)
    if n < 2:
        raise errors.EmptySet("two-sided content needs two vertices")
    require_positive_mass(graph)

    # the vertices from the highest id down, then the terminals A and B, so
    # a network of k nodes decides vertex k - 3
    net = np.zeros((n + 2, n + 2))
    net[:n, :n] = graph.conductance_matrix[::-1, ::-1]
    best = _RunningMin()
    pending = [(net[:, :, None], np.zeros((2, 1), dtype=np.int64))]
    with np.errstate(over="ignore", invalid="ignore"):
        mass = _mass_by_mask(graph.mass_vector)
        while pending:
            net, key = pending.pop()
            k, _, m = net.shape
            if m > 1 and 3 * m * (k - 1) ** 2 > CHUNK_ENTRIES:
                pending.append((net[..., m // 2:].copy(), key[:, m // 2:].copy()))
                pending.append((net[..., :m // 2], key[:, :m // 2]))
                continue
            # network 0 is the spine if its B is empty: it gets no A child,
            # nor an elimination unless two vertices would remain after it,
            # so no leaf has B empty
            spine = int(key[1, 0] == 0)
            gone = spine if k <= 4 else 0
            # the children: eliminated, then merged into A from to_a, then
            # merged into B from to_b
            to_a, to_b = m - gone, 2 * m - gone - spine
            key = np.concatenate((key[:, gone:], key[:, spine:], key), axis=1)
            key[0, to_a:to_b] |= 1 << (k - 3)
            key[1, to_b:] |= 1 << (k - 3)
            if k == 3:
                r0, r1, e = net[0, 1], net[0, 2], net[1, 2]
                energy = np.concatenate((e + kron_fill(r0, r1, r0 + r1), e + r1, e + r0))
                if not np.isfinite(energy).all():
                    raise errors.NotRepresentable(
                        "a reduced conductance overflowed in double precision")
                keep = key[0] != 0
                key_a, key_b = key[:, keep]
                best.offer((1.0 / mass[key_a] + 1.0 / mass[key_b]) * energy[keep],
                           (key_a << n) | key_b)
            else:
                row, rest = net[0, 1:], net[1:, 1:]
                out = np.concatenate((rest[..., gone:], rest[..., spine:], rest), axis=2)
                kron_step(row[:, gone:], out[..., :to_a])
                into_a, into_b = out[..., to_a:to_b], out[..., to_b:]
                into_a[-2] += row[:, spine:]
                into_a[:, -2] += row[:, spine:]
                into_b[-1] += row
                into_b[:, -1] += row
                pending.append((out, key))
    value, key = best.winner  # n >= 2 always yields a pair
    key = int(key)
    return ContentResult(value=value, witness_a=VertexSet.from_mask(key >> n),
                         witness_b=VertexSet.from_mask(key & ((1 << n) - 1)))


def neumann_content_sweep(graph: WeightedGraph, x: np.ndarray) -> ContentResult:
    """Upper bound on the two-sided content from level sets of a potential
    x taking both strict signs, normally the fundamental eigenvector.

    For every threshold pair (t-, t+) among x's distinct values with
    t- < 0 <= t+, score the pair A = {x <= t-}, B = {x >= t+} and keep the
    best, with the same tie rule as the exact enumeration. Never below the
    exact value, often equal to it when x is the fundamental mode.

    In x order (a stable sort) every A is a prefix and every B a suffix.
    One network per A, stacked on the last axis as in the exact
    enumerations, starts with a terminal alpha holding A's rows, summed
    once in x order; the vertices after A are Kron-eliminated in x order
    (`resistance.kron_slots`, so nothing cancels), and before the first
    vertex of each nonnegative level the energy 1/R(A, B) is the sum, in
    row order, of alpha's reduced conductances to the vertices left,
    which are B. The stack is cut under CHUNK_ENTRIES numbers; no network
    reads another's numbers, so no cut changes a bit.
    """
    x = as_potential(graph, x)
    require_both_signs(x)
    n = graph.vertex_count
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    na = int(np.count_nonzero(xs[starts] < 0.0))
    # A_i is order[:a_size[i]], B_j is order[b_start[j]:]; B_0 follows the last A
    a_size, b_start = starts[1:na + 1], starts[na:]
    w = graph.conductance_matrix[order[:, None], order]
    nb = len(b_start)
    energies = np.empty((na, nb))
    lo = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while lo < na:
            first = int(a_size[lo])  # in every A of the chunk
            k = n - first + 1  # the vertices after it, then alpha
            hi = min(na, lo + max(1, CHUNK_ENTRIES // (k * k)))
            net = np.zeros((k, k, hi - lo))
            net[:-1, :-1] = w[first:, first:, None]
            # alpha holds A_i's rows, each row of A_i added in x order
            alpha = np.add.accumulate(w[:a_size[hi - 1], first:])[a_size[lo:hi] - 1]
            net[-1, :-1] = net[:-1, -1] = alpha.T
            # network i eliminates the vertices after A_i; its energy at B_j
            # is read once every vertex before B_j is eliminated
            done = 0
            for j, at in enumerate((b_start - first).tolist()):
                kron_slots(net, a_size[lo:hi] - first, done, at)
                energies[lo:hi, j] = np.add.accumulate(net[-1, at:-1])[-1]
                done = at
            lo = hi
    if not np.isfinite(energies).all():
        raise errors.NotRepresentable("a reduced conductance overflowed in double precision")
    mass = graph.mass_vector[order]
    mu_a = np.cumsum(mass)[a_size - 1]
    mu_b = np.cumsum(mass[::-1])[::-1][b_start]
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = (1.0 / mu_a[:, None] + 1.0 / mu_b[None, :]) * energies
    # A's sets grow and B's shrink along x, so their canonical keys rise
    # and fall with the index; a pair's key is its rank in the order of
    # (A's key, B's key)
    ranks = np.arange(na)[:, None] * nb + np.arange(nb - 1, -1, -1)
    best = _RunningMin()
    best.offer(ratios.ravel(), ranks.ravel())
    value, rank = best.winner  # x takes both signs, so a pair came
    i, j = divmod(rank, nb)
    return ContentResult(value=value, witness_a=VertexSet.of(order[:a_size[i]]),
                         witness_b=VertexSet.of(order[b_start[nb - 1 - j]:]))


def isoperimetric_exact(graph: WeightedGraph) -> ContentResult:
    """Minimum cut conductance over the lighter side's mass, over all
    bipartitions (vertex 0 fixed on the A side, so A's mask is odd).

    Every cut is read from one table of sums of conductances (see
    _cut_by_mask), every side's mass from one table of sums of masses
    (_mass_by_mask).
    The masks run in chunks of CHUNK_ENTRIES into the running minimum with
    the mask as key, so ratios within TIE_RTOL tie and the smallest mask
    wins. Guarded at n = 20.
    """
    n = graph.vertex_count
    if n > ISOPERIMETRIC_ENUM_LIMIT:
        raise errors.TooLarge(n, ISOPERIMETRIC_ENUM_LIMIT)
    if n < 2:
        raise errors.EmptySet("isoperimetric constant needs two vertices")
    require_positive_mass(graph)

    cut = _cut_by_mask(graph.conductance_matrix)
    mass = _mass_by_mask(graph.mass_vector)
    full = (1 << n) - 1
    best = _RunningMin()
    # the last odd mask below full is full - 2: full itself leaves B empty
    for start in range(1, full, 2 * CHUNK_ENTRIES):
        a = np.arange(start, min(start + 2 * CHUNK_ENTRIES, full), 2, dtype=np.int64)
        b = full ^ a
        # the cut is tabled on the side without the last vertex, the smaller
        # mask; each side's mass is read from the table: total - mu(A) would
        # cancel. A ratio past the doubles is inf and never wins.
        with np.errstate(over="ignore"):
            best.offer(cut[np.minimum(a, b)] / np.minimum(mass[a], mass[b]), a)
    value, key = best.winner  # n >= 2 always yields a cut
    return ContentResult(value=value, witness_a=VertexSet.from_mask(int(key)), witness_b=None)


def level_set_path(graph: WeightedGraph, boundary: VertexSet,
                   x: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    """Collapse the level sets of a nonnegative boundary-vanishing potential
    into a path, given as (masses, conductances, levels): the masses of
    its vertices, the conductance of each edge (i - 1, i), and each
    vertex's level value, as `path_graph` and `hardy_path_eigenvalue`
    take them. Nothing is validated, so a sum past the doubles is kept.

    Values are grouped into levels with relative tolerance 1e-9 * max|x|;
    an edge spanning several levels is cut into segments with conductance
    inversely proportional to each level gap (exactly the zero-mass edge
    split), and consecutive level classes are joined by the total
    conductance between them. The returned path has the level-0 class as
    vertex 0 and preserves the Dirichlet eigenvalue when x is the ground
    state of (graph, boundary).
    """
    x = as_potential(graph, x)
    n = graph.vertex_count
    on_boundary = np.flatnonzero(~interior_of(graph, boundary)).tolist()

    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        raise errors.ZeroVector("potential is identically zero")
    tol = LEVEL_GROUP_RTOL * scale
    for v in on_boundary:
        if abs(x[v]) > tol:
            raise errors.BoundaryNotZero(f"x[{v}] = {x[v]!r} on the boundary")

    has_pos = bool(np.any(x > tol))
    has_neg = bool(np.any(x < -tol))
    if has_pos and has_neg:
        raise errors.MixedSigns("potential takes both signs beyond tolerance")
    if has_neg:
        x = -x
    y = np.where(np.abs(x) <= tol, 0.0, x)

    # group sorted distinct values into levels; representative = group minimum
    levels: list[float] = []
    group_of: dict[float, int] = {}
    for val in sorted(set(float(v) for v in y)):
        if not levels or val - levels[-1] > tol:
            levels.append(val)
        group_of[val] = len(levels) - 1
    level_of = [group_of[float(v)] for v in y]

    nlev = len(levels)
    mu_t = [0.0] * nlev
    for v in range(n):
        mu_t[level_of[v]] += graph.masses[v]
    kappa_t = [0.0] * nlev
    for (u, v, k) in graph.edges:
        i, j = level_of[u], level_of[v]
        if i == j:
            continue
        if i > j:
            i, j = j, i
        if j == i + 1:
            kappa_t[j] += k
        else:
            span = levels[j] - levels[i]
            for m in range(i + 1, j + 1):
                kappa_t[m] += k * span / (levels[m] - levels[m - 1])
    return mu_t, kappa_t[1:], levels


def level_set_quotient(graph: WeightedGraph, boundary: VertexSet,
                       x: np.ndarray) -> tuple[WeightedGraph, list[float]]:
    """The path of `level_set_path` as a graph (which validates it), and
    its level values."""
    masses, conductances, levels = level_set_path(graph, boundary, x)
    return path_graph(masses, conductances), levels

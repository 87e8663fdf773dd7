"""Timing calibration: a fixed reference kernel and the arithmetic that
turns raw wall times into calibrated ones.

The machine this benchmark runs on is shared, and its raw speed drifts by
up to 2x within minutes. The reference kernel is timed between consecutive
operations; each operation's wall time is divided by the mean of the two
reference times around it and multiplied by NOMINAL_REF_MS, so a uniform
slow-down of the machine cancels out. The kernel never imports the library
under test: a change to the library cannot change the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's time in the machine's slow state when the benchmark
# was written. It only fixes the scale of the calibrated unit; changing it
# would make every calibrated figure incomparable with earlier ones, so it
# never changes.
NOMINAL_REF_MS = 4.0

# Fewer samples than this and a run reports no tail percentile.
TAIL_MIN_SAMPLES = 40
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

_ORDER = 9
_SUBSETS = 24


def _reference_laplacian() -> np.ndarray:
    """Fixed Laplacian of a weighted path plus one chord, built from
    integers only."""
    lap = np.zeros((_ORDER, _ORDER))
    edges = [(i, i + 1, 1.0 + i % 3) for i in range(_ORDER - 1)] + [(0, _ORDER - 1, 2.0)]
    for (u, v, k) in edges:
        lap[u, u] += k
        lap[v, v] += k
        lap[u, v] -= k
        lap[v, u] -= k
    return lap


_LAPLACIAN = _reference_laplacian()


def reference_kernel() -> float:
    """The yardstick: a miniature of the library's hot loop, written
    independently of it. For a fixed run of vertex subsets it builds the
    index sets, gathers the free block with np.ix_, checks its symmetry,
    solves it with a row-wise Cholesky factor and two triangular solves
    over small numpy rows, and formats the energy. This is the same mix of
    interpreter dispatch, small allocations and tiny numpy calls that
    dominates the library's cost, so a change in the machine's speed moves
    both alike. Returns a checksum so no work is skipped."""
    lap, n = _LAPLACIAN, _ORDER
    total = 0.0
    for mask in range(1, _SUBSETS + 1):
        ones = tuple(sorted(set(v for v in range(n) if mask >> v & 1)))
        grounded = np.array([n - 1])
        outside = np.ones(n, dtype=bool)
        outside[list(ones)] = False
        outside[grounded] = False
        free = np.flatnonzero(outside)
        a = lap[np.ix_(free, free)]
        if not np.array_equal(a, a.T):
            raise ArithmeticError("reference matrix lost its symmetry")
        b = -lap[np.ix_(free, np.array(ones))].sum(axis=1)
        m = free.size
        ell = np.zeros_like(a)
        for j in range(m):
            d = np.sqrt(a[j, j] - ell[j, :j] @ ell[j, :j])
            ell[j, j] = d
            ell[j + 1:, j] = (a[j + 1:, j] - ell[j + 1:, :j] @ ell[j, :j]) / d
        y = np.empty(m)
        for i in range(m):
            y[i] = (b[i] - ell[i, :i] @ y[:i]) / ell[i, i]
        x = np.zeros(n)
        x[list(ones)] = 1.0
        for i in range(m - 1, -1, -1):
            y[i] = (y[i] - ell[i + 1:, i] @ y[i + 1:]) / ell[i, i]
        x[free] = y
        total += len(format(float(x @ (lap @ x)), ".17g"))
    return total


def time_reference() -> float:
    """One timed run of the reference kernel, in ms."""
    t0 = time.perf_counter()
    reference_kernel()
    return (time.perf_counter() - t0) * 1000.0


def calibrate(raw: float, ref_before_ms: float, ref_after_ms: float,
              nominal_ms: float = NOMINAL_REF_MS) -> float:
    """Scale a raw time by nominal / mean(reference before, after). The
    result is in the raw time's unit."""
    return raw * nominal_ms / ((ref_before_ms + ref_after_ms) / 2.0)


def tail_rank(count: int) -> tuple[int, float] | None:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    the 0-based index into the ascending sample and the percentile it
    stands for. None below TAIL_MIN_SAMPLES samples."""
    if count < TAIL_MIN_SAMPLES:
        return None
    index = count - TAIL_BEYOND - 1
    return index, 100.0 * (index + 1) / count


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median), the
    quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med

"""Deterministic pseudo-random numbers for graph generation and the
verification suites.

The generator is xorshift64* (Vigna's variant of Marsaglia's xorshift):

    state ^= state >> 12
    state ^= (state << 25) & 2**64-1
    state ^= state >> 27
    output = (state * 0x2545F4914F6CDD1D) mod 2**64

A zero seed is replaced by a fixed odd constant since xorshift requires a
nonzero state. Uniform doubles take the top 53 bits of the output, so every
draw is exactly reproducible from the seed alone, independent of platform
or library versions. All consumers document the order in which they draw;
`words` reads a run of outputs at once: the verification suites read all
of a run's draws, the pinch suite's potentials and `ressum`'s samples,
in one call (see `suite._draws`).

The state update is linear over GF(2): the state t steps after s is the
XOR, over the set bits j of s, of the state t steps after 1 << j. So the
stream is made a block of BLOCK outputs at a time from a jump table of
those states (built on the first draw, the one place the recurrence
runs), and every draw reads the next outputs of the current block.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_MULT = np.uint64(0x2545F4914F6CDD1D)
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15
_SHIFTS = np.arange(64, dtype=np.uint64)

# outputs per block; the jump table is 64 x BLOCK words (128 KB)
BLOCK = 256


@functools.cache
def _jump_table() -> np.ndarray:
    """(64, BLOCK) uint64, read-only: row j holds the BLOCK states that
    follow the state 1 << j, in order."""
    state = np.uint64(1) << np.arange(64, dtype=np.uint64)
    table = np.empty((64, BLOCK), dtype=np.uint64)
    for t in range(BLOCK):
        state ^= state >> np.uint64(12)
        state ^= state << np.uint64(25)
        state ^= state >> np.uint64(27)
        table[:, t] = state
    table.flags.writeable = False
    return table


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Uniform doubles in [0, 1), each the top 53 bits of one output."""
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def irwin_hall(words: np.ndarray) -> np.ndarray:
    """One value per 12 outputs along the last axis: the sum of their
    uniforms in order, minus 6. Mean 0, variance 1, no transcendental
    functions."""
    # accumulate adds strictly left to right (a reduce may pair terms)
    return np.add.accumulate(_uniforms(words), axis=-1)[..., -1] - 6.0


class Xorshift64Star:
    """64-bit xorshift* stream. Not cryptographic; statistical quality is
    ample for test-instance generation. Four draws read it: `words` (raw
    outputs, which `irwin_hall` turns into gaussian-like values), `below`,
    `uniform` and `uniform_in`. A shallow copy is an independent stream at
    the same point (no array it holds is ever written)."""

    def __init__(self, seed: int):
        # the state after the last output made so far, and the outputs made
        # but not yet read: self._out[self._pos:]
        self._state = (seed & _MASK64) or _ZERO_SEED_REPLACEMENT
        self._out = np.empty(0, dtype=np.uint64)
        self._pos = 0

    def _block(self) -> np.ndarray:
        """The next BLOCK outputs after self._state, which moves past them."""
        bits = np.uint64(self._state) >> _SHIFTS & np.uint64(1)
        states = np.bitwise_xor.reduce(_jump_table()[bits.astype(bool)], axis=0)
        self._state = int(states[-1])
        return states * _MULT

    def words(self, count: int) -> np.ndarray:
        """The next `count` outputs, as a uint64 array not to be written."""
        short = count - (len(self._out) - self._pos)
        if short > 0:
            self._out = np.concatenate(
                [self._out[self._pos:], *(self._block() for _ in range(-(-short // BLOCK)))])
            self._pos = 0
        self._pos += count
        return self._out[self._pos - count:self._pos]

    def uniform(self) -> float:
        """Double in [0, 1) from the top 53 bits."""
        return float(_uniforms(self.words(1))[0])

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def below(self, n: int) -> int:
        """Integer in [0, n): w words, w the fewest that hold n - 1 (one
        word for every n <= 2**64), read most significant first as one
        64w-bit integer, then taken modulo n. The bias is immaterial here,
        and the mapping stays identical across implementations."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        x = 0
        for word in self.words(max(1, -(-(n - 1).bit_length() // 64))).tolist():
            x = (x << 64) | word
        return x % n

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
or library versions. All consumers document the order in which they draw.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """64-bit xorshift* stream. Not cryptographic; statistical quality is
    ample for test-instance generation."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        if self._state == 0:
            self._state = _ZERO_SEED_REPLACEMENT

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self._state = s
        return (s * _MULT) & _MASK64

    def uniform(self) -> float:
        """Double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def below(self, n: int) -> int:
        """Integer in [0, n): w words, w the fewest that hold n - 1 (one
        word for every n <= 2**64), read most significant first as one
        64w-bit integer, then taken modulo n. The bias is immaterial here,
        and the mapping stays identical across implementations."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        x = self.next_u64()
        for _ in range(((n - 1).bit_length() - 1) // 64):
            x = (x << 64) | self.next_u64()
        return x % n

    def gaussian_like(self) -> float:
        """Irwin-Hall approximation: sum of 12 uniforms minus 6. Mean 0,
        variance 1, no transcendental functions. The twelve steps of
        next_u64 and uniform run inline, summed in draw order."""
        s = self._state
        total = 0.0
        for _ in range(12):
            s ^= s >> 12
            s = (s ^ (s << 25)) & _MASK64
            s ^= s >> 27
            total += (((s * _MULT) & _MASK64) >> 11) * 2.0**-53
        self._state = s
        return total - 6.0

    def sample_without_replacement(self, population: list[int], k: int) -> list[int]:
        """k distinct elements, drawn by repeated index selection from the
        shrinking pool (pool order preserved between draws)."""
        if k > len(population):
            raise ValueError("sample larger than population")
        pool = list(population)
        picked = []
        for _ in range(k):
            picked.append(pool.pop(self.below(len(pool))))
        return picked

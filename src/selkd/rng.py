"""Portable PRNG for everything that must reproduce byte-identically.

The generator is xorshift64* (Marsaglia xorshift with a finalizing
multiply, Vigna's variant): state update

    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27

followed by output ``x * 0x2545F4914F6CDD1D`` modulo 2**64. Seeds are
expanded through one round of splitmix64 so that small consecutive seeds
give unrelated streams and a zero seed yields a nonzero state. Everything
is plain Python integer arithmetic masked to 64 bits, so streams are
identical across platforms and numpy versions.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Rng:
    """Deterministic xorshift64* stream seeded by any integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        state = _splitmix64(seed & _MASK64)
        if state == 0:
            state = _SPLITMIX_GAMMA
        self._state = state

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * _XORSHIFT_MULT) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, n: int) -> int:
        """Uniform int in [0, n). Rejection sampling keeps it unbiased."""
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def categorical(self, probs) -> int:
        """Sample an index from a probability vector (cumulative walk)."""
        r = self.random()
        acc = 0.0
        for i, p in enumerate(probs):
            acc += p
            if r < acc:
                return i
        return len(probs) - 1

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

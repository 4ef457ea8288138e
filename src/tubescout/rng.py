"""Deterministic pseudo-random number generation.

Every stochastic feature in the package (tube map generation, seed
germination trials) draws from the same small generator so results are
reproducible bit-for-bit across runs, platforms and Python versions.
The generator is xoshiro256** with its 256-bit state expanded from a
64-bit seed by the splitmix64 mixer. Subsystems that must not interfere
with each other use distinct stream ids on top of the same user seed.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_STREAM_GAMMA = 0xD2B74407B1CE6E93

# Stream ids reserved by the package.
TUBE_STREAM = 0
GERMINATION_STREAM = 1


def _mix64(z: int) -> int:
    """splitmix64 output mixer; a bijection on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def derive_seed(seed: int, label: int) -> int:
    """Derive an independent child seed, e.g. one per tube index."""
    return _mix64((seed + (label + 1) * _SPLITMIX_GAMMA) & _MASK64)


class Rng:
    """xoshiro256** generator seeded via splitmix64.

    Args:
        seed: any integer; only the low 64 bits matter.
        stream: decorrelated sub-stream id for the same seed.
    """

    def __init__(self, seed: int, stream: int = 0):
        sm = (seed + stream * _STREAM_GAMMA) & _MASK64
        state = []
        for _ in range(4):
            sm = (sm + _SPLITMIX_GAMMA) & _MASK64
            state.append(_mix64(sm))
        if not any(state):  # all-zero state is the one forbidden fixpoint
            state[0] = _SPLITMIX_GAMMA
        self._s = state

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias. A draw joins
        as many 64-bit outputs as ``n - 1`` needs, one for n <= 2**64."""
        if n <= 0:
            raise ValueError(f"upper bound must be positive, got {n}")
        words = max(1, ((n - 1).bit_length() + 63) // 64)
        span = 1 << (64 * words)
        threshold = span - span % n
        while True:
            draw = 0
            for _ in range(words):
                draw = (draw << 64) | self.next_u64()
            if draw < threshold:
                return draw % n

    def chance(self, p: float) -> bool:
        """One Bernoulli(p) draw."""
        return self.random() < p

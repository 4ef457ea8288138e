"""Deterministic pseudo-random number generation.

Every stochastic feature in the package (tube map generation, seed
germination trials) draws from the same small generator so results are
reproducible bit-for-bit across runs, platforms and Python versions.
The generator is xoshiro256** with its 256-bit state expanded from a
64-bit seed by the splitmix64 mixer. Subsystems that must not interfere
with each other use distinct stream ids on top of the same user seed.
"""

from __future__ import annotations

import functools

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

    def words(self, k: int) -> list[int]:
        """Step the generator ``k`` times and return the ``s[1]`` word
        before each step, the word the ``**`` output scrambles."""
        s0, s1, s2, s3 = self._s
        out = []
        append = out.append
        for _ in range(k):
            append(s1)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s[:] = s0, s1, s2, s3
        return out

    def next_u64(self) -> int:
        (word,) = self.words(1)
        return (_rotl((word * 5) & _MASK64, 7) * 9) & _MASK64

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


#: Characteristic polynomial of the xoshiro256 state update, bit i the
#: coefficient of x**i. Every bit of the ``s[1]`` word sequence, and so
#: the words themselves under XOR, satisfy the recurrence it gives.
_CHAR_POLY = 0x10003C03C3F3ECB1904B4EDCF26259F850280002BCEFD1A5E9D116F2BB0F0F001
#: Draws stepped by ``Rng`` before ``chance_blocks`` jumps. A jump of m
#: words, w[k + m] = XOR of w[k + i] over the bits i of x**m mod
#: _CHAR_POLY, reads 256 words and so turns a prefix of L >= m words
#: into one of L + m - 255.
_HEAD = 384
#: The longest jump, and the words ``chance_blocks`` keeps once its prefix
#: has grown past them: its window holds at most 2 * _WINDOW - 255 words.
_WINDOW = 2048


@functools.cache
def _jump_taps(m: int) -> tuple[int, ...]:
    """The set bits of x**m mod _CHAR_POLY, lowest first."""
    q = 1
    for _ in range(m):
        q <<= 1
        if q >> 256:
            q ^= _CHAR_POLY
    return tuple(i for i in range(256) if q >> i & 1)


@functools.cache
def _jump_plan(m: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The taps of a jump of m words as (d, paired, single): i and i + d
    are taps for each i in paired, and single holds the other taps. A
    pair is one slice of the sums w[j] ^ w[j + d], and d is the distance
    most taps lie apart, so a jump XORs about 80 slices, not about 120."""
    taps = _jump_taps(m)
    mask = sum(1 << i for i in taps)
    d = max(range(1, 256), key=lambda d: (mask & mask >> d).bit_count())
    paired, single = [], set(taps)
    for i in taps:
        if i in single and i + d in single:
            single -= {i, i + d}
            paired.append(i)
    return d, tuple(paired), tuple(sorted(single))


def chance_blocks(rng: Rng, n: int, p: float):
    """Yield the next ``n`` ``rng.chance(p)`` draws as boolean numpy
    blocks, in order, bit for bit as the scalar loop would draw them.

    The ``**`` output reads only ``s[1]``. ``Rng.words`` steps the first
    ``_HEAD`` draws and returns ``s[1]`` before each. Every later word
    comes in numpy ``uint64`` XORs from a jump as long as the known
    words, up to ``_WINDOW``, so the prefix grows 384 -> 513 -> 771 ->
    1287 -> 2319 words; from there each jump of ``_WINDOW`` adds
    ``_WINDOW - 255`` words to a window of the last ``_WINDOW``: jump
    ahead for F2-linear generators (Haramoto et al., INFORMS J. Computing
    2008), with its taps paired as ``_jump_plan`` gives them. The window
    holds no more words than the draws need. The words are scrambled and
    compared with ``p`` as float64, as ``Rng.random`` and ``Rng.chance``
    do, and each block is a fresh array.

    ``rng`` is left past its head draws only, not past all ``n``, so a
    caller must not draw from it afterwards.
    """
    import numpy as np
    known = min(n, _HEAD)
    size = min(2 * _WINDOW - 255, max(n, _HEAD))
    window = np.empty(size, dtype=np.uint64)
    sums = np.empty(min(size, _WINDOW), dtype=np.uint64)  # window[j] ^ window[j + d]
    window[:known] = rng.words(known)

    def chances(w: np.ndarray) -> np.ndarray:
        out = w * np.uint64(5)
        out = (out << np.uint64(7)) | (out >> np.uint64(57))
        out *= np.uint64(9)
        out >>= np.uint64(11)
        return out.astype(np.float64) * 2.0 ** -53 < p

    yield chances(window[:known])
    done, jump = known, None
    while done < n:
        block = min(known - 255, n - done)
        if jump != (known, block):  # views for a new jump or the last words
            jump = known, block
            d, paired, single = _jump_plan(known)
            pair = window[:known - d], window[d:known], sums[:known - d]
            new = window[known:known + block]
            first, *rest = ([sums[i:i + block] for i in paired]
                            + [window[i:i + block] for i in single])
        np.bitwise_xor(*pair)
        np.copyto(new, first)
        for source in rest:
            new ^= source
        yield chances(new)
        done += block
        known += block
        if known > _WINDOW:
            window[:_WINDOW] = window[known - _WINDOW:known]
            known = _WINDOW


def chance_count(seed: int, stream: int, n: int, p: float) -> int:
    """How many of ``n`` successive ``Rng(seed, stream).chance(p)`` draws
    come out true, bit for bit as the scalar loop would count them: the
    sum over ``chance_blocks``."""
    import numpy as np
    return sum(int(np.count_nonzero(block))
               for block in chance_blocks(Rng(seed, stream), n, p))

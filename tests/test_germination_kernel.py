"""The germination kernel, ``rng.chance_count``, against the scalar
``Rng``: the pinned characteristic polynomial re-derived from the
generator's own output, the word recurrences it gives, a differential
grid around every block edge, the largest allowed trial and a memory
bound that does not grow with the number of draws."""

import math
import tracemalloc

import pytest

from tubescout.mission import MAX_GERMINATION_SEEDS, germination_trial
from tubescout.rng import (_CHAR_POLY, _HEAD, GERMINATION_STREAM, TUBE_STREAM,
                           Rng, _jump_taps, chance_count)

BLOCK = _HEAD - 255
SEEDS = (0, 1, 2**64 - 1)


def s1_words(seed: int, stream: int, n: int) -> list[int]:
    """``s[1]`` before each of ``n`` steps of ``Rng(seed, stream)``."""
    rng = Rng(seed, stream)
    words = []
    for _ in range(n):
        words.append(rng._s[1])
        rng.next_u64()
    return words


def berlekamp_massey(bits: list[int]) -> int:
    """The shortest linear recurrence of a GF(2) sequence, as its
    characteristic polynomial with bit i the coefficient of x**i."""
    c, b, length, shift = 1, 1, 0, 1
    for n, bit in enumerate(bits):
        for j in range(1, length + 1):
            bit ^= (c >> j) & bits[n - j]
        if not bit:
            shift += 1
        elif 2 * length <= n:
            c, b = c ^ (b << shift), c
            length, shift = n + 1 - length, 1
        else:
            c ^= b << shift
            shift += 1
    return sum((c >> j & 1) << (length - j) for j in range(length + 1))


def poly_taps(poly: int) -> list[int]:
    return [i for i in range(poly.bit_length() - 1) if poly >> i & 1]


@pytest.mark.parametrize("bit", [0, 17, 63])
def test_berlekamp_massey_finds_the_pinned_polynomial(bit):
    words = s1_words(5, GERMINATION_STREAM, 600)
    poly = berlekamp_massey([w >> bit & 1 for w in words])
    assert poly.bit_length() - 1 == 256
    assert poly == _CHAR_POLY


def test_jump_taps_are_x_to_the_head_mod_p():
    # Square-and-multiply, independent of the kernel's shift loop.
    def mulmod(a, b):
        product = 0
        while b:
            if b & 1:
                product ^= a
            a, b = a << 1, b >> 1
        for i in range(product.bit_length() - 1, 255, -1):
            if product >> i & 1:
                product ^= _CHAR_POLY << (i - 256)
        return product

    q, base, e = 1, 2, _HEAD
    while e:
        if e & 1:
            q = mulmod(q, base)
        base, e = mulmod(base, base), e >> 1
    assert _jump_taps() == tuple(poly_taps(q | 1 << 256))
    assert len(_jump_taps()) == 124


@pytest.mark.parametrize("stream", [TUBE_STREAM, GERMINATION_STREAM])
@pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
def test_word_recurrences_hold_on_s1(seed, stream):
    words = s1_words(seed, stream, _HEAD + 300)
    for distance, taps in ((256, poly_taps(_CHAR_POLY)), (_HEAD, _jump_taps())):
        for k in range(0, len(words) - distance, 37):
            acc = 0
            for i in taps:
                acc ^= words[k + i]
            assert acc == words[k + distance], (distance, k)


NS = (0, 1, 255, 256, 257, _HEAD - 1, _HEAD, _HEAD + 1, _HEAD + BLOCK - 1,
      _HEAD + BLOCK, _HEAD + BLOCK + 1, 10_000)
PS = (0.0, 5e-324, 0.5, 0.7, math.nextafter(0.7, 1.0), 1.0 - 2.0**-53, 1.0)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("p", PS)
def test_chance_count_matches_the_scalar_loop(seed, p):
    rng = Rng(seed, GERMINATION_STREAM)
    prefix = [0]
    for _ in range(max(NS)):
        prefix.append(prefix[-1] + rng.chance(p))
    for n in NS:
        assert chance_count(seed, GERMINATION_STREAM, n, p) == prefix[n], n


@pytest.mark.parametrize("index", [3, _HEAD + 5, _HEAD + BLOCK + 5])
def test_a_draw_equal_to_p_does_not_count(index):
    """``chance`` is ``random() < p``: a draw equal to ``p`` is a miss,
    in the scalar head and in either jump block."""
    rng = Rng(11, GERMINATION_STREAM)
    draws = [rng.random() for _ in range(_HEAD + 2 * BLOCK)]
    p = draws[index]
    assert chance_count(11, GERMINATION_STREAM, len(draws), p) \
        == sum(draw < p for draw in draws)


def test_the_largest_trial_matches_the_scalar_loop():
    rng = Rng(3, GERMINATION_STREAM)
    expect = sum(1 for _ in range(MAX_GERMINATION_SEEDS) if rng.chance(0.7))
    assert germination_trial(MAX_GERMINATION_SEEDS, 0.7, 3).germinated == expect


def test_memory_does_not_grow_with_the_draws():
    def peak(n):
        germination_trial(n, 0.7, 1)  # warm: the taps are cached
        tracemalloc.start()
        try:
            germination_trial(n, 0.7, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10_000) == peak(MAX_GERMINATION_SEEDS)

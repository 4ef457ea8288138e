"""The germination kernel, ``rng.chance_count``, against the scalar
``Rng``: the pinned characteristic polynomial re-derived from the
generator's own output, the word recurrences it gives, the chain of
jumps that grows the known prefix and the pairing of their taps, a
differential grid around every growth and block edge, the blocks of
``rng.chance_blocks`` draw for draw on both streams, the largest
allowed trial, a memory bound that does not grow with the number of
draws and a window no larger than a small draw needs."""

import math

import numpy as np
import pytest

from tubescout import rng as rng_module
from tubescout.mission import MAX_GERMINATION_SEEDS, germination_trial
from tubescout.rng import (_CHAR_POLY, _HEAD, _WINDOW, GERMINATION_STREAM,
                           TUBE_STREAM, Rng, _jump_plan, _jump_taps,
                           chance_blocks, chance_count)

from peak_memory import peak_bytes, settled_peaks

#: The lengths of the known prefix: ``Rng`` steps the first, and each
#: jump as long as the prefix adds that length less 255 words, until the
#: prefix is longer than ``_WINDOW``.
GROWTH = (384, 513, 771, 1287, 2319)
#: The jump lengths the kernel uses, and their number of taps.
JUMPS = {384: 110, 513: 123, 771: 130, 1287: 127, _WINDOW: 121}
#: Words each jump of ``_WINDOW`` adds once the prefix has grown.
BLOCK = _WINDOW - 255
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


def test_the_prefix_grows_by_doubling_jumps(monkeypatch):
    assert GROWTH[0] == _HEAD and _WINDOW == 2048
    for before, after in zip(GROWTH, GROWTH[1:]):
        assert before <= _WINDOW and after == before + before - 255
    assert GROWTH[-1] > _WINDOW
    taken = []
    monkeypatch.setattr(rng_module, "_jump_plan",
                        lambda m: taken.append(m) or _jump_plan(m))
    chance_count(1, GERMINATION_STREAM, 10_000, 0.5)
    assert list(dict.fromkeys(taken)) == list(JUMPS)


@pytest.mark.parametrize("m", JUMPS)
def test_jump_taps_are_x_to_the_m_mod_p(m):
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

    q, base, e = 1, 2, m
    while e:
        if e & 1:
            q = mulmod(q, base)
        base, e = mulmod(base, base), e >> 1
    assert _jump_taps(m) == tuple(poly_taps(q | 1 << 256))
    assert len(_jump_taps(m)) == JUMPS[m]


@pytest.mark.parametrize("m", JUMPS)
def test_jump_plan_pairs_up_the_taps(m):
    d, paired, single = _jump_plan(m)
    taps = _jump_taps(m)
    assert sorted([*paired, *(i + d for i in paired), *single]) == list(taps)
    assert len(paired) + len(single) < 0.7 * len(taps)


@pytest.mark.parametrize("stream", [TUBE_STREAM, GERMINATION_STREAM])
@pytest.mark.parametrize("seed", [0, 7, 42, 2**64 - 1])
def test_word_recurrences_hold_on_s1(seed, stream):
    words = s1_words(seed, stream, _WINDOW + 300)
    for distance, taps in ((256, poly_taps(_CHAR_POLY)),
                           *((m, _jump_taps(m)) for m in JUMPS)):
        for k in range(0, len(words) - distance, 37):
            acc = 0
            for i in taps:
                acc ^= words[k + i]
            assert acc == words[k + distance], (distance, k)


#: Around every prefix length, ``_WINDOW`` and the first two rolling
#: block edges, and 1023-1025 and 1792-1794 inside the last two growth
#: jumps.
NS = (0, 1, 255, 256, 257,
      *(edge + d for edge in (*GROWTH, _WINDOW, GROWTH[-1] + BLOCK,
                              GROWTH[-1] + 2 * BLOCK) for d in (-1, 0, 1)),
      1023, 1024, 1025, 1792, 1793, 1794, 10_000)
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


#: Draw counts within one of no draws, of the 256 words a jump reads, of
#: every prefix length (the first is the scalar head) and of the end of
#: the first rolling block.
EDGE_NS = sorted({max(0, edge + d) for edge in (0, 256, *GROWTH, GROWTH[-1] + BLOCK)
                  for d in (-1, 0, 1)})


def drawn_p(seed: int, stream: int, which: str) -> float:
    """A p at which the integer bound must be exact: ``"at"`` a draw whose
    scrambled word has its low 11 bits clear, so that the word is the
    bound itself, or ``"above"`` a draw below 0.5, by one ulp, which is
    not a multiple of 2**-53."""
    rng = Rng(seed, stream)
    for _ in range(EDGE_NS[-1]):
        x = rng.next_u64()
        draw = (x >> 11) * 2.0**-53
        if which == "at" and x & 2047 == 0:
            return draw
        if which == "above" and 0.0 < draw < 0.5:
            return math.nextafter(draw, 1.0)
    raise AssertionError(f"no draw of seed {seed} suits {which!r}")


@pytest.mark.parametrize("stream", [TUBE_STREAM, GERMINATION_STREAM])
@pytest.mark.parametrize("seed", [2, 9])
@pytest.mark.parametrize("p", [0.0, 5e-324, 2.0**-53, 0.5, 0.7, 1.0 - 2.0**-53,
                               1.0, "at", "above"])
def test_chance_blocks_are_the_scalar_draws(stream, seed, p):
    """The concatenated blocks are ``Rng.chance`` draw for draw, at every
    draw count one either side of a head or jump edge."""
    if isinstance(p, str):
        p = drawn_p(seed, stream, p)
    rng = Rng(seed, stream)
    expect = np.array([rng.chance(p) for _ in range(EDGE_NS[-1])])
    for n in EDGE_NS:
        blocks = list(chance_blocks(Rng(seed, stream), n, p))
        assert all(block.dtype == bool for block in blocks)
        assert np.array_equal(np.concatenate(blocks), expect[:n]), (n, p)


@pytest.mark.parametrize("index", [3, GROWTH[2] + 5, GROWTH[-1] + BLOCK + 5])
def test_a_draw_equal_to_p_does_not_count(index):
    """``chance`` is ``random() < p``: a draw equal to ``p`` is a miss,
    in the scalar head, in a growth jump and in a rolling block."""
    rng = Rng(11, GERMINATION_STREAM)
    draws = [rng.random() for _ in range(GROWTH[-1] + 2 * BLOCK)]
    p = draws[index]
    assert chance_count(11, GERMINATION_STREAM, len(draws), p) \
        == sum(draw < p for draw in draws)


def test_the_largest_trial_matches_the_scalar_loop():
    rng = Rng(3, GERMINATION_STREAM)
    expect = sum(1 for _ in range(MAX_GERMINATION_SEEDS) if rng.chance(0.7))
    assert germination_trial(MAX_GERMINATION_SEEDS, 0.7, 3).germinated == expect


def test_memory_does_not_grow_with_the_draws():
    """Both sizes are drawn until their peaks settle before either is
    compared, so the peaks do not depend on what an earlier test left
    warm: the test passes alone and in file order."""
    small, large = settled_peaks(
        *(lambda n=n: germination_trial(n, 0.7, 1)
          for n in (10_000, MAX_GERMINATION_SEEDS)))
    assert small == large


def test_a_small_draw_sizes_its_window_to_the_draws():
    """100 draws keep a window of ``_HEAD`` words, not of
    ``2 * _WINDOW - 255``."""
    _, peak = peak_bytes(lambda: chance_count(1, GERMINATION_STREAM, 100, 0.7))
    assert peak < 24 * 1024

"""Determinism and distribution checks for the project PRNG."""

import pytest

from tubescout import rng as rng_module
from tubescout.rng import GERMINATION_STREAM, TUBE_STREAM, Rng, derive_seed

_MASK64 = (1 << 64) - 1


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK64


def reference_next_u64(s):
    """One xoshiro256** step on the state list ``s``, indexed in place,
    as ``Rng.next_u64`` stepped before ``Rng.words``."""
    result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
    t = (s[1] << 17) & _MASK64
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    s[3] = _rotl(s[3], 45)
    return result


def test_same_seed_same_sequence():
    a = Rng(42)
    b = Rng(42)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_diverge():
    a = Rng(42)
    b = Rng(43)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_streams_are_independent():
    base = Rng(42, stream=TUBE_STREAM)
    other = Rng(42, stream=GERMINATION_STREAM)
    assert [base.next_u64() for _ in range(8)] != [other.next_u64() for _ in range(8)]


def test_zero_seed_is_usable():
    r = Rng(0)
    seen = {r.next_u64() for _ in range(32)}
    assert len(seen) == 32
    assert seen != {0}


def test_random_unit_interval():
    r = Rng(7)
    xs = [r.random() for _ in range(10_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    mean = sum(xs) / len(xs)
    assert abs(mean - 0.5) < 0.02


def test_below_bounds_and_coverage():
    r = Rng(11)
    draws = [r.below(5) for _ in range(2_000)]
    assert set(draws) == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("n", [0, -3])
def test_below_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        Rng(1).below(n)


def test_chance_extremes():
    r = Rng(3)
    assert all(not r.chance(0.0) for _ in range(100))
    assert all(r.chance(1.0) for _ in range(100))


def test_chance_rate():
    r = Rng(5)
    hits = sum(r.chance(0.7) for _ in range(20_000))
    assert abs(hits / 20_000 - 0.7) < 0.02


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    children = {derive_seed(42, i) for i in range(100)}
    assert len(children) == 100
    assert derive_seed(42, 0) != derive_seed(43, 0)
    # derived seeds stay in the 64-bit range
    assert all(0 <= derive_seed(42, i) < 2**64 for i in range(10))


def test_derived_rng_decorrelated_from_parent():
    parent = Rng(42)
    child = Rng(derive_seed(42, 0))
    assert [parent.next_u64() for _ in range(8)] != [child.next_u64() for _ in range(8)]


def _single_word_below(rng, n):
    """``below`` as it was for n <= 2**64: one 64-bit output per draw."""
    threshold = (1 << 64) - ((1 << 64) % n)
    while True:
        draw = rng.next_u64()
        if draw < threshold:
            return draw % n


@pytest.mark.parametrize("n", [1, 2, 5, 1000, 2**32 + 7, 3 * 2**62, 2**64 - 1,
                               2**64])
def test_below_keeps_its_draws_up_to_2_64(n):
    new, old = Rng(9), Rng(9)
    assert [new.below(n) for _ in range(200)] == [
        _single_word_below(old, n) for _ in range(200)]


@pytest.mark.parametrize("n", [2**64 + 1, 3 * 2**64, 2**200 + 12345, 10**400])
def test_below_returns_for_bounds_past_2_64(n):
    r = Rng(13)
    draws = [r.below(n) for _ in range(500)]
    assert all(0 <= d < n for d in draws)
    assert [Rng(13).below(n) for _ in range(3)] != [Rng(14).below(n) for _ in range(3)]
    assert max(draws) >= n // 2  # the top half is reached


def test_below_joins_words_high_first():
    """n = 2**128 rejects nothing, so a draw is two outputs joined."""
    words = Rng(21)
    expected = [(words.next_u64() << 64) | words.next_u64() for _ in range(5)]
    r = Rng(21)
    assert [r.below(2**128) for _ in range(5)] == expected


def _words_and_draws_match_the_reference(rng):
    state = list(rng._s)
    expected = []
    for _ in range(700):
        expected.append(state[1])
        reference_next_u64(state)
    assert rng.words(0) == []
    assert rng.words(1) + rng.words(383) + rng.words(316) == expected
    assert rng._s == state
    assert [rng.next_u64() for _ in range(200)] == [
        reference_next_u64(state) for _ in range(200)]
    assert rng._s == state


@pytest.mark.parametrize("stream", [TUBE_STREAM, GERMINATION_STREAM])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1, -7])
def test_words_and_next_u64_match_the_indexed_step(seed, stream):
    """``Rng.words`` returns ``s[1]`` before each step and ``next_u64``
    scrambles it, as the list-indexed step did, across calls of any size."""
    _words_and_draws_match_the_reference(Rng(seed, stream))


def test_words_match_the_indexed_step_from_the_zero_state_fallback(monkeypatch):
    """A seed whose splitmix words are all zero starts from the fallback
    state (gamma, 0, 0, 0); forcing the mixer to 0 reaches it."""
    monkeypatch.setattr(rng_module, "_mix64", lambda z: 0)
    rng = Rng(5)
    assert rng._s == [rng_module._SPLITMIX_GAMMA, 0, 0, 0]
    _words_and_draws_match_the_reference(rng)

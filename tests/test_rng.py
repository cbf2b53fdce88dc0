import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelab.errors import DomainError
from primelab.rng import (
    _GAMMA,
    _MASK64,
    CountingBitSource,
    _splitmix64,
    split_seed,
    word_block,
)

from conftest import chi2_critical, chi2_stat_uniform


def test_draw_bits_counts_and_range():
    src = CountingBitSource(1)
    v = src.draw_bits(1)
    assert v in (0, 1)
    assert src.bits_consumed == 1
    assert src.draws == 1
    src.draw_bits(8)
    assert src.bits_consumed == 9


def test_same_seed_identical_stream():
    a = CountingBitSource(123)
    b = CountingBitSource(123)
    assert [a.draw_bits(8) for _ in range(100)] == [
        b.draw_bits(8) for _ in range(100)
    ]


def test_different_seed_differs():
    a = CountingBitSource(0)
    b = CountingBitSource(1)
    assert [a.draw_bits(32) for _ in range(8)] != [
        b.draw_bits(32) for _ in range(8)
    ]


def test_words_follow_the_counter_rule():
    # word j of seed s is splitmix64(s + j * GAMMA), in the scalar source
    # and in numpy's `word_block` alike
    s = 2**64 - 3
    expected = [_splitmix64((s + j * _GAMMA) & _MASK64) for j in range(6)]
    src = CountingBitSource(s)
    assert [src.draw_bits(64) for _ in range(6)] == expected
    block = word_block(np.array([s], dtype=np.uint64),
                  np.array([2], dtype=np.uint64), 4)
    assert block.tolist() == [expected[2:]]
    # a draw below a power of two is the top bits of one word
    assert CountingBitSource(s).uniform_below(1024) == expected[0] >> 54
    # a 100-bit draw is the top 100 bits of two words, the first one high
    a, b = CountingBitSource(9), CountingBitSource(9)
    high, low = b.draw_bits(64), b.draw_bits(64)
    assert a.draw_bits(100) == (high << 64 | low) >> 28
    assert a.draw_bits(64) == b.draw_bits(64)
    # uniform_below(1) takes no word
    c, d = CountingBitSource(5), CountingBitSource(5)
    assert c.uniform_below(1) == 0
    assert c.draw_bits(64) == d.draw_bits(64)
    # split_seed takes uint64 arrays too
    index = np.arange(5, dtype=np.uint64)
    assert split_seed(7, index).tolist() == [split_seed(7, i)
                                             for i in range(5)]


def test_draw_bits_rejects_nonpositive():
    src = CountingBitSource(0)
    with pytest.raises(DomainError):
        src.draw_bits(0)
    with pytest.raises(DomainError):
        src.uniform_below(0)


def test_uniform_below_power_of_two_charges_exactly():
    src = CountingBitSource(5)
    for _ in range(1000):
        assert src.uniform_below(8) < 8
    assert src.bits_consumed == 3000  # never rejects


def test_uniform_below_one_is_free():
    src = CountingBitSource(5)
    assert src.uniform_below(1) == 0
    assert src.bits_consumed == 0
    assert src.draws == 0


def test_mean_of_single_bits():
    src = CountingBitSource(2024)
    n = 10**6
    total = sum(src.draw_bits(1) for _ in range(n))
    assert 0.498 <= total / n <= 0.502


def test_mean_bits_per_call_m6():
    # ceil(log2 6) = 3 bits per attempt, 8/6 expected attempts -> 4 bits/call
    src = CountingBitSource(99)
    n = 10**6
    for _ in range(n):
        src.uniform_below(6)
    assert 3.97 <= src.bits_consumed / n <= 4.03


def test_accounting_matches_attempts():
    # bits_consumed == sum over calls of draws_delta * ceil(log2 m)
    src = CountingBitSource(7)
    ms = [2, 3, 5, 6, 10, 97, 256, 1000]
    expected = 0
    for i in range(5000):
        m = ms[i % len(ms)]
        before = src.draws
        src.uniform_below(m)
        expected += (src.draws - before) * (m - 1).bit_length()
    assert src.bits_consumed == expected


@pytest.mark.parametrize("m", [2, 6, 10, 97])
def test_uniform_below_chi_square(m):
    src = CountingBitSource(31337)
    n = 10**5
    counts = [0] * m
    for _ in range(n):
        counts[src.uniform_below(m)] += 1
    stat = chi2_stat_uniform(counts, n, m)
    assert stat < chi2_critical(m - 1, 1e-6)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_uniform_below_in_range(m, seed):
    src = CountingBitSource(seed)
    v = src.uniform_below(m)
    assert 0 <= v < m
    k = (m - 1).bit_length()
    assert src.bits_consumed % max(k, 1) == 0 if m > 1 else src.bits_consumed == 0


def test_split_seed_deterministic_and_spread():
    assert split_seed(42, 0) == split_seed(42, 0)
    seeds = {split_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert split_seed(42, 0) != split_seed(43, 0)

"""Seedable counter-based random bit source with exact accounting of
consumed bits.

Every raw bit handed out is counted, which makes randomness budgets
directly measurable.  The charging convention for bounded draws is
rejection sampling: a draw from {0, ..., m-1} costs ceil(log2 m) bits per
attempt, rejected attempts included.

The stream of seed s is the SplitMix64 sequence: its j-th 64-bit word
(j = 0, 1, ...) is splitmix64(s + j*GAMMA), a function of (s, j) alone,
so numpy computes any trial's words in bulk (`word_block`).  Seed
splitting uses the same mix: split_seed(master, i) = splitmix64(master
XOR splitmix64(i)).
"""

import numpy as np

from .errors import BrokenBitSourceError, DomainError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Give up after this many consecutive rejections; for any m the rejection
# probability is < 1/2, so 10^4 failures indicate a broken source.
_MAX_REJECTIONS = 10_000


def _splitmix64(z):
    """SplitMix64's output for state z, mix(z + GAMMA): for an int, or in
    place for a uint64 array."""
    if isinstance(z, np.ndarray):
        z += np.uint64(_GAMMA)
        shifted = np.empty_like(z)
        for s, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
            z ^= np.right_shift(z, np.uint64(s), out=shifted)
            if mix:
                z *= np.uint64(mix)
        return z
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def split_seed(master_seed, index):
    """The seed of trial `index`: splitmix64(master XOR splitmix64(index)),
    fixed so that trial streams do not depend on execution order.  Either
    argument may be a uint64 array."""
    return _splitmix64((master_seed & _MASK64) ^ _splitmix64(index & _MASK64))


def word_block(seeds, start, width: int):
    """Words start .. start+width-1 of each seed's stream, shape
    (len(seeds), width), for uint64 arrays seeds and start."""
    gamma = np.uint64(_GAMMA)
    steps = np.arange(width, dtype=np.uint64) * gamma
    return _splitmix64((seeds + start * gamma)[:, None] + steps)


class CountingBitSource:
    """Deterministic per-seed bit stream with exact consumption counters.

    A k-bit draw takes the top k bits of the next word, or of the next
    ceil(k/64) words read as one big-endian integer when k > 64.
    `bits_consumed` counts the bits handed out and `draws` the draw calls
    (one per rejection attempt).
    """

    __slots__ = ("seed", "bits_consumed", "draws", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.bits_consumed = 0
        self.draws = 0
        self._state = self.seed  # s + j*GAMMA, j the next word's index

    def _bits(self, k: int) -> int:
        """The top k bits of the next ceil(k/64) words, uncharged."""
        value = 0
        for _ in range(-(-k // 64)):
            value = value << 64 | _splitmix64(self._state)
            self._state = (self._state + _GAMMA) & _MASK64
        return value >> (-k % 64)

    def draw_bits(self, k: int) -> int:
        """Return a uniform k-bit value and charge exactly k bits."""
        if k < 1:
            raise DomainError(f"draw_bits needs k >= 1, got {k}")
        self.bits_consumed += k
        self.draws += 1
        return self._bits(k)

    def uniform_below(self, m: int) -> int:
        """Uniform draw from {0, ..., m-1} by rejection.  Each attempt draws
        and charges ceil(log2 m) bits; m = 1 takes no word and is free."""
        if m < 1:
            raise DomainError(f"uniform_below needs m >= 1, got {m}")
        if m == 1:
            return 0
        k = (m - 1).bit_length()
        draws, value = 0, m
        if k > 64:
            while value >= m and draws <= _MAX_REJECTIONS:
                draws += 1
                value = self._bits(k)
        else:  # _bits inlined: generate spends its time here
            z = self._state
            while value >= m and draws <= _MAX_REJECTIONS:
                draws += 1
                z = (z + _GAMMA) & _MASK64
                w = ((z ^ (z >> 30)) * _MIX1) & _MASK64
                w = ((w ^ (w >> 27)) * _MIX2) & _MASK64
                value = (w ^ (w >> 31)) >> (64 - k)
            self._state = z
        self.bits_consumed += k * draws
        self.draws += draws
        if value >= m:
            raise BrokenBitSourceError(
                f"{draws} consecutive rejections drawing below {m}")
        return value

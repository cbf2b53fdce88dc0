"""Seedable random bit source with exact accounting of consumed bits.

Every raw bit handed out is counted, which makes randomness budgets
directly measurable.  The charging convention for bounded draws is
rejection sampling: a draw from {0, ..., m-1} costs ceil(log2 m) bits per
attempt, rejected attempts included.

Seed splitting for independent trials uses SplitMix64 (``split_seed``):
per-trial seed = splitmix64(master_seed XOR splitmix64(trial_index)).
"""

import random

import numpy as np

from .errors import BrokenBitSourceError, DomainError

_MASK64 = (1 << 64) - 1

# Give up after this many consecutive rejections; for any m the rejection
# probability is < 1/2, so 10^4 failures indicate a broken source.
_MAX_REJECTIONS = 10_000


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split_seed(master_seed: int, index: int) -> int:
    """Derive the seed for trial `index` from a master seed.

    The rule is fixed so that trial streams are reproducible regardless of
    execution order: splitmix64(master XOR splitmix64(index)).
    """
    return _splitmix64((master_seed & _MASK64) ^ _splitmix64(index & _MASK64))


class CountingBitSource:
    """Deterministic per-seed bit stream with exact consumption counters.

    `bits_consumed` equals the number of raw bits handed out so far and
    `draws` the number of draw calls (one per rejection attempt).  Two
    sources built from the same seed produce identical streams.
    """

    __slots__ = ("seed", "bits_consumed", "draws", "_getrandbits")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.bits_consumed = 0
        self.draws = 0
        self._getrandbits = random.Random(self.seed).getrandbits

    def draw_bits(self, k: int) -> int:
        """Return a uniform k-bit value and charge exactly k bits."""
        if k < 1:
            raise DomainError(f"draw_bits needs k >= 1, got {k}")
        self.bits_consumed += k
        self.draws += 1
        return self._getrandbits(k)

    def words(self, n: int) -> np.ndarray:
        """n uniform 32-bit words as a uint32 array; charges 32 bits and
        one draw per word.  The words are those of n draw_bits(32) calls,
        in order, produced in one call to the generator."""
        if n < 1:
            raise DomainError(f"words needs n >= 1, got {n}")
        self.bits_consumed += 32 * n
        self.draws += n
        raw = self._getrandbits(32 * n).to_bytes(4 * n, "little")
        return np.frombuffer(raw, dtype="<u4")

    def uniform_below(self, m: int) -> int:
        """Uniform draw from {0, ..., m-1} by rejection.

        Each attempt draws and charges ceil(log2 m) bits.  m = 1 returns 0
        and charges nothing.
        """
        if m < 1:
            raise DomainError(f"uniform_below needs m >= 1, got {m}")
        if m == 1:
            return 0
        k = (m - 1).bit_length()
        getrandbits = self._getrandbits
        draws = 0
        while True:
            draws += 1
            value = getrandbits(k)
            if value < m:
                self.bits_consumed += k * draws
                self.draws += draws
                return value
            if draws > _MAX_REJECTIONS:
                self.bits_consumed += k * draws
                self.draws += draws
                raise BrokenBitSourceError(
                    f"{draws} consecutive rejections drawing below {m}"
                )


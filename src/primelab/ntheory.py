"""Exact number-theoretic primitives at desk scale.

Sieving, prime counting in residue classes, totients, primorials and
primality testing.  Everything here is exact integer arithmetic; these
routines are the oracle substrate for the distribution computations.
This module owns the prime table: `table_for` decides which table
answers for x, and only `PrimeTable` reads its packed flags.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError, _bound_index, _index_field
from .rng import CountingBitSource, split_seed

# Desk-scale caps: sieving beyond 2^31 or totient tables beyond 10^8 are
# refused rather than attempted.
DEFAULT_SIEVE_CAP = 2**31
DEFAULT_TOTIENT_CAP = 10**8

_SEGMENT = 1 << 20  # odd numbers per segment of `sieve`: a multiple of 8
_TOTIENT_BLOCK = 1 << 17

# The wheel of `sieve`: the odd multiples of 3, 5, 7, 11 and 13 repeat with
# period 15,015 in odd-index space (index i stands for 2i + 1).  One period
# (15 kB) is kept; `sieve` tiles it per call to the size of a segment.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = math.prod(_WHEEL_PRIMES)
_PERIOD = np.gcd(np.arange(1, 2 * _WHEEL, 2, dtype=np.int16), _WHEEL) == 1
_PERIOD.flags.writeable = False
# Primality of 1, 3, ..., 13, which the wheel gets wrong.
_HEAD = np.array([False, True, True, True, False, True, True])
# Odd flag byte v (bit b: the odd number 16k + 2b + 1) as the little-endian
# uint16 of full flags for 16k..16k + 15 (bit 2b + 1).
_WIDEN = np.array([sum((v >> b & 1) << (2 * b + 1) for b in range(8))
                   for v in range(256)], dtype="<u2")

# Exact primality below psi_13 with a witness set sized to n.  psi_k is the
# least strong pseudoprime to the first k prime bases (Jaeschke, "On strong
# pseudoprimes to several bases", Math. Comp. 1993; Jiang & Deng, Math.
# Comp. 2014, psi_9..psi_11; Sorenson & Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017), so for n < psi_k the first k
# primes prove n.  The rule: n <= 251 is looked up in _SMALL_PRIME_SET;
# above, one gcd against the product of the primes to 251 (trial
# division), then the strong test to the first k primes, k the least
# index with n < psi_k.
_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_DETERMINISTIC_MR_BOUND = _PSI[-1]
# The primes to 251: trial division in one gcd, the witnesses, and the
# base primes of every sieve up to 252^2.
_SMALL_PRIMES = tuple(n for n in range(2, 252)
                      if all(n % d for d in range(2, math.isqrt(n) + 1)))
_DETERMINISTIC_WITNESSES = _SMALL_PRIMES[: len(_PSI)]  # 2, 3, ..., 41
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)


class PrimeTable:
    """Exact primality for [0, bound]: packed flag bits plus the prime list.

    Immutable after construction, so concurrent readers are safe.  Only
    `is_prime` and `prime_mask` read the flags: `is_prime` through a
    memoryview of the flag buffer, which indexes to a Python int, and
    `prime_mask` through the array.
    """

    def __init__(self, bound: int, packed_flags: np.ndarray, primes: np.ndarray):
        self.bound = bound
        self._flags = packed_flags
        self._flags_view = memoryview(packed_flags)
        self.primes = primes

    def is_prime(self, n: int) -> bool:
        if n < 0 or n > self.bound:
            raise DomainError(f"{n} outside table range [0, {self.bound}]")
        return self._flags_view[n >> 3] >> (n & 7) & 1 == 1

    def prime_mask(self, n: np.ndarray) -> np.ndarray:
        """Primality of each entry of the int array n, unchecked: every
        entry must lie in [0, bound]."""
        # uint8 throughout: an int64 shift count would widen every byte
        bit = n.astype(np.uint8) & 7
        return ((self._flags[n >> 3] >> bit) & 1).view(bool)

    def prime_count(self) -> int:
        """pi(bound)."""
        return len(self.primes)

    def count_leq(self, n: int) -> int:
        """pi(n) for any n <= bound."""
        if n > self.bound:
            raise DomainError(f"{n} exceeds table bound {self.bound}")
        return int(np.searchsorted(self.primes, n, side="right"))


def _base_primes(root: int) -> list[int]:
    """The primes <= root: a prefix of _SMALL_PRIMES when root is within
    it, else sieve(root)'s (whose own roots, below 252, take the prefix)."""
    if root <= _SMALL_PRIMES[-1]:
        return list(_SMALL_PRIMES[: bisect_right(_SMALL_PRIMES, root)])
    return sieve(root).primes.tolist()


def _prime_count_bound(x: int) -> int:
    """An integer > pi(x) for x >= 2: Dusart's pi(x) < x/ln x (1 + 1.2762/ln x)
    (Dusart, "The kth prime is greater than k(ln k + ln ln k - 1) for
    k >= 2", Math. Comp. 1999), plus one for float rounding."""
    log = math.log(x)
    return int(x / log * (1 + 1.2762 / log)) + 1


def sieve(bound: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes over [0, bound], odd numbers only.

    Index i of a segment mask stands for the odd number 2i + 1, and a
    segment holds _SEGMENT of them.  Each mask starts as a slice of the
    wheel, _PERIOD tiled to one segment plus one period, so the odd
    multiples of 3, 5, 7, 11 and 13 are crossed off by a copy; only the
    primes from 17 to sqrt(bound) are crossed off per segment.  The packed
    flags (bit n & 7 of byte n >> 3) come from packing the odd mask and
    widening each byte to two through _WIDEN.  The primes are written in
    place into one int64 array sized by Dusart's bound on pi(bound), and
    the used prefix is returned, so no per-segment chunks are joined.
    Peak memory is the result (bound / 8 bytes of flags, 8 bytes per prime
    and Dusart's slack, 0.75 % at 10^8) plus about 3 MB of wheel and
    segment buffers; 10^8 takes about 0.25 s and 10^9 about 4 s (542 MB
    peak) on a 2-vCPU VM.  A bound above DEFAULT_SIEVE_CAP is refused.
    """
    bound = _bound_index("sieve bound", bound, 2)
    if bound > DEFAULT_SIEVE_CAP:
        raise ResourceLimitError(
            f"sieve bound {bound} exceeds cap {DEFAULT_SIEVE_CAP}")

    n_odd = (bound + 1) // 2  # the odd numbers 1, 3, ..., <= bound
    if n_odd <= _WHEEL:
        wheel = _PERIOD
    else:  # a segment may start anywhere in the period
        wheel = np.tile(_PERIOD, min(_SEGMENT, n_odd) // _WHEEL + 2)
    base = _base_primes(math.isqrt(bound))[len(_WHEEL_PRIMES) + 1 :]
    squares = [p * p // 2 for p in base]  # the index of p^2, where p starts
    steps = np.array(base, dtype=np.int64)
    halves = steps // 2
    packed = np.zeros(bound // 8 + 1, dtype=np.uint8)
    primes = np.empty(_prime_count_bound(bound), dtype=np.int64)
    primes[0] = 2
    count = 1
    for lo in range(0, n_odd, _SEGMENT):
        hi = min(lo + _SEGMENT, n_odd)
        offset = lo % _WHEEL
        mask = wheel[offset : offset + hi - lo].copy()
        live = bisect_right(squares, hi - 1)
        if lo:
            # the first odd multiple of p in the segment: 2i + 1 = 0 (mod p)
            # iff i = p // 2 (mod p).  It may lie below p^2 (crossing off
            # a multiple of a smaller prime again), never at p itself,
            # which lies in an earlier segment.
            starts = ((halves[:live] - lo) % steps[:live]).tolist()
        else:
            mask[:7] = _HEAD[:hi]
            starts = squares[:live]
        for p, start in zip(base, starts):
            mask[start::p] = False
        idx = np.flatnonzero(mask)
        out = primes[count : count + len(idx)]
        np.multiply(idx, 2, out=out)
        out += 2 * lo + 1
        count += len(idx)
        wide = _WIDEN[np.packbits(mask, bitorder="little")].view(np.uint8)
        dest = packed[lo // 4 : lo // 4 + len(wide)]
        dest[:] = wide[: len(dest)]
    packed[0] |= 4  # 2; no bit past bound is set, as the mask ends there
    return PrimeTable(bound, packed, primes[:count])


def table_for(x: int, table: PrimeTable | None = None,
              fallback: PrimeTable | None = None) -> PrimeTable:
    """The table that answers for [0, x], x an integer >= 2: `table` if
    given (DomainError if it does not cover x), else `fallback` if it
    covers x, else sieve(x) (ResourceLimitError above the sieve cap)."""
    x = _bound_index("x", x, 2)
    if table is not None:
        if table.bound < x:
            raise DomainError(f"table bound {table.bound} below x = {x}")
        return table
    if fallback is not None and fallback.bound >= x:
        return fallback
    return sieve(x)


def primes_upto(x: int, table: PrimeTable | None = None) -> np.ndarray:
    """The primes <= x, from table_for(x, table)."""
    table = table_for(x, table)
    return table.primes[: table.count_leq(x)]


def _class_mask(table: PrimeTable, q: int, a: int) -> np.ndarray:
    """Which of table.primes are = a (mod q), for q >= 1 and 0 <= a < q."""
    q, a = _bound_index("modulus", q, 1), _bound_index("residue", a, 0)
    if a >= q:
        raise DomainError(f"residue {a} not in [0, {q})")
    return table.primes % q == a


def count_ap_primes(table: PrimeTable, q: int, a: int) -> int:
    """pi(bound; q, a): primes p <= bound with p = a (mod q)."""
    return int(np.count_nonzero(_class_mask(table, q, a)))


def residue_class_primes(table: PrimeTable, q: int, a: int) -> list[int]:
    """The primes counted by ``count_ap_primes``, sorted ascending."""
    return table.primes[_class_mask(table, q, a)].tolist()


def primorial_below(limit: int) -> int:
    """Largest product of all primes up to some bound that is <= limit."""
    limit = _bound_index("limit", limit, 2)
    product = 1
    p = 2
    while product * p <= limit:
        product *= p
        p += 1
        while not is_prime(p):
            p += 1
    return product


def totient_sieve(bound: int) -> np.ndarray:
    """Euler phi for 0..bound as an int64 array (phi[0] = 0).

    A numpy kernel over blocks of 2^17 integers.  For each prime
    p <= sqrt(bound), every multiple n of p in the block takes
    phi[n] -= phi[n] // p, and `rem`, a copy of the block, has every power
    of p divided out.  What is then left in rem[n] is 1 or the one prime
    factor of n above sqrt(bound), applied last.  Every step is exact:
    phi[n] stays divisible by each prime of n not yet applied.  Peak memory
    is the 8 (bound + 1) bytes of the result plus about two block copies
    (2 MiB); 294,704 takes about 15-20 ms and 10^7 about 0.8 s on a 2-vCPU
    VM.  A bound above DEFAULT_TOTIENT_CAP is refused.
    """
    bound = _bound_index("totient bound", bound, 1)
    if bound > DEFAULT_TOTIENT_CAP:
        raise ResourceLimitError(
            f"totient bound {bound} exceeds cap {DEFAULT_TOTIENT_CAP}")
    phi = np.arange(bound + 1, dtype=np.int64)
    base = _base_primes(math.isqrt(bound))
    for lo in range(0, bound + 1, _TOTIENT_BLOCK):
        hi = min(lo + _TOTIENT_BLOCK, bound + 1)
        block = phi[lo:hi]  # a view: updates write into phi
        rem = block.copy()
        for p in base:
            if p >= hi:
                break
            first = -lo % p  # offset of the first multiple of p
            multiples = block[first::p]
            multiples -= multiples // p
            rem[first::p] //= p
            power = p * p
            while power < hi:
                rem[-lo % power :: power] //= p
                power *= p
        # n // 1 would take phi[n] to 0: divide only where rem[n] > 1
        block -= np.floor_divide(block, rem, out=np.zeros_like(block),
                                 where=rem > 1)
    return phi


def totient_partial_sum(bound: int) -> int:
    """Sum of phi(q) for q = 1..bound, exactly."""
    phi = totient_sieve(bound)
    return int(phi[1:].sum())


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 2 as ((p, e), ...) by trial division."""
    n = _bound_index("factorize", n, 2)
    factors = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
        # 2, 3, 5, then skip multiples of 2 and 3
        p += p - 1 if p < 5 else 2 if p % 6 == 5 else 4
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def _carmichael_prime_power(p: int, e: int) -> int:
    if p == 2 and e > 2:
        return 2 ** (e - 2)
    return p ** (e - 1) * (p - 1)


@dataclass(frozen=True)
class Modulus:
    """A modulus q with its unit-group data.

    phi = |(Z/qZ)*|, omega = number of distinct prime factors, carmichael =
    exponent of the unit group (divides phi).
    """

    q: int
    phi: int
    omega: int
    factorization: tuple[tuple[int, int], ...]
    carmichael: int

    @classmethod
    def from_int(cls, q: int) -> "Modulus":
        q = _bound_index("modulus", q, 2)
        factorization = factorize(q)
        phi = 1
        lam = 1
        for p, e in factorization:
            phi *= p ** (e - 1) * (p - 1)
            lam = math.lcm(lam, _carmichael_prime_power(p, e))
        return cls(q, phi, len(factorization), factorization, lam)


class PrimalityPolicy:
    """How primality of generated candidates is decided."""

    table: PrimeTable | None = None  # the table the policy reads, if any


@dataclass(frozen=True)
class Exact(PrimalityPolicy):
    """Always-correct answers: table lookup when covered, else below
    psi_13 (about 3.3e24) trial division by the primes to 251 in one gcd
    and the strong test to the first k primes, k the least index with
    n < psi_k; ResourceLimitError above.  The psi_k are the published least
    strong pseudoprimes to the first k prime bases (Jaeschke, Math. Comp.
    1993; Jiang & Deng, Math. Comp. 2014; Sorenson & Webster, Math. Comp.
    2017)."""

    table: PrimeTable | None = None


@dataclass(frozen=True)
class MillerRabin(PrimalityPolicy):
    """Probabilistic testing with `rounds` random bases.

    Composite verdicts are always correct; a prime verdict on a composite
    has probability <= 4^(-rounds).  Bases come from a dedicated stream
    derived from (seed, n), separate from any generation bit source.
    Both fields are stored as Python ints (numpy integers accepted).
    """

    rounds: int = 20
    seed: int = 0

    def __post_init__(self):
        _index_field(self, "rounds", 1)
        _index_field(self, "seed")


EXACT = Exact()


def _mr_composite_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if base a proves n composite (n odd, 2 <= a <= n-2,
    n-1 = d * 2^s, d odd)."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _check_witness_bound(n: int) -> None:
    if n >= _DETERMINISTIC_MR_BOUND:
        raise ResourceLimitError(
            f"no exact primality method for n >= {_DETERMINISTIC_MR_BOUND}"
        )


def _miller_rabin(n: int, bases=None) -> bool:
    """Trial division by the primes to 251 in one gcd, then the strong
    test of n to each base in `bases` (an iterable, consumed only as far
    as needed).  The default bases are the first k witness primes, k the
    least index with n < psi_k: proven for n < psi_13."""
    if n <= 251:
        return n in _SMALL_PRIME_SET
    if math.gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return False
    if bases is None:
        bases = _DETERMINISTIC_WITNESSES[: bisect_right(_PSI, n) + 1]
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        if _mr_composite_witness(n, a, d, s):
            return False
    return True


def _random_bases(n: int, policy: MillerRabin):
    """`policy.rounds` bases in [2, n-2]: each is 2 plus a draw below n-3
    from the counter stream keyed by split_seed(seed, n)."""
    src = CountingBitSource(split_seed(policy.seed, n))
    for _ in range(policy.rounds):
        yield 2 + src.uniform_below(n - 3)


def is_prime(n: int, policy: PrimalityPolicy = EXACT) -> bool:
    """Primality of n under the given policy.  n may be any integer type
    (numpy integers included); DomainError for anything else."""
    n = _bound_index("is_prime", n, 0)
    if n < 2:
        return False
    if isinstance(policy, Exact):
        if policy.table is not None and n <= policy.table.bound:
            return policy.table.is_prime(n)
        _check_witness_bound(n)
        return _miller_rabin(n)
    if isinstance(policy, MillerRabin):
        return _miller_rabin(n, _random_bases(n, policy))
    raise DomainError(f"unknown primality policy {policy!r}")


def primality_tester(policy: PrimalityPolicy, x: int):
    """Fastest correct primality callable for candidates in [0, x]."""
    if isinstance(policy, Exact):
        table = policy.table
        if table is not None and table.bound >= x:
            return table.is_prime
        _check_witness_bound(x)
        return _miller_rabin
    return lambda p: is_prime(p, policy)

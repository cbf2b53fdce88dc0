"""Exact number-theoretic primitives at desk scale.

Sieving, prime counting in residue classes, totients, primorials and
primality testing.  Everything here is exact integer arithmetic; these
routines are the oracle substrate for the distribution computations.
This module owns the prime table and every verdict: `covering_table`
decides whether a table answers for x, `table_for` which one does, only
`PrimeTable` reads its packed flags, and `verdicts` gives the generators'
lane engine its verdicts, from a table or from the policy's tester.
"""

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    ResourceLimitError,
    _bound_index,
    _index_field,
    _instance_of,
)
from .rng import CountingBitSource, split_seed

# Desk-scale caps: a prime table from 2^31 (134 MB of flags; the table
# keeps no list until one is read) or a totient table beyond 10^8 is
# refused, not attempted.
DEFAULT_SIEVE_CAP = 2**31 - 1
DEFAULT_TOTIENT_CAP = 10**8

_SEGMENT = 1 << 20  # odd numbers per segment of `sieve`: a multiple of 8
_TOTIENT_BLOCK = 1 << 17
# Flag bytes per chunk of PrimeTable's counts and its derived list: 4 KB of
# word counts (and numpy's 32 KB buffer to sum them), or 256 KB of
# unpacked bits, 2^19 numbers.
_CHUNK_BYTES = 1 << 15

# The wheel of `sieve`: the odd multiples of 3, 5, 7, 11 and 13 repeat with
# period 15,015 in odd-index space (index i stands for 2i + 1).  One period
# (15 kB) is kept; `sieve` tiles it per call to the size of a segment.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = math.prod(_WHEEL_PRIMES)
_PERIOD = np.gcd(np.arange(1, 2 * _WHEEL, 2, dtype=np.int16), _WHEEL) == 1
_PERIOD.flags.writeable = False
# Primality of 1, 3, ..., 13, which the wheel gets wrong.
_HEAD = np.array([False, True, True, True, False, True, True])

# The primes to 46,340 = sqrt(DEFAULT_SIEVE_CAP), sieved at import: the
# base primes of `sieve` and `totient_sieve` are a prefix (_base_primes),
# and `primorial_below` multiplies them.  Trial division by those to
# _TRIAL_BOUND = 2^12 is the first stage of every tester: it looks up
# n <= 2^12 in _SMALL_FLAGS and refuses every larger n with a prime factor
# to 2^12 in two passes, the primes to 251 (which refuse most composites)
# and then the rest on the survivors, each one gcd with the product of its
# primes (one gcd with all of them, 5,811 bits, costs about 5 us against
# 0.7 us for the primes to 251).  `_prove` settles what is left, above
# 2^12 with no prime factor to it: the proof-only entry, which
# primality_tester(policy, x, screened=True) hands to the lane engine for
# the candidates trial_division leaves open.  The witnesses are the first
# 13 primes, 2 to 41.
_TRIAL_BOUND = 2**12


def _small_sieve(bound: int) -> np.ndarray:
    """The primality flags of 0..bound, read-only, by a plain sieve."""
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        flags[p * p :: p] = False
    flags.setflags(write=False)
    return flags


_SMALL_FLAGS = _small_sieve(math.isqrt(DEFAULT_SIEVE_CAP))
_SMALL_PRIMES = tuple(np.flatnonzero(_SMALL_FLAGS).tolist())
_TRIAL_PRIMES = _SMALL_PRIMES[: bisect_right(_SMALL_PRIMES, _TRIAL_BOUND)]
_FIRST_PASS = bisect_right(_TRIAL_PRIMES, 251)  # the primes to 251
_TRIAL_PRODUCTS = (math.prod(_TRIAL_PRIMES[:_FIRST_PASS]),
                   math.prod(_TRIAL_PRIMES[_FIRST_PASS:]))

# Exact primality below psi_13, in three tiers by the size of n, past
# trial division:
#   - n < psi_5: the strong test to the first k primes, k the least index
#     with n < psi_k (2 to 5 bases, cheaper than the tier above).  psi_k is
#     the least strong pseudoprime to the first k prime bases (Jaeschke,
#     "On strong pseudoprimes to several bases", Math. Comp. 1993; Jiang &
#     Deng, Math. Comp. 2014, psi_9..psi_11; Sorenson & Webster, "Strong
#     pseudoprimes to twelve prime bases", Math. Comp. 2017), so for
#     n < psi_k the first k primes prove n.
#   - psi_5 <= n < 2^64 (_BPSW_RANGE), where the psi rule needs 6 to 12
#     bases: BPSW, the strong test to base 2 and the strong Lucas test
#     with Selfridge's parameters (Baillie & Wagstaff, "Lucas
#     pseudoprimes", Math. Comp. 1980; Pomerance, Selfridge & Wagstaff,
#     "The pseudoprimes to 25*10^9", Math. Comp. 1980).  It has no
#     counterexample below 2^64: Feitsma and Galway enumerated the base-2
#     pseudoprimes below 2^64, and Gilchrist checked that none of the
#     strong ones passes the strong Lucas test.  One pow and one Lucas
#     ladder: per prime on a 2-vCPU VM, 41, 56 and 68 us at 10^15, 10^18
#     and 1.8e19 against 89, 111 and 176 us for the psi rule.
#   - 2^64 <= n < psi_13: the psi rule again, 12 or 13 bases.
# Above psi_13 no method is exact and a tester is refused.
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
_BPSW_RANGE = (_PSI[4], 2**64)
_DETERMINISTIC_WITNESSES = _TRIAL_PRIMES[: len(_PSI)]  # 2, 3, ..., 41
# The same two passes over numpy arrays (`trial_division`), past the
# residues mod 2 * _WHEEL prime to 2..13 (the wheel's _PERIOD at the odd
# ones): for each prime p from 17 its inverse mod 2^64 and
# floor((2^64 - 1)/p), and p divides n iff n * inverse mod 2^64 <= that
# quotient (Granlund & Montgomery, "Division by invariant integers using
# multiplication", PLDI 1994, section 9).  Each pass multiplies chunks of
# candidates by its inverses, at most _PRODUCTS products (256 KiB) at a
# time, along the longer axis: the 48 primes to 251 as rows over a chunk
# of 682 candidates, the 510 primes above as columns over 64.
_WHEEL_UNITS = np.zeros(2 * _WHEEL, dtype=bool)
_WHEEL_UNITS[1::2] = _PERIOD
_PRODUCTS = 2**15


def _trial_pass(primes: tuple, axis: int):
    """(inverses, quotients, axis) of one pass of `trial_division`, the
    primes along `axis` of the products (0: rows, 1: columns)."""
    inverses = [pow(p, -1, 2**64) for p in primes]
    quotients = [(2**64 - 1) // p for p in primes]
    return (np.expand_dims(np.array(inverses, np.uint64), 1 - axis),
            np.expand_dims(np.array(quotients, np.uint64), 1 - axis), axis)


_TRIAL_PASSES = (
    _trial_pass(_TRIAL_PRIMES[len(_WHEEL_PRIMES) + 1 : _FIRST_PASS], 0),
    _trial_pass(_TRIAL_PRIMES[_FIRST_PASS:], 1),
)


class PrimeTable:
    """Exact primality for [0, bound], read from the packed flags of the
    odd numbers: bit i & 7 of byte i >> 3 stands for 2i + 1, and 2 is
    prime by rule.

    Immutable after construction: the flags are made read-only here, and so
    is the prime list.  `sieve` writes only the flags; the list (`primes`)
    is derived from them once, on first read, and then kept.  Concurrent
    readers are safe, as the derivation is idempotent: a reader that races
    another derives an equal list.  Only PrimeTable reads the flags:
    `is_prime` through a memoryview of the flag buffer, which indexes to a
    Python int, `prime_mask` and `next_prime` through the array, and
    `count_leq` by 64-bit words.  DomainError for other than bound // 16 + 1
    uint8 flag bytes, then ResourceLimitError past DEFAULT_SIEVE_CAP.
    """

    def __init__(self, bound: int, packed_flags: np.ndarray):
        self.bound = bound = _bound_index("table bound", bound, 0)
        if not (isinstance(packed_flags, np.ndarray)
                and packed_flags.dtype == np.uint8
                and packed_flags.shape == (bound // 16 + 1,)):
            raise DomainError(
                f"a table to {bound} takes {bound // 16 + 1} uint8 flag bytes")
        if bound > DEFAULT_SIEVE_CAP:
            raise ResourceLimitError(
                f"table bound {bound} exceeds cap {DEFAULT_SIEVE_CAP}")
        packed_flags.setflags(write=False)
        self._flags = packed_flags
        self._flags_view = memoryview(packed_flags)  # read-only as well
        self._primes = None

    @property
    def primes(self) -> np.ndarray:
        """The primes <= bound, ascending, as uint32 (bound is at most
        DEFAULT_SIEVE_CAP): derived from the flags once, chunk by chunk
        into one array, so the peak is the list plus one chunk."""
        if self._primes is None:
            primes = np.empty(self.count_leq(self.bound), np.uint32)
            count = int(self.bound >= 2)  # 2, the one even prime
            primes[:count] = 2
            for lo in range(0, len(self._flags), _CHUNK_BYTES):
                odd = np.unpackbits(self._flags[lo : lo + _CHUNK_BYTES],
                                    bitorder="little").view(bool)
                # bit i of the chunk stands for 16 lo + 2i + 1
                found = np.flatnonzero(odd).astype(np.uint32)
                found *= 2
                found += 16 * lo + 1
                primes[count : count + len(found)] = found
                count += len(found)
            primes.setflags(write=False)
            self._primes = primes
        return self._primes

    def is_prime(self, n: int) -> bool:
        # the check converts only on the error path: this is the table
        # tester of `generate`, called once per candidate
        try:
            if n < 0 or n > self.bound:
                raise DomainError(f"{n} outside table range [0, {self.bound}]")
            return (self._flags_view[n >> 4] >> (n >> 1 & 7) & n & 1 == 1
                    or n == 2)
        except TypeError:
            raise DomainError(
                f"is_prime needs an integer, got {n!r}") from None

    def prime_mask(self, n: np.ndarray) -> np.ndarray:
        """Primality of each entry of the int array n, unchecked: every
        entry must lie in [0, bound]."""
        # uint8 throughout: an int64 shift count would widen every byte.
        # n's low byte holds its parity and the bit (n >> 1) & 7.
        low = n.astype(np.uint8)
        return (self._flags[n >> 4] >> (low >> 1 & 7) & low & 1
                | (n == 2)).view(bool)

    def count_leq(self, n: int) -> int:
        """pi(n) for any integer n <= bound: one for 2 and the set flag
        bits to the index of n's odd part, counted by 64-bit words in
        chunks of _CHUNK_BYTES, never from the list."""
        n = _bound_index("count_leq", n)
        if n > self.bound:
            raise DomainError(f"{n} exceeds table bound {self.bound}")
        if n < 2:
            return 0
        i = (n - 1) >> 1  # the largest odd number <= n is 2i + 1
        whole = (i >> 6) << 3  # the bytes of the words wholly below i's
        count = sum(int(np.bitwise_count(
            self._flags[lo : min(lo + _CHUNK_BYTES, whole)].view("<u8")).sum())
            for lo in range(0, whole, _CHUNK_BYTES))
        tail = int.from_bytes(self._flags_view[whole : (i >> 3) + 1], "little")
        return 1 + count + (tail & (2 << (i & 63)) - 1).bit_count()

    def next_prime(self, y: np.ndarray, x: int) -> np.ndarray:
        """The least prime in [y, x] for each entry y of the int64 array,
        or 0; unchecked: 2 <= x <= bound and every y in [0, x].  A start
        <= 2 finds 2.  Each other row reads one little-endian 64-bit window of
        the flags from byte y >> 4, 128 numbers, the bits below y cleared,
        and takes its lowest set bit; only the rows whose window holds no
        prime read on, a window at a time."""
        found, rows, byte = np.zeros_like(y), np.arange(len(y)), y >> 4
        shift = (y >> 1 & 7).astype(np.uint64)
        window = self._window(byte) >> shift << shift
        while len(rows):
            # the trailing zeros: the lowest set bit's index, 64 if none
            low = np.bitwise_count(~window & window - np.uint64(1))
            p = 16 * byte + 2 * low + 1
            hit = low < 64
            found[rows[hit]] = np.where(p[hit] <= x, p[hit], 0)
            rows, byte = rows[~hit], byte[~hit] + 8
            keep = 16 * byte <= x
            rows, byte = rows[keep], byte[keep]
            window = self._window(byte)
        found[y <= 2] = 2
        return found

    def _window(self, byte: np.ndarray) -> np.ndarray:
        """The flags of bytes byte..byte + 7 as one little-endian uint64
        each.  A byte past the flags reads as the last one: its bits stand
        for numbers above bound, which next_prime refuses as above x."""
        index = byte[:, None] + np.arange(8)
        return np.take(self._flags, index, mode="clip").view("<u8")[:, 0]


def _base_primes(root: int) -> list[int]:
    """The primes <= root <= 46,340: a prefix of _SMALL_PRIMES."""
    return list(_SMALL_PRIMES[: bisect_right(_SMALL_PRIMES, root)])


def sieve(bound: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes over [0, bound], odd numbers only.

    Index i of a segment mask stands for the odd number 2i + 1, and a
    segment holds _SEGMENT of them.  Each mask starts as a slice of the
    wheel, _PERIOD tiled to one segment plus one period, so the odd
    multiples of 3, 5, 7, 11 and 13 are crossed off by a copy; only the
    primes from 17 to sqrt(bound) are crossed off per segment.  Each mask,
    packed, is the table's flags for its segment (bit i & 7 of byte i >> 3
    for 2i + 1); they are all that is written, and the table derives its
    prime list only when it is read.  Peak memory is the bound / 16 bytes
    of flags plus about 3 MB of wheel and segment buffers.  On a 2-vCPU
    VM, 10^8 takes about 0.09 s at a peak RSS of 39 MB, and 10^9 about
    1.2 s at 93 MB (interpreter and numpy included).  A bound above
    DEFAULT_SIEVE_CAP is refused.
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
    packed = np.zeros(bound // 16 + 1, dtype=np.uint8)
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
        # no bit past bound is set, as the mask ends there
        bits = np.packbits(mask, bitorder="little")
        packed[lo // 8 : lo // 8 + len(bits)] = bits
    return PrimeTable(bound, packed)


def table_for(x: int, table: PrimeTable | None = None,
              fallback: PrimeTable | None = None) -> PrimeTable:
    """The table that answers for [0, x], x an integer >= 2: `table` if
    given (DomainError if it does not cover x), else `fallback` if it
    covers x, else sieve(x) (ResourceLimitError above the sieve cap)."""
    x = _bound_index("x", x, 2)
    if table is not None and covering_table(table, x) is None:
        raise DomainError(f"table bound {table.bound} below x = {x}")
    return table or covering_table(fallback, x) or sieve(x)


def covering_table(table: PrimeTable | None, x: int) -> PrimeTable | None:
    """table if it answers for all of [0, x], else None: the one rule for
    when a prime table, a policy's among them, stands in for a test.
    DomainError for a table that is not a PrimeTable."""
    if table is None or _instance_of("table", table, PrimeTable).bound < x:
        return None
    return table


def primes_upto(x: int, table: PrimeTable | None = None) -> np.ndarray:
    """The primes <= x, from table_for(x, table)."""
    primes = table_for(x, table).primes
    return primes[: np.searchsorted(primes, primes.dtype.type(x), "right")]


def _class_mask(table: PrimeTable, q: int, a: int) -> np.ndarray:
    """Which of table.primes are = a (mod q), for q >= 1 and 0 <= a < q."""
    _instance_of("table", table, PrimeTable)
    q, a = _bound_index("modulus", q, 1), _bound_index("residue", a, 0)
    if a >= q:
        raise DomainError(f"residue {a} not in [0, {q})")
    if q > table.bound:  # each prime is its own residue; q may pass int64
        return table.primes == a
    return table.primes % q == a


def count_ap_primes(table: PrimeTable, q: int, a: int) -> int:
    """pi(bound; q, a): primes p <= bound with p = a (mod q)."""
    return int(np.count_nonzero(_class_mask(table, q, a)))


def residue_class_primes(table: PrimeTable, q: int, a: int) -> list[int]:
    """The primes counted by ``count_ap_primes``, sorted ascending."""
    mask = _class_mask(table, q, a)  # checks the table before reading it
    return table.primes[mask].tolist()


def primorial_below(limit: int) -> int:
    """Largest product of all primes up to some bound that is <= limit,
    from _SMALL_PRIMES; ResourceLimitError for a limit at or above their
    product (about 10^20,000), where the next factor is not listed."""
    limit = _bound_index("limit", limit, 2)
    product = 1
    for p in _SMALL_PRIMES:
        if product * p > limit:
            return product
        product *= p
    raise ResourceLimitError(f"a {limit.bit_length()}-bit limit needs primes "
                             f"above {_SMALL_PRIMES[-1]}")


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
    """Prime factorization of n >= 2 as ((p, e), ...) by trial division,
    ended past 2^12 by a cofactor below psi_13 that is_prime proves
    (tested when it changes); ResourceLimitError past 2^20 (about 0.1 s)
    with the cofactor unproven, so every n below 2^40 factors."""
    n = _bound_index("factorize", n, 2)
    factors, p, fresh = [], 2, True  # fresh: n untested since it changed
    while p * p <= n:
        if p > _TRIAL_BOUND and fresh:
            if n < _DETERMINISTIC_MR_BOUND and is_prime(n):
                break
            fresh = False
        if p > 2**20:
            raise ResourceLimitError(f"factorize: the cofactor {n} has no "
                                     f"prime factor to 2^20 and no proof")
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
            fresh = True
        # 2, 3, 5, then skip multiples of 2 and 3
        p += p - 1 if p < 5 else 2 if p % 6 == 5 else 4
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


@dataclass(frozen=True)
class Modulus:
    """A modulus q with its unit-group data.

    phi = |(Z/qZ)*|, carmichael = exponent of the unit group (divides phi):
    the lcm over the prime powers p^e of q of phi(p^e), halved for 2^e
    with e > 2.  Its factors are factorize(q).
    """

    q: int
    phi: int
    carmichael: int

    @classmethod
    def from_int(cls, q: int) -> "Modulus":
        q = _bound_index("modulus", q, 2)
        phi = 1
        lam = 1
        for p, e in factorize(q):
            part = p ** (e - 1) * (p - 1)  # phi(p^e)
            phi *= part
            lam = math.lcm(lam, part // 2 if p == 2 and e > 2 else part)
        return cls(q, phi, lam)


class PrimalityPolicy:
    """How primality of generated candidates is decided."""

    table: PrimeTable | None = None  # the table the policy reads, if any


@dataclass(frozen=True)
class Exact(PrimalityPolicy):
    """Always-correct answers: table lookup when covered, else trial
    division by the primes to 2^12 (a lookup up to 2^12, then two gcds)
    and a proof in the three tiers of _PSI: the strong test to the first
    k primes below psi_5 (about 2.2e12), BPSW to 2^64 and the psi rule to
    psi_13 (about 3.3e24); ResourceLimitError above.  The lane engine
    divides whole steps at once with `trial_division` and calls the proof
    alone (the tester of `primality_tester(policy, x, screened=True)`)."""

    table: PrimeTable | None = None

    def __post_init__(self):
        if self.table is not None:
            _instance_of("Exact table", self.table, PrimeTable, ConfigError)


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


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of n (odd, > 251) with Selfridge's method A
    parameters: D the first of 5, -7, 9, -11, ... with Jacobi(D/n) = -1,
    P = 1 and Q = (1 - D)/4.  A square is refused first, as no D exists
    for it.  With n + 1 = d * 2^s, d odd, n passes iff U_d = 0 or
    V_(d 2^r) = 0 (mod n) for some r < s.  The ladder carries only
    (V_k, V_(k+1), Q^k); since 2 V_(k+1) = V_k + D U_k and D is a unit
    mod n, U_d = 0 iff 2 V_(d+1) = V_d."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = 2 - D if D < 0 else -D - 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    v, w, qk = 2, 1, 1  # V_k, V_(k+1), Q^k at k = 0
    for bit in bin(d)[2:]:
        if bit == "1":  # k -> 2k + 1
            v, w = (v * w - qk) % n, (w * w - 2 * qk * Q) % n
            qk = qk * qk * Q % n
        else:  # k -> 2k
            v, w = (v * v - 2 * qk) % n, (v * w - qk) % n
            qk = qk * qk % n
    if (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return v == 0


def _miller_rabin(n: int, bases=None) -> bool:
    """Trial division by the primes to 2^12 (a lookup to 2^12, then two
    gcds), then `_prove`."""
    if n <= _TRIAL_BOUND:
        return bool(_SMALL_FLAGS[n])
    if (math.gcd(n, _TRIAL_PRODUCTS[0]) != 1
            or math.gcd(n, _TRIAL_PRODUCTS[1]) != 1):
        return False
    # a numpy integer has no bit_length
    return _prove(operator.index(n), bases)


def _prove(n: int, bases=None) -> bool:
    """The proof stage of `_miller_rabin` for an int n above 2^12 with no
    prime factor to 2^12: the strong test of n to each base in `bases`
    (an iterable, consumed only as far as needed).  With no bases, n is
    proven for n < psi_13: by BPSW in _BPSW_RANGE, else by the first k
    witness primes, k the least index with n < psi_k."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if bases is None:
        if _BPSW_RANGE[0] <= n < _BPSW_RANGE[1]:
            return (not _mr_composite_witness(n, 2, d, s)
                    and _strong_lucas_probable_prime(n))
        bases = _DETERMINISTIC_WITNESSES[: bisect_right(_PSI, n) + 1]
    for a in bases:
        if _mr_composite_witness(n, a, d, s):
            return False
    return True


def trial_division(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_miller_rabin's first stage for each entry of n, an array of
    integers in [0, 2^64): (prime, open), where `prime` marks the primes
    <= 2^12 and `open` the entries above 2^12 with no prime factor to
    2^12, which only `_prove` settles.  Every other entry is composite (0
    and 1 included).  Under either policy a verdict is a function of n,
    so an array of candidates may be filtered at once."""
    n = n.astype(np.uint64)
    prime = _SMALL_FLAGS[np.minimum(n, _TRIAL_BOUND)]  # 2^12 is composite
    flat = n.ravel()
    index = np.flatnonzero(_WHEEL_UNITS[flat % (2 * _WHEEL)]
                           & (flat > _TRIAL_BOUND))
    for inverses, quotients, axis in _TRIAL_PASSES:
        chunk = _PRODUCTS // inverses.size
        keep = np.empty(len(index), dtype=bool)
        for k in range(0, len(index), chunk):
            m = flat[index[k : k + chunk]]
            if axis:  # a column of candidates against a row of primes
                m = m[:, None]
            keep[k : k + chunk] = ~np.logical_or.reduce(
                m * inverses <= quotients, axis=axis)
        index = index[keep]
    open_ = np.zeros(n.size, dtype=bool)
    open_[index] = True
    return prime, open_.reshape(n.shape)


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
    return n >= 2 and primality_tester(policy, n)(n)


def primality_tester(policy: PrimalityPolicy, x: int,
                     screened: bool = False):
    """Fastest correct primality callable for candidates in [0, x].  With
    `screened`, the testers skip trial division: each candidate must be
    one that trial_division leaves open, above 2^12 with no prime factor
    to 2^12."""
    test = _prove if screened else _miller_rabin
    if isinstance(policy, Exact):
        if (table := covering_table(policy.table, x)) is not None:
            return table.is_prime
        if x >= _DETERMINISTIC_MR_BOUND:
            raise ResourceLimitError(
                f"no exact primality method for n >= {_DETERMINISTIC_MR_BOUND}"
            )
        return test
    if isinstance(policy, MillerRabin):
        return lambda p: test(p := operator.index(p),
                              _random_bases(p, policy))
    raise DomainError(f"unknown primality policy {policy!r}")


# `verdicts`: every primality verdict of the generators' lane engine
_SCAN = 16  # members of a progression tested at a time for a prime
_BITS = 2 ** np.arange(23, -1, -1, dtype=np.float32)  # rows cast to 4 bytes


def _first_column(hit: np.ndarray) -> np.ndarray:
    """The first True column of each row of the bool array hit, or its
    width: to 24 columns the top bit of the row read in binary (a float32
    holds it exactly), else the argmax where the row holds a True."""
    width = hit.shape[1]
    if width <= len(_BITS):
        return width - np.frexp(hit @ _BITS[-width:])[1]
    first = hit.argmax(axis=1)
    return np.where(hit[np.arange(len(hit)), first], first, width)


class _Verdicts:
    """The lane engine's verdict rules over a backend's screen(rows): the
    entries proven prime, and those (or None) that only its test settles."""

    def first(self, rows):
        """Each row's first column holding a prime, or the width, proving
        up to it in column order, as generate."""
        prime, open_ = self.screen(rows)
        if open_ is None:
            return _first_column(prime)
        first = _first_column(prime).tolist()
        r, c = np.nonzero(open_)
        for r, c, n in zip(r.tolist(), c.tolist(), rows[open_].tolist()):
            if c < first[r] and self.test(n):
                first[r] = c
        return np.array(first)

    def holds_prime(self, q, a, m):
        """Whether each class a + t*q, t < m, holds a prime; one of more
        than `settle` members is taken to hold one."""
        holds = m > self.settle
        i = np.flatnonzero(~holds)
        holds[i] = self._first_member(q[i], a[i], m[i]) < m[i]
        return holds

    def _first_member(self, q, a, m):
        """The least t < m with a + t*q prime, for each entry, or m: by
        blocks of _SCAN members, proving only up to it."""
        found, rows, t = m.copy(), np.arange(len(m)), np.arange(_SCAN)
        while len(rows):
            # 0 stands for the members past the class end; it is not prime
            n = np.where(t < m[rows, None],
                         a[rows, None] + t * q[rows, None], 0)
            first = self.first(n)
            hit = first < _SCAN
            found[rows[hit]] = t[0] + first[hit]
            rows = rows[~hit & (m[rows] > t[-1] + 1)]
            t = t + _SCAN
        return found

    def next_prime(self, y):
        """The least prime in [y, x] for each start y in [1, x], or 0."""
        t = self._first_member(np.ones_like(y), y, self.x - y + 1)
        return np.where(t <= self.x - y, y + t, 0)

    def ends(self, starts, ok):
        """primeinc's end rule: each row's first start (where ok) with a
        prime <= x, or the width, and the next primes of those that end."""
        cols = np.arange(starts.shape[1])
        first, found = _first_column(ok), np.zeros(len(starts), starts.dtype)
        rows = np.flatnonzero(first < len(cols))
        while len(rows):
            found[rows] = self.next_prime(starts[rows, first[rows]])
            rows = rows[found[rows] == 0]
            first[rows] = _first_column(ok[rows] & (cols > first[rows, None]))
            rows = rows[first[rows] < len(cols)]
        return first, found[first < len(cols)]


class _TableVerdicts(_Verdicts):
    """verdicts from a table's flags."""

    settle = math.inf

    def __init__(self, table: PrimeTable, x: int):
        self.screen = lambda rows: (table.prime_mask(rows), None)
        self.next_prime = lambda y: table.next_prime(y, x)


class _TesterVerdicts(_Verdicts):
    """verdicts of a screened test past trial_division."""

    settle = 64  # a larger class spends its budget
    screen = staticmethod(trial_division)

    def __init__(self, test, x: int):
        self.test, self.x = test, x


def verdicts(policy: PrimalityPolicy, x: int):
    """The lane engine's _Verdicts on int64 candidates in [0, x], x < 2^63
    (0 for no candidate): from the policy's table where covering_table finds
    it covers x, else primality_tester(policy, x, screened=True), alike."""
    if (table := covering_table(policy.table, x)) is None:
        return _TesterVerdicts(primality_tester(policy, x, screened=True), x)
    return _TableVerdicts(table, x)

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primelab import ntheory
from primelab.errors import ConfigError, DomainError, ResourceLimitError
from primelab.ntheory import (
    EXACT,
    Exact,
    MillerRabin,
    Modulus,
    PrimeTable,
    count_ap_primes,
    factorize,
    is_prime,
    primality_tester,
    primes_upto,
    primorial_below,
    residue_class_primes,
    sieve,
    table_for,
    totient_partial_sum,
    totient_sieve,
    trial_division,
    verdicts,
)

from primelab.rng import CountingBitSource, split_seed

from conftest import trial_division_primes


def test_sieve_small():
    t = sieve(10)
    assert t.primes.tolist() == [2, 3, 5, 7]
    assert t.count_leq(10) == 4
    assert sieve(2).primes.tolist() == [2]


def test_sieve_against_trial_division():
    t = sieve(1000)
    assert t.primes.tolist() == trial_division_primes(1000)
    assert all(t.is_prime(p) for p in t.primes.tolist())
    assert not any(t.is_prime(n) for n in range(1001) if n not in set(t.primes.tolist()))


def test_sieve_pi_100():
    assert sieve(100).count_leq(100) == 25


def _flat_sieve(bound):
    """Primality of 0..bound by a plain one-shot sieve."""
    flat = np.ones(bound + 1, dtype=bool)
    flat[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flat[p]:
            flat[p * p :: p] = False
    return flat


def test_segmented_sieve_matches_flat_oracle():
    # bound crosses the internal segment boundary; oracle is a plain
    # one-shot sieve written here
    bound = (1 << 22) + 1000
    flat = _flat_sieve(bound)
    t = sieve(bound)
    assert len(t.primes) == int(flat.sum())
    lo = (1 << 22) - 50
    for n in range(lo, bound + 1):
        assert t.is_prime(n) == bool(flat[n])


def _assert_matches_flat(t, flat):
    bound = len(flat) - 1
    assert t.primes.dtype == np.uint32
    assert np.array_equal(t.primes, np.flatnonzero(flat))
    # packed odd flags: bit i & 7 of byte i >> 3 for 2i + 1, zero-padded
    # to bound // 16 + 1 bytes
    odd = np.packbits(flat[1::2], bitorder="little")
    assert len(t._flags) == bound // 16 + 1
    assert t._flags.tobytes() == odd.tobytes().ljust(len(t._flags), b"\0")


def test_sieve_matches_flat_reference():
    flat = _flat_sieve(2000)
    for bound in range(2, 2001):
        _assert_matches_flat(sieve(bound), flat[: bound + 1])


def test_sieve_segment_and_wheel_edges(monkeypatch):
    # segments of 64 odd numbers (128 integers): bounds on either side of
    # segment edges, and where the wheel (period 15,015 odd numbers) first
    # needs a second period
    flat = _flat_sieve(2 * ntheory._WHEEL + 1)
    wheel_edges = [2 * ntheory._WHEEL + d for d in (-1, 0, 1)]
    for bound in wheel_edges:
        _assert_matches_flat(sieve(bound), flat[: bound + 1])
    monkeypatch.setattr(ntheory, "_SEGMENT", 64)
    span = 2 * ntheory._SEGMENT
    edges = [span * k + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    edges += [ntheory._SEGMENT + d for d in (-1, 0, 1)]
    for bound in edges + wheel_edges:
        _assert_matches_flat(sieve(bound), flat[: bound + 1])


@pytest.mark.parametrize("bound", [2, 3, 8, 2**21 - 1, 2**21, 2**21 + 1,
                                   3 * 2**21 + 5, 10**6])
def test_the_derived_list_matches_a_plain_sieve(bound):
    """sieve writes only the flags; the list is derived from them on first
    read, chunk by chunk, and kept.  The bounds lie at the edges of the
    sieve's segments of 2^21 numbers."""
    t = sieve(bound)
    primes = t.primes
    assert primes.dtype == np.uint32
    assert np.array_equal(primes, np.flatnonzero(_flat_sieve(bound)))
    assert t.primes is primes


@pytest.mark.parametrize("bound", [2, 3, 100, 1000, 2**15 + 3])
def test_count_leq_counts_the_flags(bound):
    t = sieve(bound)
    primes = t.primes
    grid = {-5, 0, 1, 2, 3, 63, 64, 65, bound // 2, bound - 1, bound}
    grid |= set(range(max(bound - 70, 0), bound + 1))
    grid = sorted(n for n in grid if n <= bound)
    for n in grid + [np.int64(bound), np.uint32(bound // 3), np.int64(-1)]:
        assert t.count_leq(n) == len(primes[primes <= n]), n


def test_table_is_read_only():
    # a write into the list or the flags changed every later verdict
    t = sieve(100)
    for write in (lambda: t.primes.__setitem__(0, 4),
                  lambda: t._flags.__setitem__(0, 255)):
        with pytest.raises(ValueError):
            write()
    with pytest.raises(TypeError):
        t._flags_view[0] = 255
    assert t.primes[0] == 2 and not t.is_prime(4)


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_the_smallest_hand_built_tables(bound):
    """A table keeps only the flags of the odd numbers (bit 1 of byte 0
    stands for 3), so 2 is prime by rule and 0 and 1 are not, in every
    reader of a table of one flag byte."""
    flags = np.array([0b10 if bound >= 3 else 0], dtype=np.uint8)
    t = PrimeTable(bound, flags)
    expected = [n for n in (2, 3) if n <= bound]
    n = np.arange(bound + 1)
    assert t.primes.tolist() == expected
    assert [t.count_leq(k) for k in n] == [sum(p <= k for p in expected)
                                           for k in n]
    assert [t.is_prime(k) for k in n] == [k in expected for k in n]
    assert t.prime_mask(n).tolist() == [k in expected for k in n]


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 4, 996, 997, 998, 1000,
                               np.int64(-5), np.int64(997), np.int64(1000),
                               np.uint32(500), np.uint64(1000)])
def test_count_leq_edges(table_1k, n):
    assert table_1k.count_leq(n) == sum(
        1 for p in table_1k.primes.tolist() if p <= n)


@pytest.mark.parametrize("n", [1001, np.int64(1001), 2**32, 2**64])
def test_count_leq_past_the_bound(table_1k, n):
    with pytest.raises(DomainError):
        table_1k.count_leq(n)


def test_table_readers_make_no_copy_of_the_list():
    # a needle of another dtype than the list's widened the whole list to
    # an int64 copy (2.7 MB here) on every call
    t = sieve(10**7)
    primes_upto(10**7, t), t.count_leq(10**6)
    tracemalloc.start()
    try:
        assert len(primes_upto(10**7, t)) == 664_579
        assert t.count_leq(10**6) == 78_498
        assert t.count_leq(np.int64(10**7)) == 664_579
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_sieve_prime_counts():
    counts = [len(sieve(10**k).primes) for k in range(1, 8)]
    assert counts == [4, 25, 168, 1229, 9592, 78498, 664579]


def test_sieve_domain_and_cap():
    with pytest.raises(DomainError):
        sieve(1)
    with pytest.raises(ResourceLimitError):
        sieve(2**31 + 1)
    with pytest.raises(ResourceLimitError):
        sieve(2**31)  # the desk-scale cap: 268 MB of flags


def test_count_ap_primes_examples():
    t = sieve(100)
    assert count_ap_primes(t, 3, 1) == 11
    assert count_ap_primes(t, 3, 2) == 13
    assert count_ap_primes(t, 1, 0) == 25


def test_count_ap_primes_errors():
    t = sieve(100)
    with pytest.raises(DomainError):
        count_ap_primes(t, 3, 3)
    with pytest.raises(DomainError):
        count_ap_primes(t, 0, 0)
    with pytest.raises(DomainError):
        count_ap_primes(t, 5, -1)
    # a float modulus counted primes = 1 (mod 2.5): 11, 31, 41, 61, 71
    with pytest.raises(DomainError):
        count_ap_primes(t, 2.5, 1)
    with pytest.raises(DomainError):
        residue_class_primes(t, 6, 1.0)


@pytest.mark.parametrize("q", [2, 3, 6, 7, 30, 97, 210])
def test_residue_classes_partition_primes(q):
    t = sieve(2000)
    total = sum(count_ap_primes(t, q, a) for a in range(q))
    assert total == len(t.primes)
    # classes with gcd(a, q) > 1 hold exactly the primes dividing q
    nonunit = sum(
        count_ap_primes(t, q, a) for a in range(q) if math.gcd(a, q) != 1
    )
    assert nonunit == sum(1 for p, _ in factorize(q))


def test_residue_class_primes_examples():
    t = sieve(30)
    assert residue_class_primes(t, 6, 1) == [7, 13, 19]
    assert residue_class_primes(t, 6, 5) == [5, 11, 17, 23, 29]
    assert residue_class_primes(t, 6, 0) == []


def test_residue_class_primes_matches_count():
    t = sieve(500)
    for q, a in [(4, 1), (9, 2), (30, 7), (97, 5)]:
        assert len(residue_class_primes(t, q, a)) == count_ap_primes(t, q, a)


def test_class_of_a_modulus_past_the_table():
    # a class mod q > bound holds at most a itself; q = 2^63 raised a bare
    # OverflowError from the int64 primes % q
    t = sieve(1000)
    for q in (1009, 2**63, 10**30):
        assert residue_class_primes(t, q, 7) == [7]
        assert count_ap_primes(t, q, 7) == 1
        assert count_ap_primes(t, q, 9) == count_ap_primes(t, q, 1001) == 0


def test_primorial_below():
    assert primorial_below(100) == 30
    assert primorial_below(6) == 6
    assert primorial_below(10**6) == 510510
    assert primorial_below(2) == 2
    with pytest.raises(DomainError):
        primorial_below(1)


def test_primorial_bracketing():
    # primorial_below(L) <= L < primorial_below(L) * (next prime)
    for L in [2, 5, 29, 30, 31, 209, 210, 211, 10**4, 10**6, 10**9]:
        prod = primorial_below(L)
        assert prod <= L
        largest = max(p for p, _ in factorize(prod)) if prod > 1 else 1
        nxt = largest + 1
        while not is_prime(nxt):
            nxt += 1
        assert L < prod * nxt


@pytest.mark.parametrize("root", [4096, 4097, 10**4, 46_340])
def test_base_primes_are_the_sieved_primes(root):
    # one table of small primes, sieved at import, whatever the bound
    assert ntheory._base_primes(root) == sieve(root).primes.tolist()


def _primorial_by_walk(limit):
    """primorial_below as an is_prime walk over the integers."""
    product, p = 1, 2
    while product * p <= limit:
        product *= p
        p += 1
        while not is_prime(p):
            p += 1
    return product


def test_primorial_below_equals_an_is_prime_walk():
    limits = sorted({2, 3, 5, 6, 7, 29, 30, 31, 209, 210, 211, 2**1023}
                    | {2**k + d for k in range(2, 1024, 37) for d in (-1, 1)})
    assert [primorial_below(n) for n in limits] == [
        _primorial_by_walk(n) for n in limits]


def test_primorial_below_refuses_a_limit_past_its_primes():
    # every prime to 46,340 multiplied: the next factor is not listed
    product = math.prod(sieve(46_340).primes.tolist())
    assert primorial_below(product - 1) == product // 46_337
    with pytest.raises(ResourceLimitError):
        primorial_below(product)


def test_totient_partial_sum_small():
    assert totient_partial_sum(1) == 1
    assert totient_partial_sum(5) == 10  # 1+1+2+2+4


def test_totient_sieve_against_gcd_oracle():
    phi = totient_sieve(200)
    for n in range(1, 201):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert phi[n] == brute


def _totient_loop(bound):
    """Per-prime reference: phi[p::p] -= phi[p::p] // p for each p found
    untouched, hence prime, in increasing order."""
    phi = np.arange(bound + 1, dtype=np.int64)
    for p in range(2, bound + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


def _modulus_phis(bound):
    return [0, 1] + [Modulus.from_int(k).phi for k in range(2, bound + 1)]


def test_totient_sieve_matches_modulus_phi():
    phi = totient_sieve(20_000)
    assert phi.dtype == np.int64
    assert phi.tolist() == _modulus_phis(20_000)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_totient_sieve_around_prime_squares(p):
    # sqrt(bound) crosses p: p joins the sieving primes or is left over
    for bound in (p * p - 1, p * p, p * p + 1):
        assert totient_sieve(bound).tolist() == _modulus_phis(bound)


def test_totient_sieve_block_edges():
    # one full block, then a last block of one and of two integers
    block = ntheory._TOTIENT_BLOCK
    ref = _totient_loop(block + 1)
    for bound in (block - 1, block, block + 1):
        assert np.array_equal(totient_sieve(bound), ref[: bound + 1])


def test_totient_sieve_many_blocks(monkeypatch):
    # blocks of 16: prime powers and leftover primes in blocks past the first
    monkeypatch.setattr(ntheory, "_TOTIENT_BLOCK", 16)
    ref = _totient_loop(400)
    for bound in range(1, 401):
        assert np.array_equal(totient_sieve(bound), ref[: bound + 1])


def test_sieves_refuse_non_integer_bounds():
    for fn in (sieve, totient_sieve):
        for bad in (2.5, 100.0, "100", None):
            with pytest.raises(DomainError):
                fn(bad)
    # numpy integers are integers
    assert sieve(np.int64(100)).count_leq(100) == 25
    assert totient_sieve(np.int32(10)).tolist() == _modulus_phis(10)


def test_totient_partial_sum_asymptotic():
    # Phi(x) ~ 3 x^2 / pi^2
    ratio = totient_partial_sum(10**4) / (3 * 10**8 / math.pi**2)
    assert abs(ratio - 1) < 0.01


def test_totient_lower_bound_constant():
    # phi(q) * log log q / q stays above a positive constant at desk scale
    phi = totient_sieve(10**5)
    worst = min(
        phi[q] * math.log(math.log(q)) / q for q in range(3, 10**5 + 1)
    )
    assert worst > 0.05


def test_modulus_fields():
    m = Modulus.from_int(2310)
    assert m.phi == 480
    assert factorize(m.q) == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))
    assert m.carmichael == 60
    assert m.phi % m.carmichael == 0

    m8 = Modulus.from_int(8)
    assert (m8.phi, m8.carmichael) == (4, 2)
    with pytest.raises(DomainError):
        Modulus.from_int(1)


@pytest.mark.parametrize("factors", [
    ((2**61 - 1, 1),),  # trial division ran to 2^30.5: minutes
    ((10**16 + 61, 1),),  # 7.8 s
    ((3, 2), (4099, 1), (10**14 + 31, 1)),  # prime once 4099 is out
    ((4111, 7),),  # above psi_13, divided out to 1
    ((1_048_573, 1), (1_048_583, 1)),  # one factor to 2^20, one above
], ids=["2^61-1", "10^16+61", "cofactor", "prime_power", "2^20"])
def test_factorize_stops_at_a_proven_cofactor(factors):
    n = math.prod(p**e for p, e in factors)
    assert factorize(n) == factors


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 2**40))
def test_factorize_below_2_40(n):
    factors = factorize(n)
    assert math.prod(p**e for p, e in factors) == n
    assert all(is_prime(p) and e >= 1 for p, e in factors)
    assert [p for p, _ in factors] == sorted({p for p, _ in factors})


@pytest.mark.parametrize("q", [2, 3, 4, 8, 15, 16, 30, 97, 100, 561])
def test_modulus_phi_product_form(q):
    m = Modulus.from_int(q)
    # phi = q * prod(1 - 1/p), checked in exact arithmetic
    expected = Fraction(q)
    for p, _ in factorize(q):
        expected *= Fraction(p - 1, p)
    assert m.phi == expected
    # carmichael is the exponent of the unit group
    for a in range(1, q):
        if math.gcd(a, q) == 1:
            assert pow(a, m.carmichael, q) == 1


def test_is_prime_basics():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert not is_prime(561, MillerRabin(20, 7))  # Carmichael number
    with pytest.raises(ConfigError):
        MillerRabin(rounds=0)  # would call 2021 = 43 * 47 prime
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)
    with pytest.raises(DomainError):
        is_prime(-5)


def test_is_prime_exact_beyond_witness_bound():
    from primelab.generators import Algorithm, GenConfig, generate

    with pytest.raises(ResourceLimitError):
        is_prime(3_317_044_064_679_887_385_961_981)
    # a generator cannot promise exact verdicts for candidates that large
    with pytest.raises(ResourceLimitError):
        generate(GenConfig(x=10**30, algorithm=Algorithm.TRIVIAL))


# psi_k, the least strong pseudoprime to the first k prime bases, for
# each distinct value among psi_1..psi_12 (psi_7 = psi_8,
# psi_9 = psi_10 = psi_11), keyed by the largest such k
PSI = {
    1: 2_047,
    2: 1_373_653,
    3: 25_326_001,
    4: 3_215_031_751,
    5: 2_152_302_898_747,
    6: 3_474_749_660_383,
    8: 341_550_071_728_321,
    11: 3_825_123_056_546_413_051,
    12: 318_665_857_834_031_151_167_461,
}
WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    """n passes the strong test to base a (n odd, 1 < a < n)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _reference_is_prime(n):
    """Trial division by the 13 witness primes, then all 13 strong tests:
    proven for n < psi_13 whatever the size of n."""
    if n < 2:
        return False
    for p in WITNESSES:
        if n % p == 0:
            return n == p
    return all(_strong_probable_prime(n, a) for a in WITNESSES)


@pytest.mark.parametrize("k", sorted(PSI))
def test_is_prime_exact_psi_bound(k):
    psi = PSI[k]
    # the bound is tight: psi_k passes the strong test to the first k bases
    assert all(_strong_probable_prime(psi, a) for a in WITNESSES[:k])
    assert not _strong_probable_prime(psi, WITNESSES[k])
    assert not is_prime(psi)
    assert not is_prime(psi, Exact(sieve(1000)))
    assert not is_prime(psi, MillerRabin(20, seed=k))
    if k == 12:
        assert psi == 399_165_290_221 * 798_330_580_441


def test_is_prime_exact_matches_reference():
    for n in range(2 * 10**5):
        assert is_prime(n) == _reference_is_prime(n), n
    for psi in PSI.values():
        for n in range(psi - 2000, psi + 2001):
            assert is_prime(n) == _reference_is_prime(n), n
    rnd = random.Random(2024)
    for scale in (10**12, 10**18, 10**24):
        for _ in range(10**4):
            n = rnd.randrange(scale, 2 * scale)
            assert is_prime(n) == _reference_is_prime(n), n


_BPSW_LO, _BPSW_HI = ntheory._BPSW_RANGE


def test_lucas_stage_refuses_base_2_strong_pseudoprimes():
    # the Lucas half of BPSW alone refuses what the base-2 half lets by:
    # every base-2 strong pseudoprime below 10^6 and each psi_k in the
    # BPSW range, all of which pass base 2
    primes = set(sieve(10**6).primes.tolist())
    spsp = [n for n in range(3, 10**6, 2)
            if n not in primes and _strong_probable_prime(n, 2)]
    assert len(spsp) == 46 and spsp[:3] == [2047, 3277, 4033]
    psis = [psi for psi in PSI.values() if _BPSW_LO <= psi < _BPSW_HI]
    assert psis == [PSI[5], PSI[6], PSI[8], PSI[11]]
    for n in spsp + psis:
        assert _strong_probable_prime(n, 2), n
        assert not ntheory._strong_lucas_probable_prime(n), n
    # and it passes primes on either side of the range's ends
    for p in (1_000_003, 2_152_302_898_771, 2**64 - 59):
        assert _reference_is_prime(p)
        assert ntheory._strong_lucas_probable_prime(p), p


def test_is_prime_refuses_prime_squares():
    # no Selfridge D exists for a square, so the Lucas stage refuses one
    # before its D search, which would not end.  Base 2 already refuses
    # p^2 unless p is a Wieferich prime (1093, 3511 below 6.7e15), whose
    # squares pass it.
    rnd = random.Random(21)
    primes = [2**32 - 5]
    while len(primes) < 50:
        p = rnd.randrange(2**21, 2**32)
        while not _reference_is_prime(p):
            p += 1
        primes.append(p)
    for p in primes:
        assert is_prime(p) and not is_prime(p * p), p
        assert not ntheory._strong_lucas_probable_prime(p * p), p
    for p in (1093, 3511):
        assert _strong_probable_prime(p * p, 2)
        assert not ntheory._strong_lucas_probable_prime(p * p), p


def _semiprime(p, m):
    """p(mp - m + 1) for the least p' >= p with p' and mp' - m + 1 prime:
    the shape of psi_12 = p(2p - 1), which fools strong tests."""
    while not (_reference_is_prime(p) and _reference_is_prime(m * p - m + 1)):
        p += 1
    return p * (m * p - m + 1)


@given(st.one_of(
    st.integers(_BPSW_LO, _BPSW_HI - 1),
    st.integers(1_037_378, 3_000_000_000).map(lambda p: _semiprime(p, 2)),
    st.integers(847_016, 2_400_000_000).map(lambda p: _semiprime(p, 3))))
@example(_semiprime(2**21, 2))
@example(_semiprime(2**31, 2))
@example(_semiprime(2**21, 3))
@example(_semiprime(2**31, 3))
@settings(max_examples=500, deadline=None)
def test_bpsw_range_matches_reference(n):
    assert _BPSW_LO <= n < _BPSW_HI
    assert is_prime(n) == _reference_is_prime(n), n


def test_is_prime_integer_types():
    for policy in (EXACT, Exact(sieve(2000)), MillerRabin(20, seed=5)):
        assert is_prime(np.int64(1_000_003), policy) is True
        assert is_prime(np.uint32(97), policy) is True
        assert is_prime(np.int64(1_000_001), policy) is False  # 101 * 9901
        for bad in (8.5, 7.0, "7", None, Fraction(7)):
            with pytest.raises(DomainError):
                is_prime(bad, policy)
        # the tester itself takes numpy integers above 251: the witness
        # test raised AttributeError (bit_length), the random bases a bare
        # OverflowError from split_seed
        test = primality_tester(policy, 1000)
        for n in (np.int64(997), np.uint16(991), np.int64(999),
                  np.int64(251)):
            assert test(n) == is_prime(n, policy), (policy, n)


def test_is_prime_table_policy(table_1k):
    pol = Exact(table_1k)
    primes = set(table_1k.primes.tolist())
    for n in range(1001):
        assert is_prime(n, pol) == (n in primes)
    # above the table it falls back to the witness test
    assert is_prime(1009, pol)


def test_miller_rabin_never_rejects_primes(table_100k):
    # composite verdicts are always correct, so primes must always pass
    for rounds in (1, 5):
        pol = MillerRabin(rounds, seed=17)
        for p in table_100k.primes.tolist():
            assert is_prime(p, pol)


def test_miller_rabin_bases_come_from_the_counter_stream():
    # base i of candidate n: 2 + the i-th draw below n - 3 from the stream
    # keyed by split_seed(seed, n)
    n, pol = 10**12 + 39, MillerRabin(5, seed=8)
    src = CountingBitSource(split_seed(8, n))
    bases = [2 + src.uniform_below(n - 3) for _ in range(5)]
    assert list(ntheory._random_bases(n, pol)) == bases
    assert all(2 <= b <= n - 2 for b in bases)


def test_miller_rabin_finds_composites():
    pol = MillerRabin(20, seed=3)
    t = sieve(3000)
    primes = set(t.primes.tolist())
    for n in range(2, 3000):
        if n not in primes:
            assert not is_prime(n, pol), n


@given(st.integers(min_value=0, max_value=10**5))
@settings(max_examples=300, deadline=None)
def test_is_prime_matches_table(table_100k, n):
    assert is_prime(n) == (n >= 2 and table_100k.is_prime(n))


def test_table_for_covers_x_or_refuses(table_1k):
    small = sieve(100)
    assert table_for(1000, table_1k) is table_1k
    assert table_for(100, None, small) is small
    # an undersized fallback is passed over, an undersized table refused
    assert table_for(1000, None, small).bound == 1000
    with pytest.raises(DomainError):
        table_for(1000, small)
    with pytest.raises(ResourceLimitError):
        table_for(2**40)
    assert primes_upto(100, table_1k).tolist() == small.primes.tolist()


_TRIAL_BOUND = ntheory._TRIAL_BOUND
_TRIAL_PRODUCT = math.prod(ntheory._TRIAL_PRODUCTS)


def _first_stage(n):
    """_miller_rabin's first stage for n: "prime" for the primes to
    ntheory's trial bound, "open" past it and prime to every prime up to
    it, else "composite"."""
    if n <= _TRIAL_BOUND:
        return "prime" if _reference_is_prime(n) else "composite"
    coprime = math.gcd(n, _TRIAL_PRODUCT) == 1
    return "open" if coprime else "composite"


def test_trial_division_is_the_first_stage_of_the_tester():
    assert _TRIAL_PRODUCT == math.prod(
        p for p in range(_TRIAL_BOUND + 1) if _reference_is_prime(p))
    rnd = random.Random(5)
    small = [p for p in range(2, 400) if _reference_is_prime(p)]
    values = list(range(70_000))
    values += [rnd.randrange(2**64) for _ in range(50_000)]
    values += [p * q for p in small for q in small]  # 251 * 257 among them
    # across the trial bound: the products of primes on either side of it,
    # and the squares of the first primes past it, the least composites
    # that only a proof refuses
    near = [p for p in range(_TRIAL_BOUND - 199, _TRIAL_BOUND + 200)
            if _reference_is_prime(p)]
    above = [p for p in range(_TRIAL_BOUND, _TRIAL_BOUND + 200)
             if _reference_is_prime(p)][:8]
    straddle = [p * q for p in near for q in near]
    straddle += [_TRIAL_BOUND - 1, _TRIAL_BOUND, _TRIAL_BOUND + 1]
    straddle += [p * p for p in above] + above
    values += straddle + [2**63 - 1, 2**63, 2**64 - 59, 2**64 - 1]
    stage = {v: _first_stage(v) for v in values}
    assert {stage[p * p] for p in above} == {"open"}
    for dtype in (np.uint64, np.int64):
        n = np.array([v for v in values if v <= np.iinfo(dtype).max], dtype)
        n = n[: len(n) // 2 * 2].reshape(-1, 2)[:, ::-1]  # not contiguous
        prime, open_ = trial_division(n)
        assert prime.shape == open_.shape == n.shape
        verdicts = np.where(prime, "prime", np.where(open_, "open",
                                                     "composite"))
        assert verdicts.tolist() == [[stage[v] for v in row]
                                     for row in n.tolist()]
    for v in values[:5000] + straddle + values[-4:]:
        if stage[v] != "open":
            assert ntheory._miller_rabin(v) == (stage[v] == "prime")
        else:  # the proof alone, past trial division
            assert ntheory._prove(v) == _reference_is_prime(v)


def test_trial_division_memory_does_not_scale_with_the_primes():
    # a full-width step of the lane engine, 4,096 lanes x 8 words near
    # 10^18: the uint64 copy and its residues take 256 KiB each, and each
    # pass at most 256 KiB of products at a time, however many primes it
    # divides by (all 510 above 251 at once would take 2 MB per 512 rows)
    n = np.random.default_rng(3).integers(10**18 - 10**15, 10**18,
                                          (4096, 8), dtype=np.int64)
    trial_division(n)
    tracemalloc.start()
    try:
        trial_division(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_prime_mask_matches_is_prime(table_1k):
    n = np.arange(1001)
    assert (table_1k.prime_mask(n)
            == [table_1k.is_prime(int(k)) for k in n]).all()


def test_primality_tester_reads_a_covering_table(table_1k):
    assert primality_tester(Exact(table_1k), 1000) == table_1k.is_prime
    assert primality_tester(Exact(table_1k), 1001) is ntheory._miller_rabin
    # the lane engine's entry, past trial_division: the proof alone
    assert primality_tester(EXACT, 10**18, screened=True) is ntheory._prove
    with pytest.raises(ResourceLimitError):
        primality_tester(EXACT, ntheory._DETERMINISTIC_MR_BOUND)
    test = primality_tester(MillerRabin(rounds=3), 10**6)
    assert [n for n in range(100) if test(n)] == sieve(100).primes.tolist()


def test_verdicts_read_the_policy_table_where_it_covers_x(table_1k):
    """verdicts picks its backend by covering_table(policy.table, x), as
    primality_tester does, and a hand-built table to the cap, 2^31 - 1,
    answers int64 candidates up to it.  Its flags (zeroed lazily; two
    pages are read) hold only the primes in (x - 100, x], x among them."""
    for policy, x, backend in (
            (Exact(table_1k), 1000, ntheory._TableVerdicts),
            (Exact(table_1k), 1001, ntheory._TesterVerdicts),
            (EXACT, 1000, ntheory._TesterVerdicts),
            (MillerRabin(2), 1000, ntheory._TesterVerdicts)):
        assert type(verdicts(policy, x)) is backend
    x = ntheory.DEFAULT_SIEVE_CAP
    base = x - 99
    primes = [base + 1, base + 15, base + 31, base + 39, base + 81, x]
    assert [n for n in range(base, x + 1) if is_prime(n)] == primes
    flags = np.zeros(x // 16 + 1, np.uint8)
    for p in primes:
        flags[p >> 4] |= 1 << (p >> 1 & 7)
    read = verdicts(Exact(PrimeTable(x, flags)), x)
    rows = np.array([[base + 3, base + 15, base + 31],
                     [base + 3, base + 5, base + 7]])
    assert read.first(rows).tolist() == [1, 3]
    first, found = read.ends(np.array([[base + 50, base + 96],
                                       [base + 82, base + 90]]),
                             np.ones((2, 2), bool))
    assert (first.tolist(), found.tolist()) == ([0, 0], [base + 81, x])


_NARROW = sieve(3000)


def _searched_next_prime(table, y, x):
    """The least prime in [y, x] for each y, or 0, by a binary search of
    the list."""
    primes = table.primes[: table.count_leq(x)].astype(np.int64)
    i = np.searchsorted(primes, y)
    return np.where(i < len(primes), primes[np.minimum(i, len(primes) - 1)],
                    0)


_GAP = sieve(1_357_340)  # 1,357,201 and then no prime up to 1,357,333


@pytest.mark.parametrize("table", ["narrow", "gap"])
def test_the_window_next_prime_matches_a_search_of_the_list(table):
    """The table's next-prime lookup reads one 64-bit window of the flags
    per start, and on past an empty one; it equals a binary search of the
    list at y = x, at the starts above the largest prime <= x, in the
    flags' last byte and inside the 132-long gap after 1,357,201, whose
    prime lies past the first window of 128 numbers."""
    table = {"narrow": _NARROW, "gap": _GAP}[table]
    rng = np.random.default_rng(11)
    b = table.bound
    for x in (b, b - 3, 2971, 2995, 64, 2):
        top = int(table.primes[table.count_leq(x) - 1])
        starts = [x, top, top + 1, *range(max(x - 70, 0), x + 1),
                  *range(16 * (b >> 4), b + 1), *range(1_357_198, 1_357_340)]
        y = np.array([s for s in starts if 0 <= s <= x]
                     + rng.integers(0, x + 1, 2000).tolist(), dtype=np.int64)
        expected = _searched_next_prime(table, y, x)
        assert np.array_equal(table.next_prime(y, x), expected), x
        backend = verdicts(Exact(table), x)
        assert np.array_equal(backend.next_prime(y), expected), x
    gap = np.arange(1_357_202, 1_357_334)
    if b >= 1_357_333:
        assert (table.next_prime(gap, b) == 1_357_333).all()


@pytest.mark.parametrize("x", [2971, 2995], ids=["prime_x", "composite_x"])
@pytest.mark.parametrize("table", [_NARROW], ids=["uint32"])
def test_table_and_tester_verdicts_agree(table, x):
    """verdicts' two backends under Exact below 2^31, on random rows with
    0, 1, the members past x (written as 0) and the starts above the
    largest prime (2971 <= x): the same first columns, the same settled
    classes, and primeinc's same end rule, each as is_prime scans give
    them."""
    read, tested = verdicts(Exact(table), x), verdicts(EXACT, x)
    assert read.settle >= tested.settle == 64
    rng = np.random.default_rng(7)
    top = 2971
    assert primes_upto(x, table)[-1] == top

    def first_prime(row):
        return next((c for c, n in enumerate(row) if is_prime(n)), len(row))

    for width in (1, 8, 16):
        rows = rng.integers(0, x + 1, (300, width))
        rows[rng.random(rows.shape) < 0.2] = 0
        rows[rng.random(rows.shape) < 0.1] = 1
        expected = [first_prime(row) for row in rows.tolist()]
        for v in (read, tested):
            assert v.first(rows).tolist() == expected

    q = rng.integers(1, 200, 300)
    a = rng.integers(0, q)
    m = np.minimum((x - a) // q + 1, rng.integers(1, 65, 300))
    # 1328..1360 hold no prime: classes of q = 1 whose (f+1)-th member,
    # 1361, is the first prime, at the edges of the blocks of 16 members
    edges = [(1, 1361 - f, f + d) for f in (15, 16, 17, 31, 32, 33)
             for d in (0, 1)]
    q, a, m = (np.concatenate([v, w]) for v, w in zip((q, a, m),
                                                      zip(*edges)))
    holds = [any(is_prime(int(a_ + t * q_)) for t in range(m_))
             for q_, a_, m_ in zip(q.tolist(), a.tolist(), m.tolist())]
    assert not all(holds)
    for v in (read, tested):
        assert v.holds_prime(q, a, m).tolist() == holds

    starts = rng.integers(1, x + 1, (300, 8))
    # the starts above the largest prime, and those that end at x
    near = rng.random(starts.shape) < 0.7
    starts[near] = rng.integers(top - 10, x + 1, np.count_nonzero(near))
    ok = rng.random(starts.shape) < 0.8
    starts *= ok
    ends = [next((c for c, y in enumerate(row) if k[c] and y <= top), 8)
            for row, k in zip(starts.tolist(), ok.tolist())]
    primes = [next(p for p in range(row[c], x + 1) if is_prime(p))
              for row, c in zip(starts.tolist(), ends) if c < 8]
    assert (8 in ends) == (x > top) and primes.count(top) > 10
    for v in (read, tested):
        first, found = v.ends(starts, ok)
        assert first.tolist() == ends and found.tolist() == primes


def test_the_end_rule_moves_past_starts_above_the_largest_prime():
    """primeinc's end rule scans a row's starts only while they lie above
    the largest prime <= x (2971 for x = 2995), which redraws them: rows
    whose first 1, 2 and 7 ok starts lie there before one that ends, with
    starts that are not ok in between, a row with no ok start and a row
    whose every ok start lies there.  Both backends equal a per-row
    is_prime scan."""
    x, top, width = 2995, 2971, 8
    above = [2972, 2990, 2995, 2980, 2975, 2993, 2984]
    rows = [
        ([2980, 1000] + [5] * 6, [True] * 8),
        ([2990, 13, 2975, 2971] + [0] * 4,
         [True, False, True, True] + [False] * 4),
        (above + [1], [True] * 8),
        ([2, 3, 5, 7, 11, 13, 17, 19], [False] * 8),
        (above + [17], [True] * 7 + [False]),
        ([2972, 0, 0, 2995, 0, 2980, 0, 0],
         [True, False, False, True, False, True, False, False]),
    ]
    starts = np.array([r for r, _ in rows])
    ok = np.array([k for _, k in rows])
    starts *= ok

    def end(row, oks):
        for c, (y, k) in enumerate(zip(row, oks)):
            if k and y <= top:
                return c, next(p for p in range(y, x + 1) if is_prime(p))
        return width, None

    expected = [end(r, k) for r, k in zip(starts.tolist(), ok.tolist())]
    assert [c for c, _ in expected] == [1, 3, 7, 8, 8, 8]
    for v in (verdicts(Exact(sieve(x)), x), verdicts(EXACT, x)):
        first, found = v.ends(starts, ok)
        assert first.tolist() == [c for c, _ in expected]
        assert found.tolist() == [p for _, p in expected if p is not None]
        assert ok.tolist() == [k for _, k in rows]  # ok is left as it was


@pytest.mark.parametrize("width", [1, 8, 16, 24, 25, 64, 224])
@pytest.mark.parametrize("rows", [1, 2, 17, 4096])
def test_first_column_is_exact_at_any_width(rows, width):
    """The lane engine's first True column of each row, or the width, on
    rows with no True, a True in the last column alone, or any density."""
    rng = np.random.default_rng(rows * 1000 + width)
    density = rng.choice([0.0, 0.5 / width, 0.3, 1.0], size=(rows, 1))
    hit = rng.random((rows, width)) < density
    k = min(rows, width)
    hit[:k] = np.eye(k, width, width - k, dtype=bool)  # row k-1: the last
    expected = np.where(hit.any(1), hit.argmax(1), width)
    assert ntheory._first_column(hit).tolist() == expected.tolist()

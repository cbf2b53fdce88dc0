import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelab import ntheory
from primelab.errors import ConfigError, DomainError, ResourceLimitError
from primelab.ntheory import (
    EXACT,
    Exact,
    MillerRabin,
    Modulus,
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
)

from primelab.rng import CountingBitSource, split_seed

from conftest import trial_division_primes


def test_sieve_small():
    t = sieve(10)
    assert t.primes.tolist() == [2, 3, 5, 7]
    assert t.prime_count() == 4
    assert sieve(2).primes.tolist() == [2]


def test_sieve_against_trial_division():
    t = sieve(1000)
    assert t.primes.tolist() == trial_division_primes(1000)
    assert all(t.is_prime(p) for p in t.primes.tolist())
    assert not any(t.is_prime(n) for n in range(1001) if n not in set(t.primes.tolist()))


def test_sieve_pi_100():
    assert sieve(100).prime_count() == 25


def test_segmented_sieve_matches_flat_oracle():
    # bound crosses the internal segment boundary; oracle is a plain
    # one-shot sieve written here
    bound = (1 << 22) + 1000
    flat = np.ones(bound + 1, dtype=bool)
    flat[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flat[p]:
            flat[p * p :: p] = False
    t = sieve(bound)
    assert t.prime_count() == int(flat.sum())
    lo = (1 << 22) - 50
    for n in range(lo, bound + 1):
        assert t.is_prime(n) == bool(flat[n])


def test_sieve_domain_and_cap():
    with pytest.raises(DomainError):
        sieve(1)
    with pytest.raises(ResourceLimitError):
        sieve(2**31 + 1)
    with pytest.raises(ResourceLimitError):
        sieve(100, cap=50)


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
    assert total == t.prime_count()
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
    assert sieve(np.int64(100)).prime_count() == 25
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
    assert m.omega == 5
    assert m.factorization == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1))
    assert m.carmichael == 60
    assert m.phi % m.carmichael == 0

    m8 = Modulus.from_int(8)
    assert (m8.phi, m8.carmichael) == (4, 2)
    with pytest.raises(DomainError):
        Modulus.from_int(1)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 15, 16, 30, 97, 100, 561])
def test_modulus_phi_product_form(q):
    m = Modulus.from_int(q)
    # phi = q * prod(1 - 1/p), checked in exact arithmetic
    expected = Fraction(q)
    for p, _ in m.factorization:
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


def test_is_prime_integer_types():
    for policy in (EXACT, MillerRabin(20, seed=5)):
        assert is_prime(np.int64(1_000_003), policy) is True
        assert is_prime(np.uint32(97), policy) is True
        assert is_prime(np.int64(1_000_001), policy) is False  # 101 * 9901
        for bad in (8.5, 7.0, "7", None, Fraction(7)):
            with pytest.raises(DomainError):
                is_prime(bad, policy)


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


def test_prime_mask_matches_is_prime(table_1k):
    n = np.arange(1001)
    assert (table_1k.prime_mask(n)
            == [table_1k.is_prime(int(k)) for k in n]).all()


def test_primality_tester_reads_a_covering_table(table_1k):
    assert primality_tester(Exact(table_1k), 1000) == table_1k.is_prime
    assert primality_tester(Exact(table_1k), 1001) is ntheory._miller_rabin
    with pytest.raises(ResourceLimitError):
        primality_tester(EXACT, ntheory._DETERMINISTIC_MR_BOUND)
    test = primality_tester(MillerRabin(rounds=3), 10**6)
    assert [n for n in range(100) if test(n)] == sieve(100).primes.tolist()

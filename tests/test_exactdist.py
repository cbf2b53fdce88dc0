import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from primelab import exactdist
from primelab.errors import DomainError, ResourceLimitError
from primelab.exactdist import (
    class_census,
    class_profile,
    exact_dist_basic,
    exact_dist_erh_fallback,
    exact_dist_primeinc,
    exact_dist_trivial,
    exact_dist_uncond,
    exact_dist_uncond_nofallback,
    primes_upto,
)
from primelab.generators import Algorithm, GenConfig, ModulusMode, derived_Q
from primelab.harness import (
    dist_to_dict,
    error_term_profile,
    sample_distribution,
)
from primelab.metrics import metrics_of, tv_between
from primelab.ntheory import Exact, residue_class_primes, sieve


def exact_sum(dist):
    return sum(dist.mass.values())


def test_trivial_dist():
    d = exact_dist_trivial(10)
    assert d.mass == {p: Fraction(1, 4) for p in (2, 3, 5, 7)}
    assert metrics_of(d).delta1 == 0


def test_primeinc_x20():
    d = exact_dist_primeinc(20)
    assert d.mass[11] == Fraction(4, 19)
    assert d.mass[3] == Fraction(1, 19)
    assert d.mass[2] == Fraction(2, 19)
    assert exact_sum(d) == 1


def test_primeinc_x3_matches_generator_enumeration():
    d = exact_dist_primeinc(3)
    assert d.mass == {2: Fraction(2, 3), 3: Fraction(1, 3)}


def test_basic_30_6_hand_derived():
    d = exact_dist_basic(30, 6)
    for p in (7, 13, 19):
        assert d.mass[p] == Fraction(1, 6)
    for p in (5, 11, 17, 23, 29):
        assert d.mass[p] == Fraction(1, 10)
    assert d.mass[2] == 0 and d.mass[3] == 0
    assert exact_sum(d) == 1
    assert metrics_of(d).delta1 == Fraction(2, 5)
    assert not d.meta["conditional"]


def test_basic_q2_uniform_over_odd_primes():
    d = exact_dist_basic(50, 2)
    t = sieve(50)
    odd = [p for p in t.primes.tolist() if p > 2]
    assert d.mass[2] == 0
    assert all(d.mass[p] == Fraction(1, len(odd)) for p in odd)


def test_basic_conditional_on_empty_class():
    # 18 mod 25 holds no prime <= 30
    t30 = sieve(30)
    assert residue_class_primes(t30, 25, 18) == []
    d = exact_dist_basic(30, 25, t30)
    assert d.meta["conditional"]
    assert 18 in d.meta["empty_classes"]
    assert d.meta["phi_star"] < d.meta["phi"] == 20
    assert exact_sum(d) == 1


def test_basic_matches_count_oracle(table_1k):
    # independent route: masses recomputed from residue_class_primes
    d = exact_dist_basic(1000, 30, table_1k)
    phi = 8
    for a in range(30):
        if math.gcd(a, 30) == 1:
            members = residue_class_primes(table_1k, 30, a)
            for p in members:
                assert d.mass[p] == Fraction(1, phi * len(members))


def test_erh_fallback_plugin_value():
    # T=1 at (30, 6): mass(7) = (1/2)(xi_1/3) + sum_a (1/2)(1-xi_a)/10
    d = exact_dist_erh_fallback(30, 6, 1)
    assert d.mass[7] == Fraction(3, 25)  # 0.12
    assert exact_sum(d) == 1


def test_erh_fallback_large_T_limit():
    base = exact_dist_basic(30, 6)
    d = exact_dist_erh_fallback(30, 6, 200)
    assert float(tv_between(d, base)) < 1e-12


def test_erh_fallback_at_least_as_uniform():
    for x, q in [(30, 6), (100, 6), (200, 10), (1000, 30)]:
        base_delta = metrics_of(exact_dist_basic(x, q)).delta1
        for T in (1, 5, 50):
            d = exact_dist_erh_fallback(x, q, T)
            assert metrics_of(d).delta1 <= base_delta


def test_erh_fallback_requires_positive_T():
    with pytest.raises(DomainError):
        exact_dist_erh_fallback(30, 6, 0)


def test_uncond_nofallback_sum_and_meta():
    d = exact_dist_uncond_nofallback(200, 1.0)
    assert exact_sum(d) == 1
    assert d.meta["Q"] == 36
    assert d.space_size == 46  # pi(200)


def test_uncond_nofallback_single_prime_oracle():
    # recompute mass(149) at x=200, A=1 from residue class lists
    t = sieve(200)
    d = exact_dist_uncond_nofallback(200, 1.0, t)
    Q = derived_Q(200, 1.0)
    f_star = d.meta["F_star"]
    total = Fraction(0)
    for q in range(Q // 2 + 1, Q + 1):
        if q % 149 == 0:
            continue
        members = residue_class_primes(t, q, 149 % q)
        total += Fraction(1, len(members))
    assert d.mass[149] == total / f_star


def test_uncond_nofallback_work_cap():
    with pytest.raises(ResourceLimitError):
        exact_dist_uncond_nofallback(200, 1.0, work_cap=10)


def test_uncond_mixture_sum_and_limit():
    t = sieve(200)
    d = exact_dist_uncond(200, 1.0, 5, t)
    assert exact_sum(d) == 1
    # for large T the mixture is the no-fallback law on nonempty classes
    # plus uniform mass from the always-falling-back empty classes
    big = exact_dist_uncond(200, 1.0, 500, t)
    nofb = exact_dist_uncond_nofallback(200, 1.0, t)
    F, F_star = big.meta["F"], nofb.meta["F_star"]
    pi_x = 46
    for p, m in big.mass.items():
        predicted = nofb.mass[p] * F_star / F + Fraction(F - F_star, F * pi_x)
        assert abs(float(m - predicted)) < 1e-15


def test_uncond_monotone_in_A():
    t = sieve(5000)
    d1 = metrics_of(exact_dist_uncond_nofallback(5000, 1.0, t)).delta1
    d3 = metrics_of(exact_dist_uncond_nofallback(5000, 3.0, t)).delta1
    assert d3 < d1


def test_class_profile_q2():
    prof = class_profile(100, 2)
    assert list(prof.counts) == [1]
    assert prof.counts[1] == 24
    assert prof.error_terms[1] == 1.0  # |24 - 25|
    assert prof.phi_star == 1


def test_class_profile_consistency(table_1k):
    prof = class_profile(1000, 30, table_1k)
    assert sum(prof.counts.values()) == 168 - 3  # primes 2, 3, 5 divide 30
    assert prof.phi_star <= 8


@pytest.mark.parametrize("maker,cfg_kwargs", [
    (exact_dist_trivial, dict(algorithm=Algorithm.TRIVIAL)),
    (exact_dist_primeinc, dict(algorithm=Algorithm.PRIMEINC)),
])
def test_oracle_equivalence_simple(maker, cfg_kwargs):
    x, runs = 100, 10**5
    t = sieve(x)
    cfg = GenConfig(x=x, seed=31, primality=Exact(t), **cfg_kwargs)
    emp, _ = sample_distribution(cfg, runs, t)
    assert float(tv_between(emp, maker(x, t))) < 3 * math.sqrt(
        t.prime_count() / runs
    )


def test_oracle_equivalence_residue_class(table_1k):
    x, runs = 1000, 10**5
    cfg = GenConfig(x=x, algorithm=Algorithm.BASIC, q=30,
                    modulus_mode=ModulusMode.EXPLICIT, seed=32,
                    primality=Exact(table_1k))
    emp, _ = sample_distribution(cfg, runs, table_1k)
    exact = exact_dist_basic(x, 30, table_1k)
    assert float(tv_between(emp, exact)) < 3 * math.sqrt(168 / runs)


def test_oracle_equivalence_erh_fallback(table_1k):
    x, runs, T = 1000, 10**5, 2
    cfg = GenConfig(x=x, algorithm=Algorithm.ERH_FALLBACK, q=30,
                    modulus_mode=ModulusMode.EXPLICIT, T_override=T, seed=33,
                    primality=Exact(table_1k))
    emp, _ = sample_distribution(cfg, runs, table_1k)
    exact = exact_dist_erh_fallback(x, 30, T, table_1k)
    assert float(tv_between(emp, exact)) < 3 * math.sqrt(168 / runs)


def test_oracle_equivalence_uncond_fallback():
    x, runs, T = 100, 10**5, 5
    t = sieve(x)
    cfg = GenConfig(x=x, algorithm=Algorithm.UNCOND, A=1.0, T_override=T,
                    seed=34, primality=Exact(t))
    emp, _ = sample_distribution(cfg, runs, t)
    exact = exact_dist_uncond(x, 1.0, T, t)
    assert float(tv_between(emp, exact)) < 3 * math.sqrt(25 / runs)


def test_oracle_equivalence_uncond_nofallback():
    # conditioning on termination: dead (empty-class) runs are redrawn
    x, runs = 100, 10**5
    t = sieve(x)
    cfg = GenConfig(x=x, algorithm=Algorithm.UNCOND_NOFALLBACK, A=1.0,
                    seed=35, primality=Exact(t), max_iterations=300)
    emp, _ = sample_distribution(cfg, runs, t, retry_nontermination=True)
    exact = exact_dist_uncond_nofallback(x, 1.0, t)
    assert float(tv_between(emp, exact)) < 3 * math.sqrt(25 / runs)


def test_table_bound_must_cover_x(table_1k):
    with pytest.raises(DomainError):
        exact_dist_trivial(2000, table_1k)


# sha256 of dist_to_dict (without schema_version, keys sorted, compact
# separators), recorded from the per-class Fraction implementation that
# the class census replaced.  Exact masses must never change: a mismatch
# here is a defect, not a new golden value.
GOLDEN_DIGESTS = [
    ("exact_dist_uncond", dict(x=2000, A=1.0, T=58),
     "5cf3488712ccfb59b1d493414ce05a4415784aae042f686f913ff8f77ac219e0"),
    ("exact_dist_uncond_nofallback", dict(x=2000, A=1.0),
     "722379b9fdf7d2bed58f01ebc108ed88b444f507854039b152af79914e9d9f79"),
    ("exact_dist_uncond_nofallback", dict(x=2000, A=3.0),
     "1f0f269325df5f3b28847a82812e3e2fe6b9d383af0020561334e092d8480ff9"),
    ("exact_dist_basic", dict(x=20000, q=2310),
     "fd573274a8354aa0f67e16764a73887947bea1510e82da258297e97926bb2951"),
    ("exact_dist_erh_fallback", dict(x=20000, q=2310, T=99),
     "c538d2ad01339ccb9712290fc9c0f66156fbbe814d7e03966cfef9a1d9826ec8"),
    ("exact_dist_primeinc", dict(x=100000),
     "5bb8b7c25059e155edd5f3dcd360ea7c138c77ce650f3521579483a719f80305"),
    ("exact_dist_trivial", dict(x=20000),
     "b76aed09c3039216eeb58ba959b5cc6e713744f0e1237368bf7a722c0ea04933"),
    ("exact_dist_uncond", dict(x=5000, A=1.0, T=73),
     "06b6e232d129bfffea349afd30990bacd0884711458af9d10aab60dbf13a8cea"),
    ("exact_dist_uncond_nofallback", dict(x=5000, A=1.0),
     "bf67cdbb87d486550825af6819cfb0988edc990ad4a3d049c5294dad54d549de"),
    ("exact_dist_uncond_nofallback", dict(x=5000, A=3.0),
     "35f8adb334254b3c5ebf28af1310cabd32ac3f3d020d34dd9c2b0d2a2a549be8"),
]


@pytest.mark.parametrize(
    "fn,kwargs,digest", GOLDEN_DIGESTS,
    ids=[f"{fn}({','.join(f'{k}={v}' for k, v in kw.items())})"
         for fn, kw, _ in GOLDEN_DIGESTS],
)
def test_closed_form_golden(fn, kwargs, digest, table_100k):
    dist = getattr(exactdist, fn)(**kwargs, table=table_100k)
    record = {k: v for k, v in dist_to_dict(dist).items()
              if k != "schema_version"}
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_error_profile_range_golden(table_100k):
    prof = error_term_profile(5000, A=1.0, table=table_100k)
    assert prof.sum_sq_error.hex() == "0x1.34f701b2b92a4p+16"


def test_class_census_counts(table_1k):
    # unit classes of each q number phi(q); every prime coprime to q lies
    # in exactly one of them, and in none of q's classes otherwise
    x = 1000
    primes_x = primes_upto(x, table_1k)
    qs = range(30, 61)
    census = class_census(x, qs, primes_x)
    phi = [sum(math.gcd(a, q) == 1 for a in range(q)) for q in qs]
    coprime = [sum(q % p != 0 for p in primes_x.tolist()) for q in qs]
    assert census.units.tolist() == phi
    assert census.unit_primes.tolist() == coprime
    assert int(census.classes.sum()) == sum(phi)
    assert int(census.hits.sum()) == sum(coprime)
    assert int((census.classes * census.c).sum()) == sum(coprime)
    assert np.all(census.c <= census.m)
    bare = class_census(x, qs, primes_x, with_hits=False)
    assert bare.classes.tolist() == census.classes.tolist()
    assert len(bare.hits) == 0

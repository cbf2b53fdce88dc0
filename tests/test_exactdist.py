import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primelab import exactdist
from primelab.errors import ConfigError, DomainError, ResourceLimitError
from primelab.exactdist import (
    class_census,
    error_term_profile,
    exact_dist_basic,
    exact_dist_erh_fallback,
    exact_dist_primeinc,
    exact_dist_trivial,
    exact_dist_uncond,
    exact_dist_uncond_nofallback,
    law,
    primes_upto,
)
from primelab.generators import (
    Algorithm,
    GenConfig,
    ModulusMode,
    default_T,
    derived_Q,
)
from primelab.harness import dist_to_dict, sample_distribution
from primelab.metrics import metrics_of, tv_between
from primelab.ntheory import Exact, MillerRabin, residue_class_primes, sieve


def exact_sum(dist):
    return sum(dist.mass.values())


def oracle_tv(empirical, exact):
    """tv_between of an oracle pair as a float, after checking it equals
    the sum of Fraction differences taken one outcome at a time."""
    tv = tv_between(empirical, exact)
    a, b = empirical.mass, exact.mass
    assert tv == sum(abs(a.get(o, 0) - b.get(o, 0))
                     for o in a.keys() | b.keys())
    return float(tv)


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


def test_fallback_laws_refuse_a_non_integer_T():
    # exact_dist_uncond reported "masses sum to ..., not 1"
    with pytest.raises(DomainError, match="T needs an integer"):
        exact_dist_uncond(200, 1.0, 2.5)
    with pytest.raises(DomainError, match="T needs an integer"):
        exact_dist_erh_fallback(1000, 30, 2.5)


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


def test_uncond_nofallback_work_cap(monkeypatch):
    monkeypatch.setattr(exactdist, "DEFAULT_WORK_CAP", 10)
    with pytest.raises(ResourceLimitError):
        exact_dist_uncond_nofallback(200, 1.0)


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
    census = class_census(100, [2], primes_upto(100))
    assert census.units.tolist() == [1]
    assert census.unit_primes.tolist() == [24]  # pi(100; 2, 1)
    assert error_term_profile(100, q=2).error_terms == {1: 1.0}  # |24 - 25|
    assert exact_dist_basic(100, 2).meta["phi_star"] == 1


def test_class_profile_consistency(table_1k):
    census = class_census(1000, [30], primes_upto(1000, table_1k))
    # primes 2, 3, 5 divide 30
    assert census.unit_primes.tolist() == [168 - 3]
    assert int((census.c * census.classes).sum()) == 168 - 3
    assert exact_dist_basic(1000, 30, table_1k).meta["phi_star"] <= 8
    # each error term is |c - pi(x)/phi(q)| rounded once, as from a Fraction
    expected = Fraction(168, 8)
    counts = {a: len(residue_class_primes(table_1k, 30, a))
              for a in range(30) if math.gcd(a, 30) == 1}
    assert error_term_profile(1000, q=30, table=table_1k).error_terms == {
        a: float(abs(c - expected)) for a, c in counts.items()}


@pytest.mark.parametrize("x,q", [(30, 25), (100, 2), (1000, 30),
                                 (20_000, 2310), (10**5, 30030)])
def test_class_profile_matches_the_unit_loop(x, q, table_100k):
    """The per-class figures of (x, q), error_term_profile's error terms
    and exact_dist_basic's phi, phi_star and empty classes, equal a loop
    with one math.gcd per residue and one count per prime."""
    primes_x = [p for p in table_100k.primes.tolist() if p <= x]
    residues = Counter(p % q for p in primes_x)
    counts = {a: residues[a] for a in range(q) if math.gcd(a, q) == 1}
    phi = len(counts)
    # each error term is |c - pi(x)/phi(q)| rounded once, as from a Fraction
    prof = error_term_profile(x, q=q, table=table_100k)
    assert prof.error_terms == {a: float(abs(c - Fraction(len(primes_x), phi)))
                                for a, c in counts.items()}
    meta = exact_dist_basic(x, q, table_100k).meta  # every case has q < x
    assert meta["phi"] == phi
    assert meta["phi_star"] == sum(1 for c in counts.values() if c)
    assert meta["empty_classes"] == [a for a, c in counts.items() if not c]


@pytest.mark.parametrize("maker,cfg_kwargs", [
    (exact_dist_trivial, dict(algorithm=Algorithm.TRIVIAL)),
    (exact_dist_primeinc, dict(algorithm=Algorithm.PRIMEINC)),
])
def test_oracle_equivalence_simple(maker, cfg_kwargs):
    x, runs = 100, 10**5
    t = sieve(x)
    cfg = GenConfig(x=x, seed=31, primality=Exact(t), **cfg_kwargs)
    emp, _ = sample_distribution(cfg, runs, t)
    assert oracle_tv(emp, maker(x, t)) < 3 * math.sqrt(
        len(t.primes) / runs
    )


def test_oracle_equivalence_residue_class(table_1k):
    x, runs = 1000, 10**5
    cfg = GenConfig(x=x, algorithm=Algorithm.BASIC, q=30,
                    modulus_mode=ModulusMode.EXPLICIT, seed=32,
                    primality=Exact(table_1k))
    emp, _ = sample_distribution(cfg, runs, table_1k)
    exact = exact_dist_basic(x, 30, table_1k)
    assert oracle_tv(emp, exact) < 3 * math.sqrt(168 / runs)


def test_oracle_equivalence_erh_fallback(table_1k):
    x, runs, T = 1000, 10**5, 2
    cfg = GenConfig(x=x, algorithm=Algorithm.ERH_FALLBACK, q=30,
                    modulus_mode=ModulusMode.EXPLICIT, T_override=T, seed=33,
                    primality=Exact(table_1k))
    emp, _ = sample_distribution(cfg, runs, table_1k)
    exact = exact_dist_erh_fallback(x, 30, T, table_1k)
    assert oracle_tv(emp, exact) < 3 * math.sqrt(168 / runs)


def test_oracle_equivalence_uncond_fallback():
    x, runs, T = 100, 10**5, 5
    t = sieve(x)
    cfg = GenConfig(x=x, algorithm=Algorithm.UNCOND, A=1.0, T_override=T,
                    seed=34, primality=Exact(t))
    emp, _ = sample_distribution(cfg, runs, t)
    exact = exact_dist_uncond(x, 1.0, T, t)
    assert oracle_tv(emp, exact) < 3 * math.sqrt(25 / runs)


def test_oracle_equivalence_uncond_nofallback():
    # conditioning on termination: dead (empty-class) runs are redrawn
    x, runs = 100, 10**5
    t = sieve(x)
    cfg = GenConfig(x=x, algorithm=Algorithm.UNCOND_NOFALLBACK, A=1.0,
                    seed=35, primality=Exact(t), max_iterations=300)
    emp, _ = sample_distribution(cfg, runs, t, retry_nontermination=True)
    exact = exact_dist_uncond_nofallback(x, 1.0, t)
    assert oracle_tv(emp, exact) < 3 * math.sqrt(25 / runs)


def test_table_bound_must_cover_x(table_1k):
    with pytest.raises(DomainError):
        exact_dist_trivial(2000, table_1k)


T1K = sieve(1000)
Q25 = dict(q=25, modulus_mode=ModulusMode.EXPLICIT)

# config fields at x = 100, then the closed form and its arguments after x:
# both unit methods, a derived (epsilon) and an explicit modulus, the
# default budget and an overridden one, Exact() and Exact(table)
LAW_CASES = {
    "trivial": (dict(algorithm="trivial"), exact_dist_trivial, ()),
    "trivial-table": (dict(algorithm="trivial", primality=Exact(T1K)),
                      exact_dist_trivial, ()),
    "primeinc-table": (dict(algorithm="primeinc", primality=Exact(T1K)),
                       exact_dist_primeinc, ()),
    "basic-epsilon": (dict(algorithm="basic", epsilon=0.3),
                      exact_dist_basic, (6,)),
    "basic-explicit-capped": (
        dict(algorithm="basic", unit_method="rejection", max_iterations=50,
             primality=Exact(T1K), **Q25),
        exact_dist_basic, (25,)),
    "erh_fallback-epsilon": (dict(algorithm="erh_fallback", epsilon=0.3),
                             exact_dist_erh_fallback, (6, default_T(100))),
    "erh_fallback-explicit-T": (
        dict(algorithm="erh_fallback", unit_method="rejection",
             T_override=2, **Q25),
        exact_dist_erh_fallback, (25, 2)),
    "uncond": (dict(algorithm="uncond", A=1.0),
               exact_dist_uncond, (1.0, default_T(100))),
    "uncond-T-table": (
        dict(algorithm="uncond", A=1.0, T_override=2,
             unit_method="rejection", primality=Exact(T1K)),
        exact_dist_uncond, (1.0, 2)),
    "uncond_nofallback": (dict(algorithm="uncond_nofallback", A=1.0),
                          exact_dist_uncond_nofallback, (1.0,)),
    "uncond_nofallback-capped": (
        dict(algorithm="uncond_nofallback", A=1.0, max_iterations=50,
             unit_method="rejection"),
        exact_dist_uncond_nofallback, (1.0,)),
}


@pytest.mark.parametrize("fields,closed_form,args", LAW_CASES.values(),
                         ids=LAW_CASES.keys())
def test_law_is_the_closed_form_of_the_config(fields, closed_form, args):
    """law(cfg) picks the closed form of cfg's algorithm with cfg's
    modulus, A and budget; the no-fallback laws ignore the cap."""
    cfg = GenConfig(x=100, **fields)
    assert dist_to_dict(law(cfg)) == dist_to_dict(closed_form(100, *args))


def test_law_and_sample_refuse_a_miller_rabin_config_alike():
    cfg = GenConfig(x=1000, algorithm=Algorithm.TRIVIAL,
                    primality=MillerRabin(rounds=1))
    with pytest.raises(ConfigError) as refused_law:
        law(cfg)
    with pytest.raises(ConfigError) as refused_sample:
        sample_distribution(cfg, 2000)
    assert str(refused_law.value) == str(refused_sample.value)
    assert "Exact" in str(refused_law.value)


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
    assert census.empty.shape == bare.empty.shape == (0, 2)


def test_class_census_lists_the_empty_classes():
    # x = 100, moduli 10..40: classes with no prime, by a gcd loop
    x, qs = 100, range(10, 41)
    primes_x = primes_upto(x)
    census = class_census(x, qs, primes_x)
    held = {(q, p % q) for q in qs for p in primes_x.tolist()}
    assert census.empty.tolist() == [
        [q, a] for q in qs for a in range(q)
        if math.gcd(a, q) == 1 and (q, a) not in held]
    assert len(census.empty) == int(census.classes[census.c == 0].sum())


def test_basic_counts_its_classes_in_one_pass(monkeypatch):
    # x = 30, q = 25: 20 unit classes, 11 of them without a prime
    calls = count_unit_counts(monkeypatch)
    meta = exact_dist_basic(30, 25).meta
    assert calls == [[25]]
    primes = [p for p in range(2, 31) if all(p % d for d in range(2, p))]
    empty = [a for a in range(25) if math.gcd(a, 25) == 1
             and all(p % 25 != a for p in primes)]
    assert len(empty) == 11
    assert meta["empty_classes"] == empty
    assert meta["phi_star"] == 20 - 11


def test_range_census_counts_its_classes_in_one_pass(monkeypatch):
    # x = 2000, A = 1: the 131 moduli of (Q/2, Q] fit one chunk
    calls = count_unit_counts(monkeypatch)
    Q = derived_Q(2000, 1.0)
    exact_dist_uncond_nofallback(2000, 1.0)
    assert calls == [list(range(Q // 2 + 1, Q + 1))]
    assert len(calls[0]) == 131


def count_unit_counts(monkeypatch):
    """The moduli of each exactdist._unit_counts call, recorded from now."""
    calls = []
    unit_counts = exactdist._unit_counts

    def counting(primes_x, qs):
        calls.append(list(qs))
        return unit_counts(primes_x, qs)
    monkeypatch.setattr(exactdist, "_unit_counts", counting)
    return calls


def reference_census(x, qs, primes_x):
    """The census one modulus at a time, as ({(c, m): classes},
    {(prime, (c, m)): hits}, units, unit_primes, empty rows)."""
    classes, hits, units, unit_primes, empty = Counter(), Counter(), [], [], []
    for q in qs:
        residues = primes_x % q
        unit = np.gcd(np.arange(q), q) == 1
        in_class = np.bincount(residues, minlength=q).tolist()
        key = [(in_class[a], (x - a) // q + 1) for a in range(q)]
        for a in np.flatnonzero(unit).tolist():
            classes[key[a]] += 1
            if not in_class[a]:
                empty.append([q, a])
        for p, r in zip(primes_x.tolist(), residues.tolist()):
            if unit[r]:
                hits[p, key[r]] += 1
        units.append(int(unit.sum()))
        unit_primes.append(sum(in_class[a] for a in np.flatnonzero(unit)))
    return dict(classes), dict(hits), units, unit_primes, empty


def census_view(census, primes_x):
    """class_census's output in reference_census's form."""
    keys = list(zip(census.c.tolist(), census.m.tolist()))
    assert len(set(keys)) == len(keys)
    primes = primes_x.tolist()
    hits = {(primes[i], keys[k]): h for i, k, h in zip(
        census.hit_prime.tolist(), census.hit_key.tolist(),
        census.hits.tolist())}
    assert len(hits) == len(census.hits)
    return (dict(zip(keys, census.classes.tolist())), hits,
            census.units.tolist(), census.unit_primes.tolist(),
            census.empty.tolist())


@settings(max_examples=60, deadline=None)
@given(x=st.integers(2, 2000),
       qs=st.lists(st.integers(1, 2600) | st.sampled_from([1, 2, 6, 30]),
                   min_size=1, max_size=12))
@example(x=30, qs=[25, 1, 40, 25, 6, 2, 31, 1])
@example(x=2000, qs=[2001, 262, 132, 262, 1, 2600])
def test_class_census_equals_a_per_modulus_census(x, qs):
    # unsorted moduli with repeats, q = 1 and q > x
    primes_x = primes_upto(x)
    census = class_census(x, qs, primes_x, with_hits=True)
    assert census_view(census, primes_x) == reference_census(x, qs, primes_x)


# x = 2000, A = 1: each modulus q of (131, 262] adds q + 303 entries
@pytest.mark.parametrize("chunk", [1, 7, 1000, 4099])
def test_chunk_boundaries_change_nothing(chunk, monkeypatch):
    x = 2000
    primes_x = primes_upto(x)
    Q = derived_Q(x, 1.0)
    qs = range(Q // 2 + 1, Q + 1)
    laws = [(exact_dist_uncond, (x, 1.0, default_T(x))),
            (exact_dist_uncond_nofallback, (x, 1.0)),
            (exact_dist_uncond_nofallback, (x, 3.0))]

    def run():
        census = class_census(x, qs, primes_x)
        return census_view(census, primes_x), [
            (d.num, d.den, d.meta) for d in (f(*a) for f, a in laws)]
    calls = count_unit_counts(monkeypatch)
    whole = run()
    assert len(calls) == 1 + len(laws)  # one chunk each
    monkeypatch.setattr(exactdist, "_CHUNK", chunk)
    calls.clear()
    assert run() == whole
    assert len(calls) > 1 + len(laws)
    # a chunk holds one modulus, or classes plus residues within the bound
    assert all(len(moduli) == 1
               or sum(moduli) + len(moduli) * len(primes_x) <= chunk
               for moduli in calls)


@pytest.mark.parametrize("A", [math.nan, math.inf, 0.0, -1.0])
def test_range_laws_refuse_A_that_is_not_finite_and_positive(A, table_1k):
    # nan raised a bare ValueError; A = 0 returned a law GenConfig refuses
    with pytest.raises(ConfigError):
        exact_dist_uncond(1000, A, 3, table_1k)
    with pytest.raises(ConfigError):
        exact_dist_uncond_nofallback(1000, A, table_1k)
    with pytest.raises(ConfigError):
        error_term_profile(1000, A=A, table=table_1k)

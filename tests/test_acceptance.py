"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy artifacts (the 10^6 and 10^7 sieves, the big benchmark reports) are
module-scoped fixtures shared across criteria.  Three literal-form checks
that are contradicted by exact computation at every tested scale are kept
as strict xfails right below their corrected counterparts.  Each xfail
gives its reason; the `RunReport` and `PrimeincAudit` docstrings in
`harness` describe the corrected forms.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from primelab.exactdist import (
    exact_dist_basic,
    exact_dist_erh_fallback,
    exact_dist_uncond_nofallback,
)
from primelab.generators import (
    Algorithm,
    GenConfig,
    ModulusMode,
    UnitMethod,
    generate,
    sample_unit,
)
from primelab.harness import (
    benchmark,
    gap_census,
    primeinc_audit,
    report_emit,
    sample_distribution,
)
from primelab.metrics import FiniteDist, metrics_of, tv_between
from primelab.ntheory import (
    Exact,
    Modulus,
    count_ap_primes,
    residue_class_primes,
    sieve,
    totient_partial_sum,
)
from primelab.rng import CountingBitSource

from conftest import chi2_critical, chi2_stat_uniform


def _report(criterion: str, passed: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table_10m():
    return sieve(10**7)


@pytest.fixture(scope="module")
def basic_report_1m(table_1m):
    cfg = GenConfig(x=10**6, algorithm=Algorithm.BASIC, epsilon=0.3,
                    modulus_mode=ModulusMode.PRIMORIAL, seed=103,
                    primality=Exact(table_1m))
    return benchmark(cfg, 10**4)


@pytest.fixture(scope="module")
def trivial_report_1m(table_1m):
    cfg = GenConfig(x=10**6, algorithm=Algorithm.TRIVIAL, seed=103,
                    primality=Exact(table_1m))
    return benchmark(cfg, 10**4)


@pytest.fixture(scope="module")
def uncond_report_1m(table_1m):
    cfg = GenConfig(x=10**6, algorithm=Algorithm.UNCOND, A=2.0, seed=103,
                    primality=Exact(table_1m))
    return benchmark(cfg, 10**4)


@pytest.fixture(scope="module")
def audit_1m(table_1m):
    return primeinc_audit(10**6, trials=10**5, seed=105, table=table_1m)


def test_criterion_1_measure_identities():
    """1000 random rational mass functions on |S| <= 64: the collision /
    distance / entropy relations hold with exact equality."""
    start = time.time()
    rnd = random.Random(20250809)
    for _ in range(1000):
        size = rnd.randint(1, 64)
        stored = rnd.randint(1, size)
        weights = [rnd.randint(0, 9) for _ in range(stored)]
        if sum(weights) == 0:
            weights[rnd.randrange(stored)] = 1
        total = sum(weights)
        dist = FiniteDist(
            size, {i: Fraction(w, total) for i, w in enumerate(weights)}
        )
        m = metrics_of(dist)
        u = Fraction(1, size)
        assert m.beta == u + m.delta2_sq          # exact identity
        assert m.gamma * m.gamma <= m.beta <= m.gamma <= u + m.delta1
        assert m.delta1 * m.delta1 <= m.delta2_sq * size
    _report("criterion 1 (measure identities)", True,
            f"1000 exact cases in {time.time() - start:.1f}s")


def test_criterion_2_basic_oracle_equivalence(table_1k):
    start = time.time()
    d = exact_dist_basic(30, 6)
    hand = {7: Fraction(1, 6), 13: Fraction(1, 6), 19: Fraction(1, 6),
            5: Fraction(1, 10), 11: Fraction(1, 10), 17: Fraction(1, 10),
            23: Fraction(1, 10), 29: Fraction(1, 10),
            2: Fraction(0), 3: Fraction(0)}
    exact_ok = d.mass == hand and metrics_of(d).delta1 == Fraction(2, 5)

    cfg = GenConfig(x=1000, algorithm=Algorithm.BASIC, q=30,
                    modulus_mode=ModulusMode.EXPLICIT, seed=102,
                    primality=Exact(table_1k))
    runs = 2 * 10**6
    empirical, _ = sample_distribution(cfg, runs, table_1k)
    tv = float(tv_between(empirical, exact_dist_basic(1000, 30, table_1k)))
    _report("criterion 2 (fixed-modulus oracle equivalence)",
            exact_ok and tv < 0.01,
            f"delta1={float(metrics_of(d).delta1)}, "
            f"TV over {runs} runs={tv:.5f} (<0.01), "
            f"{time.time() - start:.0f}s")


def test_criterion_3_iteration_and_bit_budget(basic_report_1m):
    r = basic_report_1m
    assert r.config.q is None and r.predicted_iterations is not None
    iter_ratio = r.mean_iterations / r.predicted_iterations
    bits_ratio = r.mean_loop_bits / r.predicted_bits
    ok = (
        abs(r.predicted_iterations - (480 / 2310) * math.log(10**6)) < 1e-9
        and 0.9 <= iter_ratio <= 1.1
        and 0.75 <= bits_ratio <= 1.25
    )
    _report("criterion 3 (iteration and bit budget)", ok,
            f"mean_iter={r.mean_iterations:.3f} pred={r.predicted_iterations:.3f} "
            f"ratio={iter_ratio:.3f} (10%); loop_bits={r.mean_loop_bits:.1f} "
            f"pred={r.predicted_bits:.1f} ratio={bits_ratio:.3f} (25%)")


@pytest.mark.xfail(
    strict=True,
    reason="with the nominal exponent 0.3 the bit prediction is 17.17 while "
    "the expected information content of the draws alone is 23.3 bits "
    "(the primorial modulus 2310 sits well below x^0.7, so each draw "
    "spans log2(433)=8.8 bits, not 0.3*log2(x)=6.0); no charging "
    "convention can meet the 25% window, so the prediction uses the "
    "realized draw width instead (see RunReport docstring)",
)
def test_criterion_3_nominal_epsilon_form(basic_report_1m):
    r = basic_report_1m
    nominal = 0.3 * (480 / 2310) * math.log(10**6) ** 2 / math.log(2)
    assert abs(r.mean_loop_bits / nominal - 1) <= 0.25


def test_criterion_4_randomness_advantage(
    basic_report_1m, trivial_report_1m, uncond_report_1m
):
    bits_ratio = basic_report_1m.mean_bits / trivial_report_1m.mean_bits
    basic_per_iter = (
        basic_report_1m.mean_bits / basic_report_1m.mean_iterations
    )
    uncond_per_iter = (
        uncond_report_1m.mean_bits / uncond_report_1m.mean_iterations
    )
    ok = bits_ratio < 0.5 and uncond_per_iter < basic_per_iter
    _report("criterion 4 (randomness advantage)", ok,
            f"basic/trivial bits={bits_ratio:.3f} (<0.5); bits/iter: "
            f"uncond={uncond_per_iter:.1f} < basic={basic_per_iter:.1f}")


def test_criterion_5_primeinc_bias(audit_1m, table_10m):
    start = time.time()
    census = gap_census(10**7, [2.0], table_10m)
    fraction = census.prime_fraction[2.0]
    ok_bound = audit_1m.bound_gap_large_holds
    ok_census = 0.78 <= fraction <= 0.95
    ok_twin = audit_1m.twin_ratio < 0.5
    _report("criterion 5 (scan-upward bias)",
            ok_bound and ok_census and ok_twin,
            f"delta1={float(audit_1m.delta1):.4f} > "
            f"large-gap bound={audit_1m.bound_gap_large:.4f}; "
            f"gap fraction(lambda=2, 1e7)={fraction:.4f} in [0.78,0.95] "
            f"(ref 0.8647); twin ratio={audit_1m.twin_ratio:.3f} (<0.5); "
            f"{time.time() - start:.0f}s")


@pytest.mark.xfail(
    strict=True,
    reason="the small-gap census form (ln x / x) * F exceeds the exact "
    "distance at every scale (it tends to 1-e^-2=0.86 while the exact "
    "distance tends to 2/e=0.74); only primes with gaps ABOVE 2 ln x "
    "contribute ln x / x each, so the valid bound counts those instead "
    "(see PrimeincAudit docstring)",
)
def test_criterion_5_small_gap_bound_form(audit_1m):
    assert audit_1m.delta1 > audit_1m.bound_gap_small


@pytest.mark.xfail(
    strict=True,
    reason="F * ln x / x = 0.978 at x=1e7 because ln x overstates the mean "
    "gap x/pi(x) by 7% at this scale; the fraction-of-primes "
    "normalization F/pi(x) = 0.913 is the desk-scale quantity that "
    "lands within 10% of the 1-e^-2 reference",
)
def test_criterion_5_census_x_over_lnx_normalization(table_10m):
    census = gap_census(10**7, [2.0], table_10m)
    assert 0.78 <= census.normalized[2.0] <= 0.95


def test_criterion_6_uncond_closed_form(table_1m):
    start = time.time()
    table200 = sieve(200)
    exact = exact_dist_uncond_nofallback(200, 1.0, table200)
    sums_to_one = sum(exact.mass.values()) == 1

    cfg = GenConfig(x=200, algorithm=Algorithm.UNCOND_NOFALLBACK, A=1.0,
                    seed=106, primality=Exact(table200), max_iterations=500)
    runs = 10**7
    empirical, _ = sample_distribution(
        cfg, runs, table200, retry_nontermination=True
    )
    tv = float(tv_between(empirical, exact))

    table5k = sieve(5000)
    d1 = metrics_of(exact_dist_uncond_nofallback(5000, 1.0, table5k)).delta1
    d3 = metrics_of(exact_dist_uncond_nofallback(5000, 3.0, table5k)).delta1
    _report("criterion 6 (random-modulus closed form)",
            sums_to_one and tv < 0.01 and d3 < d1,
            f"sum=1 exact; TV over {runs} runs={tv:.5f} (<0.01); "
            f"delta1(A=3)={float(d3):.4f} < delta1(A=1)={float(d1):.4f}; "
            f"{time.time() - start:.0f}s")


def test_criterion_7_fallback_correctness():
    start = time.time()
    t30 = sieve(30)
    # a unit class with no primes, found by exhaustive search
    assert residue_class_primes(t30, 25, 18) == []
    cfg = GenConfig(x=30, algorithm=Algorithm.ERH_FALLBACK, q=25,
                    modulus_mode=ModulusMode.EXPLICIT, T_override=3,
                    seed=0, primality=Exact(t30))
    terminated_via_fallback = False
    for seed in range(2000):
        p, tel = generate(cfg, CountingBitSource(seed))
        assert t30.is_prime(p)
        if tel.chosen_a == 18:
            terminated_via_fallback = tel.fallback_entered
            break

    base = exact_dist_basic(30, 6)
    base_delta = metrics_of(base).delta1
    mixture_ok = all(
        metrics_of(exact_dist_erh_fallback(30, 6, T)).delta1 <= base_delta
        for T in (1, 10, 100)
    )
    limit_tv = float(tv_between(exact_dist_erh_fallback(30, 6, 400), base))
    _report("criterion 7 (fallback correctness)",
            terminated_via_fallback and mixture_ok and limit_tv < 1e-12,
            f"empty class 18 mod 25 fell back and terminated; "
            f"delta1(T) <= {float(base_delta)} for T in {{1,10,100}}; "
            f"large-T TV={limit_tv:.2e}; {time.time() - start:.0f}s")


def test_criterion_8_number_theory_core():
    start = time.time()
    t100 = sieve(100)
    ok_pi = t100.count_leq(100) == 25
    ok_ap = count_ap_primes(t100, 3, 1) == 11

    phi_sum = totient_partial_sum(10**4)
    ok_phi = abs(phi_sum / (3 * 10**8 / math.pi**2) - 1) < 0.01

    F_Q = totient_partial_sum(10**4) - totient_partial_sum(5 * 10**3)
    ok_fq = abs(F_Q / (9 / (4 * math.pi**2) * 10**8) - 1) < 0.05

    src = CountingBitSource(12345)
    mod = Modulus.from_int(30)
    n = 10**5
    counts = {}
    for _ in range(n):
        a = sample_unit(src, mod, UnitMethod.JOYE_PAILLIER)
        counts[a] = counts.get(a, 0) + 1
    stat = chi2_stat_uniform([counts[a] for a in sorted(counts)], n, 8)
    ok_chi = set(counts) == {1, 7, 11, 13, 17, 19, 23, 29} and stat < chi2_critical(7)

    _report("criterion 8 (number-theory core)",
            ok_pi and ok_ap and ok_phi and ok_fq and ok_chi,
            f"pi(100)=25; pi(100;3,1)=11; Phi(1e4)={phi_sum} "
            f"(ratio {phi_sum / (3e8 / math.pi ** 2):.5f}); F(1e4)={F_Q} "
            f"(ratio {F_Q / (9 / (4 * math.pi ** 2) * 1e8):.5f}); "
            f"unit chi2={stat:.1f} < {chi2_critical(7):.1f}; "
            f"{time.time() - start:.0f}s")


def test_criterion_9_reproducibility(table_1k):
    start = time.time()
    payloads = []
    for _ in range(2):
        reports = []
        for algo, extra in [
            (Algorithm.BASIC, {"epsilon": 0.3}),
            (Algorithm.UNCOND, {"A": 1.0}),
            (Algorithm.TRIVIAL, {}),
        ]:
            cfg = GenConfig(x=1000, algorithm=algo, seed=107,
                            primality=Exact(table_1k), **extra)
            reports.append(benchmark(cfg, 200, with_metrics=True))
        payloads.append(report_emit(reports, "json"))
    _report("criterion 9 (reproducibility)",
            payloads[0] == payloads[1],
            f"byte-identical JSON across reruns "
            f"({len(payloads[0])} bytes); {time.time() - start:.0f}s")

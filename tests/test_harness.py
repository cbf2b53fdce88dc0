import json
import math
from fractions import Fraction

import pytest

from primelab.errors import ConfigError, DomainError, NonTerminationError
from primelab.generators import Algorithm, GenConfig, ModulusMode
from primelab.harness import (
    REPORT_CSV_COLUMNS,
    benchmark,
    error_term_profile,
    gap_census,
    parse_reports,
    primeinc_audit,
    report_emit,
    report_to_dict,
    sample_distribution,
)
from primelab.exactdist import exact_dist_basic
from primelab.ntheory import Exact, sieve, totient_partial_sum


def small_cfg(**kwargs):
    defaults = dict(x=1000, algorithm=Algorithm.TRIVIAL, seed=42)
    defaults.update(kwargs)
    return GenConfig(**defaults)


def test_benchmark_reproducible(table_1k):
    cfg = small_cfg(primality=Exact(table_1k))
    r1 = benchmark(cfg, 300)
    r2 = benchmark(cfg, 300)
    assert r1 == r2
    assert report_emit([r1]) == report_emit([r2])


def test_benchmark_means_sane(table_1k):
    cfg = small_cfg(primality=Exact(table_1k))
    r = benchmark(cfg, 2000)
    # density 1/ln x, within a loose window
    assert 0.8 < r.mean_iterations / r.predicted_iterations < 1.2
    assert r.mean_primality_tests == r.mean_iterations
    assert r.mean_selection_bits == 0
    assert r.fallback_rate == 0
    assert r.trials == 2000


def test_benchmark_with_metrics(table_1k):
    cfg = small_cfg(primality=Exact(table_1k))
    r = benchmark(cfg, 500, with_metrics=True, table=table_1k)
    assert r.metrics is not None
    assert 0 <= float(r.metrics.delta1) <= 2


def test_benchmark_propagates_trial_index():
    t30 = sieve(30)
    cfg = GenConfig(x=30, algorithm=Algorithm.BASIC, q=25,
                    modulus_mode=ModulusMode.EXPLICIT, seed=0,
                    primality=Exact(t30), max_iterations=30)
    with pytest.raises(NonTerminationError, match=r"trial \d+"):
        benchmark(cfg, 2000)


def test_gap_census_lambda_zero(table_1m):
    census = gap_census(10**6, [0.0], table_1m)
    assert census.F_values[0.0] == 0


def test_gap_census_monotone(table_1m):
    census = gap_census(10**6, [0.5, 1.0, 2.0], table_1m)
    f = census.F_values
    assert f[0.5] < f[1.0] < f[2.0]
    n = census.normalized
    assert n[0.5] < n[1.0] < n[2.0]
    assert census.reference[2.0] == pytest.approx(0.8646647, abs=1e-6)


def test_gap_census_counts_match_oracle(table_1k):
    census = gap_census(1000, [1.0], table_1k)
    primes = table_1k.primes.tolist()
    h = math.log(1000)
    manual = sum(
        1 for i in range(1, len(primes)) if primes[i] - primes[i - 1] <= h
    )
    assert census.F_values[1.0] == manual


def test_gap_census_domain():
    with pytest.raises(DomainError):
        gap_census(50, [1.0])


def test_primeinc_audit_x20_exact_delta():
    # primes <= 20 with gaps 2,1,2,2,4,2,4,2 against uniform 1/8
    audit = primeinc_audit(20, trials=100, seed=1)
    assert audit.delta1 == Fraction(13, 38)
    assert audit.bound_gap_large_holds


def test_primeinc_audit_x100():
    audit = primeinc_audit(100, trials=1000, seed=2)
    assert audit.delta1 == Fraction(990, 2425)
    assert audit.bound_gap_large_holds
    # the small-gap form overshoots the exact distance at this scale
    assert not audit.bound_gap_small_holds
    assert 0 < audit.twin_ratio < 1


@pytest.mark.parametrize("x", [17, 20, 30, 50, 100, 500, 1000, 5000])
def test_primeinc_large_gap_bound_every_x(x):
    # exact distance strictly exceeds the large-gap lower bound, with no
    # tolerance, at every tested bound from 17 up
    audit = primeinc_audit(x, trials=10, seed=3)
    assert audit.bound_gap_large_holds


def test_error_profile_q2():
    prof = error_term_profile(100, q=2)
    assert prof.error_terms == {1: 1.0}
    assert prof.max_error == 1.0


def test_error_profile_fixed_q_exact_sum(table_100k):
    prof = error_term_profile(10**5, q=30, table=table_100k)
    # oracle: recompute from residue counts
    from primelab.ntheory import count_ap_primes

    pi_x = table_100k.prime_count()
    for a, err in prof.error_terms.items():
        expected = abs(count_ap_primes(table_100k, 30, a) - pi_x / 8)
        assert err == pytest.approx(expected, rel=1e-12)
    assert 0 <= prof.fraction_exceeding <= 1
    assert prof.threshold == pytest.approx(math.sqrt(pi_x / 8))


def test_error_profile_range_mode(table_1k):
    prof = error_term_profile(1000, A=1.0, table=table_1k)
    assert prof.Q == 2 * int(1000 / (2 * math.log(1000)))
    assert prof.sum_sq_error > 0
    assert prof.ratio == pytest.approx(
        prof.sum_sq_error / (1000 * prof.Q / math.log(prof.Q))
    )
    # the double sum scales like x*Q/ln Q, so the ratio is order one
    assert 0 < prof.ratio < 10


def test_error_profile_range_exact_oracle():
    # brute-force the double sum at a tiny scale
    x = 200
    t = sieve(x)
    prof = error_term_profile(x, A=1.0, table=t)
    from primelab.ntheory import count_ap_primes, totient_sieve

    Q = prof.Q
    pi_x = t.prime_count()
    brute = 0.0
    for q in range(Q // 2 + 1, Q + 1):
        phi_q = int(totient_sieve(Q)[q])
        for a in range(q):
            if math.gcd(a, q) == 1:
                brute += (count_ap_primes(t, q, a) - pi_x / phi_q) ** 2
    assert prof.sum_sq_error == pytest.approx(brute, rel=1e-9)


def test_error_profile_requires_exactly_one_mode():
    with pytest.raises(ConfigError):
        error_term_profile(100)
    with pytest.raises(ConfigError):
        error_term_profile(100, q=3, A=1.0)


def test_report_emit_empty_is_valid_json_array():
    payload = report_emit([], "json")
    assert json.loads(payload) == []


def test_report_round_trip(table_1k):
    r = benchmark(small_cfg(), 50, with_metrics=True, table=table_1k)
    payload = report_emit([r], "json")
    (parsed,) = parse_reports(payload)
    assert parsed == r


def test_report_json_deterministic(table_1k):
    r = benchmark(small_cfg(primality=Exact(table_1k)), 100)
    assert report_emit([r]) == report_emit([r])
    d = report_to_dict(r)
    assert d["schema_version"] == 1


def test_distribution_csv_rows():
    d = exact_dist_basic(30, 6)
    payload = report_emit([d], "csv")
    lines = payload.strip().split("\n")
    assert lines[0] == "prime,mass"
    assert len(lines) == 1 + 10  # pi(30) = 10 rows, explicit zeros included


def test_report_csv_columns(table_1k):
    r = benchmark(small_cfg(primality=Exact(table_1k)), 100)
    payload = report_emit([r], "csv")
    header = payload.split("\n", 1)[0]
    assert header == ",".join(REPORT_CSV_COLUMNS)


def test_report_emit_io_error(tmp_path):
    from primelab.errors import PrimelabError

    target = tmp_path / "nosuchdir" / "out.json"
    with pytest.raises(PrimelabError, match="nosuchdir"):
        report_emit([], "json", out=str(target))


def test_report_emit_writes_file(tmp_path):
    target = tmp_path / "out.json"
    payload = report_emit([], "json", out=str(target))
    assert target.read_text() == payload


def test_sample_distribution_counts(table_1k):
    cfg = small_cfg(primality=Exact(table_1k))
    dist, counts = sample_distribution(cfg, 5000, table_1k)
    assert sum(counts.values()) == 5000
    assert dist.space_size == 168
    assert dist.is_exact


def test_totient_partial_sum_shared_value():
    # Phi(1e4), also used by the range profile scale
    assert totient_partial_sum(10**4) == 30397486


@pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5])
def test_gap_census_rejects_bad_lambda(lam):
    with pytest.raises(DomainError):
        gap_census(1000, [1.0, lam])

"""A non-integer where an integer is needed, or a non-real where a real
is needed, fails at once with a PrimelabError: DomainError for a library
argument, ConfigError for a configuration; a domain with no prime fails
the same way."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

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
)
from primelab.generators import (
    Algorithm,
    GenConfig,
    ModulusMode,
    default_T,
    derived_Q,
    generate,
    sample_unit,
    select_modulus,
    trial_records,
)
from primelab.harness import (
    benchmark,
    gap_census,
    parse_reports,
    primeinc_audit,
    report_emit,
    sample_distribution,
)
from primelab.metrics import FiniteDist, metrics_of, tv_between
from primelab.ntheory import (
    Exact,
    MillerRabin,
    Modulus,
    PrimalityPolicy,
    PrimeTable,
    count_ap_primes,
    factorize,
    primes_upto,
    primorial_below,
    residue_class_primes,
    sieve,
)
from primelab.rng import CountingBitSource, split_seed

CFG = GenConfig(x=1000, algorithm=Algorithm.TRIVIAL)
MR_CFG = GenConfig(x=1000, algorithm=Algorithm.TRIVIAL,
                   primality=MillerRabin(rounds=1))
T1K = sieve(1000)

def parse_edited(field, value):
    """parse_reports on one run_report whose field (a dotted path into the
    record) is replaced by value."""
    record = json.loads(report_emit([benchmark(CFG, 5, with_metrics=True)]))[0]
    *parents, last = field.split(".")
    target = record
    for key in parents:
        target = target[key]
    target[last] = value
    return parse_reports(json.dumps([record]))


CASES = {
    "benchmark(trials=2.5)": (DomainError, lambda: benchmark(CFG, 2.5)),
    "sample_distribution(runs=2.5)":
        (DomainError, lambda: sample_distribution(CFG, 2.5)),
    # a MillerRabin verdict is not the set of primes, so such a config
    # has no exact law to give or to sample
    "law(MillerRabin)": (ConfigError, lambda: law(MR_CFG)),
    "sample_distribution(MillerRabin)":
        (ConfigError, lambda: sample_distribution(MR_CFG, 2000)),
    "primeinc_audit(trials=2.5)":
        (DomainError, lambda: primeinc_audit(1000, 2.5)),
    "Modulus.from_int(2.5)": (DomainError, lambda: Modulus.from_int(2.5)),
    "factorize(10.5)": (DomainError, lambda: factorize(10.5)),
    "error_term_profile(q=2.5)":
        (DomainError, lambda: error_term_profile(1000, q=2.5)),
    "exact_dist_basic(q=2.5)":
        (DomainError, lambda: exact_dist_basic(1000, 2.5)),
    "exact_dist_erh_fallback(q=2.5)":
        (DomainError, lambda: exact_dist_erh_fallback(1000, 2.5, 3)),
    "exact_dist_primeinc(x=1)":
        (DomainError, lambda: exact_dist_primeinc(1, sieve(10))),
    "CountingBitSource(1.5)": (DomainError, lambda: CountingBitSource(1.5)),
    "GenConfig(seed=1.5)": (ConfigError, lambda: GenConfig(
        x=1000, algorithm=Algorithm.TRIVIAL, seed=1.5)),
    "MillerRabin(rounds=2.5)": (ConfigError, lambda: MillerRabin(rounds=2.5)),
    "MillerRabin(seed=1.5)": (ConfigError, lambda: MillerRabin(seed=1.5)),
    'MillerRabin(rounds="3")': (ConfigError, lambda: MillerRabin(rounds="3")),
    # np.gcd raised numpy's UFuncTypeError
    "class_census(qs=[6.5])":
        (DomainError, lambda: class_census(100, [6.5], primes_upto(100))),
    # each raised a bare TypeError or AttributeError
    'exact_dist_basic(q="30")':
        (DomainError, lambda: exact_dist_basic(1000, "30")),
    'exact_dist_trivial(x="1000")':
        (DomainError, lambda: exact_dist_trivial("1000", T1K)),
    "exact_dist_uncond_nofallback(x=200.5, table)": (
        DomainError, lambda: exact_dist_uncond_nofallback(200.5, 1.0, T1K)),
    'gap_census(x="1000")':
        (DomainError, lambda: gap_census("1000", [1.0])),
    'primeinc_audit(x="1000")':
        (DomainError, lambda: primeinc_audit("1000", 10)),
    'gap_census(lambdas=["1"])':
        (DomainError, lambda: gap_census(1000, ["1"])),
    'gap_census(lambdas="1")': (DomainError, lambda: gap_census(1000, "1")),
    'class_census(x="100")':
        (DomainError, lambda: class_census("100", [6], primes_upto(100))),
    'primorial_below("10")': (DomainError, lambda: primorial_below("10")),
    "uniform_below(2.5)":
        (DomainError, lambda: CountingBitSource(1).uniform_below(2.5)),
    'uniform_below("3")':
        (DomainError, lambda: CountingBitSource(1).uniform_below("3")),
    # each returned 0
    "uniform_below(1.0)":
        (DomainError, lambda: CountingBitSource(1).uniform_below(1.0)),
    "uniform_below(np.float64(1.0))": (DomainError, lambda: CountingBitSource(
        1).uniform_below(np.float64(1.0))),
    # each succeeded with a float x
    "exact_dist_trivial(x=1000.0, table)":
        (DomainError, lambda: exact_dist_trivial(1000.0, T1K)),
    "error_term_profile(x=500.5, table)":
        (DomainError, lambda: error_term_profile(500.5, q=30, table=T1K)),
    # returned 6
    "primorial_below(10.5)": (DomainError, lambda: primorial_below(10.5)),
    # generate raised DomainError("unknown primality policy") later
    'GenConfig(primality="exact")': (ConfigError, lambda: GenConfig(
        x=1000, algorithm=Algorithm.TRIVIAL, primality="exact")),
    # a bare json.JSONDecodeError, and ['a']
    'parse_reports("not json")':
        (DomainError, lambda: parse_reports("not json")),
    """parse_reports('{"a": 1}')""":
        (DomainError, lambda: parse_reports('{"a": 1}')),
    # a bare ValueError from min()
    "class_census(qs=[])":
        (DomainError, lambda: class_census(100, [], primes_upto(100))),
    # each raised a bare TypeError
    "parse_reports(config=1)": (DomainError, lambda: parse_edited("config", 1)),
    "parse_reports(config.primality=1)":
        (DomainError, lambda: parse_edited("config.primality", 1)),
    "parse_reports(metrics=1)":
        (DomainError, lambda: parse_edited("metrics", 1)),
    # was accepted into a RunReport
    'parse_reports(trials="x")':
        (DomainError, lambda: parse_edited("trials", "x")),
    # a bare ValueError from Fraction
    'parse_reports(mean_bits={"fraction": "a/b"})':
        (DomainError, lambda: parse_edited("mean_bits", {"fraction": "a/b"})),
    # was accepted
    "parse_reports(schema_version=99)":
        (DomainError, lambda: parse_edited("schema_version", 99)),
    # each was accepted into a RunReport
    'parse_reports(mean_bits="lots")':
        (DomainError, lambda: parse_edited("mean_bits", "lots")),
    "parse_reports(mean_bits=NaN)":
        (DomainError, lambda: parse_edited("mean_bits", math.nan)),
    "parse_reports(trials=true)":
        (DomainError, lambda: parse_edited("trials", True)),
    'parse_reports(predicted_bits="inf")':
        (DomainError, lambda: parse_edited("predicted_bits", "inf")),
    'parse_reports(metrics.delta1="x")':
        (DomainError, lambda: parse_edited("metrics.delta1", "x")),
    "parse_reports(metrics.h2_bits=[1])":
        (DomainError, lambda: parse_edited("metrics.h2_bits", [1])),
    # each raised a bare OverflowError from math.isfinite
    "GenConfig(epsilon=10**400)": (ConfigError, lambda: GenConfig(
        x=1000, algorithm=Algorithm.BASIC, epsilon=10**400)),
    "GenConfig(A=10**400)": (ConfigError, lambda: GenConfig(
        x=1000, algorithm=Algorithm.UNCOND, A=10**400)),
    # np.arange(10**9): a MemoryError under a 2 GiB address-space limit
    "error_term_profile(q=10**9)":
        (ResourceLimitError, lambda: error_term_profile(1000, q=10**9)),
    # a dict of phi(q) floats: killed for memory at q = 99,999,999
    "error_term_profile(q=10**7 + 1)":
        (ResourceLimitError, lambda: error_term_profile(1000, q=10**7 + 1)),
    # each raised a bare AttributeError: no attribute 'bound'
    'sample_distribution(table="x")':
        (DomainError, lambda: sample_distribution(CFG, 10, "x")),
    'exact_dist_trivial(table="x")':
        (DomainError, lambda: exact_dist_trivial(100, table="x")),
    "error_term_profile(table=5)":
        (DomainError, lambda: error_term_profile(1000, 30, table=5)),
    'gap_census(table="x")':
        (DomainError, lambda: gap_census(1000, [1.0], "x")),
    # was accepted
    'Exact(table="x")': (ConfigError, lambda: Exact(table="x")),
    # numpy's bare MemoryError: 10**15 records, which numpy refuses at once
    "benchmark(trials=10**15)":
        (ResourceLimitError, lambda: benchmark(CFG, 10**15)),
    # a bare ValueError from numpy, which cannot ask for 2^62 records
    "benchmark(trials=2**62)":
        (ResourceLimitError, lambda: benchmark(CFG, 2**62)),
    # trials was not checked: a bare ValueError, TypeError and ValueError
    "trial_records(trials=-1)": (DomainError, lambda: trial_records(CFG, -1)),
    "trial_records(trials=2.5)":
        (DomainError, lambda: trial_records(CFG, 2.5)),
    "trial_records(trials=10**30)":
        (ResourceLimitError, lambda: trial_records(CFG, 10**30)),
    # a bare IndexError from is_prime and prime_mask; the lane engine
    # refused it as a table beyond int32 candidates
    "PrimeTable(flags too short)": (DomainError, lambda: PrimeTable(
        2**33, np.zeros(1, dtype=np.uint8))),
    # the one cap of every table, which sieve also refuses past
    "PrimeTable(bound 2^31)": (ResourceLimitError, lambda: PrimeTable(
        2**31, np.zeros(2**27 + 1, dtype=np.uint8))),
    # refusals that no other test reached
    "report_emit([object()])":
        (DomainError, lambda: report_emit([object()])),
    "FiniteDist(meta={policy})": (DomainError, lambda: FiniteDist(
        2, {0: Fraction(1, 2), 1: Fraction(1, 2)},
        meta={"p": PrimalityPolicy()})),
    "class_census(qs=[10**8 + 1])": (ResourceLimitError,
        lambda: class_census(10, [10**8 + 1], primes_upto(10))),
    # each raised a bare TypeError, from a comparison or from >>
    'PrimeTable.is_prime("3")': (DomainError, lambda: T1K.is_prime("3")),
    'PrimeTable.count_leq("3")': (DomainError, lambda: T1K.count_leq("3")),
    "PrimeTable.is_prime(2.5)": (DomainError, lambda: T1K.is_prime(2.5)),
    # each computed (lcm(m) / m)^T and m^T without bound
    "exact_dist_erh_fallback(T=10**400)": (ResourceLimitError, lambda:
        exact_dist_erh_fallback(1000, 30, 10**400, T1K)),
    "exact_dist_uncond(T=10**400)": (ResourceLimitError, lambda:
        exact_dist_uncond(200, 1.0, 10**400)),
    # ran 30 s at 770 MB: 4.3e9 numerator bits, each number under the cap
    "exact_dist_uncond(x=320000, A=3)": (ResourceLimitError, lambda:
        exact_dist_uncond(320_000, 3.0, default_T(320_000))),
    # report_emit of it raised a bare TypeError from json
    "FiniteDist(meta=object())": (DomainError, lambda: FiniteDist(
        4, {2: Fraction(1)}, meta=object())),
    # trial division ran to sqrt(n): minutes for two factors near 2^30
    "factorize(two prime factors above 2^20)":
        (ResourceLimitError, lambda: factorize(1_048_583 * 1_048_589)),
    # a cofactor above psi_13 that no exact test proves prime
    "factorize(2 * (2^89 - 1))":
        (ResourceLimitError, lambda: factorize(2 * (2**89 - 1))),
    # a bare TypeError from &
    "split_seed(1.5, 2)": (DomainError, lambda: split_seed(1.5, 2)),
    # each raised a bare AttributeError
    "count_ap_primes(None, 3, 1)":
        (DomainError, lambda: count_ap_primes(None, 3, 1)),
    "residue_class_primes(None, 3, 1)":
        (DomainError, lambda: residue_class_primes(None, 3, 1)),
    "tv_between(dist, 5)": (DomainError, lambda: tv_between(
        FiniteDist.uniform([2, 3]), 5)),
    "tv_between(5, dist)": (DomainError, lambda: tv_between(
        5, FiniteDist.uniform([2, 3]))),
    # a bare ValueError from math.log
    "default_T(0)": (ConfigError, lambda: default_T(0)),
    # returned a budget of 0, and 1
    "default_T(1)": (ConfigError, lambda: default_T(1)),
    "default_T(2.5)": (ConfigError, lambda: default_T(2.5)),
    # returned 4
    "derived_Q(10.5, 1.0)": (ConfigError, lambda: derived_Q(10.5, 1.0)),
    # each raised a bare AttributeError
    "metrics_of(5)": (DomainError, lambda: metrics_of(5)),
    "FiniteDist(3, 5)": (DomainError, lambda: FiniteDist(3, 5)),
    "sample_unit(src, 30)":
        (DomainError, lambda: sample_unit(CountingBitSource(1), 30)),
    "generate(5)": (DomainError, lambda: generate(5)),
    "benchmark(5, 10)": (DomainError, lambda: benchmark(5, 10)),
    "sample_distribution(5, 10)":
        (DomainError, lambda: sample_distribution(5, 10)),
    # each raised a bare TypeError
    "FiniteDist.uniform(5)": (DomainError, lambda: FiniteDist.uniform(5)),
    'select_modulus(1000, "0.3", PRIMORIAL)': (ConfigError, lambda:
        select_modulus(1000, "0.3", ModulusMode.PRIMORIAL)),
    "gap_census(1000, 5)": (DomainError, lambda: gap_census(1000, 5)),
    "report_emit(5)": (DomainError, lambda: report_emit(5)),
    # a bare TypeError from json, as a plain dict passes unencoded
    "report_emit([{object}])": (DomainError,
                                lambda: report_emit([{"a": object()}])),
    "parse_reports(5)": (DomainError, lambda: parse_reports(5)),
}


@pytest.mark.parametrize("error,call", CASES.values(), ids=CASES.keys())
def test_bad_integer_input_raises_its_error(error, call):
    with pytest.raises(error):
        call()


def test_numpy_integer_fields_are_stored_as_ints():
    """Each field was kept as numpy.int64: split_seed raised a bare
    OverflowError, or report_emit a bare TypeError."""
    seeded = [GenConfig(x=1000, algorithm=Algorithm.TRIVIAL, seed=s)
              for s in (5, np.int64(5))]
    plain, numpy_seed = (report_emit([benchmark(c, 50)]) for c in seeded)
    assert numpy_seed == plain
    cfgs = [
        GenConfig(x=1000, algorithm=Algorithm.ERH_FALLBACK, q=30,
                  modulus_mode="explicit", T_override=np.int64(3)),
        GenConfig(x=1000, algorithm=Algorithm.BASIC, q=30,
                  modulus_mode="explicit", max_iterations=np.int64(50)),
        GenConfig(x=1000, algorithm=Algorithm.TRIVIAL,
                  primality=MillerRabin(rounds=np.int64(2), seed=np.int64(3))),
    ]
    fields = [seeded[1].seed, cfgs[0].T_override, cfgs[1].max_iterations,
              cfgs[2].primality.rounds, cfgs[2].primality.seed]
    assert [type(v) for v in fields] == [int] * 5
    report_emit([benchmark(c, 5) for c in cfgs])
    # x and an explicit q were refused: "x must be an integer >= 2"
    explicit = [GenConfig(x=x, algorithm=Algorithm.BASIC, q=q,
                          modulus_mode="explicit")
                for x, q in ((1000, 30), (np.int64(1000), np.int64(30)))]
    assert [type(explicit[1].x), type(explicit[1].q)] == [int, int]
    plain, numpy_xq = (report_emit([benchmark(c, 20)]) for c in explicit)
    assert numpy_xq == plain
    trivial = GenConfig(x=np.int64(1000), algorithm="trivial")
    assert type(trivial.x) is int


# each raised a bare TypeError from math.isfinite or a comparison
REAL_CASES = {
    'GenConfig(epsilon="0.3")': lambda: GenConfig(
        x=1000, algorithm=Algorithm.BASIC, epsilon="0.3"),
    'GenConfig(A="2")': lambda: GenConfig(
        x=1000, algorithm=Algorithm.UNCOND, A="2"),
    'exact_dist_uncond(A="1")': lambda: exact_dist_uncond(200, "1", 3),
}


@pytest.mark.parametrize("call", REAL_CASES.values(), ids=REAL_CASES.keys())
def test_bad_real_input_raises_config_error(call):
    with pytest.raises(ConfigError):
        call()

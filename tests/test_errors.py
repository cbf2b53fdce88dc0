"""A non-integer where an integer is needed, or a non-real where a real
is needed, fails at once with a PrimelabError: DomainError for a library
argument, ConfigError for a configuration; a domain with no prime fails
the same way."""

import json

import numpy as np
import pytest

from primelab.errors import ConfigError, DomainError
from primelab.exactdist import (
    class_census,
    error_term_profile,
    exact_dist_basic,
    exact_dist_erh_fallback,
    exact_dist_primeinc,
    exact_dist_trivial,
    exact_dist_uncond,
    exact_dist_uncond_nofallback,
)
from primelab.generators import Algorithm, GenConfig
from primelab.harness import (
    benchmark,
    gap_census,
    parse_reports,
    primeinc_audit,
    report_emit,
    sample_distribution,
)
from primelab.ntheory import (
    MillerRabin,
    Modulus,
    factorize,
    primes_upto,
    primorial_below,
    sieve,
)
from primelab.rng import CountingBitSource

CFG = GenConfig(x=1000, algorithm=Algorithm.TRIVIAL)
T1K = sieve(1000)

def parse_edited(field, value):
    """parse_reports on one run_report whose field (a dotted path into the
    record) is replaced by value."""
    record = json.loads(report_emit([benchmark(CFG, 5)]))[0]
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
    "draw_bits(2.5)": (DomainError, lambda: CountingBitSource(1).draw_bits(2.5)),
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

"""A non-integer where an integer is needed, or a non-real where a real
is needed, fails at once with a PrimelabError: DomainError for a library
argument, ConfigError for a configuration; a domain with no prime fails
the same way."""

import pytest

from primelab.errors import ConfigError, DomainError
from primelab.exactdist import (
    class_census,
    class_profile,
    exact_dist_basic,
    exact_dist_erh_fallback,
    exact_dist_primeinc,
    exact_dist_uncond,
)
from primelab.generators import Algorithm, GenConfig
from primelab.harness import (
    benchmark,
    error_term_profile,
    primeinc_audit,
    sample_distribution,
)
from primelab.ntheory import MillerRabin, Modulus, factorize, primes_upto, sieve
from primelab.rng import CountingBitSource

CFG = GenConfig(x=1000, algorithm=Algorithm.TRIVIAL)

CASES = {
    "benchmark(trials=2.5)": (DomainError, lambda: benchmark(CFG, 2.5)),
    "sample_distribution(runs=2.5)":
        (DomainError, lambda: sample_distribution(CFG, 2.5)),
    "primeinc_audit(trials=2.5)":
        (DomainError, lambda: primeinc_audit(1000, 2.5)),
    "Modulus.from_int(2.5)": (DomainError, lambda: Modulus.from_int(2.5)),
    "factorize(10.5)": (DomainError, lambda: factorize(10.5)),
    "class_profile(q=2.5)": (DomainError, lambda: class_profile(1000, 2.5)),
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
}


@pytest.mark.parametrize("error,call", CASES.values(), ids=CASES.keys())
def test_bad_integer_input_raises_its_error(error, call):
    with pytest.raises(error):
        call()


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

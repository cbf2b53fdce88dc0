"""Every reader of a PrimeTable answers alike from the uint32 prime list
that a `sieve` table derives from its flags and from the int64 list that
a table from 2^32 derives (here the same flags, with that limit lowered
while the list is derived).  This guards the paths that no digest pins against silent uint32 wraparound (a difference of
two uint32 values, x - p going negative) and against a reader that
widens the list to mix it with int64 operands."""

from dataclasses import replace

import numpy as np
import pytest

from primelab.exactdist import (
    error_term_profile,
    exact_dist_basic,
    exact_dist_erh_fallback,
    exact_dist_primeinc,
    exact_dist_trivial,
    exact_dist_uncond,
    exact_dist_uncond_nofallback,
)
from primelab.generators import Algorithm, GenConfig, trial_records
from primelab.harness import (
    dist_to_dict,
    gap_census,
    primeinc_audit,
    sample_distribution,
)
from primelab.ntheory import (
    Exact,
    count_ap_primes,
    primes_upto,
    residue_class_primes,
    sieve,
)

from conftest import wide_table

X = 3000
NARROW = sieve(X)
WIDE = wide_table(X)

LAWS = {
    "trivial": lambda t: exact_dist_trivial(X, t),
    "primeinc": lambda t: exact_dist_primeinc(X, t),
    "basic": lambda t: exact_dist_basic(X, 30, t),
    "erh_fallback": lambda t: exact_dist_erh_fallback(X, 30, 5, t),
    "uncond": lambda t: exact_dist_uncond(2000, 1.0, 6, t),
    "uncond_nofallback": lambda t: exact_dist_uncond_nofallback(2000, 1.0, t),
}

CONFIGS = {
    "trivial": {},
    "primeinc": {},
    "basic": {"epsilon": 0.3},
    "erh_fallback": {"epsilon": 0.3},
    "uncond": {"A": 2.0},
    "uncond_nofallback": {"A": 2.0, "max_iterations": 500},
}


def _config(algo):
    return GenConfig(x=X, algorithm=Algorithm(algo), seed=17,
                     **CONFIGS[algo])


def test_the_copy_is_int64_and_the_list_uint32():
    assert NARROW.primes.dtype == np.uint32
    assert WIDE.primes.dtype == np.int64
    assert primes_upto(X, NARROW).dtype == np.uint32
    assert primes_upto(X, WIDE).tolist() == primes_upto(X, NARROW).tolist()


@pytest.mark.parametrize("algo", sorted(LAWS))
def test_exact_laws_ignore_the_dtype(algo):
    assert dist_to_dict(LAWS[algo](NARROW)) == dist_to_dict(LAWS[algo](WIDE))


def test_error_profiles_ignore_the_dtype():
    for kwargs in ({"q": 30}, {"q": 2310}, {"A": 1.0}, {"A": 3.0}):
        assert (error_term_profile(X, table=NARROW, **kwargs)
                == error_term_profile(X, table=WIDE, **kwargs))


def test_gap_audits_ignore_the_dtype():
    lambdas = [0.0, 0.5, 1.0, 2.0]
    assert gap_census(X, lambdas, NARROW) == gap_census(X, lambdas, WIDE)
    assert (primeinc_audit(X, 2000, seed=3, table=NARROW)
            == primeinc_audit(X, 2000, seed=3, table=WIDE))


def test_classes_ignore_the_dtype():
    for q, a in ((1, 0), (6, 5), (30, 7), (30, 25), (2999, 2), (2**40, 7),
                 (10**30, 2999)):
        assert count_ap_primes(NARROW, q, a) == count_ap_primes(WIDE, q, a)
        assert (residue_class_primes(NARROW, q, a)
                == residue_class_primes(WIDE, q, a))


@pytest.mark.parametrize("algo", sorted(CONFIGS))
def test_samples_ignore_the_dtype(algo):
    cfg = _config(algo)
    retry = algo == "uncond_nofallback"
    narrow, narrow_counts = sample_distribution(cfg, 3000, NARROW, retry)
    wide, wide_counts = sample_distribution(cfg, 3000, WIDE, retry)
    assert narrow_counts == wide_counts
    assert dist_to_dict(narrow) == dist_to_dict(wide)


@pytest.mark.parametrize("algo", sorted(CONFIGS))
def test_trial_records_ignore_the_dtype(algo):
    cfg = _config(algo)
    retry = algo == "uncond_nofallback"
    narrow, wide = (trial_records(replace(cfg, primality=Exact(table)), 3000,
                                  retry, telemetry=True)
                    for table in (NARROW, WIDE))
    assert narrow.keys() == wide.keys()
    for name in narrow:
        assert narrow[name].dtype == wide[name].dtype, name
        assert np.array_equal(narrow[name], wide[name]), name

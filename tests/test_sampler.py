"""The lockstep block sampler behind sample_distribution, judged by the
exact laws of exactdist."""

import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from primelab.errors import NonTerminationError, ResourceLimitError
from primelab.exactdist import (
    exact_dist_basic,
    exact_dist_erh_fallback,
    exact_dist_primeinc,
    exact_dist_trivial,
    exact_dist_uncond,
    exact_dist_uncond_nofallback,
)
from primelab.generators import Algorithm, GenConfig, ModulusMode
from primelab.harness import sample_distribution
from primelab.metrics import tv_between
from primelab.ntheory import Exact, PrimeTable, sieve

from conftest import chi2_z

X = 100
T100 = sieve(X)
Q25 = dict(q=25, modulus_mode=ModulusMode.EXPLICIT)

# (algorithm, config fields, exact law, retry): at x = 100, modulus 25 has
# unit classes without primes, and random moduli from (10, 20] do too
CASES = {
    "trivial": (Algorithm.TRIVIAL, {}, exact_dist_trivial(X, T100), False),
    "primeinc": (Algorithm.PRIMEINC, {}, exact_dist_primeinc(X, T100), False),
    "basic": (Algorithm.BASIC, Q25, exact_dist_basic(X, 25, T100), True),
    "erh_fallback": (Algorithm.ERH_FALLBACK, dict(Q25, T_override=2),
                     exact_dist_erh_fallback(X, 25, 2, T100), False),
    "uncond": (Algorithm.UNCOND, dict(A=1.0, T_override=2),
               exact_dist_uncond(X, 1.0, 2, T100), False),
    "uncond_nofallback": (Algorithm.UNCOND_NOFALLBACK,
                          dict(A=1.0, max_iterations=50),
                          exact_dist_uncond_nofallback(X, 1.0, T100), True),
}


def sample(name, runs, seed=1):
    algo, fields, _, retry = CASES[name]
    cfg = GenConfig(x=X, algorithm=algo, seed=seed, primality=Exact(T100),
                    **fields)
    return sample_distribution(cfg, runs, T100, retry_nontermination=retry)


@pytest.mark.parametrize("name", CASES)
def test_same_seed_same_counts(name):
    assert sample(name, 5000)[1] == sample(name, 5000)[1]
    assert sample(name, 5000)[1] != sample(name, 5000, seed=2)[1]


@pytest.mark.parametrize("name", CASES)
def test_observed_primes_have_exact_mass(name):
    law = CASES[name][2].mass
    _, counts = sample(name, 20_000)
    assert sum(counts.values()) == 20_000
    assert all(law[p] > 0 for p in counts)


@pytest.mark.parametrize("name", CASES)
def test_chi_square_against_exact_law(name):
    runs = 10**5
    empirical, counts = sample(name, runs)
    law = CASES[name][2]
    assert chi2_z(counts, law.mass, runs) < 5
    assert float(tv_between(empirical, law)) < 3 * (25 / runs) ** 0.5


@pytest.mark.parametrize("name", ["erh_fallback", "uncond"])
def test_calls_shorter_than_the_lanes_are_unbiased(name):
    # 300 runs per call, fewer than the runs in flight: a sampler that
    # kept the runs ending first would favour the classes dense in primes
    counts = Counter()
    for seed in range(200):
        counts.update(sample(name, 300, seed)[1])
    assert chi2_z(counts, CASES[name][2].mass, 300 * 200) < 5


def test_empty_class_raises_at_once():
    t30 = sieve(30)
    cfg = GenConfig(x=30, algorithm=Algorithm.BASIC, primality=Exact(t30),
                    **Q25)
    assert cfg.budget > 3 * 10**6
    start = time.perf_counter()
    with pytest.raises(NonTerminationError) as err:
        sample_distribution(cfg, 1000, t30)
    # generate would spend the budget first: seconds, not milliseconds
    assert time.perf_counter() - start < 1
    message = str(err.value)
    assert "(mod 25)" in message and str(cfg.budget) in message
    dead = int(message.split("no prime = ")[1].split()[0])
    assert not any(p % 25 == dead for p in t30.primes.tolist())


def test_empty_classes_redrawn_match_conditioned_law():
    t30 = sieve(30)
    cfg = GenConfig(x=30, algorithm=Algorithm.BASIC, primality=Exact(t30),
                    seed=4, **Q25)
    runs = 10**5
    empirical, counts = sample_distribution(cfg, runs, t30,
                                            retry_nontermination=True)
    law = exact_dist_basic(30, 25, t30)
    assert law.meta["conditional"]
    assert chi2_z(counts, law.mass, runs) < 5
    assert float(tv_between(empirical, law)) < 3 * (9 / runs) ** 0.5


def test_table_resolved_before_the_first_draw():
    cfg = GenConfig(x=2**40, algorithm=Algorithm.TRIVIAL)
    with pytest.raises(ResourceLimitError):
        sample_distribution(cfg, 10**6)


def test_memory_does_not_grow_with_runs():
    # acceptance criterion 6's config, at a tenth of its runs
    t200 = sieve(200)
    cfg = GenConfig(x=200, algorithm=Algorithm.UNCOND_NOFALLBACK, A=1.0,
                    seed=106, primality=Exact(t200), max_iterations=500)
    sample_distribution(cfg, 10, t200, retry_nontermination=True)
    tracemalloc.start()
    try:
        _, counts = sample_distribution(cfg, 10**6, t200,
                                        retry_nontermination=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 10**6
    assert peak < 4 * 2**20


def test_draws_wider_than_a_word_are_refused():
    wide = PrimeTable(2**33, np.zeros(1, dtype=np.uint8), np.array([2, 3]))
    cfg = GenConfig(x=2**33, algorithm=Algorithm.TRIVIAL)
    with pytest.raises(ResourceLimitError):
        sample_distribution(cfg, 10, wide)

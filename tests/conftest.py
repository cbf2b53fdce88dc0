import numpy as np
import pytest

from primelab.ntheory import sieve


@pytest.fixture(scope="session")
def table_1k():
    return sieve(1000)


@pytest.fixture(scope="session")
def table_100k():
    return sieve(10**5)


@pytest.fixture(scope="session")
def table_1m():
    return sieve(10**6)


def chi2_critical(dof: int, significance: float = 1e-6) -> float:
    from scipy.stats import chi2

    return float(chi2.ppf(1 - significance, dof))


def chi2_stat_uniform(counts, total: int, cells: int) -> float:
    """Pearson chi-square statistic against the uniform distribution."""
    expected = total / cells
    observed = np.zeros(cells)
    for i, c in enumerate(counts.values() if isinstance(counts, dict) else counts):
        observed[i] = c
    return float(((observed - expected) ** 2 / expected).sum())


def chi2_z(counts, law, runs: int, min_expected: float = 5.0) -> float:
    """Wilson-Hilferty normal deviate of the Pearson chi-square statistic
    of observed counts against exact masses, cells expecting fewer than
    min_expected runs pooled into one: the rule of bench/checks.py, where
    z > 5 is a false alarm about 3e-7 of the time."""
    stat = cells = pooled_obs = pooled_exp = 0
    for outcome, mass in law.items():
        expected = runs * float(mass)
        if not expected:
            continue
        if expected < min_expected:
            pooled_obs += counts.get(outcome, 0)
            pooled_exp += expected
            continue
        stat += (counts.get(outcome, 0) - expected) ** 2 / expected
        cells += 1
    if pooled_exp:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        cells += 1
    k = cells - 1
    return ((stat / k) ** (1 / 3) - (1 - 2 / (9 * k))) / (2 / (9 * k)) ** 0.5


def trial_division_primes(bound: int) -> list[int]:
    """Independent oracle: primes up to bound by trial division."""
    primes = []
    for n in range(2, bound + 1):
        d = 2
        is_p = True
        while d * d <= n:
            if n % d == 0:
                is_p = False
                break
            d += 1
        if is_p:
            primes.append(n)
    return primes

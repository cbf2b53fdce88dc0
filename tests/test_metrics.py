import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelab.errors import DomainError
from primelab.metrics import FiniteDist, metrics_of, tv_between


def test_uniform_metrics():
    d = FiniteDist.uniform(range(10))
    m = metrics_of(d)
    assert m.delta1 == 0
    assert m.delta2_sq == 0
    assert m.beta == Fraction(1, 10)
    assert m.gamma == Fraction(1, 10)
    assert math.isclose(m.h2_bits, math.log2(10))
    assert math.isclose(m.hmin_bits, math.log2(10))


def test_point_mass_metrics():
    d = FiniteDist(4, {0: Fraction(1)})
    m = metrics_of(d)
    # |1 - 1/4| + 3 * (1/4) = 3/2
    assert m.delta1 == Fraction(3, 2)
    assert m.beta == 1
    assert m.gamma == 1
    assert m.h2_bits == 0
    assert m.hmin_bits == 0


def test_omitted_outcomes_equal_explicit_zeros():
    stored = FiniteDist(4, {0: Fraction(1), 1: Fraction(0), 2: Fraction(0)})
    omitted = FiniteDist(4, {0: Fraction(1)})
    ms, mo = metrics_of(stored), metrics_of(omitted)
    assert (ms.delta1, ms.delta2_sq, ms.beta, ms.gamma) == (
        mo.delta1, mo.delta2_sq, mo.beta, mo.gamma)


def test_validation_errors():
    with pytest.raises(DomainError):
        FiniteDist(2, {0: Fraction(1, 2)})  # sums to 1/2
    with pytest.raises(DomainError):
        FiniteDist(1, {0: Fraction(1, 2), 1: Fraction(1, 2)})  # too many
    with pytest.raises(DomainError):
        FiniteDist(2, {0: Fraction(3, 2), 1: Fraction(-1, 2)})
    with pytest.raises(DomainError):
        FiniteDist(2, {0: 0.5, 1: 0.4})  # float sum off by 0.1
    with pytest.raises(DomainError):
        FiniteDist(0, {})


def test_float_backend_tolerance():
    d = FiniteDist(3, {0: 0.2, 1: 0.3, 2: 0.5 + 1e-12})
    m = metrics_of(d)
    assert abs(m.beta - (1 / 3 + m.delta2_sq)) < 1e-9


def test_tv_identical_and_disjoint():
    a = FiniteDist(5, {0: Fraction(1)})
    b = FiniteDist(5, {3: Fraction(1)})
    assert tv_between(a, a) == 0
    assert tv_between(a, b) == 2


def test_tv_mismatched_spaces():
    with pytest.raises(DomainError):
        tv_between(FiniteDist(2, {0: Fraction(1)}),
                   FiniteDist(3, {0: Fraction(1)}))


def test_tv_to_uniform_equals_delta1():
    rnd = random.Random(7)
    for _ in range(25):
        size = rnd.randint(1, 20)
        weights = [rnd.randint(0, 5) for _ in range(size)]
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        d = FiniteDist(
            size, {i: Fraction(w, total) for i, w in enumerate(weights)}
        )
        uniform = FiniteDist.uniform(range(size))
        assert tv_between(d, uniform) == metrics_of(d).delta1


@st.composite
def rational_dists(draw):
    size = draw(st.integers(min_value=1, max_value=64))
    stored = draw(st.integers(min_value=1, max_value=size))
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=100),
                 min_size=stored, max_size=stored)
    )
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    mass = {i: Fraction(w, total) for i, w in enumerate(weights)}
    return FiniteDist(size, mass)


@given(rational_dists())
@settings(max_examples=300, deadline=None)
def test_measure_relations_exact(dist):
    m = metrics_of(dist)
    size = dist.space_size
    u = Fraction(1, size)
    # the defining chain, in exact arithmetic
    assert m.gamma**2 <= m.beta
    assert m.beta == u + m.delta2_sq
    assert m.beta <= m.gamma
    assert m.gamma <= u + m.delta1
    # l1 vs l2: delta1 <= delta2 * sqrt(size), squared to stay rational
    assert m.delta1**2 <= m.delta2_sq * size


def test_from_counts_exact():
    d = FiniteDist.from_counts({2: 3, 5: 7}, 10, 4)
    assert d.mass[2] == Fraction(3, 10)
    assert d.is_exact


def test_empirical_basic_close_to_exact(table_1k):
    from primelab.exactdist import exact_dist_basic
    from primelab.generators import Algorithm, GenConfig, ModulusMode
    from primelab.harness import sample_distribution
    from primelab.ntheory import Exact, sieve

    t30 = sieve(30)
    cfg = GenConfig(x=30, algorithm=Algorithm.BASIC, q=6,
                    modulus_mode=ModulusMode.EXPLICIT, seed=11,
                    primality=Exact(t30))
    emp, _ = sample_distribution(cfg, 10**5, t30)
    assert tv_between(emp, exact_dist_basic(30, 6, t30)) < 0.01


def naive_metrics(dist, u):
    """The measures summed one outcome at a time: the reference that the
    grouped sums in metrics_of must reproduce."""
    values = list(dist.mass.values())
    omitted = dist.space_size - len(values)
    return (
        sum(abs(v - u) for v in values) + omitted * u,
        sum((v - u) ** 2 for v in values) + omitted * u * u,
        sum(v * v for v in values),
        max(values),
    )


@st.composite
def repeated_weights(draw):
    """(space size, weights of the stored outcomes), the weights drawn from
    a small pool so that masses repeat; outcomes past the stored ones are
    omitted."""
    size = draw(st.integers(min_value=1, max_value=64))
    stored = draw(st.integers(min_value=1, max_value=size))
    pool = draw(st.lists(st.integers(min_value=0, max_value=50),
                         min_size=1, max_size=4))
    weights = draw(st.lists(st.sampled_from(pool),
                            min_size=stored, max_size=stored))
    if sum(weights) == 0:
        weights[0] = 1
    return size, weights


@given(repeated_weights())
@settings(max_examples=300, deadline=None)
def test_grouped_metrics_equal_naive_exact(case):
    size, weights = case
    total = sum(weights)
    dist = FiniteDist(size, {i: Fraction(w, total)
                             for i, w in enumerate(weights)})
    m = metrics_of(dist)
    assert (m.delta1, m.delta2_sq, m.beta, m.gamma) == naive_metrics(
        dist, Fraction(1, size))


@given(repeated_weights())
@settings(max_examples=300, deadline=None)
def test_grouped_metrics_match_naive_float(case):
    size, weights = case
    total = sum(weights)
    dist = FiniteDist(size, {i: w / total for i, w in enumerate(weights)})
    m = metrics_of(dist)
    for got, want in zip((m.delta1, m.delta2_sq, m.beta, m.gamma),
                         naive_metrics(dist, 1.0 / size)):
        assert abs(got - want) <= 1e-12

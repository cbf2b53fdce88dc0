"""Regularity measures of finite probability distributions.

A distribution lives on an abstract finite set of known size; only the
outcomes with stored mass are kept (explicit zeros allowed, omitted
outcomes count as zero).  The measures are the l1 distance to uniform
(no 1/2 factor), the squared l2 imbalance, the collision probability and
the maximum mass, plus the derived collision and min entropies.

Masses may be `fractions.Fraction` (exact backend: identities below hold
with equality) or floats (1e-9/1e-12 tolerances).
"""

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import attrgetter

from .errors import DomainError

_SUM_TOL = 1e-9
_ID_TOL = 1e-12


class FiniteDist:
    """Probability mass function over a finite set of `space_size` outcomes.

    `mass` maps outcome -> probability; outcomes not stored have mass zero.
    `meta` carries bookkeeping (e.g. conditioning flags) and does not affect
    any computation.
    """

    __slots__ = ("space_size", "mass", "meta")

    def __init__(self, space_size: int, mass: dict, meta: dict | None = None):
        if space_size < 1:
            raise DomainError(f"space_size must be >= 1, got {space_size}")
        if len(mass) > space_size:
            raise DomainError(
                f"{len(mass)} stored outcomes exceed space size {space_size}"
            )
        groups, exact = _grouped(mass)
        total = (_exact_sum if exact else sum)(n * v for v, n in groups)
        if exact:
            if total != 1:
                raise DomainError(f"exact masses must sum to 1, got {total}")
        elif not (1 - _SUM_TOL <= total <= 1 + _SUM_TOL):
            raise DomainError(f"masses sum to {total}, not within 1e-9 of 1")
        if any(v < 0 or v > 1 for v, _ in groups):
            raise DomainError("masses must lie in [0, 1]")
        self.space_size = space_size
        self.mass = mass
        self.meta = meta or {}

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Rational) for v in self.mass.values())

    @classmethod
    def uniform(cls, outcomes, space_size: int | None = None) -> "FiniteDist":
        """Uniform distribution over the given outcomes."""
        outcomes = list(outcomes)
        n = len(outcomes)
        if n == 0:
            raise DomainError("uniform distribution needs at least one outcome")
        size = space_size if space_size is not None else n
        if size != n:
            raise DomainError("uniform() requires space_size == #outcomes")
        u = Fraction(1, n)
        return cls(size, {o: u for o in outcomes})

    @classmethod
    def from_counts(cls, counts: dict, total: int,
                    space_size: int) -> "FiniteDist":
        """Empirical distribution from observation counts (exact backend)."""
        if total < 1:
            raise DomainError("need at least one observation")
        mass = {o: Fraction(c, total) for o, c in counts.items()}
        return cls(space_size, mass)

    def __repr__(self) -> str:
        return (f"FiniteDist(space_size={self.space_size}, "
                f"stored={len(self.mass)}, exact={self.is_exact})")


@dataclass(frozen=True)
class DistMetrics:
    """Measure bundle for one distribution against uniform on its space."""

    delta1: Fraction | float      # l1 distance to uniform
    delta2_sq: Fraction | float   # squared l2 imbalance
    beta: Fraction | float        # collision probability
    gamma: Fraction | float       # maximum mass
    h2_bits: float                # collision (Renyi) entropy, -log2 beta
    hmin_bits: float              # min-entropy, -log2 gamma


def _grouped(mass: dict):
    """([(distinct mass, multiplicity)], whether all masses are exact).
    Exact masses are grouped by (numerator, denominator), which hashes far
    faster than a Fraction."""
    values = list(mass.values())
    exact = all(isinstance(v, Rational) for v in values)
    if not exact:
        return list(Counter(values).items()), False
    key = attrgetter("numerator", "denominator")
    first = dict(zip(map(key, values), values))
    return [(first[k], n) for k, n in Counter(map(key, values)).items()], True


def _exact_sum(terms) -> Fraction:
    """Exact sum of rationals: numerators are added per denominator, then
    over a common denominator that grows (one gcd) only when a denominator
    does not divide it, not with a gcd on large integers at every term."""
    by_den: dict[int, int] = defaultdict(int)
    for t in terms:
        by_den[t.denominator] += t.numerator
    num, den = 0, 1
    for d in sorted(by_den, reverse=True):
        if den % d:
            step = d // math.gcd(den, d)
            num, den = num * step, den * step
        num += by_den[d] * (den // d)
    return Fraction(num, den)


def _check_identities(size, d1, d2, beta, gamma, exact):
    u = Fraction(1, size) if exact else 1.0 / size
    slack = 0 if exact else _ID_TOL
    ok = (
        gamma * gamma <= beta + slack
        and abs(beta - (u + d2)) <= slack
        and beta <= gamma + slack
        and gamma <= u + d1 + slack
        and d1 * d1 <= d2 * size + slack
    )
    if not ok:
        raise ArithmeticError(
            "distribution measures violate their defining relations "
            f"(size={size}, d1={d1}, d2={d2}, beta={beta}, gamma={gamma})"
        )


def metrics_of(dist: FiniteDist) -> DistMetrics:
    """Compute all regularity measures of `dist`.

    Outcomes omitted from storage contribute (space_size - stored) copies
    of |0 - 1/|S|| to each sum.
    """
    groups, exact = _grouped(dist.mass)
    if not groups:
        raise DomainError("cannot compute metrics of an empty distribution")
    size = dist.space_size
    total = _exact_sum if exact else sum
    u = Fraction(1, size) if exact else 1.0 / size
    omitted = size - len(dist.mass)

    delta1 = total(n * abs(v - u) for v, n in groups) + omitted * u
    delta2_sq = total(n * (v - u) ** 2 for v, n in groups) + omitted * u * u
    beta = total(n * v ** 2 for v, n in groups)
    gamma = max(v for v, _ in groups)

    _check_identities(size, delta1, delta2_sq, beta, gamma, exact)
    return DistMetrics(
        delta1=delta1,
        delta2_sq=delta2_sq,
        beta=beta,
        gamma=gamma,
        h2_bits=-math.log2(float(beta)),
        hmin_bits=-math.log2(float(gamma)),
    )


def tv_between(a: FiniteDist, b: FiniteDist):
    """l1 distance between two mass functions on the same space."""
    if a.space_size != b.space_size:
        raise DomainError(
            f"space sizes differ: {a.space_size} vs {b.space_size}"
        )
    zero = 0 if (a.is_exact and b.is_exact) else 0.0
    total = zero
    for outcome in a.mass.keys() | b.mass.keys():
        total += abs(a.mass.get(outcome, zero) - b.mass.get(outcome, zero))
    return total

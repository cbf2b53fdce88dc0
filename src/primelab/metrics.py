"""Regularity measures of finite probability distributions.

A distribution lives on an abstract finite set of known size; only the
outcomes with stored mass are kept (explicit zeros allowed, omitted
outcomes count as zero).  The measures are the l1 distance to uniform
(no 1/2 factor), the squared l2 imbalance, the collision probability and
the maximum mass, plus the derived collision and min entropies.

An exact distribution stores integer numerators over one int denominator
D, and each measure is one integer sum over the distinct numerators,
divided once into a `fractions.Fraction`: the identities below hold with
equality.  A float distribution stores its masses over D = 1.0 and goes
through the same sums (1e-9/1e-12 tolerances).
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import truediv

from .errors import DomainError

_SUM_TOL = 1e-9
_ID_TOL = 1e-12


class FiniteDist:
    """Probability mass function over a finite set of `space_size` outcomes.

    mass(o) = num[o] / den, with int numerators over an int den (exact) or
    floats over den = 1.0; outcomes not stored have mass zero.  `mass`
    maps outcome -> probability, built on access (reduced Fractions when
    exact).  `meta` carries bookkeeping (e.g. conditioning flags) and does
    not affect any computation.
    """

    __slots__ = ("space_size", "num", "den", "meta")

    def __init__(self, space_size: int, mass: dict, meta: dict | None = None):
        values = mass.values()
        if all(isinstance(v, Rational) for v in values):
            den = math.lcm(*(v.denominator for v in values))
            num = {o: v.numerator * (den // v.denominator)
                   for o, v in mass.items()}
        else:
            den = 1.0
            num = {o: float(v) for o, v in mass.items()}
        self._store(space_size, num, den, meta)

    def _store(self, space_size, num, den, meta):
        if space_size < 1:
            raise DomainError(f"space_size must be >= 1, got {space_size}")
        if len(num) > space_size:
            raise DomainError(
                f"{len(num)} stored outcomes exceed space size {space_size}"
            )
        total = sum(num.values())
        slack = 0 if isinstance(den, int) else _SUM_TOL
        if not abs(total - den) <= slack:
            raise DomainError(f"masses sum to {total}/{den}, not 1")
        if min(num.values()) < 0 or max(num.values()) > den:
            raise DomainError("masses must lie in [0, 1]")
        self.space_size = space_size
        self.num = num
        self.den = den
        self.meta = meta or {}

    @property
    def is_exact(self) -> bool:
        return isinstance(self.den, int)

    @property
    def mass(self) -> dict:
        if not self.is_exact:
            return self.num
        reduced = {n: Fraction(n, self.den) for n in set(self.num.values())}
        return {o: reduced[n] for o, n in self.num.items()}

    @classmethod
    def uniform(cls, outcomes) -> "FiniteDist":
        """Uniform distribution on the given outcomes, which are its space."""
        outcomes = list(outcomes)
        n = len(outcomes)
        if n == 0:
            raise DomainError("uniform distribution needs at least one outcome")
        return cls.from_counts(dict.fromkeys(outcomes, 1), n, n)

    @classmethod
    def from_counts(cls, counts: dict, total: int, space_size: int,
                    meta: dict | None = None) -> "FiniteDist":
        """Exact distribution mass(o) = counts[o] / total: observation
        counts over the number of observations, or the integer numerators
        of a closed form over its common denominator."""
        if total < 1:
            raise DomainError("need at least one observation")
        dist = cls.__new__(cls)
        dist._store(space_size, dict(counts), total, meta)
        return dist

    def __repr__(self) -> str:
        return (f"FiniteDist(space_size={self.space_size}, "
                f"stored={len(self.num)}, exact={self.is_exact})")


@dataclass(frozen=True)
class DistMetrics:
    """Measure bundle for one distribution against uniform on its space."""

    delta1: Fraction | float      # l1 distance to uniform
    delta2_sq: Fraction | float   # squared l2 imbalance
    beta: Fraction | float        # collision probability
    gamma: Fraction | float       # maximum mass
    h2_bits: float                # collision (Renyi) entropy, -log2 beta
    hmin_bits: float              # min-entropy, -log2 gamma


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

    With D = dist.den and S = space_size, each sum runs over the distinct
    numerators n (times their multiplicity), the S - stored omitted
    outcomes counted as n = 0: delta1 = sum |nS - D| / (DS),
    delta2_sq = sum (nS - D)^2 / (DS)^2, beta = sum n^2 / D^2 and
    gamma = max n / D.
    """
    if not dist.num:
        raise DomainError("cannot compute metrics of an empty distribution")
    size, den, exact = dist.space_size, dist.den, dist.is_exact
    groups = Counter(dist.num.values())
    groups[0] += size - len(dist.num)
    div = Fraction if exact else truediv
    scale = den * size

    delta1 = div(sum(k * abs(n * size - den) for n, k in groups.items()),
                 scale)
    delta2_sq = div(sum(k * (n * size - den) ** 2 for n, k in groups.items()),
                    scale * scale)
    beta = div(sum(k * n * n for n, k in groups.items()), den * den)
    gamma = div(max(groups), den)

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
    """l1 distance between two mass functions on the same space.

    Two exact distributions are compared in integers over lcm(D_a, D_b),
    with one division at the end; otherwise each mass is a float n / D.
    """
    if a.space_size != b.space_size:
        raise DomainError(
            f"space sizes differ: {a.space_size} vs {b.space_size}"
        )
    if a.is_exact and b.is_exact:
        den, div = math.lcm(a.den, b.den), Fraction
        na, nb = ({o: n * (den // d.den) for o, n in d.num.items()}
                  for d in (a, b))
    else:
        den, div = 1.0, truediv
        na, nb = ({o: n / d.den for o, n in d.num.items()} for d in (a, b))
    return div(sum(abs(na.get(o, 0) - nb.get(o, 0))
                   for o in na.keys() | nb.keys()), den)

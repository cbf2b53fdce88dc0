"""Regularity measures of finite probability distributions.

A distribution lives on an abstract finite set of known size; only the
outcomes with stored mass are kept (explicit zeros allowed, omitted
outcomes count as zero).  The measures are the l1 distance to uniform
(no 1/2 factor), the squared l2 imbalance, the collision probability and
the maximum mass, plus the derived collision and min entropies.

A distribution stores integer numerators over one int denominator D, and
each measure is one integer sum over the distinct numerators, divided
once into a `fractions.Fraction`: the identities below hold with
equality.
"""

import math
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .codec import encode_value, json_text
from .errors import DomainError, _bound_index, _instance_of


class FiniteDist:
    """Probability mass function over a finite set of `space_size` outcomes.

    mass(o) = num[o] / den, int numerators over an int den, and zero for
    outcomes not stored; floats and a non-integer space size are refused
    with DomainError.  `mass` maps outcome -> reduced Fraction, built on
    access.  `meta` carries bookkeeping (e.g. conditioning flags) and
    does not affect any computation: a dict that the record codec can
    write (DomainError for any other meta).
    """

    __slots__ = ("space_size", "num", "den", "meta")

    def __init__(self, space_size: int, mass: dict, meta: dict | None = None):
        values = _instance_of("mass", mass, dict).values()
        if not all(isinstance(v, Rational) for v in values):
            raise DomainError("masses must be rationals (int or Fraction)")
        den = math.lcm(*(v.denominator for v in values))
        num = {o: v.numerator * (den // v.denominator)
               for o, v in mass.items()}
        self._store(space_size, num, den, meta)

    def _store(self, space_size, num, den, meta):
        space_size = _bound_index("space_size", space_size, 1)
        if len(num) > space_size:
            raise DomainError(
                f"{len(num)} stored outcomes exceed space size {space_size}"
            )
        total = sum(num.values())  # an int only if every numerator is
        if not (isinstance(total, int) and isinstance(den, int)):
            raise DomainError("need int numerators over an int denominator, "
                              f"got a sum {total!r} over {den!r}")
        if den < 1:
            raise DomainError("need at least one observation")
        if total != den:
            raise DomainError(f"masses sum to {total}/{den}, not 1")
        if min(num.values()) < 0 or max(num.values()) > den:
            raise DomainError("masses must lie in [0, 1]")
        self.space_size = space_size
        self.num = num
        self.den = den
        self.meta = _checked_meta(meta)

    @property
    def mass(self) -> dict:
        reduced = {n: Fraction(n, self.den) for n in set(self.num.values())}
        return {o: reduced[n] for o, n in self.num.items()}

    @classmethod
    def uniform(cls, outcomes) -> "FiniteDist":
        """Uniform distribution on the given outcomes, which are its space."""
        outcomes = list(_instance_of("outcomes", outcomes, Iterable))
        n = len(outcomes)
        if n == 0:
            raise DomainError("uniform distribution needs at least one outcome")
        return cls.from_counts(dict.fromkeys(outcomes, 1), n, n)

    @classmethod
    def from_counts(cls, counts: dict, total: int, space_size: int,
                    meta: dict | None = None) -> "FiniteDist":
        """Distribution mass(o) = counts[o] / total: observation counts over
        the number of observations, or the integer numerators of a closed
        form over its common denominator."""
        dist = cls.__new__(cls)
        dist._store(space_size, dict(_instance_of("counts", counts, dict)),
                    total, meta)
        return dist

    def __repr__(self) -> str:
        return (f"FiniteDist(space_size={self.space_size}, "
                f"stored={len(self.num)})")


def _checked_meta(meta) -> dict:
    """meta, {} for None; DomainError unless a dict that the record codec
    can write."""
    if meta is None:
        return {}
    json_text(encode_value(_instance_of("meta", meta, dict)))
    return meta


@dataclass(frozen=True)
class DistMetrics:
    """Measure bundle for one distribution against uniform on its space:
    the four measures are exact Fractions, the two entropies floats."""

    delta1: Fraction      # l1 distance to uniform
    delta2_sq: Fraction   # squared l2 imbalance
    beta: Fraction        # collision probability
    gamma: Fraction       # maximum mass
    h2_bits: float        # collision (Renyi) entropy, -log2 beta
    hmin_bits: float      # min-entropy, -log2 gamma


def _check_identities(size, d1, d2, beta, gamma):
    u = Fraction(1, size)
    ok = (
        gamma * gamma <= beta
        and beta == u + d2
        and beta <= gamma
        and gamma <= u + d1
        and d1 * d1 <= d2 * size
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
    size, den = _instance_of("dist", dist, FiniteDist).space_size, dist.den
    groups = Counter(dist.num.values())
    groups[0] += size - len(dist.num)
    scale = den * size

    delta1 = Fraction(sum(k * abs(n * size - den) for n, k in groups.items()),
                      scale)
    delta2_sq = Fraction(
        sum(k * (n * size - den) ** 2 for n, k in groups.items()),
        scale * scale)
    beta = Fraction(sum(k * n * n for n, k in groups.items()), den * den)
    gamma = Fraction(max(groups), den)

    _check_identities(size, delta1, delta2_sq, beta, gamma)
    return DistMetrics(
        delta1=delta1,
        delta2_sq=delta2_sq,
        beta=beta,
        gamma=gamma,
        h2_bits=-math.log2(float(beta)),
        hmin_bits=-math.log2(float(gamma)),
    )


def tv_between(a: FiniteDist, b: FiniteDist) -> Fraction:
    """l1 distance between two mass functions on the same space, as an
    exact Fraction: the numerators are compared in integers over
    lcm(D_a, D_b), with one division at the end.
    """
    _instance_of("tv_between's a", a, FiniteDist)
    _instance_of("tv_between's b", b, FiniteDist)
    if a.space_size != b.space_size:
        raise DomainError(
            f"space sizes differ: {a.space_size} vs {b.space_size}"
        )
    den = math.lcm(a.den, b.den)
    na, nb = ({o: n * (den // d.den) for o, n in d.num.items()}
              for d in (a, b))
    return Fraction(sum(abs(na.get(o, 0) - nb.get(o, 0))
                        for o in na.keys() | nb.keys()), den)

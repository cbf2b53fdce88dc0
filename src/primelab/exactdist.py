"""Closed-form output distributions of the generators at desk scale.

Each generator's exact probability of producing a given prime p <= x is
computed from residue-class prime counts, using rational arithmetic so
that masses sum to exactly 1.  These distributions are the brute-force
oracle against which Monte Carlo runs and analytic predictions are
checked.  This module alone counts primes per residue class
(`_unit_counts`, and `class_census` over a set of moduli); the closed
forms and the error-term profiles E(x;q,a) of `error_term_profile` all
read those counts.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DomainError, ResourceLimitError, _bound_index
from .generators import derived_Q
from .metrics import FiniteDist
from .ntheory import Modulus, PrimeTable, primes_upto, table_for

# Refuse random-modulus sweeps needing more than this many class lookups.
DEFAULT_WORK_CAP = 10**10


def exact_dist_trivial(x: int, table: PrimeTable | None = None) -> FiniteDist:
    """Uniform over the primes <= x."""
    return FiniteDist.uniform(primes_upto(x, table).tolist())


def exact_dist_primeinc(x: int, table: PrimeTable | None = None) -> FiniteDist:
    """Gap-proportional distribution: mass(p) = d(p) / p_max.

    d(p) is the distance from p to the preceding prime (d(2) = 2, counting
    the starts 1 and 2), and p_max the largest prime <= x; gaps telescope
    so the masses sum to exactly 1.
    """
    primes_x = primes_upto(x, table)  # x >= 2: it holds 2
    gaps = np.diff(primes_x, prepend=0)  # d(2) = 2 - 0
    return FiniteDist.from_counts(dict(zip(primes_x.tolist(), gaps.tolist())),
                                  int(primes_x[-1]), len(primes_x))


def exact_dist_basic(
    x: int, q: int, table: PrimeTable | None = None
) -> FiniteDist:
    """Distribution of the fixed-modulus residue-class generator.

    mass(p) = 1 / (phi(q) * pi(x; q, p mod q)) for p not dividing q, and 0
    for p | q.  If some unit class holds no prime the run conditioned on
    termination uses the count of nonempty classes instead of phi(q); the
    result is flagged in meta["conditional"] with the empty classes listed.
    """
    primes_x = primes_upto(x, table)
    q = _fixed_modulus(x, q)
    census = class_census(x, [q], primes_x)
    num, den, phi_star = _nofallback_law(census, primes_x)
    _, unit, counts = _unit_counts(primes_x, q)
    empty = np.flatnonzero(unit & (counts == 0)).tolist()
    meta = {
        "conditional": bool(empty),
        "empty_classes": empty,
        "phi": int(census.units[0]),
        "phi_star": phi_star,
    }
    return FiniteDist.from_counts(num, den, len(primes_x), meta)


def exact_dist_erh_fallback(
    x: int, q: int, T: int, table: PrimeTable | None = None
) -> FiniteDist:
    """Distribution of the fixed-modulus generator with trivial fallback.

    With xi_a = pi(x;q,a) / (floor((x-a)/q) + 1) the chance a residue draw
    succeeds, a run in class a ends in the class with probability
    1 - (1-xi_a)^T and otherwise falls back to a uniform prime, so

        mass(p) = (1/phi) * [ (1 - (1-xi_a)^T) / pi(x;q,a)  for a = p mod q ]
                + (1/phi) * sum_a (1-xi_a)^T / pi(x).

    Empty classes contribute only the fallback term.
    """
    T = _bound_index("T", T, 1)
    primes_x = primes_upto(x, table)
    q = _fixed_modulus(x, q)
    num, den, _ = _fallback_law(class_census(x, [q], primes_x), primes_x, T)
    return FiniteDist.from_counts(num, den, len(primes_x))


def _fixed_modulus(x: int, q) -> int:
    """q as an int in [2, x), else DomainError."""
    q = _bound_index("modulus", q, 2)
    if q >= x:
        raise DomainError(f"modulus {q} must be < x = {x}")
    return q


def _range_census(x: int, A: float, table, with_hits: bool = True):
    """(primes <= x, Q, census of the moduli in (Q/2, Q]), refused with
    ResourceLimitError above DEFAULT_WORK_CAP class lookups."""
    primes_x = primes_upto(x, table)
    Q = derived_Q(x, A)
    if Q * len(primes_x) > DEFAULT_WORK_CAP:
        raise ResourceLimitError(
            f"random-modulus sweep needs ~{Q * len(primes_x)} class lookups "
            f"(cap {DEFAULT_WORK_CAP}); increase A or decrease x"
        )
    return primes_x, Q, class_census(x, range(Q // 2 + 1, Q + 1), primes_x,
                                     with_hits)


def exact_dist_uncond_nofallback(
    x: int, A: float, table: PrimeTable | None = None
) -> FiniteDist:
    """Distribution of the random-modulus generator without fallback.

    Conditioned on termination (the chosen class contains a prime),

        mass(p) = (1 / F*) * sum over q in (Q/2, Q] with p not dividing q
                  of 1 / pi(x; q, p mod q),

    where F* counts the selectable (q, a) pairs with a nonempty class.
    """
    primes_x, Q, census = _range_census(x, A, table)
    num, den, f_star = _nofallback_law(census, primes_x)
    return FiniteDist.from_counts(num, den, len(primes_x),
                                  {"Q": Q, "F_star": f_star})


def exact_dist_uncond(
    x: int, A: float, T: int, table: PrimeTable | None = None
) -> FiniteDist:
    """Distribution of the random-modulus generator with trivial fallback.

    Averages the fixed-(q, a) fallback mixture over the F(Q) selectable
    pairs; empty classes always fall back and contribute uniform mass.
    """
    T = _bound_index("T", T, 1)
    primes_x, Q, census = _range_census(x, A, table)
    num, den, f_q = _fallback_law(census, primes_x, T)
    return FiniteDist.from_counts(num, den, len(primes_x),
                                  {"Q": Q, "F": f_q, "T": T})


# ---------------------------------------------------------------------------
# the class census, the error terms and the two laws built on it

# Raw prime hits buffered before they are merged into distinct pairs.
_HIT_CHUNK = 1 << 18


@dataclass(frozen=True)
class ClassCensus:
    """Integer census of the unit classes (q, a) of a modulus range.

    Class (q, a) has key (c, m): c = pi(x; q, a) primes among its
    m = floor((x - a) / q) + 1 members <= x.  classes[k] classes have key
    (c[k], m[k]); prime primes_x[hit_prime[j]] lies in hits[j] classes of
    key hit_key[j] (a prime dividing q in none of q's).  The i-th modulus
    has units[i] = phi(q) classes, holding unit_primes[i] primes.
    """

    c: np.ndarray
    m: np.ndarray
    classes: np.ndarray
    hit_prime: np.ndarray
    hit_key: np.ndarray
    hits: np.ndarray
    units: np.ndarray
    unit_primes: np.ndarray


def class_census(
    x: int, qs, primes_x: np.ndarray, with_hits: bool = True
) -> ClassCensus:
    """Census of the moduli in the sequence qs, one numpy pass per q.

    Raw hits are merged into distinct (prime, key) pairs every _HIT_CHUNK,
    which bounds memory; with_hits=False skips them for callers that need
    only the class counts.  Weighted bincounts are float64, which is exact
    for counts below 2^53.
    """
    x = _bound_index("x", x)
    qs = [_bound_index("modulus", q, 1) for q in qs]
    if not qs:
        raise DomainError("class_census needs at least one modulus")
    least = min(qs)
    pi_x = len(primes_x)
    base = x // least + 2  # key (c, m) is coded c * base + m
    key_index: dict[int, int] = {}
    class_keys, class_counts, units, unit_primes, raw = [], [], [], [], []
    pairs = hits = np.zeros(0, dtype=np.int64)  # key * pi_x + prime
    for q in qs:
        residues, unit, in_class = _unit_counts(primes_x, q)
        codes = in_class * base + (x - np.arange(q)) // q + 1
        local, counts = np.unique(codes[unit], return_counts=True)
        keys = np.array([key_index.setdefault(k, len(key_index))
                         for k in local.tolist()])
        class_keys.append(keys)
        class_counts.append(counts)
        units.append(counts.sum())
        unit_primes.append((local // base * counts).sum())
        if with_hits:
            in_unit = np.flatnonzero(unit[residues])
            where = np.searchsorted(local, codes[residues[in_unit]])
            raw.append(keys[where] * pi_x + in_unit)
        if raw and (q == qs[-1] or sum(map(len, raw)) >= _HIT_CHUNK):
            new, n = np.unique(np.concatenate(raw), return_counts=True)
            pairs, inverse = np.unique(np.concatenate([pairs, new]),
                                       return_inverse=True)
            hits = np.bincount(inverse, np.concatenate([hits, n]))
            raw = []
    key_codes = np.array(list(key_index))
    classes = np.bincount(np.concatenate(class_keys),
                          np.concatenate(class_counts))
    return ClassCensus(
        c=key_codes // base, m=key_codes % base,
        classes=classes.astype(np.int64),
        hit_prime=pairs % pi_x, hit_key=pairs // pi_x,
        hits=hits.astype(np.int64),
        units=np.array(units), unit_primes=np.array(unit_primes),
    )


def _unit_counts(primes_x: np.ndarray, q: int):
    """(residues, unit, counts) for q >= 1: residues = primes_x mod q, unit
    the mask of the a in [0, q) coprime to q, counts[a] = pi(x; q, a)."""
    residues = primes_x % q
    unit = np.gcd(np.arange(q), q) == 1
    return residues, unit, np.bincount(residues, minlength=q)


@dataclass
class FixedModulusErrorProfile:
    """Deviations E(x;q,a) = |pi(x;q,a) - pi(x)/phi(q)| over the units."""

    x: int
    q: int
    error_terms: dict[int, float]
    max_error: float
    mean_error: float
    threshold: float
    fraction_exceeding: float


@dataclass
class RangeErrorProfile:
    """Sum of E(x;q,a)^2 over q in (Q/2, Q] and all units a."""

    x: int
    A: float
    Q: int
    sum_sq_error: float
    scale: float        # x * Q / ln Q
    ratio: float


def error_term_profile(
    x: int,
    q: int | None = None,
    A: float | None = None,
    table: PrimeTable | None = None,
):
    """Error-term census for a fixed modulus (q) or a modulus range (A).

    Fixed q: the multiset {E(x;q,a)}, its extremes, and the fraction of
    units exceeding the default threshold sqrt(pi(x)/phi(q)).  Range mode:
    the exact double sum of E^2 over (Q/2, Q], reported against the
    dimensionless scale x*Q/ln Q; a range needing more than
    DEFAULT_WORK_CAP class lookups raises ResourceLimitError.
    """
    if (q is None) == (A is None):
        raise ConfigError("provide exactly one of q or A")
    x = _bound_index("x", x, 2)
    table = table_for(x, table)
    primes_x = primes_upto(x, table)
    pi_x = len(primes_x)

    if q is not None:
        modulus = Modulus.from_int(q)
        q, phi = modulus.q, modulus.phi
        _, unit, counts = _unit_counts(primes_x, q)
        # |c - pi_x / phi|, rounded once from integers
        terms = np.abs(counts[unit] * phi - pi_x) / phi
        errors = dict(zip(np.flatnonzero(unit).tolist(), terms.tolist()))
        threshold = math.sqrt(pi_x / phi)
        exceeding = sum(1 for e in errors.values() if e > threshold)
        return FixedModulusErrorProfile(
            x=x,
            q=q,
            error_terms=errors,
            max_error=max(errors.values()),
            mean_error=sum(errors.values()) / phi,
            threshold=threshold,
            fraction_exceeding=exceeding / phi,
        )

    _, Q, census = _range_census(x, A, table, with_hits=False)
    # per modulus, sum over units of (c - pi/phi)^2
    #   = sum c^2 - pi * (2 * (primes coprime to q) - pi) / phi
    total = int((census.classes * census.c ** 2).sum()) - sum(
        Fraction(pi_x * (2 * covered - pi_x), phi)
        for covered, phi in zip(census.unit_primes.tolist(),
                                census.units.tolist())
    )
    scale = x * Q / math.log(Q)
    return RangeErrorProfile(
        x=x, A=A, Q=Q, sum_sq_error=float(total), scale=scale,
        ratio=float(total) / scale,
    )


def _prime_masses(census, primes_x, key_num, common):
    """Numerator of mass(p) for each prime p: common plus key_num[k] for
    each class of key k holding p, summed in integers."""
    num = [common] * len(primes_x)
    for i, k, h in zip(census.hit_prime.tolist(), census.hit_key.tolist(),
                       census.hits.tolist()):
        num[i] += h * key_num[k]
    return dict(zip(primes_x.tolist(), num))


def _nofallback_law(census: ClassCensus, primes_x: np.ndarray):
    """(numerators, denominator, F*) of a uniform (q, a) among the F*
    nonempty classes, then a uniform prime of it:
    mass(p) = (1/F*) * sum of 1/c over p's classes."""
    cs = census.c.tolist()
    f_star = int(census.classes[census.c > 0].sum())
    lcm_c = math.lcm(*(c for c in cs if c))
    key_num = [lcm_c // c if c else 0 for c in cs]
    return _prime_masses(census, primes_x, key_num, 0), lcm_c * f_star, f_star


def _fallback_law(census: ClassCensus, primes_x: np.ndarray, T: int):
    """(numerators, denominator, F) of a uniform (q, a) among all F unit
    classes, T residue draws, then the trivial fallback.  With
    fail = (1 - c/m)^T,

        mass(p) = (1/F) * [ sum over p's classes of (1 - fail) / c
                            + sum over all classes of fail / pi(x) ],

    each key's term brought once to the denominator lcm(c) lcm(m)^T pi(x).
    """
    pi_x = len(primes_x)
    f_q = int(census.classes.sum())
    lcm_c = math.lcm(*(c for c in census.c.tolist() if c))
    lcm_m = math.lcm(*census.m.tolist())
    key_num, fallback = [], 0
    for c, m, n in zip(census.c.tolist(), census.m.tolist(),
                       census.classes.tolist()):
        scale = (lcm_m // m) ** T  # lcm(m)^T / m^T
        fail_num = (m - c) ** T * scale
        fallback += n * fail_num * lcm_c
        key_num.append(
            (m ** T * scale - fail_num) * (lcm_c // c) * pi_x if c else 0
        )
    denom = lcm_c * lcm_m ** T * pi_x * f_q
    return _prime_masses(census, primes_x, key_num, fallback), denom, f_q

"""Closed-form output distributions of the generators at desk scale.

Each generator's exact probability of producing a given prime p <= x is
computed from residue-class prime counts, using rational arithmetic so
that masses sum to exactly 1.  These distributions are the brute-force
oracle against which Monte Carlo runs and analytic predictions are
checked.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceLimitError
from .generators import derived_Q
from .metrics import FiniteDist
from .ntheory import Modulus, PrimeTable, _bound_index, primes_upto, table_for

# Refuse random-modulus sweeps needing more than this many class lookups.
DEFAULT_WORK_CAP = 10**10


@dataclass(frozen=True)
class ClassProfile:
    """Residue-class census of the primes <= x for one modulus.

    counts maps each unit a to pi(x; q, a); phi_star is the number of
    units whose class is nonempty; error_terms maps a to
    |pi(x;q,a) - pi(x)/phi(q)|.
    """

    x: int
    q: int
    counts: dict[int, int]
    phi_star: int
    error_terms: dict[int, float]


def class_profile(x: int, q: int, table: PrimeTable | None = None) -> ClassProfile:
    primes_x = primes_upto(x, table)
    phi = Modulus.from_int(q).phi
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    counts_arr = np.bincount(primes_x % q, minlength=q)[units]
    # |c - pi_x / phi|, rounded once from integers
    errors_arr = np.abs(counts_arr * phi - len(primes_x)) / phi
    units = units.tolist()
    counts = dict(zip(units, counts_arr.tolist()))
    errors = dict(zip(units, errors_arr.tolist()))
    phi_star = int(np.count_nonzero(counts_arr))
    return ClassProfile(x, q, counts, phi_star, errors)


def exact_dist_trivial(x: int, table: PrimeTable | None = None) -> FiniteDist:
    """Uniform over the primes <= x."""
    return FiniteDist.uniform(primes_upto(x, table).tolist())


def exact_dist_primeinc(x: int, table: PrimeTable | None = None) -> FiniteDist:
    """Gap-proportional distribution: mass(p) = d(p) / p_max.

    d(p) is the distance from p to the preceding prime (d(2) = 2, counting
    the starts 1 and 2), and p_max the largest prime <= x; gaps telescope
    so the masses sum to exactly 1.
    """
    primes_x = primes_upto(x, table)
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
    if q >= x:
        raise DomainError(f"modulus {q} must be < x = {x}")
    table = table_for(x, table)
    profile = class_profile(x, q, table)
    primes_x = primes_upto(x, table)
    empty = [a for a, c in profile.counts.items() if c == 0]
    num, den, _ = _nofallback_law(class_census(x, [q], primes_x), primes_x)
    meta = {
        "conditional": bool(empty),
        "empty_classes": empty,
        "phi": len(profile.counts),
        "phi_star": profile.phi_star,
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
    if q >= x:
        raise DomainError(f"modulus {q} must be < x = {x}")
    if _bound_index("T", T) < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    primes_x = primes_upto(x, table)
    Modulus.from_int(q)  # rejects q < 2
    num, den, _ = _fallback_law(class_census(x, [q], primes_x), primes_x, T)
    return FiniteDist.from_counts(num, den, len(primes_x))


def _range_census(x: int, A: float, table, work_cap: int,
                  with_hits: bool = True):
    """(primes <= x, Q, census of the moduli in (Q/2, Q]), refused with
    ResourceLimitError above work_cap class lookups."""
    primes_x = primes_upto(x, table)
    Q = derived_Q(x, A)
    if Q * len(primes_x) > work_cap:
        raise ResourceLimitError(
            f"random-modulus sweep needs ~{Q * len(primes_x)} class lookups "
            f"(cap {work_cap}); increase A or decrease x"
        )
    return primes_x, Q, class_census(x, range(Q // 2 + 1, Q + 1), primes_x,
                                     with_hits)


def exact_dist_uncond_nofallback(
    x: int,
    A: float,
    table: PrimeTable | None = None,
    work_cap: int = DEFAULT_WORK_CAP,
) -> FiniteDist:
    """Distribution of the random-modulus generator without fallback.

    Conditioned on termination (the chosen class contains a prime),

        mass(p) = (1 / F*) * sum over q in (Q/2, Q] with p not dividing q
                  of 1 / pi(x; q, p mod q),

    where F* counts the selectable (q, a) pairs with a nonempty class.
    """
    primes_x, Q, census = _range_census(x, A, table, work_cap)
    num, den, f_star = _nofallback_law(census, primes_x)
    return FiniteDist.from_counts(num, den, len(primes_x),
                                  {"Q": Q, "F_star": f_star})


def exact_dist_uncond(
    x: int,
    A: float,
    T: int,
    table: PrimeTable | None = None,
    work_cap: int = DEFAULT_WORK_CAP,
) -> FiniteDist:
    """Distribution of the random-modulus generator with trivial fallback.

    Averages the fixed-(q, a) fallback mixture over the F(Q) selectable
    pairs; empty classes always fall back and contribute uniform mass.
    """
    if _bound_index("T", T) < 1:
        raise DomainError(f"T must be >= 1, got {T}")
    primes_x, Q, census = _range_census(x, A, table, work_cap)
    num, den, f_q = _fallback_law(census, primes_x, T)
    return FiniteDist.from_counts(num, den, len(primes_x),
                                  {"Q": Q, "F": f_q, "T": T})


# ---------------------------------------------------------------------------
# the class census and the two laws built on it

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
    pi_x = len(primes_x)
    base = x // min(qs) + 2  # key (c, m) is coded c * base + m
    key_index: dict[int, int] = {}
    class_keys, class_counts, units, unit_primes, raw = [], [], [], [], []
    pairs = hits = np.zeros(0, dtype=np.int64)  # key * pi_x + prime
    for q in qs:
        residues = primes_x % q
        a = np.arange(q)
        unit = np.gcd(a, q) == 1
        codes = np.bincount(residues, minlength=q) * base + (x - a) // q + 1
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

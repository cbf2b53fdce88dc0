"""Closed-form output distributions of the generators at desk scale.

Each generator's exact law over the primes p <= x is computed from
residue-class prime counts in rational arithmetic, so masses sum to
exactly 1; `law(cfg)` alone picks the closed form of a config.  These
laws are the oracle that Monte Carlo runs and predictions are checked
against.  This module alone counts primes per residue class
(`_unit_counts`, and `class_census` over a set of moduli); the closed
forms and the error-term profiles E(x;q,a) of `error_term_profile` all
read those counts.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    ResourceLimitError,
    _bound_index,
    _instance_of,
)
from .generators import Algorithm, GenConfig, derived_Q
from .metrics import FiniteDist
from .ntheory import (
    DEFAULT_TOTIENT_CAP,
    Exact,
    PrimeTable,
    primes_upto,
    table_for,
)

# Refuse random-modulus sweeps needing more than this many class lookups.
DEFAULT_WORK_CAP = 10**10
# Refuse fixed-modulus error profiles above this modulus: the profile
# holds one float per unit class in a dict, about 160 bytes each.
DEFAULT_PROFILE_CAP = 10**7
# Refuse fallback laws whose lcm(m)^T passes this many bits: every
# numerator and the denominator hold it, so time and memory grow with
# bits times keys, and a T of 10^400 would never finish its powers.  At
# default_T the cap is loose: exact_dist_uncond at A = 3 reaches it only
# near x = 3.9e6, where 3.4e5 bits (x = 10^6) already ran past 100 s and
# 1.5 GB on a 2-vCPU VM; at A = 1 and 2 DEFAULT_WORK_CAP refuses first,
# and a fixed modulus has two values of m, far below it.
DEFAULT_LAW_BITS_CAP = 2**20
# Refuse fallback laws whose numerators pass this many bits in all: each
# key's and each prime's numerator holds about lcm(m)^T, so the law holds
# that many bits times (keys + pi(x)), and a law below the cap above can
# still fill memory.  At default_T, exact_dist_uncond at A = 3 holds
# 1.8e9 bits at x = 2e5, and 4.3e9 at x = 3.2e5, which ran for 30 s at
# 770 MB before this cap; every exact_sweep law holds at most 1.6e6.
DEFAULT_LAW_TOTAL_BITS_CAP = 2**31


def law(cfg: GenConfig) -> FiniteDist:
    """The exact output law of cfg's runs: the closed form of its
    algorithm at cfg's modulus q, A and budget T, over the table
    table_for(cfg.x, None, cfg.primality.table) that sample_distribution
    reads.  For basic and uncond_nofallback, the law conditioned on
    termination with no iteration cap (max_iterations is not read).
    ConfigError for a non-Exact policy: its verdicts are not the primes."""
    _instance_of("cfg", cfg, GenConfig)
    _instance_of("primality", cfg.primality, Exact, ConfigError)
    x, algo = cfg.x, cfg.algorithm
    table = table_for(x, None, cfg.primality.table)
    if algo is Algorithm.TRIVIAL:
        return exact_dist_trivial(x, table)
    if algo is Algorithm.PRIMEINC:
        return exact_dist_primeinc(x, table)
    if algo is Algorithm.BASIC:
        return exact_dist_basic(x, cfg.modulus.q, table)
    if algo is Algorithm.ERH_FALLBACK:
        return exact_dist_erh_fallback(x, cfg.modulus.q, cfg.budget, table)
    if algo is Algorithm.UNCOND:
        return exact_dist_uncond(x, cfg.A, cfg.budget, table)
    return exact_dist_uncond_nofallback(x, cfg.A, table)


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
    empty = census.empty[:, 1].tolist()
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

# Entries per census chunk: flat classes plus residue rows of its moduli,
# and raw prime hits buffered before they are merged into distinct pairs.
_CHUNK = 1 << 18


@dataclass(frozen=True)
class ClassCensus:
    """Integer census of the unit classes (q, a) of a modulus range.

    Class (q, a) has key (c, m): c = pi(x; q, a) primes among its
    m = floor((x - a) / q) + 1 members <= x.  classes[k] classes have key
    (c[k], m[k]); prime primes_x[hit_prime[j]] lies in hits[j] classes of
    key hit_key[j] (a prime dividing q in none of q's).  The i-th modulus
    has units[i] = phi(q) classes, holding unit_primes[i] primes.  The rows
    (q, a) of `empty` are the unit classes without a prime, in order.
    """

    c: np.ndarray
    m: np.ndarray
    classes: np.ndarray
    hit_prime: np.ndarray
    hit_key: np.ndarray
    hits: np.ndarray
    units: np.ndarray
    unit_primes: np.ndarray
    empty: np.ndarray


def class_census(x: int, qs, primes_x: np.ndarray,
                 with_hits: bool = True) -> ClassCensus:
    """Census of the moduli in the sequence qs, in chunks of moduli.

    A chunk holds at most _CHUNK entries of classes plus residue rows (a
    larger modulus is a chunk of its own), which bounds memory; each is
    one `_census_chunk` pass over the flat index of its classes.  Raw
    hits are merged into distinct (prime, key) pairs every _CHUNK;
    with_hits=False skips them for callers that need only the class
    counts.  Weighted bincounts are float64, which is exact for counts
    below 2^53.
    """
    x = _bound_index("x", x)
    qs = [_bound_index("modulus", q, 1) for q in qs]
    if not qs:
        raise DomainError("class_census needs at least one modulus")
    pi_x = len(primes_x)
    base = x // min(qs) + 2  # key (c, m) is coded c * base + m
    key_index: dict[int, int] = {}
    parts, raw = [], []
    pairs = hits = np.zeros(0, dtype=np.int64)  # key * pi_x + prime
    chunks = _chunks(qs, pi_x)
    for i, run in enumerate(chunks):
        *part, new = _census_chunk(x, run, primes_x, base, key_index,
                                   with_hits)
        parts.append(part)
        raw.append(new)
        if i == len(chunks) - 1 or sum(map(len, raw)) >= _CHUNK:
            pairs, hits = _merge_hits(pairs, hits, raw)
            raw = []
    keys, counts, units, unit_primes, empty = map(np.concatenate, zip(*parts))
    key_codes = np.array(list(key_index))
    return ClassCensus(
        c=key_codes // base, m=key_codes % base,
        classes=np.bincount(keys, counts, len(key_index)).astype(np.int64),
        hit_prime=pairs % pi_x, hit_key=pairs // pi_x, hits=hits,
        units=units, unit_primes=unit_primes, empty=empty,
    )


def _census_chunk(x, qs, primes_x, base, key_index, with_hits):
    """(keys, classes, units, unit_primes, empty, raw hits) of the moduli
    qs: classes[k] unit classes have key keys[k], numbered in key_index;
    raw hits are key * pi(x) + prime, one per prime coprime to a q."""
    q_of, a, residues, unit, counts = _unit_counts(primes_x, qs)
    starts = np.flatnonzero(a == 0)
    local, inverse, classes = np.unique(
        (counts * base + (x - a) // q_of + 1)[unit],
        return_inverse=True, return_counts=True)
    keys = np.array([key_index.setdefault(k, len(key_index))
                     for k in local.tolist()])
    f = np.flatnonzero(unit & (counts == 0))
    empty = np.stack((q_of[f], a[f]), axis=1)
    raw = np.zeros(0, dtype=np.int64)
    if with_hits:
        key_of = np.full(len(a), -1)
        key_of[unit] = keys[inverse]
        raw = key_of[residues]
        held = raw >= 0
        raw *= len(primes_x)
        raw += np.arange(len(primes_x))
        raw = raw[held]
    return (keys, classes, np.add.reduceat(unit, starts, dtype=np.int64),
            np.add.reduceat(counts * unit, starts), empty, raw)


def _merge_hits(pairs, hits, raw):
    """The sorted distinct pairs and their hit counts, with the raw hits
    added: a pair already held is counted in place, a new one inserted."""
    new, n = np.unique(np.concatenate(raw), return_counts=True)
    at = np.searchsorted(pairs, new)
    held = at < len(pairs)
    held[held] = pairs[at[held]] == new[held]
    hits[at[held]] += n[held]
    return (np.insert(pairs, at[~held], new[~held]),
            np.insert(hits, at[~held], n[~held]))


def _chunks(qs: list[int], row: int) -> list[list[int]]:
    """qs cut in order into runs of one length, as many moduli as keep a
    run's classes plus one row of `row` residues per modulus within
    _CHUNK entries at the largest q; a larger modulus is a run of its own."""
    size = max(1, _CHUNK // (max(qs) + row))
    return [qs[i : i + size] for i in range(0, len(qs), size)]


def _unit_counts(primes_x: np.ndarray, qs: list[int]):
    """(q_of, a, residues, unit, counts) of the moduli qs >= 1, over the
    flat index f of their classes (q_of[f], a[f]), a in [0, q), modulus by
    modulus: residues[i, j] is the f of primes_x[j] mod qs[i], unit[f]
    whether gcd(a, q) = 1, and counts[f] = pi(x; q, a).
    ResourceLimitError for a q above DEFAULT_TOTIENT_CAP: unit and counts
    hold q entries for it, as a totient table to q does.  primes_x is
    read in int64, cast once here: numpy runs uint32 % int64 per element
    through a slower mixed-type loop."""
    if max(qs) > DEFAULT_TOTIENT_CAP:
        raise ResourceLimitError(
            f"modulus {max(qs)} above the class-table cap "
            f"{DEFAULT_TOTIENT_CAP}")
    qs = np.array(qs, dtype=np.int64)
    starts = np.cumsum(qs) - qs
    q_of = np.repeat(qs, qs)
    a = np.arange(len(q_of)) - np.repeat(starts, qs)
    residues = primes_x.astype(np.int64) % qs[:, None] + starts[:, None]
    unit = np.gcd(a, q_of) == 1
    return q_of, a, residues, unit, np.bincount(residues.ravel(),
                                                minlength=len(a))


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
    units exceeding the default threshold sqrt(pi(x)/phi(q)); a q above
    DEFAULT_PROFILE_CAP raises ResourceLimitError.  Range mode:
    the exact double sum of E^2 over (Q/2, Q], reported against the
    dimensionless scale x*Q/ln Q; a range needing more than
    DEFAULT_WORK_CAP class lookups raises ResourceLimitError.
    """
    if (q is None) == (A is None):
        raise ConfigError("provide exactly one of q or A")
    x = _bound_index("x", x, 2)
    if q is not None:
        q = _bound_index("modulus", q, 2)
        if q > DEFAULT_PROFILE_CAP:
            raise ResourceLimitError(
                f"error profile of modulus {q} holds phi(q) terms; q above "
                f"the profile cap {DEFAULT_PROFILE_CAP}")
    table = table_for(x, table)
    primes_x = primes_upto(x, table)
    pi_x = len(primes_x)

    if q is not None:
        unit, counts = _unit_counts(primes_x, [q])[3:]
        phi = int(np.count_nonzero(unit))
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
    if (bits := T * lcm_m.bit_length()) > DEFAULT_LAW_BITS_CAP:
        raise ResourceLimitError(
            f"the fallback law needs lcm(m)^T, about {bits} bits "
            f"(cap {DEFAULT_LAW_BITS_CAP} bits); decrease T")
    if (total := bits * (len(census.c) + pi_x)) > DEFAULT_LAW_TOTAL_BITS_CAP:
        raise ResourceLimitError(
            f"the fallback law's numerators hold about {total} bits "
            f"(cap {DEFAULT_LAW_TOTAL_BITS_CAP} bits); decrease x or T")
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

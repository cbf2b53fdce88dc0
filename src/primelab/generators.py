"""Prime generators with per-run resource telemetry.

Six generators over the primes <= x, all run by `generate`:

* trivial          -- uniform candidates from {1, ..., x}, retry until prime
* primeinc         -- random start, scan upward to the next prime
* basic            -- fixed modulus q, random unit a, search p = a + t*q
* erh_fallback     -- basic, but fall back to trivial after T failures
* uncond           -- random modulus from (Q/2, Q], then as erh_fallback
* uncond_nofallback-- same selection, residue search up to the hard cap

Every run reports a Telemetry: loop iterations, primality tests, bits
drawn from the generation source (with the subset spent on modulus/unit
selection broken out), the accepted (q, a) and whether the fallback was
entered.  Runs are bit-for-bit reproducible from the seed.

`sample_counts` draws many runs at once from the same laws, in numpy, on
a stream of its own (see its docstring).
"""

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np

from .errors import (
    BrokenBitSourceError,
    ConfigError,
    NonTerminationError,
    ResourceLimitError,
)
from .ntheory import (
    EXACT,
    Modulus,
    PrimalityPolicy,
    primality_tester,
    primes_upto,
    primorial_below,
)
from .rng import CountingBitSource

_JP_MAX_ROUNDS = 100_000


class Algorithm(str, Enum):
    TRIVIAL = "trivial"
    PRIMEINC = "primeinc"
    BASIC = "basic"
    ERH_FALLBACK = "erh_fallback"
    UNCOND = "uncond"
    UNCOND_NOFALLBACK = "uncond_nofallback"


class ModulusMode(str, Enum):
    PRIMORIAL = "primorial"
    POWER_OF_TWO = "power_of_two"
    EXPLICIT = "explicit"


class UnitMethod(str, Enum):
    REJECTION = "rejection"
    JOYE_PAILLIER = "joye_paillier"


_RESIDUE_ALGOS = (Algorithm.BASIC, Algorithm.ERH_FALLBACK)
_RANDOM_MODULUS_ALGOS = (Algorithm.UNCOND, Algorithm.UNCOND_NOFALLBACK)
_FALLBACK_ALGOS = (Algorithm.ERH_FALLBACK, Algorithm.UNCOND)
# their modulus and its predictions are computed in floats
_FLOAT_ALGOS = _RESIDUE_ALGOS + _RANDOM_MODULUS_ALGOS


def default_T(x: int) -> int:
    """Residue-search budget before fallback: ceil((ln x)^2)."""
    return math.ceil(math.log(x) ** 2)


def derived_Q(x: int, A: float) -> int:
    """Even modulus-range top for the random-modulus variants:
    2 * floor(x / (2 (ln x)^A)) for a finite A > 0, in [4, x]."""
    if not 0 < A < math.inf:
        raise ConfigError(f"A must be finite and > 0, got {A}")
    try:
        Q = 2 * int(x / (2 * math.log(x) ** A))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"Q for x={x}, A={A} is out of float range") from exc
    if not 4 <= Q <= x:
        raise ConfigError(f"Q = {Q} not in [4, x] for x={x}, A={A}")
    return Q


def _modulus_limit(x: int, epsilon, mode, q) -> float | None:
    """Cheap checks shared by GenConfig and select_modulus: the bound
    x^(1-epsilon) of a derived modulus, or None for an explicit q (a q
    is refused in the other modes, which would ignore it)."""
    if q is not None and mode is not ModulusMode.EXPLICIT:
        raise ConfigError(f"q={q!r} needs modulus_mode=explicit")
    if q is not None and (not isinstance(q, int) or not 2 <= q < x):
        raise ConfigError(f"explicit q={q!r} is not an integer in [2, x={x})")
    if epsilon is not None and not 0 < epsilon < 1:
        raise ConfigError(f"epsilon must be in (0,1), got {epsilon}")
    if mode is ModulusMode.EXPLICIT:
        if q is None:
            raise ConfigError("explicit modulus mode requires q")
        return None
    if epsilon is None:
        raise ConfigError("a derived modulus requires epsilon")
    limit = x ** (1.0 - epsilon)
    # limit >= x only by float rounding; the modulus could then reach x
    if not 3 <= limit < x:
        raise ConfigError(f"x^(1-epsilon) = {limit} not in [3, x={x})")
    return limit


@dataclass(frozen=True)
class GenConfig:
    """Algorithm selector plus parameters; primes produced are <= x.

    It derives the search parameters once: Q (uncond*, else None) at
    construction, the fixed `modulus` on first use, and the `budget`."""

    x: int
    algorithm: Algorithm
    epsilon: float | None = None
    modulus_mode: ModulusMode = ModulusMode.PRIMORIAL
    q: int | None = None
    A: float | None = None
    T_override: int | None = None
    seed: int = 0
    primality: PrimalityPolicy = EXACT
    unit_method: UnitMethod = UnitMethod.JOYE_PAILLIER
    max_iterations: int | None = None
    Q = None  # not a field (no annotation); set for uncond* at construction

    def __post_init__(self):
        # plain locals and unrolled checks: every benchmark set-up and every
        # dataclasses.replace of a config runs this
        x, eps, A = self.x, self.epsilon, self.A
        T, cap = self.T_override, self.max_iterations
        if not isinstance(x, int) or x < 2:
            raise ConfigError(f"x must be an integer >= 2, got {x!r}")
        if eps is not None and not math.isfinite(eps):
            raise ConfigError(f"epsilon must be finite, got {eps}")
        if A is not None and not math.isfinite(A):
            raise ConfigError(f"A must be finite, got {A}")
        if T is not None and T < 1:
            raise ConfigError(f"T_override must be >= 1, got {T}")
        if cap is not None and cap < 1:
            raise ConfigError(f"max_iterations must be >= 1, got {cap}")
        # enum fields given by value ("basic") become members; the type
        # test keeps the common case, a member, to one comparison each
        algo = self.algorithm
        if type(algo) is not Algorithm:
            algo = self._coerce("algorithm", Algorithm)
        if type(self.modulus_mode) is not ModulusMode:
            self._coerce("modulus_mode", ModulusMode)
        if type(self.unit_method) is not UnitMethod:
            self._coerce("unit_method", UnitMethod)
        if algo in _FLOAT_ALGOS and x > sys.float_info.max:
            raise ConfigError(
                f"{algo.value} needs x within float range; x has "
                f"{x.bit_length()} bits"
            )
        if algo in _RESIDUE_ALGOS:
            _modulus_limit(x, eps, self.modulus_mode, self.q)
        elif self.q is not None:
            _modulus_limit(x, None, self.modulus_mode, self.q)
        if algo in _RANDOM_MODULUS_ALGOS:
            if A is None:
                raise ConfigError(f"{algo.value} requires A > 0")
            object.__setattr__(self, "Q", derived_Q(x, A))

    def _coerce(self, name: str, enum: type[Enum]) -> Enum:
        value = getattr(self, name)
        try:
            member = enum(value)
        except ValueError as exc:
            choices = ", ".join(m.value for m in enum)
            raise ConfigError(
                f"unknown {name} {value!r}; expected one of {choices}"
            ) from exc
        object.__setattr__(self, name, member)
        return member

    @cached_property
    def modulus(self) -> Modulus:
        """The fixed modulus of basic/erh_fallback, built on first use."""
        return select_modulus(self.x, self.epsilon, self.modulus_mode, self.q)

    @property
    def budget(self) -> int:
        """Residue-search draws: T before the fallback (erh_fallback,
        uncond), else the iteration cap, ceil(1e6 ln x) by default."""
        if self.algorithm in _FALLBACK_ALGOS:
            return self.T_override or default_T(self.x)
        return self.max_iterations or math.ceil(1e6 * math.log(self.x))


@dataclass
class Telemetry:
    """Per-run counters.  bits_consumed covers every bit drawn from the
    generation source; selection_bits is the part spent choosing the
    modulus and the unit class (zero for trivial/primeinc)."""

    loop_iterations: int = 0
    primality_tests: int = 0
    bits_consumed: int = 0
    selection_bits: int = 0
    fallback_entered: bool = False
    chosen_q: int = 1
    chosen_a: int = 0

    @property
    def loop_bits(self) -> int:
        """Bits drawn inside the candidate-search loop."""
        return self.bits_consumed - self.selection_bits


def select_modulus(
    x: int,
    epsilon: float | None,
    mode: ModulusMode,
    explicit_q: int | None = None,
) -> Modulus:
    """Choose the search modulus.

    PRIMORIAL / POWER_OF_TWO take the largest primorial (resp. power of
    two) that does not exceed x^(1-epsilon); EXPLICIT validates a given q.
    """
    limit = _modulus_limit(x, epsilon, mode, explicit_q)
    if mode is ModulusMode.EXPLICIT:
        return Modulus.from_int(explicit_q)
    if mode is ModulusMode.PRIMORIAL:
        return Modulus.from_int(primorial_below(int(limit)))
    if mode is ModulusMode.POWER_OF_TWO:
        return Modulus.from_int(1 << (int(limit).bit_length() - 1))
    raise ConfigError(f"unknown modulus mode {mode!r}")


def sample_unit(
    src: CountingBitSource,
    modulus: Modulus,
    method: UnitMethod = UnitMethod.JOYE_PAILLIER,
) -> int:
    """Uniform element of (Z/qZ)*, as an integer in {1, ..., q-1}."""
    q = modulus.q
    if method is UnitMethod.REJECTION:
        while True:
            a = src.uniform_below(q)
            if math.gcd(a, q) == 1:
                return a
    if method is UnitMethod.JOYE_PAILLIER:
        lam = modulus.carmichael
        b = src.uniform_below(q)
        for _ in range(_JP_MAX_ROUNDS):
            u = (1 - pow(b, lam, q)) % q
            if u == 0:
                return b
            r = src.uniform_below(q)
            b = (b + r * u) % q
        raise BrokenBitSourceError(
            f"unit generation made no progress after {_JP_MAX_ROUNDS} rounds"
        )
    raise ConfigError(f"unknown unit method {method!r}")


def _trivial_search(src, x, test, tel):
    """Uniform candidates from {1, ..., x} until one is prime."""
    while True:
        tel.loop_iterations += 1
        p = src.uniform_below(x) + 1
        tel.primality_tests += 1
        if test(p):
            return p


def _primeinc_search(src, x, test, tel):
    """Random start y in {1, ..., x}, scanned upward to the first prime.

    If the scan would leave [1, x] (i.e. y exceeds the largest prime <= x),
    y is resampled, so the output distribution is gap-length over that
    largest prime.
    """
    while True:
        tel.loop_iterations += 1
        p = src.uniform_below(x) + 1
        while p <= x:
            tel.primality_tests += 1
            if test(p):
                return p
            p += 1


def _residue_search(src, x, q, a, budget, test, tel):
    """Up to `budget` draws of p = a + t*q; returns the prime or None."""
    m = (x - a) // q + 1
    uniform_below = src.uniform_below
    for _ in range(budget):
        tel.loop_iterations += 1
        p = a + uniform_below(m) * q
        tel.primality_tests += 1
        if test(p):
            return p
    return None


def _pick_random_modulus(cfg: GenConfig, src):
    """Exactly uniform pair (q, a): q in (Q/2, Q], a a unit mod q.

    Draw q and a uniformly and restart both on a gcd failure.  A plain
    gcd-rejection loop would leave each unit pair with probability
    proportional to 1/q, overweighting small moduli, so an accepted pair is
    additionally thinned with probability q/Q; every surviving pair then
    has the same chance 2/Q^2 per round, i.e. the output is uniform over
    the F(Q) valid pairs."""
    Q = cfg.Q
    half = Q // 2
    uniform_below = src.uniform_below
    while True:
        q = half + 1 + uniform_below(half)
        a = uniform_below(q)
        if math.gcd(a, q) == 1 and uniform_below(Q) < q:
            return q, a


def generate(cfg: GenConfig, src: CountingBitSource | None = None):
    """Run the configured generator once; returns (prime, Telemetry).

    The residue variants pick (q, a), fixed q or random q in (Q/2, Q], and
    then draw only t in p = a + t*q.  An exhausted budget falls back to the
    trivial search after T draws (erh_fallback, uncond) or raises
    NonTerminationError at the iteration cap (basic, uncond_nofallback).
    """
    if src is None:
        src = CountingBitSource(cfg.seed)
    x = cfg.x
    tel = Telemetry()
    test = primality_tester(cfg.primality, x)
    start = src.bits_consumed
    algo = cfg.algorithm
    if algo is Algorithm.TRIVIAL:
        p = _trivial_search(src, x, test, tel)
    elif algo is Algorithm.PRIMEINC:
        p = _primeinc_search(src, x, test, tel)
    else:
        if algo in _RESIDUE_ALGOS:
            modulus = cfg.modulus
            q, a = modulus.q, sample_unit(src, modulus, cfg.unit_method)
        else:
            q, a = _pick_random_modulus(cfg, src)
        tel.selection_bits = src.bits_consumed - start
        tel.chosen_q, tel.chosen_a = q, a
        budget = cfg.budget
        p = _residue_search(src, x, q, a, budget, test, tel)
        if p is None:
            if algo not in _FALLBACK_ALGOS:
                raise NonTerminationError(
                    f"no prime = {a} (mod {q}) found in {budget} "
                    f"iterations; the class is likely empty"
                )
            tel.fallback_entered = True
            p = _trivial_search(src, x, test, tel)
    tel.bits_consumed = src.bits_consumed - start
    return p, tel


# ---------------------------------------------------------------------------
# lockstep block sampler
#
# Its arrays keep fixed shapes (lanes, words per block), and a lane is
# refilled in place, not compacted: numpy keeps freed blocks under 1 KiB
# in a cache per byte size, so arrays sized by a data-dependent count
# would hold memory that grows from call to call.

# Runs in flight at once, and the 32-bit words each of them draws per step.
_LANES = 1024
_STEP_WORDS = 4
# Random-class attempts drawn per lane and round.
_ATTEMPTS = 8
# Words per draw call where runs are sequential (trivial, primeinc).
_BLOCK_WORDS = 1 << 13
# Members of a random class tested per round when looking for a prime.
_SCAN = 16
# The budget of a lane in the trivial search: no cap.
_NO_BUDGET = 1 << 62
_POW2 = 1 << np.arange(33, dtype=np.int64)


def _bounded(words: np.ndarray, m) -> np.ndarray:
    """Each word's top ceil(log2 m) bits as int64: the uniform_below rule,
    under which a value >= m is a rejected draw.  m may be an array."""
    return words.astype(np.int64) >> (32 - np.searchsorted(_POW2, m))


def _fill(out: list, draw) -> None:
    """Fill the equal-length arrays `out` in order from rounds of draw(),
    which returns (index of the kept candidates, candidate arrays)."""
    filled = 0
    while filled < len(out[0]):
        keep, candidates = draw()
        keep = keep[: len(out[0]) - filled]
        for dest, values in zip(out, candidates):
            np.take(values, keep, out=dest[filled : filled + len(keep)])
        filled += len(keep)


def _uniform(src: CountingBitSource, m: int) -> np.ndarray:
    """_LANES uniform draws from {0, ..., m-1}, one word per attempt."""
    def draw():
        t = _bounded(src.words(2 * _LANES), m)
        return np.flatnonzero(t < m), (t,)
    out = np.empty(_LANES, dtype=np.int64)
    _fill([out], draw)
    return out


def _random_classes(src: CountingBitSource, Q: int):
    """_LANES pairs (q, a), uniform over the q in (Q/2, Q] and the units a
    mod q, the law of _pick_random_modulus.  q is drawn uniformly and a
    with the width of Q, kept only if a < q and gcd(a, q) = 1.  The chance
    q / 2^width of a < q is the thinning by q/Q of _pick_random_modulus
    times a constant, so every pair has the same chance per attempt."""
    half = Q // 2

    def draw():
        t, u = src.words(2 * _ATTEMPTS * _LANES).reshape(2, -1)
        q = half + 1 + _bounded(t, half)
        a = _bounded(u, Q)
        drawn = np.flatnonzero((q <= Q) & (a < q))
        q, a = q[drawn], a[drawn]
        return np.flatnonzero(np.gcd(a, q) == 1), (q, a)
    q, a = out = np.empty((2, _LANES), dtype=np.int64)
    _fill(out, draw)
    return q, a


def _holds_prime(table, q, a, m) -> np.ndarray:
    """Whether class a + t*q, t < m, holds a prime, for each lane: its
    members are tested _SCAN at a time until a prime or the end."""
    alive = np.zeros(len(q), dtype=bool)
    t = np.arange(_SCAN)
    while not (alive | (m <= t[0])).all():
        # 0 stands for the members past the class end; it is not prime
        members = np.where(t < m[:, None], a[:, None] + t * q[:, None], 0)
        alive |= table.prime_mask(members).any(axis=1)
        t = t + _SCAN
    return alive


def _class_picker(cfg: GenConfig, table, primes, src: CountingBitSource):
    """pick() -> (q, a, alive) for _LANES new runs: their classes, and
    whether each class holds a prime <= x (stacked by sample_counts)."""
    x = cfg.x
    if cfg.algorithm in _RESIDUE_ALGOS:
        q = cfg.modulus.q
        residues = np.arange(q)
        units = residues[np.gcd(residues, q) == 1]
        alive = np.bincount(primes % q, minlength=q)[units] > 0
        moduli = np.full(_LANES, q)

        def pick():
            j = _uniform(src, len(units))
            return moduli, units[j], alive[j]
        return pick

    def pick():
        q, a = _random_classes(src, cfg.Q)
        return q, a, _holds_prime(table, q, a, (x - a) // q + 1)
    return pick


def _sequential_block(src, x, table, primes, algo) -> np.ndarray:
    """Prime indices of the trivial or primeinc runs that end within one
    block of draws below x, in order: a trivial run ends at each prime
    candidate, a primeinc run at each start y <= p_max (a larger start is
    redrawn) and outputs the first prime >= y."""
    t = _bounded(src.words(_BLOCK_WORDS), x)
    y = t[t < x] + 1
    if algo is Algorithm.TRIVIAL:
        y = y[table.prime_mask(y)]
    else:
        y = y[y <= primes[-1]]
    return np.searchsorted(primes, y)


def _search_step(src, lanes, table):
    """_STEP_WORDS residue draws p = a + t*q for every lane (rows q, a, m,
    left).  A hit is a prime among the first `left` accepted draws.
    Returns (whether each lane hit, its first hit), and charges the
    accepted draws to `left`."""
    q, a, m, left = lanes
    t = _bounded(src.words(_LANES * _STEP_WORDS).reshape(_LANES, -1),
                 m[:, None])
    ok = t < m[:, None]
    tries = np.cumsum(ok, axis=1)
    p = np.where(ok, a[:, None] + t * q[:, None], 0)
    hit = table.prime_mask(p) & (tries <= left[:, None])
    first = np.take_along_axis(p, hit.argmax(axis=1)[:, None], axis=1)
    left -= np.minimum(tries[:, -1], left)
    return hit.any(axis=1), first[:, 0]


def sample_counts(cfg: GenConfig, runs: int, table,
                  retry_nontermination: bool = False) -> np.ndarray:
    """Output counts of `runs` runs of cfg as an int64 array over the
    primes <= x (index i counts table.primes[i]).

    The runs follow generate's laws, but on this sampler's own stream: one
    random.Random seeded by cfg.seed hands out 32-bit words in blocks, and
    a draw below m keeps a word's top ceil(log2 m) bits if they are below
    m (the uniform_below rule; x <= 2^32 keeps every draw to one word).
    Primality is read from `table`, which must cover x (DomainError
    otherwise).

    trivial and primeinc runs are sequential within a block of draws.  The
    residue variants keep up to _LANES runs in flight in lockstep, each
    drawing _STEP_WORDS words per step; the budget counts accepted draws,
    as in generate.  Units are drawn uniformly (the law of every
    unit_method), and random classes with _pick_random_modulus's law.  A
    class holding no prime <= x is settled at once: it falls back
    (erh_fallback, uncond), is redrawn (retry_nontermination) or raises
    NonTerminationError.  A run that spends its budget in a nonempty class
    does the same.  Every run admitted is run to its end, so the counts do
    not favour the runs that end early.
    """
    x = cfg.x
    if x > 1 << 32:
        raise ResourceLimitError(
            f"the block sampler draws below x from one 32-bit word; "
            f"x = {x} is over 2^32"
        )
    primes = primes_upto(x, table)
    src = CountingBitSource(cfg.seed)
    # one cell past the primes takes the lanes that did not end
    counts = np.zeros(len(primes) + 1, dtype=np.int64)
    algo = cfg.algorithm
    done = 0
    if algo in (Algorithm.TRIVIAL, Algorithm.PRIMEINC):
        while done < runs:
            ends = _sequential_block(src, x, table, primes, algo)[: runs - done]
            np.add.at(counts, ends, 1)
            done += len(ends)
        return counts[:-1]

    pick = _class_picker(cfg, table, primes, src)
    budget = cfg.budget
    fallback = algo in _FALLBACK_ALGOS
    trivial = np.array([[1], [1], [x], [_NO_BUDGET]])  # q, a, m, left
    lanes = np.zeros((4, _LANES), dtype=np.int64)
    live = np.zeros(_LANES, dtype=bool)
    # picked classes (rows q, a, alive), the next one for a lane at `head`
    queue = np.concatenate([pick(), pick()], axis=1)
    head = 0
    while done < runs:
        free = ~live
        admit = runs - done - (_LANES - np.count_nonzero(free))
        if admit > 0:
            if head > _LANES:
                queue[:, :_LANES] = queue[:, _LANES:]
                queue[:, _LANES:] = pick()
                head -= _LANES
            order = np.cumsum(free)
            new = free & (order <= admit)
            q, a, alive = queue[:, np.minimum(head + order - 1, 2 * _LANES - 1)]
            head += np.count_nonzero(new)
            dead = new & (alive == 0)
            if dead.any() and not fallback:
                if not retry_nontermination:
                    i = np.argmax(dead)
                    raise NonTerminationError(
                        f"no prime = {a[i]} (mod {q[i]}) up to {x}: the "
                        f"class is empty, so the search would spend its "
                        f"budget of {budget} iterations"
                    )
                new &= ~dead
            np.copyto(lanes, [q, a, (x - a) // q + 1, np.full(_LANES, budget)],
                      where=new)
            if fallback:
                np.copyto(lanes, trivial, where=dead)
            live |= new
        ended, found = _search_step(src, lanes, table)
        ended &= live
        np.add.at(counts, np.where(ended, np.searchsorted(primes, found),
                                   len(primes)), 1)
        done += np.count_nonzero(ended)
        spent = live & ~ended & (lanes[3] == 0)
        if spent.any():
            if fallback:
                np.copyto(lanes, trivial, where=spent)
            elif not retry_nontermination:
                q, a = lanes[:2, np.argmax(spent)]
                raise NonTerminationError(
                    f"no prime = {a} (mod {q}) found in {budget} "
                    f"iterations; the class is likely empty"
                )
            else:
                ended |= spent
        live &= ~ended
    return counts[:-1]

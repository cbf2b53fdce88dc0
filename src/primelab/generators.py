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

`trial_counts` runs many trials of `generate` at once in numpy lanes,
each on its own counter stream, and counts their outputs.
"""

import math
import operator
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
from .rng import CountingBitSource, split_seed, word_block

_JP_MAX_ROUNDS = 100_000
_NO_BUDGET = 1 << 62  # the budget of the trivial search: none


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


def _check_count(name: str, value) -> None:
    """ConfigError unless value is None or an integer >= 1."""
    try:
        if value is None or operator.index(value) >= 1:
            return
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


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
        if not isinstance(x, int) or x < 2:
            raise ConfigError(f"x must be an integer >= 2, got {x!r}")
        if eps is not None and not math.isfinite(eps):
            raise ConfigError(f"epsilon must be finite, got {eps}")
        if A is not None and not math.isfinite(A):
            raise ConfigError(f"A must be finite, got {A}")
        _check_count("T_override", self.T_override)
        _check_count("max_iterations", self.max_iterations)
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
    """Up to `budget` draws of p = a + t*q; returns the prime or None.
    The trivial search is the class q = 1, a = 1 without a budget."""
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
        p = _residue_search(src, x, 1, 1, _NO_BUDGET, test, tel)
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
            p = _residue_search(src, x, 1, 1, _NO_BUDGET, test, tel)
    tel.bits_consumed = src.bits_consumed - start
    return p, tel


# ---------------------------------------------------------------------------
# lane engine: generate's trials in numpy lanes, word for word

# Lanes in flight, and words per lane and step: 8, so that a lane's row of
# 8 bools reads as one little-endian uint64 (see search).
_LANES, _LOOK, _MIN_WIDTH = 4096, 8, 32
_ONES = np.uint64(0x0101010101010101)
_SCAN = 16  # class members tested at a time for a prime
# A lane's next draw: none, the search for p = a + t*q (trivial and
# primeinc: q = 1, a = 1), a unit, or a draw of _pick_random_modulus.
_IDLE, _SEARCH, _UNIT, _PICK_Q, _PICK_A, _PICK_T = range(-1, 5)


def _shifts(m):
    """64 - ceil(log2 m): a draw below m takes a word shifted this far."""
    return 64 - np.frexp(m - 1)[1]


def _pow_mod(b, e: int, q: int):
    """b^e mod q for each entry of the int64 array b, for q < 2^31."""
    r = np.ones_like(b)
    while e:
        if e & 1:
            r = r * b % q
        b = b * b % q
        e >>= 1
    return r


def _holds_prime(table, q, a, m):
    """Whether the class a + t*q, t < m, holds a prime, for each entry."""
    alive = np.zeros(len(q), dtype=bool)
    t = np.arange(_SCAN)
    while not (alive | (m <= t[0])).all():
        # 0 stands for the members past the class end; it is not prime
        members = np.where(t < m[:, None], a[:, None] + t * q[:, None], 0)
        alive |= table.prime_mask(members).any(axis=1)
        t = t + _SCAN
    return alive


def trial_counts(cfg: GenConfig, trials: int, table,
                 retry_nontermination: bool = False) -> np.ndarray:
    """Output counts of generate's trials 0..trials-1 of cfg, trial i on
    CountingBitSource(split_seed(cfg.seed, i)), as an int64 array over the
    primes <= x, which `table` must cover; x must be below 2^31.

    Lanes run the trials in lockstep, each on its own word counter, draw
    for draw as generate does.  Each step hands a lane its next _LOOK
    words: selection draws take them one at a time, the search the rest
    at once.  Lanes refill in place; once all trials are admitted the live
    ones move to the front and the width halves, so arrays keep a few
    shapes.  A run that spends its budget (basic, uncond_nofallback) raises
    NonTerminationError, or with retry_nontermination reruns: retry r of
    trial i on split_seed(k_i, r), k_i the trial's seed.  A class with no
    prime <= x is settled once its lane misses a block of words.
    """
    x = cfg.x
    if x >= 1 << 31:
        raise ResourceLimitError(
            f"the lane engine computes in int32: x = {x} is not below 2^31")
    primes = primes_upto(x, table)
    counts = np.zeros(len(primes), dtype=np.int64)
    algo, budget = cfg.algorithm, cfg.budget
    capped = algo in (Algorithm.BASIC, Algorithm.UNCOND_NOFALLBACK)

    def column(phase, bound, q=0, a=0, left=0, u=0):
        shift = 64 - (bound - 1).bit_length()
        return np.array([[phase], [bound], [shift], [q], [a], [left], [u]])

    trivial = start = column(_SEARCH, x, 1, 1, _NO_BUDGET)
    if algo in _RESIDUE_ALGOS:
        modulus = cfg.modulus
        qf = modulus.q
        start = column(_UNIT, qf, qf, 0, 0, 1)
    elif algo in _RANDOM_MODULUS_ALGOS:
        Q, half = cfg.Q, cfg.Q // 2
        start = column(_PICK_Q, half)
        to_thin, to_redraw = column(_PICK_T, Q)[:3], start[:3]
    # Per lane: phase, bound of the next draw and its shift, class (q, a),
    # draws left, Joye-Paillier's u (and b in `a`), words the selection took
    # this step; as uint64 the trial's seed, the run's key, word counter
    # and retries.
    state = np.zeros((12, _LANES), dtype=np.int64)
    state[0] = _IDLE
    width, admitted = _LANES, 0

    def views():
        lanes = state[:, :width]
        return (lanes[:7], *lanes[:8], *lanes[8:].view(np.uint64))

    regs, phase, m, shift, q, a, left, u, used, seed, key, ctr, retry = views()

    def finish(i, found):
        # searchsorted is several times faster on sorted keys
        np.add.at(counts, np.searchsorted(primes, np.sort(found)), 1)
        phase[i] = _IDLE

    def exhaust(i):
        """Lanes i spent their budget: fall back, or fail the run."""
        if not capped:
            regs[:, i] = trivial
        elif len(i):
            if not retry_nontermination:
                raise NonTerminationError(
                    f"no prime = {a[i[0]]} (mod {q[i[0]]}) found in {budget} "
                    f"iterations; the class is likely empty")
            retry[i] += np.uint64(1)
            key[i] = split_seed(seed[i], retry[i])
            ctr[i], regs[:, i] = 0, start

    def unit_draw(i, t):
        i, t = i[t < qf], t[t < qf]
        b = (a[i] + t * u[i]) % qf
        a[i] = b
        unit = np.gcd(b, qf) == 1
        phase[i[unit]] = _SEARCH
        if cfg.unit_method is UnitMethod.REJECTION:
            a[i[~unit]] = 0
        else:
            u[i[~unit]] = (1 - _pow_mod(b[~unit], modulus.carmichael, qf)) % qf

    def pick_draw(i, t):
        ok = t < m[i]
        i, t = i[ok], t[ok]
        phases = phase[i]
        k = phases == _PICK_Q  # q drawn: draw a below it
        j, drawn = i[k], t[k] + (half + 1)
        q[j] = m[j] = drawn
        shift[j] = _shifts(drawn)
        phase[j] = _PICK_A
        k = phases == _PICK_A  # a drawn: thin if it is a unit, else redraw
        j, drawn = i[k], t[k]
        a[j] = drawn
        unit = np.gcd(drawn, q[j]) == 1
        regs[:3, j[unit]] = to_thin
        k = phases == _PICK_T  # keep (q, a) with chance q/Q, else redraw
        j2, keep = i[k], t[k] < q[i[k]]
        phase[j2[keep]] = _SEARCH
        regs[:3, np.concatenate((j[~unit], j2[~keep]))] = to_redraw

    def enter(i):
        """Lanes i picked their class: set up its search."""
        m[i] = (x - a[i]) // q[i] + 1
        shift[i] = _shifts(m[i])
        left[i] = budget
        # a class of one member draws t = 0 from no word: if a is prime
        # the search's first word (shifted out to 0) ends the trial alike
        i = i[m[i] == 1]
        exhaust(i[~table.prime_mask(a[i])])

    def search(w):
        """Searching lanes draw p = a + t*q from the rest of their words,
        up to a prime or the end of their budget."""
        lanes = phase == _SEARCH
        # int32 halves the memory traffic: every bound is below 2^31
        t = np.right_shift(w, shift.view(np.uint64)[:, None], out=w)
        t = t.astype(np.int32)
        ok = t < np.where(lanes, m, 0).astype(np.int32)[:, None]
        # drop the words the selection took, and make tries[:, j] the draws
        # accepted up to word j: running byte sums, times 0x0101...01
        rows = ok.view(np.uint64)[:, 0]
        rows &= ~np.uint64(0) << (8 * used).view(np.uint64)
        tries = (rows * _ONES).view(np.uint8).reshape(width, _LOOK)
        p = t  # a + t*q in place; a rejected draw's p may wrap, then is 0
        p *= q.astype(np.int32)[:, None]
        p += a.astype(np.int32)[:, None]
        p *= ok
        if algo is Algorithm.PRIMEINC:
            # a start y <= the largest prime ends at the first prime >= y
            hit = ok & (p <= primes[-1])
        else:
            hit = table.prime_mask(p)
        within = np.minimum(left, _LOOK)[:, None]
        if (within < _LOOK).any():
            hit &= tries <= within
        ended = hit.view(np.uint64)[:, 0] != 0
        i = np.flatnonzero(ended)
        finish(i, p[i, hit[i].argmax(axis=1)])
        drawn = tries[:, -1]
        spent = lanes & ~ended & (drawn >= left)
        if capped:
            # a class without primes can only spend its budget: test the
            # class once, when its lane misses its first block
            i = np.flatnonzero(lanes & ~ended & ~spent & (left == budget))
            exhaust(i[~_holds_prime(table, q[i], a[i], m[i])])
        np.subtract(left, drawn, out=left, where=lanes)
        i = np.flatnonzero(spent)
        # give back the words after the budget's last draw
        ctr[i] -= (_LOOK - 1 - np.argmax(tries[i] >= within[i], axis=1)
                   ).astype(np.uint64)
        exhaust(i)

    select = unit_draw if algo in _RESIDUE_ALGOS else pick_draw
    while admitted < trials or (phase != _IDLE).any():
        idle = phase == _IDLE
        if admitted < trials:
            i = np.flatnonzero(idle)[: trials - admitted]
            trials_i = np.arange(admitted, admitted + len(i), dtype=np.uint64)
            key[i] = seed[i] = split_seed(cfg.seed, trials_i)
            admitted += len(i)
            retry[i] = ctr[i] = 0
            regs[:, i] = start
        elif width > _MIN_WIDTH and 2 * np.count_nonzero(~idle) <= width:
            # move the live lanes to the front and halve the width
            live = np.flatnonzero(~idle)
            while width > _MIN_WIDTH and 2 * len(live) <= width:
                width //= 2
            state[:, :len(live)] = state[:, live]
            state[0, len(live):width] = _IDLE
            (regs, phase, m, shift, q, a, left, u, used, seed, key, ctr,
             retry) = views()
        w = word_block(key, ctr, _LOOK)
        ctr += np.uint64(_LOOK)
        used[:] = 0
        i = np.flatnonzero(phase > _SEARCH)
        for c in range(_LOOK):
            if not len(i):
                break
            select(i, (w[i, c] >> shift.view(np.uint64)[i]).view(np.int64))
            going = phase[i] > _SEARCH
            used[i[~going]] = c + 1
            i = i[going]
        enter(np.flatnonzero(used))
        search(w)
    return counts

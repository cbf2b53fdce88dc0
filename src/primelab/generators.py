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

`trial_records` runs many trials, each on its own counter stream, in
numpy lanes below 2^63 (primality from ntheory.verdicts) and through
`generate` from 2^63 on, and returns each trial's output and telemetry.
"""

import dataclasses
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from enum import Enum

import numpy as np

from .errors import (
    BrokenBitSourceError,
    ConfigError,
    DomainError,
    NonTerminationError,
    PrimelabError,
    ResourceLimitError,
    _bound_index,
    _index_field,
    _instance_of,
)
from .ntheory import (
    EXACT,
    Modulus,
    PrimalityPolicy,
    primality_tester,
    primorial_below,
    verdicts,
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
# they search a class on a budget; modulus and predictions are in floats
_CLASS_ALGOS = _RESIDUE_ALGOS + _RANDOM_MODULUS_ALGOS


def default_T(x: int) -> int:
    """Residue-search budget before fallback: ceil((ln x)^2), x >= 2."""
    x = _bound_index("x", x, 2, ConfigError)
    return math.ceil(math.log(x) ** 2)


def derived_Q(x: int, A: float) -> int:
    """Even modulus-range top for the random-modulus variants, in [4, x]
    for a finite A > 0: 2 * int(x / (2 (ln x)^A)) in doubles.  That is the
    exact floor for x <= 10^15 (A = 1, 2, 3); past it rounding can exceed
    the floor (by 2 at x = 10^18, A = 1, and 57,866 at x = 2^80, A = 2)."""
    x = _bound_index("x", x, 2, ConfigError)
    try:
        if not 0 < A < math.inf:
            raise ConfigError(f"A must be finite and > 0, got {A}")
    except TypeError as exc:
        raise ConfigError(f"A must be a real number, got {A!r}") from exc
    try:
        Q = 2 * int(x / (2 * math.log(x) ** A))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"Q for x={x}, A={A} is out of float range") from exc
    if not 4 <= Q <= x:
        raise ConfigError(f"Q = {Q} not in [4, x] for x={x}, A={A}")
    return Q


def _member(enum: type[Enum], name: str, value) -> Enum:
    """value as a member of enum (its value too), else ConfigError."""
    try:
        return enum(value)
    except ValueError as exc:
        raise ConfigError(f"unknown {name} {value!r}; expected one of "
                          + ", ".join(m.value for m in enum)) from exc


def _modulus_limit(x: int, epsilon, mode, q) -> float | None:
    """Cheap checks shared by GenConfig and select_modulus: the bound
    x^(1-epsilon) of a derived modulus, or None for an explicit q (a q
    is refused in the other modes, which would ignore it)."""
    if q is not None:
        if mode is not ModulusMode.EXPLICIT:
            raise ConfigError(f"q={q!r} needs modulus_mode=explicit")
        q = _bound_index("explicit q", q, error=ConfigError)
        if not 2 <= q < x:
            raise ConfigError(
                f"explicit q={q} is not an integer in [2, x={x})")
    try:
        if epsilon is not None and not 0 < epsilon < 1:
            raise ConfigError(f"epsilon must be in (0,1), got {epsilon}")
        if mode is ModulusMode.EXPLICIT:
            if q is None:
                raise ConfigError("explicit modulus mode requires q")
            return None
        if epsilon is None:
            raise ConfigError("a derived modulus requires epsilon")
        limit = x ** (1.0 - epsilon)
    except (TypeError, OverflowError) as exc:
        raise ConfigError(f"no float x^(1-epsilon) for epsilon={epsilon!r} "
                          f"and a {x.bit_length()}-bit x") from exc
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
        if type(self.x) is not int or self.x < 2:
            _index_field(self, "x", 2)
        x, eps, A = self.x, self.epsilon, self.A
        try:
            if eps is not None and not math.isfinite(eps):
                raise ConfigError(f"epsilon must be finite, got {eps}")
            if A is not None and not math.isfinite(A):
                raise ConfigError(f"A must be finite, got {A}")
        except (TypeError, OverflowError) as exc:
            raise ConfigError(f"epsilon and A must be finite real numbers, "
                              f"got epsilon={eps!r}, A={A!r}") from exc
        # numpy integers become ints and enum values ("basic") members; the
        # type test keeps the common case to one comparison per field
        if type(self.seed) is not int:
            _index_field(self, "seed")
        if self.T_override is not None:
            _index_field(self, "T_override", 1)
        if self.max_iterations is not None:
            _index_field(self, "max_iterations", 1)
        if self.q is not None and type(self.q) is not int:
            _index_field(self, "q")
        if not isinstance(self.primality, PrimalityPolicy):
            raise ConfigError(f"not a primality policy: {self.primality!r}")
        algo = self.algorithm
        if type(algo) is not Algorithm:
            algo = self._coerce("algorithm", Algorithm)
        if type(self.modulus_mode) is not ModulusMode:
            self._coerce("modulus_mode", ModulusMode)
        if type(self.unit_method) is not UnitMethod:
            self._coerce("unit_method", UnitMethod)
        if algo in _CLASS_ALGOS and x > sys.float_info.max:
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
        member = _member(enum, name, getattr(self, name))
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
    x = _bound_index("x", x, 2, ConfigError)
    if type(mode) is not ModulusMode:
        mode = _member(ModulusMode, "modulus_mode", mode)
    limit = _modulus_limit(x, epsilon, mode, explicit_q)
    if mode is ModulusMode.EXPLICIT:
        return Modulus.from_int(explicit_q)
    if mode is ModulusMode.PRIMORIAL:
        return Modulus.from_int(primorial_below(int(limit)))
    return Modulus.from_int(1 << (int(limit).bit_length() - 1))


def sample_unit(
    src: CountingBitSource,
    modulus: Modulus,
    method: UnitMethod = UnitMethod.JOYE_PAILLIER,
) -> int:
    """Uniform element of (Z/qZ)*, as an integer in {1, ..., q-1}."""
    if type(method) is not UnitMethod:
        method = _member(UnitMethod, "unit_method", method)
    q = _instance_of("modulus", modulus, Modulus).q
    try:  # any source that draws as CountingBitSource.uniform_below does
        uniform_below = src.uniform_below
    except AttributeError as exc:
        raise DomainError(f"not a bit source: {src!r}") from exc
    if method is UnitMethod.REJECTION:
        while True:
            a = uniform_below(q)
            if math.gcd(a, q) == 1:
                return a
    lam = modulus.carmichael
    b = uniform_below(q)
    for _ in range(_JP_MAX_ROUNDS):
        u = (1 - pow(b, lam, q)) % q
        if u == 0:
            return b
        r = uniform_below(q)
        b = (b + r * u) % q
    raise BrokenBitSourceError(f"unit generation made no progress after "
                               f"{_JP_MAX_ROUNDS} rounds")


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


def _empty_class(a: int, q: int, budget: int) -> NonTerminationError:
    """The failure of a run that spent its budget on the class a (mod q)."""
    return NonTerminationError(f"no prime = {a} (mod {q}) found in {budget} "
                               f"iterations; the class is likely empty")


def _in_trial(i: int, exc: PrimelabError) -> PrimelabError:
    """exc, naming trial i of a run of many trials."""
    return type(exc)(f"trial {i}: {exc}")


def generate(cfg: GenConfig, src: CountingBitSource | None = None):
    """Run the configured generator once; returns (prime, Telemetry).

    The residue variants pick (q, a), fixed q or random q in (Q/2, Q], and
    then draw only t in p = a + t*q.  An exhausted budget falls back to the
    trivial search after T draws (erh_fallback, uncond) or raises
    NonTerminationError at the iteration cap (basic, uncond_nofallback).
    """
    x = _instance_of("cfg", cfg, GenConfig).x
    if src is None:
        src = CountingBitSource(cfg.seed)
    _instance_of("source", src, CountingBitSource)
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
                raise _empty_class(a, q, budget)
            tel.fallback_entered = True
            p = _residue_search(src, x, 1, 1, _NO_BUDGET, test, tel)
    tel.bits_consumed = src.bits_consumed - start
    return p, tel


# ---------------------------------------------------------------------------
# lane engine: generate's trials in numpy lanes, word for word

# Lanes in flight (at most; no more than the trials), and the least words
# per lane and step: 8, so that each group of 8 bools in a lane's row reads
# as one little-endian uint64 (see _search).
_LANES, _LOOK, _MIN_WIDTH = 4096, 8, 32
_ONES = np.uint64(0x0101010101010101)
# A lane's next draw: none, the search for p = a + t*q (trivial and
# primeinc: q = 1, a = 1), a unit, or a draw of _pick_random_modulus.
_IDLE, _SEARCH, _UNIT, _PICK_Q, _PICK_A, _PICK_T = range(6)
_ROWS = ("phase", "m", "shift", "q", "a", "left", "u", "used", "ctr",
         "trial", "seed", "key", "retries", "iters", "bits", "sel")
_REGS, _KEYS, _TEL = 7, slice(10, 13), 13
_INT64_PRODUCTS = 1 << 31  # a q below it keeps products of residues in int64
_POWERS = 1 << np.arange(63)  # 2^0, ..., 2^62


def _shifts(m):
    """64 - ceil(log2 m) for each m in [1, 2^63): a draw below m takes a
    word shifted this far.  m - 1 has as many bits as there are powers
    of two up to it, exactly, where a float may round it up to one."""
    return 64 - _POWERS.searchsorted(m - 1, side="right")


def _column(phase, bound, q=0, a=0, left=0, u=0):
    """Registers: the phase, the next draw's bound and shift, the class
    (q, a), the draws left, and Joye-Paillier's u (its b is kept in a)."""
    return np.array([phase, bound, _shifts(bound), q, a, left, u])[:, None]


def _pow_mod(b, e: int, q: int):
    """b^e mod q (e >= 1) for each entry of the int64 array b of residues:
    in int64 for q < 2^31, else in Python ints, as b*b may pass int64."""
    if q >= _INT64_PRODUCTS:
        return np.array([pow(v, e, q) for v in b.tolist()], np.int64)
    r = b
    for bit in bin(e)[3:]:  # e's bits after its first, from the top
        r = r * r % q
        if bit == "1":
            r = r * b % q
    return r


class _Lanes:
    """Lanes that run trials of cfg (all idle at first) into `records`,
    what the steps read of cfg, and the words each lane takes a step,
    `look` (see narrow).  Each name in _ROWS is an attribute,
    that row of `state` over the first `width` lanes: the registers
    (`regs`, see _column), the words the selection took this step, the
    next word, the trial; as uint64 its seed, the run's key and retries;
    and with `telemetry` `iters`, charged a search segment's draws when it
    opens less those left when it ends, `bits`, its words times their
    width (from its first word when it opens, to its end when it ends),
    and `sel`, the selection bits; ntheory.verdicts gives `verdicts`."""

    def __init__(self, cfg: GenConfig, trials: int, retry: bool = False,
                 telemetry: bool = False):
        self.cfg, self.algo, self.budget = cfg, cfg.algorithm, cfg.budget
        self.verdicts = verdicts(cfg.primality, cfg.x)
        self.retry, self.telemetry = retry, telemetry
        self.capped = (self.algo in _CLASS_ALGOS
                       and self.algo not in _FALLBACK_ALGOS)
        self.trivial = self.start = _column(_SEARCH, cfg.x, 1, 1, _NO_BUDGET)
        if self.algo in _RESIDUE_ALGOS:
            self.modulus, self.select = cfg.modulus, _unit
            self.start = _column(_UNIT, cfg.modulus.q, cfg.modulus.q, 0, 0, 1)
        elif self.algo in _RANDOM_MODULUS_ALGOS:
            self.start, self.select = _column(_PICK_Q, cfg.Q // 2), _pick
            bound = np.array([0, 0, 0, cfg.Q // 2, 0, cfg.Q, 0])  # by phase
            self.draws = np.array([bound, _shifts(bound)])
        self.records = _new_records(cfg.x, trials, telemetry)
        self.admitted, self.failed = 0, None  # failed: (trial, error)
        self.width = min(_LANES, trials)
        self.state = np.zeros((len(_ROWS), self.width), np.int64)  # idle
        self.narrow(np.arange(self.width))  # binds the rows

    def narrow(self, live):
        """Move the live lanes to the front, halve the width while at most
        half of it is live, set `look` so that a step hands out about
        _LANES words in all (at least _LOOK a lane, in whole groups of
        _LOOK; _LOOK above width 256), and rebind the rows."""
        while self.width > _MIN_WIDTH and 2 * len(live) <= self.width:
            self.width //= 2
        self.look = max(_LOOK, _LANES // self.width // _LOOK * _LOOK)
        rows = len(_ROWS) if self.telemetry else _TEL
        self.state[:rows, :len(live)] = self.state[:rows].take(live, axis=1)
        self.state[0, len(live):self.width] = _IDLE
        lanes = self.state[:, :self.width]
        vars(self).update(zip(_ROWS, lanes), regs=lanes[:_REGS])
        self.seed, self.key, self.retries = lanes[_KEYS].view(np.uint64)


def _admit(s: _Lanes, i, key=None):
    """Lanes i start a retry on word 0 of `key`, or else the next trials."""
    if key is None:
        new = np.arange(s.admitted, s.admitted + len(i))
        s.admitted += len(i)
        s.trial[i], s.retries[i] = new, 0
        key = s.seed[i] = split_seed(s.cfg.seed, new.view(np.uint64))
    s.key[i], s.ctr[i] = key, 0
    s.regs[:, i] = s.start
    if s.telemetry:
        s.state[_TEL:, i] = 0
        s.iters[i] = s.left[i]  # a selecting start has no draws left


def _exhaust(s: _Lanes, i, at=None):
    """Lanes i spent their budget, the last draw before word `at`: fall
    back to the trivial search from there, or fail the run."""
    if not len(i):
        return
    if not s.capped:
        if s.telemetry:
            s.bits[i] += at * (64 - s.shift[i]) - at * (64 - s.trivial[2, 0])
            s.iters[i] += _NO_BUDGET
            s.records["fallback_entered"][s.trial[i]] = True
        s.regs[:, i] = s.trivial
    elif s.retry:
        s.retries[i] += np.uint64(1)
        _admit(s, i, split_seed(s.seed[i], s.retries[i]))
    else:
        j = i[np.argmin(s.trial[i])]
        if s.failed is None or s.trial[j] < s.failed[0]:
            s.failed = int(s.trial[j]), _empty_class(
                int(s.a[j]), int(s.q[j]), s.budget)
        s.phase[i] = _IDLE


def _unit(s: _Lanes, r, k, t):
    """Lanes k drew t < q: sample_unit's b (in a) moves to b + t*u, and a
    non-unit sets b = 0 (rejection) or u = 1 - b^lambda (Joye-Paillier,
    where u = 0 just for a unit).  Returns the lanes with a unit."""
    q, a, u = s.modulus.q, r[4], r[6]
    wide = np.int64 if q < _INT64_PRODUCTS else object  # t*u < 2q^2 < 2^63
    b = ((a[k] + t.astype(wide) * u[k]) % q).astype(np.int64)
    if s.cfg.unit_method is UnitMethod.REJECTION:
        unit = np.gcd(b, q) == 1
        a[k] = b * unit
    else:
        v = (1 - _pow_mod(b, s.modulus.carmichael, q)) % q
        unit = v == 0
        a[k], u[k] = b, np.where(unit, u[k], v)
    return k[unit.nonzero()[0]]


def _pick(s: _Lanes, r, k, t):
    """Lanes k drew t in _pick_random_modulus: q, a (kept for a unit) and
    a thinning t < q move a lane a phase on, past _PICK_T to its class
    (returned); a non-unit a or t >= q, back to _PICK_Q."""
    phase, m, shift, q, a = r[:5]
    p, held = phase[k], t < q[k]
    jq, ja = (p == _PICK_Q).nonzero()[0], (p == _PICK_A).nonzero()[0]
    held[jq], held[ja] = True, np.gcd(t[ja], q[k[ja]]) == 1
    a[k[ja]] = t[ja]
    phase[k] = p = np.where(held, p + 1, _PICK_Q)
    m[k], shift[k] = s.draws[0][p], s.draws[1][p]
    j, drawn = k[jq], t[jq] + (s.cfg.Q // 2 + 1)
    q[j] = m[j] = drawn
    shift[j] = _shifts(drawn)
    return k[(p > _PICK_T).nonzero()[0]]


def _select(s: _Lanes, w):
    """Selecting lanes, their registers r gathered once, draw from w's
    columns in turn (s.select), dropping a t not below the bound, until
    they pick their class: its bound becomes 0 and its shift 64 (no more
    draws or bits), and its search opens on the next word.  The columns
    stop once every lane has picked: a wide step holds many more words
    than a selection takes."""
    s.used[:] = 0
    i = np.flatnonzero(s.phase > _SEARCH)
    if not len(i):
        return
    r, w, used = s.regs.take(i, axis=1), w.take(i, axis=0), np.zeros_like(i)
    phase, m, shift, q, a, left, _ = r
    spent = np.zeros_like(i)
    for c in range(w.shape[1]):
        t = (w[:, c] >> shift.view(np.uint64)).view(np.int64)
        if s.telemetry:
            spent += shift
        k = (t < m).nonzero()[0]
        done = s.select(s, r, k, t[k])
        used[done], m[done], shift[done] = c + 1, 0, 64
        if not m.any():
            break
    d = np.flatnonzero(used)
    phase[d], left[d] = _SEARCH, s.budget
    m[d] = (s.cfg.x - a[d]) // q[d] + 1
    shift[d] = _shifts(m[d])
    s.regs[:, i] = r
    s.used[i] = used
    j, q, a, m = i[d], q[d], a[d], m[d]
    at = s.ctr[j] - w.shape[1] + used[d]
    if s.telemetry:
        s.sel[i] += 64 * (c + 1) - spent  # the columns run
        s.iters[j] += s.budget
        s.bits[j] -= at * (64 - shift[d])
        s.records["chosen_q"][s.trial[j]] = q
        s.records["chosen_a"][s.trial[j]] = a
    # a class of one member draws t = 0 from no word, at no cost: if a is
    # prime the search's first word (shifted out to 0) ends the trial alike
    empty = m == 1
    if empty.any():
        empty[empty] = s.verdicts.first(a[empty, None]) > 0
    _exhaust(s, j[empty], at[empty])


def _finish(s: _Lanes, i, h, found, tries, y):
    """Lanes i ended on their word h of this step: found is the prime, y
    the draw (for primeinc the start below it)."""
    if not len(i):
        return
    done, records = s.trial[i], s.records
    records["prime"][done] = found
    s.phase[i] = _IDLE
    if not s.telemetry:
        return
    n = s.iters[i] - s.left[i] + tries[i, h]
    records["loop_iterations"][done] = n
    records["primality_tests"][done] += n + (found - y)  # y, y + 1, ...
    words = s.ctr[i] - (s.look - 1) + h  # up to the last draw's word
    records["bits_consumed"][done] = (s.bits[i] + s.sel[i]
                                      + words * (64 - s.shift[i]))
    records["selection_bits"][done] = s.sel[i]


def _search(s: _Lanes, w):
    """Searching lanes draw p = a + t*q from the rest of their words of
    the block w, up to a prime or the end of their budget."""
    lanes, left, look = s.phase == _SEARCH, s.left, w.shape[1]
    # the shifted words read as int64 in place, the draws t and then p;
    # other lanes accept none
    t = np.right_shift(w, s.shift.view(np.uint64)[:, None], out=w)
    p = t = t.view(np.int64)
    ok = (t < s.m[:, None]) & lanes[:, None]
    # drop the words the selection took: each group of 8 read as one
    # uint64 loses its bytes below the lane's used word (a shift past 63
    # clears the group)
    groups = ok.view(np.uint64)
    shift = 8 * s.used[:, None] - np.arange(0, 8 * look, 64)
    groups &= ~np.uint64(0) << np.maximum(shift, 0, out=shift).view(np.uint64)
    # tries[:, j], the draws accepted up to word j: the running byte sums
    # of j's group (times 0x0101...01), plus the totals of the groups before
    sums = (groups * _ONES).view(np.uint8)
    tries = sums.astype(np.int16)
    tries[:, 8:] += np.repeat(np.cumsum(sums[:, 7:-1:8], axis=1,
                                        dtype=np.int16), 8, axis=1)
    within = np.minimum(left, look)[:, None]
    if (within < look).any():  # the draws past the budget are not made
        ok &= tries <= within
    # p = a + t*q in place; a rejected draw's p may wrap, then is 0
    p *= s.q[:, None]
    p += s.a[:, None]
    p *= ok
    if s.algo is Algorithm.PRIMEINC:
        first, found = s.verdicts.ends(p, ok)
        if s.telemetry:
            # a start y above the largest prime is tested up to x, redrawn:
            # its x - y tests past the first count as they happen
            r, c = np.nonzero(ok & (np.arange(look) < first[:, None]))
            np.add.at(s.records["primality_tests"], s.trial[r],
                      s.cfg.x - p[r, c])
    else:
        first, found = s.verdicts.first(p), None
    ended = first < look
    i = np.flatnonzero(ended)
    y = p[i, first[i]]
    _finish(s, i, first[i], y if found is None else found, tries, y)
    drawn = tries[:, -1]
    spent = lanes & ~ended & (drawn >= left)
    if s.capped:
        # a class without primes can only spend its budget: test the class
        # once, when its lane misses its first block
        i = np.flatnonzero(lanes & ~ended & ~spent & (left == s.budget))
        _exhaust(s, i[~s.verdicts.holds_prime(s.q[i], s.a[i], s.m[i])])
    np.subtract(left, drawn, out=left, where=lanes)
    i = np.flatnonzero(spent)
    # give back the words after the budget's last draw
    s.ctr[i] -= look - 1 - np.argmax(tries[i] >= within[i], axis=1)
    _exhaust(s, i, s.ctr[i])


def _new_records(x: int, trials: int, telemetry: bool) -> dict:
    """The arrays of trial_records: the primes in the narrowest unsigned
    dtype that holds x (object from 2^64 on); the Telemetry fields in
    their own types below 2^63, else in that dtype (q, a may pass int64).
    ResourceLimitError where numpy refuses to allocate them."""
    wide = np.min_scalar_type(x)
    fields = dataclasses.fields(Telemetry) if telemetry else ()
    try:  # numpy raises ValueError for a size past what it can index
        return {"prime": np.empty(trials, wide), **{
            f.name: np.full(trials, f.default, f.type if x < 2**63 else wide)
            for f in fields}}
    except (MemoryError, ValueError) as exc:
        raise ResourceLimitError(
            f"the records of {trials} trials do not fit in memory") from exc


def _generate_loop(cfg: GenConfig, trials: int, retry: bool,
                   telemetry: bool) -> dict:
    """trial_records by one generate call per run: trial i on the seed
    k_i = split_seed(cfg.seed, i), its retry r on split_seed(k_i, r)."""
    records = _new_records(cfg.x, trials, telemetry)
    names = [name for name in records if name != "prime"]
    for i in range(trials):
        key = split_seed(cfg.seed, i)
        for r in itertools.count():
            try:
                p, tel = generate(cfg, CountingBitSource(
                    split_seed(key, r) if r else key))
                break
            except PrimelabError as exc:
                if not (retry and isinstance(exc, NonTerminationError)):
                    raise _in_trial(i, exc) from exc
        records["prime"][i] = p
        for name in names:
            records[name][i] = getattr(tel, name)
    return records


def trial_records(cfg: GenConfig, trials: int,
                  retry_nontermination: bool = False,
                  telemetry: bool = False) -> dict:
    """Generate's trials 0..trials-1 of cfg, trial i on
    CountingBitSource(split_seed(cfg.seed, i)), as numpy arrays in trial
    order: "prime", the outputs, and with `telemetry` one per Telemetry
    field.  The error of a failed trial names it, the least such trial
    for a run that spends its budget (basic, uncond_nofallback); with
    retry_nontermination its retry r runs on split_seed(k_i, r) instead,
    k_i the trial's seed.  The one choice of runner: below 2^63 the lane
    engine, from 2^63 on _generate_loop.  The engine takes every verdict from
    ntheory.verdicts(cfg.primality, cfg.x): a table only as Exact(table).
    Each engine step hands every lane (_Lanes) its next s.look words, for
    _select and then _search; idle lanes take the next trials (_admit),
    and once all are admitted the width halves and the look grows, so
    that the slowest trials finish in a few steps."""
    trials = _bound_index("trials", trials, 1)
    if cfg.x >= 2**63:  # where a draw may take more than a word
        return _generate_loop(cfg, trials, retry_nontermination, telemetry)
    s = _Lanes(cfg, trials, retry_nontermination, telemetry)
    while (s.admitted < trials and s.failed is None) or (
            s.phase != _IDLE).any():
        idle = s.phase == _IDLE
        if s.admitted < trials and s.failed is None:
            _admit(s, np.flatnonzero(idle)[: trials - s.admitted])
        elif s.width > _MIN_WIDTH and 2 * np.count_nonzero(~idle) <= s.width:
            s.narrow(np.flatnonzero(~idle))
        w = word_block(s.key, s.ctr.view(np.uint64), s.look)
        s.ctr += s.look
        _select(s, w)
        _search(s, w)
    if s.failed is not None:
        raise _in_trial(*s.failed)
    return s.records

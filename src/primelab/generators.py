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
"""

import math
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import BrokenBitSourceError, ConfigError, NonTerminationError
from .ntheory import (
    EXACT,
    Exact,
    Modulus,
    PrimalityPolicy,
    _check_witness_bound,
    _miller_rabin,
    is_prime,
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


def default_T(x: int) -> int:
    """Residue-search budget before fallback: ceil((ln x)^2)."""
    return math.ceil(math.log(x) ** 2)


def derived_Q(x: int, A: float) -> int:
    """Even modulus-range top for the random-modulus variants:
    2 * floor(x / (2 (ln x)^A))."""
    Q = 2 * int(x / (2 * math.log(x) ** A))
    if Q < 4:
        raise ConfigError(f"Q = {Q} < 4 for x={x}, A={A}; decrease A")
    return Q


def default_iteration_cap(x: int) -> int:
    return math.ceil(1e6 * math.log(x))


@dataclass(frozen=True)
class GenConfig:
    """Algorithm selector plus parameters; primes produced are <= x."""

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

    def __post_init__(self):
        if not isinstance(self.x, int) or self.x < 2:
            raise ConfigError(f"x must be an integer >= 2, got {self.x!r}")
        for name in ("epsilon", "A"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        for name in ("T_override", "max_iterations"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        algo = self.algorithm
        if algo in _RESIDUE_ALGOS:
            if self.modulus_mode is ModulusMode.EXPLICIT:
                if self.q is None:
                    raise ConfigError("explicit modulus mode requires q")
            elif self.epsilon is None:
                raise ConfigError(f"{algo.value} requires epsilon")
            if self.epsilon is not None and not 0 < self.epsilon < 1:
                raise ConfigError(f"epsilon must be in (0,1), got {self.epsilon}")
        if algo in _RANDOM_MODULUS_ALGOS:
            if self.A is None or self.A <= 0:
                raise ConfigError(f"{algo.value} requires A > 0")
        if self.x > sys.float_info.max and algo not in (
                Algorithm.TRIVIAL, Algorithm.PRIMEINC):
            # the modulus and its predictions are computed in floats
            raise ConfigError(
                f"{algo.value} needs x within float range; x has "
                f"{self.x.bit_length()} bits"
            )
        if self.q is not None and not 2 <= self.q < self.x:
            raise ConfigError(f"explicit q={self.q} not in [2, x)")

    def T(self) -> int:
        return self.T_override if self.T_override is not None else default_T(self.x)

    def iteration_cap(self) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return default_iteration_cap(self.x)


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
    if mode is ModulusMode.EXPLICIT:
        if explicit_q is None:
            raise ConfigError("explicit modulus mode requires q")
        if not 2 <= explicit_q < x:
            raise ConfigError(f"q={explicit_q} not in [2, x={x})")
        return Modulus.from_int(explicit_q)
    if epsilon is None or not 0 < epsilon < 1:
        raise ConfigError(f"epsilon must be in (0,1), got {epsilon}")
    limit = int(x ** (1.0 - epsilon))
    if limit < 3:
        raise ConfigError(
            f"x^(1-epsilon) = {limit} < 3; enlarge x or shrink epsilon"
        )
    if mode is ModulusMode.PRIMORIAL:
        q = primorial_below(limit)
    elif mode is ModulusMode.POWER_OF_TWO:
        q = 1 << (limit.bit_length() - 1)
    else:
        raise ConfigError(f"unknown modulus mode {mode!r}")
    if q < 2:
        raise ConfigError(f"derived modulus {q} < 2")
    return Modulus.from_int(q)


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


def primality_tester(policy: PrimalityPolicy, x: int):
    """Fastest correct primality callable for candidates <= x."""
    if isinstance(policy, Exact):
        table = policy.table
        if table is not None and table.bound >= x:
            flags = table._flags
            return lambda p: bool((flags[p >> 3] >> (p & 7)) & 1)
        _check_witness_bound(x)
        return _miller_rabin
    return lambda p: is_prime(p, policy)


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


def _pick_modulus_and_unit(cfg: GenConfig, src):
    """The fixed modulus of `select_modulus` and a uniform unit a mod q."""
    modulus = select_modulus(cfg.x, cfg.epsilon, cfg.modulus_mode, cfg.q)
    if modulus.q >= cfg.x:
        raise ConfigError(f"modulus {modulus.q} must be < x = {cfg.x}")
    return modulus.q, sample_unit(src, modulus, cfg.unit_method)


def _pick_random_modulus(cfg: GenConfig, src):
    """Exactly uniform pair (q, a): q in (Q/2, Q], a a unit mod q.

    Draw q and a uniformly and restart both on a gcd failure.  A plain
    gcd-rejection loop would leave each unit pair with probability
    proportional to 1/q, overweighting small moduli, so an accepted pair is
    additionally thinned with probability q/Q; every surviving pair then
    has the same chance 2/Q^2 per round, i.e. the output is uniform over
    the F(Q) valid pairs."""
    Q = derived_Q(cfg.x, cfg.A)
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
        pick = (_pick_modulus_and_unit if algo in _RESIDUE_ALGOS
                else _pick_random_modulus)
        q, a = pick(cfg, src)
        tel.selection_bits = src.bits_consumed - start
        tel.chosen_q, tel.chosen_a = q, a
        fallback = algo in _FALLBACK_ALGOS
        budget = cfg.T() if fallback else cfg.iteration_cap()
        p = _residue_search(src, x, q, a, budget, test, tel)
        if p is None:
            if not fallback:
                raise NonTerminationError(
                    f"no prime = {a} (mod {q}) found in {budget} "
                    f"iterations; the class is likely empty"
                )
            tel.fallback_entered = True
            p = _trivial_search(src, x, test, tel)
    tel.bits_consumed = src.bits_consumed - start
    return p, tel

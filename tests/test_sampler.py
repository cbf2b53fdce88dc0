"""The lane engine behind sample_distribution and table-backed benchmark
calls: equal to generate trial for trial, output and telemetry, and judged
by the exact laws of exactdist."""

import dataclasses
import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primelab.errors import (
    NonTerminationError,
    PrimelabError,
    ResourceLimitError,
)
from primelab.exactdist import law
from primelab.generators import (
    _PICK_A,
    _PICK_Q,
    _PICK_T,
    _SEARCH,
    _UNIT,
    Algorithm,
    GenConfig,
    ModulusMode,
    Telemetry,
    UnitMethod,
    _generate_loop,
    _admit,
    _Lanes,
    _LANES,
    _LOOK,
    _pick_random_modulus,
    _select,
    _shifts,
    generate,
    sample_unit,
    trial_records,
)
from primelab.harness import (
    RunReport,
    benchmark,
    predictions_for,
    sample_distribution,
)
from primelab.metrics import FiniteDist, metrics_of, tv_between
from primelab import ntheory
from primelab.ntheory import Exact, MillerRabin, sieve
from primelab.rng import CountingBitSource, split_seed

from conftest import chi2_z

X = 100
T100 = sieve(X)
Q25 = dict(q=25, modulus_mode=ModulusMode.EXPLICIT)

# (algorithm, config fields, retry): at x = 100, modulus 25 has unit
# classes without primes, and random moduli from (10, 20] do too
CASES = {
    "trivial": (Algorithm.TRIVIAL, {}, False),
    "primeinc": (Algorithm.PRIMEINC, {}, False),
    "basic": (Algorithm.BASIC, Q25, True),
    "erh_fallback": (Algorithm.ERH_FALLBACK, dict(Q25, T_override=2), False),
    "uncond": (Algorithm.UNCOND, dict(A=1.0, T_override=2), False),
    "uncond_nofallback": (Algorithm.UNCOND_NOFALLBACK,
                          dict(A=1.0, max_iterations=50), True),
}


def config(name, seed=1):
    algo, fields, _ = CASES[name]
    return GenConfig(x=X, algorithm=algo, seed=seed, primality=Exact(T100),
                     **fields)


def sample(name, runs, seed=1):
    return sample_distribution(config(name, seed), runs, T100,
                               retry_nontermination=CASES[name][2])


@pytest.mark.parametrize("name", CASES)
def test_same_seed_same_counts(name):
    assert sample(name, 5000)[1] == sample(name, 5000)[1]
    assert sample(name, 5000)[1] != sample(name, 5000, seed=2)[1]


@pytest.mark.parametrize("name", CASES)
def test_observed_primes_have_exact_mass(name):
    mass = law(config(name)).mass
    _, counts = sample(name, 20_000)
    assert sum(counts.values()) == 20_000
    assert all(mass[p] > 0 for p in counts)


@pytest.mark.parametrize("name", CASES)
def test_chi_square_against_exact_law(name):
    runs = 10**5
    empirical, counts = sample(name, runs)
    exact = law(config(name))
    assert chi2_z(counts, exact.mass, runs) < 5
    assert float(tv_between(empirical, exact)) < 3 * (25 / runs) ** 0.5


@pytest.mark.parametrize("name", ["erh_fallback", "uncond"])
def test_calls_shorter_than_the_lanes_are_unbiased(name):
    # 300 runs per call, fewer than the runs in flight: a sampler that
    # kept the runs ending first would favour the classes dense in primes
    counts = Counter()
    for seed in range(200):
        counts.update(sample(name, 300, seed)[1])
    assert chi2_z(counts, law(config(name)).mass, 300 * 200) < 5


def test_empty_class_raises_at_once():
    t30 = sieve(30)
    cfg = GenConfig(x=30, algorithm=Algorithm.BASIC, primality=Exact(t30),
                    **Q25)
    assert cfg.budget > 3 * 10**6
    start = time.perf_counter()
    with pytest.raises(NonTerminationError) as err:
        sample_distribution(cfg, 1000, t30)
    # generate would spend the budget first: seconds, not milliseconds
    assert time.perf_counter() - start < 1
    message = str(err.value)
    assert "(mod 25)" in message and str(cfg.budget) in message
    dead = int(message.split("no prime = ")[1].split()[0])
    assert not any(p % 25 == dead for p in t30.primes.tolist())


def test_empty_classes_redrawn_match_conditioned_law():
    t30 = sieve(30)
    cfg = GenConfig(x=30, algorithm=Algorithm.BASIC, primality=Exact(t30),
                    seed=4, **Q25)
    runs = 10**5
    empirical, counts = sample_distribution(cfg, runs, t30,
                                            retry_nontermination=True)
    exact = law(cfg)
    assert exact.meta["conditional"]
    assert chi2_z(counts, exact.mass, runs) < 5
    assert float(tv_between(empirical, exact)) < 3 * (9 / runs) ** 0.5


def test_table_resolved_before_the_first_draw():
    cfg = GenConfig(x=2**40, algorithm=Algorithm.TRIVIAL)
    with pytest.raises(ResourceLimitError):
        sample_distribution(cfg, 10**6)


def test_memory_does_not_grow_with_runs():
    # acceptance criterion 6's config, at a tenth of its runs
    t200 = sieve(200)
    cfg = GenConfig(x=200, algorithm=Algorithm.UNCOND_NOFALLBACK, A=1.0,
                    seed=106, primality=Exact(t200), max_iterations=500)
    sample_distribution(cfg, 10, t200, retry_nontermination=True)
    tracemalloc.start()
    try:
        _, counts = sample_distribution(cfg, 10**6, t200,
                                        retry_nontermination=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 10**6
    assert peak < 4 * 2**20


T1000 = sieve(1000)


def _equality_cases():
    """(x, algorithm, config fields, retry): every algorithm and unit
    method, default budgets, a T that falls back and a cap that retries."""
    for x, q in ((100, 25), (1000, 30)):
        fixed = dict(q=q, modulus_mode=ModulusMode.EXPLICIT)
        yield x, Algorithm.TRIVIAL, {}, False
        yield x, Algorithm.PRIMEINC, {}, False
        for method in UnitMethod:
            unit = dict(fixed, unit_method=method)
            yield x, Algorithm.ERH_FALLBACK, unit, False
            yield x, Algorithm.ERH_FALLBACK, dict(unit, T_override=2), False
            yield x, Algorithm.BASIC, dict(unit, max_iterations=3), True
            if x == 1000:  # every unit class mod 30 holds a prime <= 1000
                yield x, Algorithm.BASIC, unit, False
        yield x, Algorithm.UNCOND, dict(A=1.0), False
        yield x, Algorithm.UNCOND, dict(A=1.0, T_override=2), False
        yield (x, Algorithm.UNCOND_NOFALLBACK, dict(A=1.0, max_iterations=3),
               True)
    # q > x/2: classes of one member, whose draw takes no word
    yield 100, Algorithm.ERH_FALLBACK, dict(q=60, T_override=3,
                                            modulus_mode="explicit"), False


def _generate_runs(cfg, trials, retry):
    """(prime, Telemetry) of benchmark's trials: trial i runs generate on
    the stream k_i = split_seed(cfg.seed, i), its retry r on
    split_seed(k_i, r)."""
    runs = []
    for i in range(trials):
        k = split_seed(cfg.seed, i)
        for r in itertools.count():
            try:
                runs.append(generate(cfg, CountingBitSource(
                    split_seed(k, r) if r else k)))
                break
            except NonTerminationError:
                if not retry:
                    raise
    return runs


def _engine_runs(cfg, trials, retry):
    """(prime, Telemetry) of each trial, from trial_records."""
    records = trial_records(cfg, trials, retry, telemetry=True)
    names = [f.name for f in dataclasses.fields(Telemetry)]
    return [(p, Telemetry(*row)) for p, *row in
            zip(*(records[name].tolist() for name in ["prime", *names]))]


@pytest.mark.parametrize(
    "x,algo,fields,retry", list(_equality_cases()),
    ids=lambda v: getattr(v, "value", None) if isinstance(v, Algorithm)
    else None)
def test_samples_equal_generate_trial_for_trial(x, algo, fields, retry):
    table = sieve(x)
    for seed in (1, 2):
        cfg = GenConfig(x=x, algorithm=algo, seed=seed,
                        primality=Exact(table), **fields)
        runs = _generate_runs(cfg, 2000, retry)
        _, counts = sample_distribution(cfg, 2000, table, retry)
        assert counts == Counter(p for p, _ in runs)
        assert _engine_runs(cfg, 2000, retry) == runs


@pytest.mark.parametrize("algo,fields", [
    (Algorithm.TRIVIAL, {}), (Algorithm.PRIMEINC, {}),
    (Algorithm.BASIC, dict(Q25, q=30)),
    (Algorithm.ERH_FALLBACK, dict(Q25, q=30, T_override=2)),
    (Algorithm.UNCOND, dict(A=1.0)),
    # A = 2 at x = 1000: every selectable class holds a prime
    (Algorithm.UNCOND_NOFALLBACK, dict(A=2.0)),
])
def test_benchmark_metrics_equal_the_samples(algo, fields):
    cfg = GenConfig(x=1000, algorithm=algo, seed=3, primality=Exact(T1000),
                    **fields)
    report = benchmark(cfg, 2000, with_metrics=True)
    assert report.metrics == metrics_of(sample_distribution(cfg, 2000)[0])


@pytest.mark.parametrize("algo,fields", [
    (Algorithm.TRIVIAL, {}), (Algorithm.PRIMEINC, {}),
    *((algo, dict(Q25, q=30, unit_method=method, **extra))
      for algo, extra in ((Algorithm.BASIC, {}),
                          (Algorithm.ERH_FALLBACK, dict(T_override=2)))
      for method in UnitMethod),
    (Algorithm.UNCOND, dict(A=1.0)),
    (Algorithm.UNCOND_NOFALLBACK, dict(A=2.0)),
])
def test_benchmark_equals_a_generate_loop(algo, fields):
    cfg = GenConfig(x=1000, algorithm=algo, seed=5, primality=Exact(T1000),
                    **fields)
    runs = _generate_runs(cfg, 2000, False)

    def mean(field):
        return sum(getattr(tel, field) for _, tel in runs) / 2000
    outputs = Counter(p for p, _ in runs)
    expected = RunReport(
        cfg, 2000, mean("loop_iterations"), mean("bits_consumed"),
        mean("loop_bits"), mean("selection_bits"), mean("primality_tests"),
        mean("fallback_entered"), *predictions_for(cfg),
        metrics=metrics_of(FiniteDist.from_counts(outputs, 2000, 168)))
    assert benchmark(cfg, 2000, with_metrics=True) == expected


@pytest.mark.parametrize("algo,fields", [
    (Algorithm.UNCOND, dict(A=2.0)),  # draws moduli q > 2^63
    (Algorithm.TRIVIAL, dict(primality=MillerRabin(2))),
])
def test_benchmark_beyond_a_word_equals_a_generate_loop(algo, fields):
    cfg = GenConfig(x=2**80, algorithm=algo, seed=7, **fields)
    runs = _generate_runs(cfg, 20, False)
    if algo is Algorithm.UNCOND:
        assert max(tel.chosen_q for _, tel in runs) > 2**63

    def mean(field):
        return sum(getattr(tel, field) for _, tel in runs) / 20
    expected = RunReport(
        cfg, 20, mean("loop_iterations"), mean("bits_consumed"),
        mean("loop_bits"), mean("selection_bits"), mean("primality_tests"),
        mean("fallback_entered"), *predictions_for(cfg))
    assert benchmark(cfg, 20) == expected
    records = trial_records(cfg, 20, telemetry=True)
    assert records["prime"].tolist() == [p for p, _ in runs]
    assert records["chosen_q"].tolist() == [tel.chosen_q for _, tel in runs]


T10K = sieve(10**4)


def _records_or_failure(runner, *args):
    try:
        return runner(*args)
    except NonTerminationError as exc:
        return str(exc)


# the strategy of test_any_config_is_refused_or_yields_a_prime, narrowed
# to the configs it mostly accepts, plus the trials and retries
@settings(max_examples=300, deadline=None)
@given(x=st.integers(2, 12) | st.integers(2, 10**4),
       algorithm=st.sampled_from(Algorithm), epsilon=st.floats(0.05, 0.95),
       A=st.floats(0.25, 4), q=st.integers(2, 10**4),
       modulus_mode=st.sampled_from(ModulusMode),
       unit_method=st.sampled_from(UnitMethod),
       T_override=st.none() | st.integers(1, 20),
       max_iterations=st.integers(1, 50), seed=st.integers(0, 2**64),
       trials=st.integers(1, 40), retry=st.booleans())
@example(x=30, algorithm=Algorithm.BASIC, epsilon=0.5, A=1.0, q=25,
         modulus_mode=ModulusMode.EXPLICIT,
         unit_method=UnitMethod.JOYE_PAILLIER, T_override=None,
         max_iterations=30, seed=6, trials=40, retry=False)
def test_engine_equals_the_generate_loop(trials, retry, q, **kw):
    """The three runners give equal arrays, or fail alike: the lane engine
    reading a covering table, the lane engine proving by the policy (no
    table), and _generate_loop (generate once per run)."""
    if kw["modulus_mode"] is ModulusMode.EXPLICIT:
        kw["q"] = min(q, kw["x"] - 1)
    try:
        cfg = GenConfig(primality=Exact(), **kw)
    except PrimelabError:
        return
    table, proved, loop = (
        _records_or_failure(trial_records, dataclasses.replace(
            cfg, primality=Exact(T10K)), trials, retry, True),
        _records_or_failure(trial_records, cfg, trials, retry, True),
        _records_or_failure(_generate_loop, cfg, trials, retry, True))
    if any(isinstance(r, str) for r in (table, proved, loop)):
        assert table == proved == loop
        return
    for engine in (table, proved):
        assert list(engine) == list(loop)
        for name in engine:
            assert engine[name].dtype == loop[name].dtype, name
            assert np.array_equal(engine[name], loop[name]), name


def test_engine_failure_names_the_trial_a_generate_loop_names():
    # x = 30, q = 25 has empty classes: the engine must report the same
    # first failing trial (3 here), class and budget as a generate loop
    t30 = sieve(30)
    cfg = GenConfig(x=30, algorithm=Algorithm.BASIC, seed=6,
                    primality=Exact(t30), max_iterations=30, **Q25)
    messages = []
    for policy in (Exact(t30), Exact()):
        with pytest.raises(NonTerminationError) as err:
            benchmark(dataclasses.replace(cfg, primality=policy), 2000)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("trial ")


def test_only_x_from_2_to_the_63_runs_generate(monkeypatch):
    """Below 2^63 the lane engine runs every policy, with a covering
    table or without one; from 2^63 on, draws may be wider than a word
    and trial_records calls generate."""
    from primelab import generators

    def refuse(*args):
        raise AssertionError("generate ran")
    monkeypatch.setattr(generators, "generate", refuse)
    cfg = GenConfig(x=1000, algorithm=Algorithm.BASIC, epsilon=0.3, seed=6,
                    primality=Exact(T1000))
    for policy in (Exact(T1000), Exact(), Exact(sieve(999)), MillerRabin()):
        assert benchmark(dataclasses.replace(cfg, primality=policy),
                         50).trials == 50
    top = GenConfig(x=2**63 - 1, algorithm=Algorithm.TRIVIAL)
    assert benchmark(top, 5).trials == 5
    with pytest.raises(AssertionError, match="generate ran"):
        benchmark(dataclasses.replace(top, x=2**63), 5)


def test_shifts_are_exact_for_every_word_bound():
    # through float64, 2^60 - 1 rounds up to 2^60 and takes a shift of 3
    bounds = [m for k in range(1, 63) for m in (2**k - 1, 2**k, 2**k + 1)]
    bounds.append(2**63 - 1)
    expected = [64 - (m - 1).bit_length() for m in bounds]
    assert _shifts(np.array(bounds)).tolist() == expected
    assert [int(_shifts(m)) for m in bounds] == expected
    assert _shifts(2**60) == 4


def test_a_narrow_step_hands_each_lane_more_words(monkeypatch):
    """Once every trial is admitted, a step hands out about _LANES words
    in all: 2000 trials at 10^6 take 6 steps (trivial) and 8 (uncond),
    where 8 words a lane and step took 14 and 25.  No step takes more
    words than the widest, _LANES lanes of _LOOK."""
    from primelab import generators

    steps = []
    block = generators.word_block

    def counted(seeds, start, width):
        steps.append((len(seeds), width))
        return block(seeds, start, width)
    monkeypatch.setattr(generators, "word_block", counted)
    table, counts = sieve(10**6), {}
    for algo in (Algorithm.TRIVIAL, Algorithm.UNCOND):
        steps.clear()
        trial_records(GenConfig(x=10**6, algorithm=algo, A=2.0, seed=1,
                                primality=Exact(table)), 2000, telemetry=True)
        counts[algo.value] = len(steps)
        assert all(lanes * look <= _LANES * _LOOK for lanes, look in steps)
        assert steps[-1][1] > _LOOK
    assert counts == {"trivial": 6, "uncond": 8}
    assert counts["trivial"] <= 14 // 2 and counts["uncond"] <= 25 // 2


def _witness_scale_configs(x, policy):
    """Every algorithm at x under the policy, with no table, and both unit
    methods for the fixed modulus (at 10^18 q = 2*3*...*31, past 2^31)."""
    for algo in Algorithm:
        methods = UnitMethod if algo in (Algorithm.BASIC,
                                         Algorithm.ERH_FALLBACK) else [None]
        for method in methods:
            yield GenConfig(x=x, algorithm=algo, epsilon=0.3, A=2.0, seed=x,
                            primality=policy,
                            unit_method=method or UnitMethod.JOYE_PAILLIER)


# 2^63 - 1: the widest draws and candidates the engine takes.  "tail":
# 300 trials at 10^12, whose tail runs at width 18 on 224 words a lane
# and step, on budgets of 2 draws: T before a fallback, or the iteration
# cap of a class that fails and is retried.
@pytest.mark.parametrize("x, trials", [
    *(pytest.param(x, 50, id=str(x)) for x in (10**12, 10**18, 2**63 - 1)),
    pytest.param(10**12, 300, id="tail"),
])
@pytest.mark.parametrize("policy", [Exact(), MillerRabin(2)],
                         ids=["exact", "miller_rabin"])
def test_engine_equals_generate_at_the_witness_scale(x, trials, policy):
    tail = trials > 50
    for cfg in _witness_scale_configs(x, policy):
        if tail:
            cfg = dataclasses.replace(cfg, T_override=2, max_iterations=2)
        assert (_engine_runs(cfg, trials, tail)
                == _generate_runs(cfg, trials, tail)), cfg


@pytest.mark.parametrize("policy", [Exact(), MillerRabin(2)],
                         ids=["exact", "miller_rabin"])
def test_the_engine_proves_what_generate_proves(monkeypatch, policy):
    """Without a table the engine proves at the tester's screened entry,
    and there only, exactly the candidates a generate loop tests that
    pass trial division to the trial bound: none of its lookahead words
    past a lane's prime or budget, and no class member to settle a large
    class."""
    from primelab import generators

    bound = ntheory._TRIAL_BOUND
    small = math.prod(sieve(bound).primes.tolist())
    tested = []
    tester = generators.primality_tester

    def counting(policy, x, screened=False):
        test = tester(policy, x, screened=screened)

        def counted(n):
            tested.append((int(n), screened))
            return test(n)
        return counted
    monkeypatch.setattr(generators, "primality_tester", counting)
    monkeypatch.setattr(ntheory, "primality_tester", counting)
    for cfg in _witness_scale_configs(10**18, policy):
        tested.clear()
        trial_records(cfg, 75)
        engine = Counter(tested)
        tested.clear()
        _generate_loop(cfg, 75, False, False)
        assert not any(screened for _, screened in tested)
        survivors = Counter((n, True) for n, _ in tested
                            if n > bound and math.gcd(n, small) == 1)
        assert engine == survivors, cfg
        assert sum(survivors.values()) > 150


def test_benchmark_memory_does_not_scale_with_the_primes():
    # a count per prime <= x would take 8 pi(x) bytes, and any copy of the
    # uint32 prime list 4 pi(x) bytes: 2.7 MB here
    table = sieve(10**7)
    policy = Exact(table)
    for cfg in (
        GenConfig(x=10**7, algorithm=Algorithm.TRIVIAL, primality=policy),
        GenConfig(x=10**7, algorithm=Algorithm.PRIMEINC, primality=policy),
        GenConfig(x=10**7, algorithm=Algorithm.BASIC, epsilon=0.3,
                  primality=policy),
        GenConfig(x=10**7, algorithm=Algorithm.UNCOND, A=2.0,
                  primality=policy),
    ):
        benchmark(cfg, 10)
        tracemalloc.start()
        try:
            report = benchmark(cfg, 10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trials == 10**4
        assert peak < 4 * len(table.primes)


def test_the_first_table_backed_benchmark_derives_no_prime_list():
    """sieve writes only the flags, and no table-backed run reads the
    list: the first benchmark of each algorithm on a fresh table, with no
    warm-up call on it, stays under the 4 pi(x) bytes (2.7 MB) that
    deriving the uint32 list would take."""
    pi_x = 664_579
    policy = Exact(sieve(10**7))
    for algo, kwargs in (("trivial", {}), ("primeinc", {}),
                         ("basic", {"epsilon": 0.3}),
                         ("erh_fallback", {"epsilon": 0.3}),
                         ("uncond", {"A": 2.0}),
                         ("uncond_nofallback", {"A": 2.0})):
        cfg = GenConfig(x=10**7, algorithm=Algorithm(algo),
                        primality=policy, **kwargs)
        tracemalloc.start()
        try:
            report = benchmark(cfg, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trials == 2000
        assert peak < 4 * pi_x, algo
    assert policy.table.count_leq(10**7) == pi_x


# One selection step over every selection state, a lane per draw t below
# the draw's power of two: the transitions of the chain whose absorbing
# states are the (q, a) the search starts from.


def _step(cfg, bound, **regs):
    """Lanes t = 0 .. 2^k - 1 (k the bits of a draw below `bound`), all in
    registers `regs` with their next draw below `bound`, after the
    selection step took word t << (64 - k) each."""
    shift = 64 - (bound - 1).bit_length()
    s = _Lanes(cfg, 1 << (64 - shift))
    for name, value in dict(regs, m=bound, shift=shift).items():
        getattr(s, name)[:] = value
    words = np.arange(s.width, dtype=np.uint64) << np.uint64(shift)
    _select(s, words[:, None])
    assert (s.shift == 64 - np.frexp(s.m - 1)[1]).all()
    return [(int(s.phase[t]), int(s.m[t]), int(s.q[t]), int(s.a[t]),
             int(s.u[t])) for t in range(s.width)]


@pytest.mark.parametrize("method", UnitMethod)
def test_unit_step_follows_sample_unit(method):
    """sample_unit: b = a draw below q, then while b is no unit,
    u = 1 - b^lambda and b = b + r*u for a draw r (Joye-Paillier), or b
    is drawn afresh (rejection, the state b = 0, u = 1)."""
    q, x = 30, 1000
    cfg = GenConfig(x=x, algorithm=Algorithm.ERH_FALLBACK, q=q,
                    modulus_mode="explicit", unit_method=method,
                    primality=Exact(T1000))
    lam = cfg.modulus.carmichael
    assert (q, lam) == (cfg.modulus.q, 4)

    def u_of(b):
        return (1 - pow(b, lam, q)) % q
    jp = method is UnitMethod.JOYE_PAILLIER
    # the first draw is the state b = 0, u = 1 = u_of(0)
    for b, u in ([(b, u_of(b)) for b in range(q)] if jp else [(0, 1)]):
        after = _step(cfg, q, phase=_UNIT, q=q, a=b, u=u)
        assert len(after) == 32
        for t, regs in enumerate(after):
            c = (b + t * u) % q
            if t >= q:  # rejected: the state stays
                expected = (_UNIT, q, q, b, u)
            elif math.gcd(c, q) == 1:  # the search for p = c + t'*q
                expected = (_SEARCH, (x - c) // q + 1, q, c, u)
            elif jp:
                expected = (_UNIT, q, q, c, u_of(c))
            else:
                expected = (_UNIT, q, q, 0, 1)
            assert regs == expected, (b, u, t)


def test_pick_step_follows_pick_random_modulus():
    """_pick_random_modulus: q = Q/2 + 1 + a draw below Q/2, a = a draw
    below q, kept if a unit and a draw below Q is below q, else again."""
    t200 = sieve(200)
    cfg = GenConfig(x=200, algorithm=Algorithm.UNCOND_NOFALLBACK, A=1.0,
                    primality=Exact(t200), max_iterations=500)
    Q, half = cfg.Q, cfg.Q // 2
    assert Q == 36
    states = [(_PICK_Q, half, 0, 0)]
    for q in range(half + 1, Q + 1):
        states.append((_PICK_A, q, q, 0))
        states += [(_PICK_T, Q, q, a) for a in range(q)
                   if math.gcd(a, q) == 1]
    for phase, bound, q, a in states:
        after = _step(cfg, bound, phase=phase, q=q, a=a)
        for t, (*regs, _) in enumerate(after):
            if t >= bound:  # rejected: the state stays
                expected = (phase, bound, q, a)
            elif phase == _PICK_Q:
                expected = (_PICK_A, half + 1 + t, half + 1 + t, a)
            elif phase == _PICK_A:
                expected = ((_PICK_T, Q) if math.gcd(t, q) == 1
                            else (_PICK_Q, half)) + (q, t)
            elif t < q:  # thinned in: the search for p = a + t'*q
                expected = (_SEARCH, (200 - a) // q + 1, q, a)
            else:
                expected = (_PICK_Q, half, q, a)
            assert tuple(regs) == expected, (phase, q, a, t)



# One selection step over hand-built rows of _LOOK words, each lane
# changing phase several times within the step, against the selection of
# generate fed the same words.


class _WordSource:
    """uniform_below as CountingBitSource draws it, from given words: a
    draw below m takes the top ceil(log2 m) bits of the next word, again
    until it is below m; past the last word, IndexError."""

    def __init__(self, words):
        self.words, self.used, self.bits_consumed = words, 0, 0

    def uniform_below(self, m):
        k = (m - 1).bit_length()
        while True:
            t = self.words[self.used] >> (64 - k)
            self.used += 1
            self.bits_consumed += k
            if t < m:
                return t


def _rows_follow_generate(cfg, rows, select):
    """Lanes on the rows of (t, k) draws, each the word with t in its top
    k bits and ones below, select as select(source) does from the same
    words: the same (q, a), words and bits, and the search opened after
    them; or, where the row ends first, no class and the row's bits."""
    words = np.array([[t << (64 - k) | (1 << (64 - k)) - 1 for t, k in row]
                      for row in rows], np.uint64)
    assert words.shape[1] == _LOOK
    s = _Lanes(cfg, len(rows), telemetry=True)
    _admit(s, np.arange(len(rows)))
    s.ctr += _LOOK
    _select(s, words)
    for lane, row in enumerate(words.tolist()):
        src = _WordSource(row)
        regs = (int(s.phase[lane]), int(s.used[lane]), int(s.sel[lane]))
        try:
            q, a = select(src)
        except IndexError:  # still selecting
            assert regs[0] > _SEARCH and regs[1:] == (0, src.bits_consumed)
            continue
        assert src.used > 2, lane  # several draws in one step
        assert regs == (_SEARCH, src.used, src.bits_consumed), lane
        assert (int(s.q[lane]), int(s.a[lane])) == (q, a), lane
        assert int(s.m[lane]) == (cfg.x - a) // q + 1
        assert int(s.left[lane]) == cfg.budget
        assert s.records["chosen_q"][lane] == q
        assert s.records["chosen_a"][lane] == a


def test_pick_rows_follow_pick_random_modulus():
    # Q = 36: q = 19 + a 5-bit draw below 18, a a draw below q (5 bits up
    # to q = 32, else 6), then a 6-bit draw below 36 thins
    t200 = sieve(200)
    cfg = GenConfig(x=200, algorithm=Algorithm.UNCOND, A=1.0,
                    primality=Exact(t200))
    assert cfg.Q == 36
    rows = [
        # (20 dropped) q = 30; a = 6, no unit: again; q = 23; a = 5;
        # thinned in by 10 < 23: the search from word 6
        [(20, 5), (11, 5), (6, 5), (4, 5), (5, 5), (10, 6), (0, 64),
         (7, 64)],
        # q = 33; a = 32; thinned out by 34: again; q = 19; (25 dropped)
        # a = 18; (63 dropped) thinned in by 18 < 19 on the last word
        [(14, 5), (32, 6), (34, 6), (0, 5), (25, 5), (18, 5), (63, 6),
         (18, 6)],
        # q = 30; a = 7; (40 dropped) thinned out by 35; q = 19; a = 3;
        # (63, 62 dropped): no class yet
        [(11, 5), (7, 5), (40, 6), (35, 6), (0, 5), (3, 5), (63, 6),
         (62, 6)],
    ]
    _rows_follow_generate(cfg, rows,
                          lambda src: _pick_random_modulus(cfg, src))


@pytest.mark.parametrize("method", UnitMethod)
def test_unit_rows_follow_sample_unit(method):
    q30 = GenConfig(x=1000, algorithm=Algorithm.ERH_FALLBACK, q=30,
                    modulus_mode="explicit", unit_method=method,
                    primality=Exact(T1000))
    rows = [
        # Joye-Paillier: (31 dropped) b = 6, + 3*25 = 21, (30 dropped)
        # + 2*10 = 11, a unit; rejection: 6, 3, 2 no units, 7 is one
        [(31, 5), (6, 5), (3, 5), (30, 5), (2, 5), (31, 5), (7, 5), (1, 5)],
        # Joye-Paillier: b = 10, + 12*21 = 22, + 1*15 = 7; rejection: 1
        [(10, 5), (12, 5), (1, 5), (5, 5), (9, 5), (0, 64), (0, 64),
         (0, 64)],
        # even draws: b = 0, then 2 on every draw; no unit yet
        [(t, 5) for t in range(0, 16, 2)],
    ]
    _rows_follow_generate(q30, rows, lambda src: (
        30, sample_unit(src, q30.modulus, method)))
    # q = 2*3*...*31 >= 2^31 at 10^18, in 38-bit draws: b = 6, + 1*u, a
    # unit (u = 1 mod 2, 3, else 0); rejection: 1
    wide = GenConfig(x=10**18, algorithm=Algorithm.BASIC, epsilon=0.3,
                     unit_method=method)
    q, top = wide.modulus.q, 2**38 - 1
    assert 2**31 <= q < top
    rows = [[(top, 38), (6, 38), (top - 1, 38), (1, 38), (5, 38),
             (0, 64), (0, 64), (0, 64)]]
    _rows_follow_generate(wide, rows, lambda src: (
        q, sample_unit(src, wide.modulus, method)))

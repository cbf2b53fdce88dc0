import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primelab.errors import ConfigError, NonTerminationError, PrimelabError
from primelab.generators import (
    Algorithm,
    GenConfig,
    ModulusMode,
    UnitMethod,
    default_T,
    derived_Q,
    generate,
    sample_unit,
    select_modulus,
)
from primelab.harness import predictions_for
from primelab.ntheory import (
    Exact,
    MillerRabin,
    Modulus,
    is_prime,
    residue_class_primes,
    sieve,
)
from primelab.rng import CountingBitSource, split_seed

from conftest import chi2_critical, chi2_stat_uniform


def test_select_modulus_power_of_two():
    assert select_modulus(10**6, 0.3, ModulusMode.POWER_OF_TWO).q == 8192


def test_select_modulus_primorial():
    assert select_modulus(10**6, 0.3, ModulusMode.PRIMORIAL).q == 2310


def test_select_modulus_tiny_primorial():
    # x^(1-eps) = 7 -> largest primorial is 6
    eps = 1 - math.log(7) / math.log(30)
    assert select_modulus(30, eps, ModulusMode.PRIMORIAL).q == 6


def test_select_modulus_explicit_and_errors():
    assert select_modulus(100, None, ModulusMode.EXPLICIT, 30).q == 30
    with pytest.raises(ConfigError):
        select_modulus(100, None, ModulusMode.EXPLICIT, 1)
    with pytest.raises(ConfigError):
        select_modulus(100, None, ModulusMode.EXPLICIT, 100)
    with pytest.raises(ConfigError):
        select_modulus(4, 0.9, ModulusMode.PRIMORIAL)  # x^(1-eps) < 3


def test_config_validation():
    with pytest.raises(ConfigError):
        GenConfig(x=1, algorithm=Algorithm.TRIVIAL)
    with pytest.raises(ConfigError):
        GenConfig(x=100, algorithm=Algorithm.BASIC)  # epsilon missing
    with pytest.raises(ConfigError):
        GenConfig(x=100, algorithm=Algorithm.BASIC, epsilon=1.5)
    with pytest.raises(ConfigError):
        GenConfig(x=100, algorithm=Algorithm.UNCOND)  # A missing
    with pytest.raises(ConfigError):
        GenConfig(x=100, algorithm=Algorithm.BASIC,
                  modulus_mode=ModulusMode.EXPLICIT)  # q missing
    # explicit q does not need epsilon
    GenConfig(x=100, algorithm=Algorithm.BASIC, q=30,
              modulus_mode=ModulusMode.EXPLICIT)
    for bad in ({"x": 100.5}, {"x": "100"}, {"T_override": 0},
                {"max_iterations": 0}, {"A": math.nan}, {"A": math.inf},
                {"epsilon": math.nan}, {"epsilon": -math.inf}):
        with pytest.raises(ConfigError):
            GenConfig(**{"x": 100, "algorithm": Algorithm.UNCOND, "A": 1.0,
                         **bad})
    # x beyond float range: the modulus and its predictions need floats
    for bad in ({"algorithm": Algorithm.BASIC, "epsilon": 0.3},
                {"algorithm": Algorithm.BASIC, "q": 30,
                 "modulus_mode": ModulusMode.EXPLICIT},
                {"algorithm": Algorithm.UNCOND, "A": 2.0}):
        with pytest.raises(ConfigError):
            GenConfig(x=10**400, primality=MillerRabin(rounds=2), **bad)
    for algo in (Algorithm.TRIVIAL, Algorithm.PRIMEINC):
        p, _ = generate(GenConfig(x=10**400, algorithm=algo,
                                  primality=MillerRabin(rounds=2)))
        assert p <= 10**400
    # derived search parameters out of range fail at construction, not in
    # generate: x^(1-epsilon) < 3, Q < 4, Q > x, Q beyond float range
    for bad in ({"x": 4, "algorithm": Algorithm.BASIC, "epsilon": 0.9},
                {"x": 100, "algorithm": Algorithm.UNCOND, "A": 6.0},
                {"x": 2, "algorithm": Algorithm.UNCOND, "A": 3.0},
                {"x": 100, "algorithm": Algorithm.UNCOND, "A": 1e300},
                {"x": 2, "algorithm": Algorithm.UNCOND, "A": 1e300}):
        with pytest.raises(ConfigError):
            GenConfig(**bad)
    # enum fields given by value become members and run; unknown values
    # and values that need missing parameters fail at construction
    for value_kw, member_kw in (
        ({"algorithm": "trivial"}, {"algorithm": Algorithm.TRIVIAL}),
        ({"algorithm": Algorithm.BASIC, "epsilon": 0.3,
          "modulus_mode": "power_of_two", "unit_method": "rejection"},
         {"algorithm": Algorithm.BASIC, "epsilon": 0.3,
          "modulus_mode": ModulusMode.POWER_OF_TWO,
          "unit_method": UnitMethod.REJECTION}),
    ):
        cfg = GenConfig(x=10**4, seed=5, **value_kw)
        assert cfg == GenConfig(x=10**4, seed=5, **member_kw)
        assert type(cfg.algorithm) is Algorithm
        assert type(cfg.modulus_mode) is ModulusMode
        assert type(cfg.unit_method) is UnitMethod
        assert (generate(cfg, CountingBitSource(5))
                == generate(GenConfig(x=10**4, seed=5, **member_kw),
                            CountingBitSource(5)))
    for bad in ({"algorithm": "nope"}, {"algorithm": "uncond"},
                {"algorithm": None},
                {"algorithm": Algorithm.BASIC, "epsilon": 0.3,
                 "modulus_mode": "nope"},
                {"algorithm": Algorithm.BASIC, "epsilon": 0.3,
                 "unit_method": "nope"}):
        with pytest.raises(ConfigError):
            GenConfig(x=100, **bad)


def test_config_refuses_a_q_it_cannot_use():
    # without explicit mode q was ignored: this config ran with q = 30
    with pytest.raises(ConfigError, match="explicit"):
        GenConfig(x=1000, algorithm="basic", q=7, epsilon=0.3)
    with pytest.raises(ConfigError):
        GenConfig(x=1000, algorithm="trivial", q=7)
    with pytest.raises(ConfigError):
        select_modulus(1000, 0.3, ModulusMode.PRIMORIAL, 7)
    # a non-integer q constructed, then generate raised a bare TypeError
    for bad in (6.5, 7.0, "7"):
        with pytest.raises(ConfigError):
            GenConfig(x=1000, algorithm="basic", q=bad,
                      modulus_mode="explicit")


def test_config_refuses_a_non_integer_budget():
    # each constructed, then generate raised a bare TypeError
    for bad in (dict(algorithm="erh_fallback", q=30, modulus_mode="explicit",
                     T_override=2.5),
                dict(algorithm="basic", q=30, modulus_mode="explicit",
                     max_iterations=2.5),
                dict(algorithm="uncond", A=1.0, T_override=2.5)):
        with pytest.raises(ConfigError, match="integer"):
            GenConfig(x=1000, **bad)


def test_modulus_reaching_x_is_refused():
    # 1 - 1e-17 rounds to 1.0, so x^(1-epsilon) rounds up to 2^60 > x; the
    # power-of-two modulus would be 2^60 and predictions_for reported 0.0
    x, eps, mode = 2**60 - 1, 1e-17, ModulusMode.POWER_OF_TWO
    with pytest.raises(ConfigError):
        select_modulus(x, eps, mode)
    with pytest.raises(ConfigError):
        predictions_for(GenConfig(x=x, algorithm=Algorithm.BASIC,
                                  epsilon=eps, modulus_mode=mode))


def test_config_derives_search_parameters():
    basic = GenConfig(x=10**6, algorithm=Algorithm.BASIC, epsilon=0.3)
    assert basic.Q is None and basic.modulus.q == 2310
    assert basic.budget == math.ceil(1e6 * math.log(10**6))
    assert basic.modulus is basic.modulus  # built once
    uncond = GenConfig(x=10**4, algorithm=Algorithm.UNCOND, A=2.0)
    assert uncond.Q == derived_Q(10**4, 2.0)
    assert uncond.budget == default_T(10**4)
    capped = GenConfig(x=10**4, algorithm=Algorithm.UNCOND_NOFALLBACK, A=2.0,
                       T_override=3, max_iterations=7)
    assert capped.budget == 7
    with pytest.raises(ConfigError):
        GenConfig(x=10**4, algorithm=Algorithm.TRIVIAL).modulus


_EPSILON = st.none() | st.floats(0, 1) | st.floats()
_A = st.none() | st.floats(0, 8) | st.floats()


# tiny bounds are drawn on their own: most degenerate configs live there
@settings(max_examples=500, deadline=None)
@given(x=st.integers(-2, 12) | st.integers(2, 10**4),
       algorithm=st.sampled_from(Algorithm), epsilon=_EPSILON, A=_A,
       q=st.none() | st.integers(-2, 10**4 + 2),
       modulus_mode=st.sampled_from(ModulusMode),
       unit_method=st.sampled_from(UnitMethod),
       T_override=st.none() | st.integers(-1, 20),
       max_iterations=st.integers(-1, 50),
       seed=st.integers(0, 2**64))
@example(x=4, algorithm=Algorithm.BASIC, epsilon=0.9, A=None, q=None,
         modulus_mode=ModulusMode.PRIMORIAL,
         unit_method=UnitMethod.JOYE_PAILLIER, T_override=None,
         max_iterations=10, seed=0)
@example(x=2, algorithm=Algorithm.UNCOND, epsilon=None, A=3.0, q=None,
         modulus_mode=ModulusMode.PRIMORIAL,
         unit_method=UnitMethod.JOYE_PAILLIER, T_override=None,
         max_iterations=10, seed=0)
def test_any_config_is_refused_or_yields_a_prime(**kw):
    # small T_override/max_iterations end runs in empty classes quickly
    try:
        cfg = GenConfig(primality=Exact(), **kw)
    except PrimelabError:
        return
    try:
        p, _tel = generate(cfg)
    except NonTerminationError:
        assert cfg.algorithm in (Algorithm.BASIC, Algorithm.UNCOND_NOFALLBACK)
        return
    assert 2 <= p <= cfg.x and is_prime(p)


def test_default_T_and_Q():
    assert default_T(10**6) == 191
    assert derived_Q(200, 1.0) == 36
    assert derived_Q(10**4, 2.0) == 116
    with pytest.raises(ConfigError):
        derived_Q(100, 6.0)  # Q < 4
    for A in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ConfigError):
            derived_Q(1000, A)


@pytest.mark.parametrize("method", list(UnitMethod))
def test_sample_unit_q2(method):
    src = CountingBitSource(3)
    mod = Modulus.from_int(2)
    assert all(sample_unit(src, mod, method) == 1 for _ in range(50))


def test_sample_unit_rejection_q6():
    src = CountingBitSource(8)
    mod = Modulus.from_int(6)
    counts = Counter(
        sample_unit(src, mod, UnitMethod.REJECTION) for _ in range(10**5)
    )
    assert set(counts) == {1, 5}
    assert abs(counts[1] / 10**5 - 0.5) < 0.01


def test_sample_unit_joye_paillier_chi_square():
    src = CountingBitSource(12345)
    mod = Modulus.from_int(30)
    n = 10**5
    counts = Counter(
        sample_unit(src, mod, UnitMethod.JOYE_PAILLIER) for _ in range(n)
    )
    units = sorted(counts)
    assert units == [1, 7, 11, 13, 17, 19, 23, 29]
    stat = chi2_stat_uniform([counts[a] for a in units], n, 8)
    assert stat < chi2_critical(7, 1e-6)


@pytest.mark.parametrize("method", list(UnitMethod))
@pytest.mark.parametrize("q", [4, 9, 12, 30, 97])
def test_sample_unit_always_coprime(method, q):
    src = CountingBitSource(q * 7 + 1)
    mod = Modulus.from_int(q)
    for _ in range(200):
        a = sample_unit(src, mod, method)
        assert 1 <= a < q and math.gcd(a, q) == 1


def test_gen_trivial_two_primes():
    cfg = GenConfig(x=3, algorithm=Algorithm.TRIVIAL, seed=5)
    src = CountingBitSource(cfg.seed)
    counts = Counter(generate(cfg, src)[0] for _ in range(10**4))
    assert set(counts) == {2, 3}
    assert abs(counts[2] / 10**4 - 0.5) < 0.03


def test_gen_trivial_mean_iterations(table_1m):
    cfg = GenConfig(x=10**6, algorithm=Algorithm.TRIVIAL, seed=1,
                    primality=Exact(table_1m))
    src = CountingBitSource(42)
    runs = 10**4
    iters = 0
    for _ in range(runs):
        p, tel = generate(cfg, src)
        iters += tel.loop_iterations
    density_inverse = 10**6 / table_1m.prime_count()  # 12.74
    assert abs(iters / runs / density_inverse - 1) < 0.05


def test_gen_primeinc_x3_distribution():
    cfg = GenConfig(x=3, algorithm=Algorithm.PRIMEINC, seed=9)
    src = CountingBitSource(cfg.seed)
    counts = Counter(generate(cfg, src)[0] for _ in range(3 * 10**4))
    # y=1,2 -> 2; y=3 -> 3
    assert abs(counts[2] / (3 * 10**4) - 2 / 3) < 0.02


def test_gen_primeinc_stays_in_range():
    t = sieve(20)
    cfg = GenConfig(x=20, algorithm=Algorithm.PRIMEINC, seed=4,
                    primality=Exact(t))
    src = CountingBitSource(cfg.seed)
    for _ in range(2000):
        p, _ = generate(cfg, src)
        assert p <= 20 and t.is_prime(p)


def test_gen_basic_support_and_telemetry(table_1k):
    t30 = sieve(30)
    cfg = GenConfig(x=30, algorithm=Algorithm.BASIC, q=6,
                    modulus_mode=ModulusMode.EXPLICIT, seed=2,
                    primality=Exact(t30))
    src = CountingBitSource(cfg.seed)
    seen = set()
    for _ in range(5000):
        p, tel = generate(cfg, src)
        assert tel.chosen_q == 6
        assert p % 6 == tel.chosen_a
        assert math.gcd(p, 6) == 1
        assert tel.primality_tests == tel.loop_iterations >= 1
        # 5 slots per class: ceil(log2 5) = 3 bits per draw attempt
        assert tel.loop_bits % 3 == 0 and tel.loop_bits >= 3 * tel.loop_iterations
        seen.add(p)
    assert seen == {5, 7, 11, 13, 17, 19, 23, 29}


def test_gen_basic_mean_iterations_formula(table_100k):
    # (phi(q)/q) ln x at x = 1e5, q = 2310
    cfg = GenConfig(x=10**5, algorithm=Algorithm.BASIC, epsilon=0.3,
                    modulus_mode=ModulusMode.PRIMORIAL, seed=6,
                    primality=Exact(table_100k))
    assert select_modulus(10**5, 0.3, ModulusMode.PRIMORIAL).q == 2310
    predicted = (480 / 2310) * math.log(10**5)
    runs = 10**4
    iters = 0
    for i in range(runs):
        _, tel = generate(cfg, CountingBitSource(split_seed(6, i)))
        iters += tel.loop_iterations
    assert abs(iters / runs / predicted - 1) < 0.10


def test_gen_erh_fallback_rare_at_scale(table_100k):
    cfg = GenConfig(x=10**5, algorithm=Algorithm.ERH_FALLBACK, epsilon=0.3,
                    seed=13, primality=Exact(table_100k))
    fallbacks = 0
    for i in range(2000):
        _, tel = generate(cfg, CountingBitSource(split_seed(13, i)))
        fallbacks += tel.fallback_entered
    assert fallbacks / 2000 < 1e-3


def test_gen_erh_fallback_empty_class_terminates():
    # class 18 mod 25 holds no prime <= 30 (found by exhaustive search)
    t30 = sieve(30)
    assert residue_class_primes(t30, 25, 18) == []
    cfg = GenConfig(x=30, algorithm=Algorithm.ERH_FALLBACK, q=25,
                    modulus_mode=ModulusMode.EXPLICIT, T_override=3,
                    seed=0, primality=Exact(t30))
    hit_empty = False
    for seed in range(2000):
        p, tel = generate(cfg, CountingBitSource(seed))
        assert t30.is_prime(p)
        if tel.chosen_a == 18:
            hit_empty = True
            assert tel.fallback_entered
            assert tel.loop_iterations > 3  # T draws plus fallback draws
    assert hit_empty


def test_gen_basic_empty_class_raises():
    t30 = sieve(30)
    cfg = GenConfig(x=30, algorithm=Algorithm.BASIC, q=25,
                    modulus_mode=ModulusMode.EXPLICIT, seed=0,
                    primality=Exact(t30), max_iterations=50)
    raised = False
    for seed in range(2000):
        try:
            _, tel = generate(cfg, CountingBitSource(seed))
        except NonTerminationError:
            raised = True
            break
    assert raised


def test_gen_uncond_output_and_fallback_flag():
    t = sieve(10**4)
    cfg = GenConfig(x=10**4, algorithm=Algorithm.UNCOND, A=2.0, seed=3,
                    primality=Exact(t))
    for i in range(500):
        p, tel = generate(cfg, CountingBitSource(split_seed(3, i)))
        assert t.is_prime(p)
        if not tel.fallback_entered:
            assert p % tel.chosen_q == tel.chosen_a


def test_gen_uncond_nofallback_congruence():
    t = sieve(10**4)
    cfg = GenConfig(x=10**4, algorithm=Algorithm.UNCOND_NOFALLBACK, A=2.0,
                    seed=8, primality=Exact(t))
    Q = derived_Q(10**4, 2.0)
    for i in range(500):
        p, tel = generate(cfg, CountingBitSource(split_seed(8, i)))
        assert p % tel.chosen_q == tel.chosen_a
        assert Q // 2 < tel.chosen_q <= Q
        assert not tel.fallback_entered


def test_uncond_pair_selection_uniform():
    # the accepted (q, a) pair is uniform over all valid pairs
    from primelab.generators import _pick_random_modulus

    t = sieve(10**4)
    cfg = GenConfig(x=10**4, algorithm=Algorithm.UNCOND, A=2.0, seed=5,
                    primality=Exact(t))
    src = CountingBitSource(999)
    pairs = Counter()
    n = 10**5
    for _ in range(n):
        pairs[_pick_random_modulus(cfg, src)] += 1
    Q = derived_Q(10**4, 2.0)
    valid = [
        (q, a)
        for q in range(Q // 2 + 1, Q + 1)
        for a in range(q)
        if math.gcd(a, q) == 1
    ]
    expected = n / len(valid)
    stat = sum((pairs.get(pair, 0) - expected) ** 2 / expected for pair in valid)
    assert stat < chi2_critical(len(valid) - 1, 1e-6)


@pytest.mark.parametrize("algo,extra", [
    (Algorithm.TRIVIAL, {}),
    (Algorithm.PRIMEINC, {}),
    (Algorithm.BASIC, {"epsilon": 0.3}),
    (Algorithm.ERH_FALLBACK, {"epsilon": 0.3}),
    (Algorithm.UNCOND, {"A": 1.0}),
    (Algorithm.UNCOND_NOFALLBACK, {"A": 1.0}),
])
def test_bit_for_bit_reproducibility(algo, extra, table_1k):
    cfg = GenConfig(x=1000, algorithm=algo, seed=77,
                    primality=Exact(table_1k), **extra)
    runs = [generate(cfg, CountingBitSource(cfg.seed)) for _ in range(2)]
    (p1, t1), (p2, t2) = runs
    assert p1 == p2
    assert t1 == t2


def test_miller_rabin_policy_in_generator(table_1k):
    from primelab.ntheory import MillerRabin

    cfg = GenConfig(x=1000, algorithm=Algorithm.BASIC, q=30,
                    modulus_mode=ModulusMode.EXPLICIT, seed=21,
                    primality=MillerRabin(rounds=20, seed=5))
    for i in range(500):
        p, _ = generate(cfg, CountingBitSource(split_seed(21, i)))
        assert table_1k.is_prime(p)


def test_primality_randomness_not_charged(table_1k):
    # testing bases come from their own stream, so the generation-source
    # bill is identical whichever primality policy runs
    from primelab.ntheory import MillerRabin

    base = dict(x=1000, algorithm=Algorithm.TRIVIAL, seed=77)
    p_exact, tel_exact = generate(
        GenConfig(**base, primality=Exact(table_1k)),
        CountingBitSource(77),
    )
    p_mr, tel_mr = generate(
        GenConfig(**base, primality=MillerRabin(rounds=30, seed=9)),
        CountingBitSource(77),
    )
    assert p_exact == p_mr
    assert tel_exact.bits_consumed == tel_mr.bits_consumed
    assert tel_exact.loop_iterations == tel_mr.loop_iterations


def test_primorial_vs_power_of_two_density():
    prim = select_modulus(10**6, 0.3, ModulusMode.PRIMORIAL)
    pow2 = select_modulus(10**6, 0.3, ModulusMode.POWER_OF_TWO)
    assert prim.phi / prim.q < pow2.phi / pow2.q
    # the predicted iteration counts order the same way
    from primelab.harness import predictions_for

    pred_prim, _, _ = predictions_for(GenConfig(
        x=10**6, algorithm=Algorithm.BASIC, epsilon=0.3,
        modulus_mode=ModulusMode.PRIMORIAL))
    pred_pow2, _, _ = predictions_for(GenConfig(
        x=10**6, algorithm=Algorithm.BASIC, epsilon=0.3,
        modulus_mode=ModulusMode.POWER_OF_TWO))
    assert pred_prim < pred_pow2


def _golden_stream_records():
    """(prime, telemetry) or error text of 50 seeded runs per config."""
    from dataclasses import asdict, replace

    from primelab.errors import PrimelabError
    from primelab.ntheory import MillerRabin

    configs = []
    for x, policy in ((10**5, Exact(sieve(10**5))), (10**12, Exact()),
                      (10**6, MillerRabin(rounds=5))):
        configs += [GenConfig(x=x, algorithm=algo, epsilon=0.3, A=2.0,
                              primality=policy) for algo in Algorithm]
    configs += [GenConfig(x=10**4, algorithm=algo, epsilon=0.3, A=2.0,
                          modulus_mode=ModulusMode.POWER_OF_TWO,
                          unit_method=UnitMethod.REJECTION)
                for algo in Algorithm]
    # q = 25 at x = 100 has empty unit classes: a short budget makes the
    # fallback variants fall back and the capped ones raise
    configs += [GenConfig(x=100, algorithm=algo, q=25, A=1.0,
                          modulus_mode=ModulusMode.EXPLICIT, **budget)
                for algo, budget in (
                    (Algorithm.ERH_FALLBACK, {"T_override": 2}),
                    (Algorithm.UNCOND, {"T_override": 2}),
                    (Algorithm.BASIC, {"max_iterations": 3}),
                    (Algorithm.UNCOND_NOFALLBACK, {"max_iterations": 3}))]
    records = []
    for cfg in configs:
        for i in range(50):
            try:
                p, tel = generate(replace(cfg, seed=split_seed(2024, i)))
                records.append([p, asdict(tel)])
            except PrimelabError as exc:
                records.append([type(exc).__name__, str(exc)])
    return records


def test_golden_stream_digest():
    # recorded on the counter stream (word j of seed s is
    # splitmix64(s + j * GAMMA)); any change in draw order, telemetry or
    # error text moves the digest
    import hashlib
    import json

    records = _golden_stream_records()
    assert len(records) == 1400
    errors = sum(isinstance(r[0], str) for r in records)
    fallbacks = sum(r[1]["fallback_entered"] for r in records
                    if not isinstance(r[0], str))
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode())
    assert (errors, fallbacks, digest.hexdigest()) == (
        35, 46,
        "79b2d7690357c85ad42d3f9b656748cdcd1b2c221949d7233d26cce8b48bf900")

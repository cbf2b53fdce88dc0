"""The public contract: every call answers or refuses with a PrimelabError.

CALLS holds one valid call per callable export of primelab, and per public
method of FiniteDist, CountingBitSource and PrimeTable.  Each call is made
again with each of its arguments in turn swapped for each value of BAD,
and must then return a result of the valid call's type or raise a
PrimelabError, within ALARM_S seconds (signal.alarm).  A new export or
public method must add a row, or a reason in UNCHECKED: the coverage
tests fail until it does."""

import inspect
import math
import signal
from fractions import Fraction

import numpy as np
import pytest

import primelab
from primelab import (
    CountingBitSource,
    Exact,
    FiniteDist,
    GenConfig,
    MillerRabin,
    Modulus,
    PrimelabError,
    PrimeTable,
    benchmark,
    count_ap_primes,
    default_T,
    derived_Q,
    error_term_profile,
    exact_dist_basic,
    exact_dist_erh_fallback,
    exact_dist_primeinc,
    exact_dist_trivial,
    exact_dist_uncond,
    exact_dist_uncond_nofallback,
    gap_census,
    generate,
    is_prime,
    law,
    metrics_of,
    parse_reports,
    primeinc_audit,
    primorial_below,
    report_emit,
    residue_class_primes,
    sample_distribution,
    sample_unit,
    select_modulus,
    sieve,
    split_seed,
    totient_partial_sum,
    tv_between,
)

ALARM_S = 5

BAD = {
    "None": None,
    '"3"': "3",
    "2.5": 2.5,
    "1.0": 1.0,
    "True": True,
    "-1": -1,
    "object()": object(),
    "[]": [],
    "np.float64(1.0)": np.float64(1.0),
    "10**400": 10**400,
    "NaN": math.nan,
}

T100 = sieve(100)
T1K = sieve(1000)
FLAGS = np.zeros(T100.bound + 1, dtype=bool)
FLAGS[T100.primes] = True
CFG = GenConfig(x=1000, algorithm="erh_fallback", epsilon=0.3)
DIST = FiniteDist(4, {2: Fraction(1, 2), 3: Fraction(1, 2)})
REPORT = benchmark(CFG, 5)


def row(fn, *args, **kwargs):
    return fn, args, kwargs


# label: the export (or Class.method) it calls, then what the row adds
CALLS = {
    "CountingBitSource": row(CountingBitSource, 1),
    "CountingBitSource.uniform_below":
        row(CountingBitSource(1).uniform_below, 10),
    "Exact": row(Exact, T100),
    "FiniteDist": row(FiniteDist, 4, {2: Fraction(1, 2), 3: Fraction(1, 2)},
                      {"conditional": False, "empty_classes": [1]}),
    "FiniteDist.uniform": row(FiniteDist.uniform, [2, 3]),
    "FiniteDist.from_counts": row(FiniteDist.from_counts, {2: 1, 3: 1}, 2, 4),
    "GenConfig": row(GenConfig, 1000, "erh_fallback", 0.3, seed=5,
                     T_override=3, unit_method="rejection"),
    "MillerRabin": row(MillerRabin, rounds=2, seed=3),
    "Modulus.from_int": row(Modulus.from_int, 30),
    "PrimeTable": row(PrimeTable, T100.bound,
                      np.packbits(FLAGS[1::2], bitorder="little")),
    "PrimeTable.is_prime": row(T100.is_prime, 97),
    "PrimeTable.count_leq": row(T100.count_leq, 50),
    "benchmark": row(benchmark, CFG, 10, with_metrics=True),
    "count_ap_primes": row(count_ap_primes, T100, 3, 1),
    "default_T": row(default_T, 1000),
    "derived_Q": row(derived_Q, 1000, 1.0),
    "error_term_profile": row(error_term_profile, 1000, 30, table=T1K),
    "error_term_profile(A)": row(error_term_profile, 1000, A=1.0, table=T1K),
    "exact_dist_basic": row(exact_dist_basic, 1000, 30, T1K),
    "exact_dist_erh_fallback": row(exact_dist_erh_fallback, 1000, 30, 3, T1K),
    "exact_dist_primeinc": row(exact_dist_primeinc, 1000, T1K),
    "exact_dist_trivial": row(exact_dist_trivial, 1000, T1K),
    "exact_dist_uncond": row(exact_dist_uncond, 200, 1.0, 3),
    "exact_dist_uncond_nofallback":
        row(exact_dist_uncond_nofallback, 200, 1.0),
    "gap_census": row(gap_census, 1000, [1.0, 2.0], T1K),
    "generate": row(generate, CFG, CountingBitSource(1)),
    "is_prime": row(is_prime, 97, MillerRabin(2)),
    "law": row(law, GenConfig(x=1000, algorithm="basic", epsilon=0.3,
                              primality=Exact(T1K))),
    "metrics_of": row(metrics_of, DIST),
    "parse_reports": row(parse_reports, report_emit([REPORT])),
    "primeinc_audit": row(primeinc_audit, 1000, 10, seed=2, table=T1K),
    "primorial_below": row(primorial_below, 10**6),
    "report_emit": row(report_emit, [REPORT], "csv"),
    "residue_class_primes": row(residue_class_primes, T100, 3, 1),
    "sample_distribution": row(sample_distribution, CFG, 10, T1K),
    "sample_unit": row(sample_unit, CountingBitSource(1),
                       Modulus.from_int(30), "rejection"),
    "select_modulus": row(select_modulus, 1000, 0.3, "primorial"),
    "sieve": row(sieve, 100),
    "split_seed": row(split_seed, 7, 3),
    "totient_partial_sum": row(totient_partial_sum, 100),
    "tv_between": row(tv_between, DIST, DIST),
}

# The exports that are not a call to check, each with its reason.
_EXCEPTION = "an exception type"
_RECORD = "a result record that primelab fills in; it checks nothing"
_ENUM = ("an enum: every call that takes one turns a bad value into a "
         "ConfigError")
NOT_CALLED = {
    "BrokenBitSourceError": _EXCEPTION,
    "ConfigError": _EXCEPTION,
    "DomainError": _EXCEPTION,
    "NonTerminationError": _EXCEPTION,
    "PrimelabError": _EXCEPTION,
    "ResourceLimitError": _EXCEPTION,
    "Algorithm": _ENUM,
    "ModulusMode": _ENUM,
    "UnitMethod": _ENUM,
    "DistMetrics": _RECORD,
    "GapCensus": _RECORD,
    "PrimeincAudit": _RECORD,
    "RunReport": _RECORD,
    "Telemetry": _RECORD,
    "EXACT": "a policy instance, not a callable",
    "PrimalityPolicy": "the base class of Exact and MillerRabin; no arguments",
}

# The public methods that check no argument, each with its reason.
_ENGINE = ("a lane-engine primitive on int arrays, documented as unchecked: "
           "a check would cost every engine step")
UNCHECKED = {
    "PrimeTable.prime_mask": _ENGINE,
    "PrimeTable.next_prime": _ENGINE,
}


def _export(label: str) -> str:
    return label.split("(")[0].split(".")[0]


def test_the_table_covers_every_export_once():
    called = {_export(label) for label in CALLS}
    assert called.isdisjoint(NOT_CALLED)
    assert called | NOT_CALLED.keys() == set(primelab.__all__)


@pytest.mark.parametrize("cls", [FiniteDist, CountingBitSource, PrimeTable])
def test_the_table_covers_every_public_method(cls):
    methods = {f"{cls.__name__}.{name}" for name, member
               in inspect.getmembers(cls, callable)
               if not name.startswith("_")}
    assert methods <= CALLS.keys() | UNCHECKED.keys()
    assert CALLS.keys().isdisjoint(UNCHECKED)


class _Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise _Overtime


def _swapped_calls(label):
    """(argument, bad label, call) for each swap of the row's call."""
    fn, args, kwargs = CALLS[label]
    signature = inspect.signature(fn)
    for name in signature.bind(*args, **kwargs).arguments:
        for bad_label, bad in BAD.items():
            bound = signature.bind(*args, **kwargs)
            bound.arguments[name] = bad
            yield name, bad_label, (
                lambda b=bound: fn(*b.args, **b.kwargs))


@pytest.mark.parametrize("label", CALLS)
def test_each_bad_argument_is_answered_or_refused(label):
    fn, args, kwargs = CALLS[label]
    expected = type(fn(*args, **kwargs))
    failures = []
    previous = signal.signal(signal.SIGALRM, _overtime)
    try:
        for name, bad_label, call in _swapped_calls(label):
            signal.alarm(ALARM_S)
            try:
                result = call()
            except PrimelabError:
                continue
            except Exception as exc:  # _Overtime among them
                failures.append(f"{name}={bad_label}: {type(exc).__name__}")
                continue
            finally:
                signal.alarm(0)
            if type(result) is not expected:
                failures.append(f"{name}={bad_label}: a "
                                f"{type(result).__name__}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert failures == []

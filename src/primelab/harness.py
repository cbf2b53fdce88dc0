"""Experiment orchestration: budget benchmarks, bias audits, the gap
census, and report serialization.

Benchmarks aggregate per-run Telemetry over many trials with per-trial
seeds derived from a master seed (``rng.split_seed``), so reports are
byte-for-byte reproducible.  Reports serialize to JSON (schema_version on
every record) or CSV with a fixed, documented column order; among them
are the error-term profiles, which exactdist computes from its class
census.
"""

import csv
import functools
import io
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    PrimelabError,
    ResourceLimitError,
    _bound_index,
)
from .exactdist import (
    FixedModulusErrorProfile,
    RangeErrorProfile,
    exact_dist_primeinc,
)
from .generators import (
    Algorithm,
    GenConfig,
    generate,
    trial_counts,
)
from .metrics import DistMetrics, FiniteDist, metrics_of
from .ntheory import (
    DEFAULT_TOTIENT_CAP,
    EXACT,
    Exact,
    MillerRabin,
    PrimalityPolicy,
    PrimeTable,
    primes_upto,
    table_for,
    totient_sieve,
)
from .rng import CountingBitSource, split_seed

SCHEMA_VERSION = 1

LN2 = math.log(2)

# CSV column order for benchmark reports (fixed; see README).
REPORT_CSV_COLUMNS = [
    "algorithm", "x", "trials", "seed",
    "mean_iterations", "mean_bits", "mean_loop_bits", "mean_selection_bits",
    "mean_primality_tests", "fallback_rate",
    "predicted_iterations", "predicted_bits", "epsilon_effective",
]


@dataclass
class RunReport:
    """Aggregated telemetry over `trials` runs of one configuration.

    mean_bits covers all generation-source bits; mean_loop_bits excludes
    modulus/unit selection and is the quantity the bit predictions target.
    predicted_iterations = (phi(q)/q) ln x; predicted_bits multiplies that
    by the per-iteration draw width (log2(x/q) for fixed-modulus search,
    A log ln x / ln 2 for the random-modulus variants).
    """

    config: GenConfig
    trials: int
    mean_iterations: float
    mean_bits: float
    mean_loop_bits: float
    mean_selection_bits: float
    mean_primality_tests: float
    fallback_rate: float
    predicted_iterations: float | None
    predicted_bits: float | None
    epsilon_effective: float | None
    metrics: DistMetrics | None = None


@functools.lru_cache(maxsize=16)
def _mean_phi_ratio(Q: int) -> float:
    """Mean of phi(q)/q over q in (Q/2, Q], memoized per Q."""
    qs = np.arange(Q // 2 + 1, Q + 1)
    return float(np.mean(totient_sieve(Q)[Q // 2 + 1 :] / qs))


def predictions_for(cfg: GenConfig):
    """(predicted_iterations, predicted_bits, epsilon_effective) for cfg.

    None where no prediction is made: primeinc, and the random-modulus
    variants whose Q exceeds the totient-table cap."""
    x = cfg.x
    lnx = math.log(x)
    algo = cfg.algorithm
    if algo is Algorithm.TRIVIAL:
        return lnx, lnx * lnx / LN2, 1.0
    if algo is Algorithm.PRIMEINC:
        return None, None, None
    if algo in (Algorithm.BASIC, Algorithm.ERH_FALLBACK):
        q = cfg.modulus.q
        pred_iter = cfg.modulus.phi / q * lnx
        return pred_iter, pred_iter * math.log2(x / q), math.log(x / q) / lnx
    # random-modulus variants: average phi(q)/q over the actual q-range
    Q = cfg.Q
    if Q > DEFAULT_TOTIENT_CAP:
        return None, None, None
    pred_iter = _mean_phi_ratio(Q) * lnx
    return pred_iter, pred_iter * (cfg.A * math.log(lnx) / LN2), None


def benchmark(
    cfg: GenConfig,
    trials: int,
    with_metrics: bool = False,
    table: PrimeTable | None = None,
) -> RunReport:
    """Run the configured generator `trials` times and aggregate telemetry.

    Trial i uses an independent bit source seeded with
    split_seed(cfg.seed, i); aggregation folds in trial order.  The
    metrics take pi(x) from table_for(x, table, the policy's table).
    """
    trials = _bound_index("trials", trials, 1)
    if with_metrics:
        space = table_for(cfg.x, table, cfg.primality.table).count_leq(cfg.x)
    sum_iter = sum_bits = sum_sel = sum_tests = fallbacks = 0
    outputs: Counter = Counter()
    for i in range(trials):
        src = CountingBitSource(split_seed(cfg.seed, i))
        try:
            p, tel = generate(cfg, src)
        except PrimelabError as exc:
            raise type(exc)(f"trial {i}: {exc}") from exc
        sum_iter += tel.loop_iterations
        sum_bits += tel.bits_consumed
        sum_sel += tel.selection_bits
        sum_tests += tel.primality_tests
        fallbacks += tel.fallback_entered
        if with_metrics:
            outputs[p] += 1

    pred_iter, pred_bits, eps_eff = predictions_for(cfg)
    dist_metrics = None
    if with_metrics:
        empirical = FiniteDist.from_counts(outputs, trials, space)
        dist_metrics = metrics_of(empirical)
    return RunReport(
        config=cfg,
        trials=trials,
        mean_iterations=sum_iter / trials,
        mean_bits=sum_bits / trials,
        mean_loop_bits=(sum_bits - sum_sel) / trials,
        mean_selection_bits=sum_sel / trials,
        mean_primality_tests=sum_tests / trials,
        fallback_rate=fallbacks / trials,
        predicted_iterations=pred_iter,
        predicted_bits=pred_bits,
        epsilon_effective=eps_eff,
        metrics=dist_metrics,
    )


def sample_distribution(
    cfg: GenConfig,
    runs: int,
    table: PrimeTable | None = None,
    retry_nontermination: bool = False,
):
    """Empirical output distribution of `benchmark`'s trials 0..runs-1 of
    cfg under Exact: (FiniteDist, counts), counts mapping each observed
    prime to its runs.  generators.trial_counts runs them, draw for draw.
    Primality is read from the table (the argument, which must cover x,
    else the policy's table, else sieve(x)), never from cfg.primality.

    With retry_nontermination, retry r of a trial i that spends its budget
    (basic, uncond_nofallback) runs on split_seed(k_i, r), k_i the trial's
    seed: this samples the law conditioned on termination, which the
    no-fallback closed form describes.
    """
    runs = _bound_index("runs", runs, 1)
    table = table_for(cfg.x, table, cfg.primality.table)
    tally = trial_counts(cfg, runs, table, retry_nontermination)
    seen = np.flatnonzero(tally)
    counts = Counter(dict(zip(table.primes[seen].tolist(),
                              tally[seen].tolist())))
    return FiniteDist.from_counts(counts, runs, len(tally)), counts


@dataclass
class GapCensus:
    """Counts of primes whose preceding gap is at most lambda * ln x.

    normalized = F * ln x / x; prime_fraction = F / pi(x); reference is the
    model value 1 - e^(-lambda).  p = 2 has no predecessor and is excluded.
    """

    x: int
    lambdas: list[float]
    F_values: dict[float, int]
    normalized: dict[float, float]
    prime_fraction: dict[float, float]
    reference: dict[float, float]


def gap_census(
    x: int, lambdas, table: PrimeTable | None = None
) -> GapCensus:
    """Exact census of prime gaps at thresholds lambda * ln x."""
    x = _bound_index("x", x, 100)
    lambdas = list(lambdas)
    try:
        bad = [lam for lam in lambdas if not (0 <= lam < math.inf)]
    except TypeError as exc:
        raise DomainError(f"lambda must be real, got {lambdas!r}") from exc
    if bad:
        raise DomainError(f"lambda must be finite and >= 0, got {bad}")
    primes_x = primes_upto(x, table)
    gaps = np.diff(primes_x)
    lnx = math.log(x)
    pi_x = len(primes_x)
    F_values = {
        lam: int(np.count_nonzero(gaps <= lam * lnx)) for lam in lambdas
    }
    return GapCensus(
        x=x,
        lambdas=lambdas,
        F_values=F_values,
        normalized={lam: F * lnx / x for lam, F in F_values.items()},
        prime_fraction={lam: F / pi_x for lam, F in F_values.items()},
        reference={lam: 1 - math.exp(-lam) for lam in lambdas},
    )


@dataclass
class PrimeincAudit:
    """Bias audit of the scan-upward generator at bound x.

    delta1 is the exact l1 distance of its output distribution to uniform.
    Each prime whose preceding gap exceeds 2 ln x contributes more than
    (ln x)/x to that distance, so bound_gap_large =
    (ln x / x) * (pi(x) - 1 - F) is a valid lower bound (F counts the
    predecessor-having primes with gap <= 2 ln x; the first prime has no
    predecessor and is left out).  bound_gap_small = (ln x / x) * F is the
    same expression with the small-gap count and is reported for reference
    (it exceeds delta1 at desk scale, i.e. it is not a bound).  The twin
    test compares how often outputs p have p - 2 prime against the uniform
    expectation.
    """

    x: int
    trials: int
    delta1: Fraction
    gap_count: int                   # F_{2 ln x}(x)
    bound_gap_large: float
    bound_gap_large_holds: bool
    bound_gap_small: float
    bound_gap_small_holds: bool
    twin_uniform_fraction: float
    twin_exact_output_fraction: float
    twin_empirical_fraction: float
    twin_ratio: float


def primeinc_audit(
    x: int, trials: int, seed: int = 0, table: PrimeTable | None = None
) -> PrimeincAudit:
    """Quantify the gap-length bias of the scan-upward generator."""
    trials = _bound_index("trials", trials, 1)
    x = _bound_index("x", x, 5)  # the least twin pair is (3, 5)
    table = table_for(x, table)
    dist = exact_dist_primeinc(x, table)
    delta1 = metrics_of(dist).delta1
    lnx = math.log(x)
    primes_x = primes_upto(x, table)
    pi_x = len(primes_x)
    gaps = np.diff(primes_x)
    F = int(np.count_nonzero(gaps <= 2 * lnx))
    bound_small = lnx / x * F
    bound_large = lnx / x * (pi_x - 1 - F)

    twins = np.flatnonzero(gaps == 2) + 1  # indices of p with p - 2 prime
    twin_uniform = len(twins) / pi_x
    twin_exact = 2 * len(twins) / int(primes_x[-1])
    cfg = GenConfig(x=x, algorithm=Algorithm.PRIMEINC, seed=seed,
                    primality=Exact(table))
    hits = int(trial_counts(cfg, trials, table)[twins].sum())
    twin_empirical = hits / trials

    return PrimeincAudit(
        x=x,
        trials=trials,
        delta1=delta1,
        gap_count=F,
        bound_gap_large=bound_large,
        bound_gap_large_holds=bool(delta1 > bound_large),
        bound_gap_small=bound_small,
        bound_gap_small_holds=bool(delta1 > bound_small),
        twin_uniform_fraction=twin_uniform,
        twin_exact_output_fraction=twin_exact,
        twin_empirical_fraction=twin_empirical,
        twin_ratio=twin_empirical / twin_uniform,
    )


# ---------------------------------------------------------------------------
# serialization

_RECORD_KINDS = {
    "run_report": RunReport,
    "gap_census": GapCensus,
    "primeinc_audit": PrimeincAudit,
    "error_profile_fixed": FixedModulusErrorProfile,
    "error_profile_range": RangeErrorProfile,
}


def _encode_value(v):
    """JSON form of a report value: dataclasses and dicts field by field
    (str keys), a Fraction as {"fraction": "n/d"}, an enum as its value,
    a primality policy as a {"type": ...} dict."""
    if isinstance(v, Fraction):
        try:
            return {"fraction": f"{v.numerator}/{v.denominator}"}
        except ValueError as exc:
            raise ResourceLimitError(
                f"fraction has more than {sys.get_int_max_str_digits()} "
                f"digits, Python's integer-to-string limit"
            ) from exc
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, Exact):
        return {"type": "exact",
                "table_bound": v.table.bound if v.table else None}
    if isinstance(v, MillerRabin):
        return {"type": "miller_rabin", "rounds": v.rounds, "seed": v.seed}
    if isinstance(v, PrimalityPolicy):
        raise DomainError(f"cannot serialize policy {v!r}")
    if is_dataclass(v):
        return {f.name: _encode_value(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, dict):
        return {str(k): _encode_value(x) for k, x in v.items()}
    return v


def _decode_value(v):
    if isinstance(v, dict) and set(v) == {"fraction"}:
        return Fraction(v["fraction"])
    return v


def _field_values(cls, d: dict) -> dict:
    """The fields of cls read from d; DomainError if d is not an object."""
    if not isinstance(d, dict):
        raise DomainError(f"{cls.__name__} must be an object, got {d!r}")
    return {f.name: _decode_value(d[f.name]) for f in fields(cls)}


def config_from_dict(d: dict) -> GenConfig:
    """Rebuild a GenConfig; exact-policy prime tables are not embedded in
    reports, so they come back as Exact(table=None)."""
    kw = _field_values(GenConfig, d)
    pol = kw["primality"]
    if not isinstance(pol, dict):
        raise DomainError(f"primality must be an object, got {pol!r}")
    if pol["type"] == "exact":
        kw["primality"] = EXACT
    elif pol["type"] == "miller_rabin":
        kw["primality"] = MillerRabin(rounds=pol["rounds"], seed=pol["seed"])
    else:
        raise DomainError(f"unknown policy type {pol['type']!r}")
    return GenConfig(**kw)  # it turns the enum values back into members


def report_from_dict(d: dict) -> RunReport:
    if d.get("kind") != "run_report":
        raise DomainError(f"not a run report: kind={d.get('kind')!r}")
    kw = _field_values(RunReport, d)
    kw["config"] = config_from_dict(kw["config"])
    kw["trials"] = _bound_index("trials", kw["trials"], 1)
    if kw["metrics"] is not None:
        kw["metrics"] = DistMetrics(**_field_values(DistMetrics, kw["metrics"]))
    return RunReport(**kw)


def dist_to_dict(dist: FiniteDist) -> dict:
    rows = [
        [int(p), _encode_value(m)] for p, m in sorted(dist.mass.items())
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "distribution",
        "space_size": dist.space_size,
        "mass": rows,
        "meta": _encode_value(dist.meta),
    }


def to_jsonable(obj):
    """One JSON record: schema_version, kind and the encoded fields of a
    report dataclass; a FiniteDist goes through dist_to_dict and a plain
    dict passes unchanged."""
    if isinstance(obj, FiniteDist):
        return dist_to_dict(obj)
    if isinstance(obj, dict):
        return obj
    for kind, cls in _RECORD_KINDS.items():
        if type(obj) is cls:
            return {"schema_version": SCHEMA_VERSION, "kind": kind,
                    **_encode_value(obj)}
    raise DomainError(f"cannot serialize {type(obj).__name__}")


def _reports_to_csv(items: list) -> str:
    kinds = {type(item) for item in items}
    if len(kinds) > 1:
        raise DomainError("CSV output needs items of one type, got "
                          + ", ".join(sorted(k.__name__ for k in kinds)))
    kind = kinds.pop() if kinds else RunReport
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if kind is FiniteDist:
        writer.writerow(["prime", "mass"])
        for dist in items:
            for p, m in sorted(dist.mass.items()):
                writer.writerow([p, repr(float(m))])
    elif kind is GapCensus:
        writer.writerow(["x", "lambda", "F", "normalized",
                        "prime_fraction", "reference"])
        for c in items:
            for lam in c.lambdas:
                writer.writerow([
                    c.x, lam, c.F_values[lam], repr(c.normalized[lam]),
                    repr(c.prime_fraction[lam]), repr(c.reference[lam]),
                ])
    elif kind is RunReport:
        writer.writerow(REPORT_CSV_COLUMNS)
        for report in items:
            cfg = report.config
            writer.writerow([cfg.algorithm.value] + [
                repr(getattr(report if hasattr(report, c) else cfg, c))
                for c in REPORT_CSV_COLUMNS[1:]
            ])
    else:
        raise DomainError(f"CSV output for {kind.__name__} is not defined")
    return buf.getvalue()


def report_emit(reports: list, format: str = "json") -> str:
    """Serialize reports/distributions/censuses (write_text saves them).

    JSON output is a (possibly empty) array of records, each carrying
    schema_version; serialization is deterministic (sorted keys).
    """
    if format == "json":
        payload = json.dumps(
            [to_jsonable(r) for r in reports],
            sort_keys=True, indent=2,
        ) + "\n"
    elif format == "csv":
        payload = _reports_to_csv(reports)
    else:
        raise DomainError(f"unknown format {format!r}")
    return payload


def write_text(payload: str, path: str) -> None:
    """Write payload to the file `path`; an OSError becomes a PrimelabError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise PrimelabError(f"cannot write report to {path}: {exc}") from exc


def parse_reports(text: str) -> list:
    """Parse a JSON report array back into objects (run reports only;
    other record kinds are returned as dicts).  DomainError unless text
    is a JSON array, and for a run_report that lacks a field, whose
    config, primality or non-null metrics is not an object, or whose
    trials is not an integer >= 1."""
    try:
        records = json.loads(text)
    except ValueError as exc:  # json.JSONDecodeError among them
        raise DomainError(f"reports are not JSON: {exc}") from exc
    if not isinstance(records, list):
        raise DomainError("reports must be a JSON array")
    out = []
    for record in records:
        if isinstance(record, dict) and record.get("kind") == "run_report":
            try:
                out.append(report_from_dict(record))
            except KeyError as exc:
                raise DomainError(f"run_report lacks field {exc}") from exc
        else:
            out.append(record)
    return out

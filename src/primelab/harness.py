"""Experiment orchestration: budget benchmarks, bias audits, censuses.

Benchmarks aggregate per-run Telemetry over many trials with per-trial
seeds derived from a master seed (``rng.split_seed``), so reports are
byte-for-byte reproducible.  Reports serialize to JSON (schema_version on
every record) or CSV with a fixed, documented column order.
"""

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    NonTerminationError,
    PrimelabError,
)
from .exactdist import (
    class_census,
    class_profile,
    exact_dist_primeinc,
    primes_upto,
)
from .generators import (
    Algorithm,
    GenConfig,
    ModulusMode,
    UnitMethod,
    derived_Q,
    generate,
    select_modulus,
)
from .metrics import DistMetrics, FiniteDist, metrics_of
from .ntheory import (
    EXACT,
    Exact,
    MillerRabin,
    PrimeTable,
    sieve,
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


def predictions_for(cfg: GenConfig):
    """(predicted_iterations, predicted_bits, epsilon_effective) for cfg."""
    x = cfg.x
    lnx = math.log(x)
    algo = cfg.algorithm
    if algo is Algorithm.TRIVIAL:
        return lnx, lnx * lnx / LN2, 1.0
    if algo is Algorithm.PRIMEINC:
        return None, None, None
    if algo in (Algorithm.BASIC, Algorithm.ERH_FALLBACK):
        mod = select_modulus(x, cfg.epsilon, cfg.modulus_mode, cfg.q)
        ratio = mod.phi / mod.q
        eps_eff = math.log(x / mod.q) / lnx
        pred_iter = ratio * lnx
        return pred_iter, pred_iter * math.log2(x / mod.q), eps_eff
    # random-modulus variants: average phi(q)/q over the actual q-range
    Q = derived_Q(x, cfg.A)
    phi = totient_sieve(Q)
    qs = np.arange(Q // 2 + 1, Q + 1)
    mean_ratio = float(np.mean(phi[qs] / qs))
    pred_iter = mean_ratio * lnx
    return pred_iter, pred_iter * (cfg.A * math.log(lnx) / LN2), None


def benchmark(
    cfg: GenConfig,
    trials: int,
    with_metrics: bool = False,
    table: PrimeTable | None = None,
) -> RunReport:
    """Run the configured generator `trials` times and aggregate telemetry.

    Trial i uses an independent bit source seeded with
    split_seed(cfg.seed, i); aggregation folds in trial order.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
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
        space = _prime_count(cfg, table)
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


def _prime_count(cfg: GenConfig, table: PrimeTable | None) -> int:
    if table is None and isinstance(cfg.primality, Exact):
        table = cfg.primality.table
    if table is not None and table.bound >= cfg.x:
        return table.count_leq(cfg.x)
    return sieve(cfg.x).prime_count()


def sample_distribution(
    cfg: GenConfig,
    runs: int,
    table: PrimeTable | None = None,
    retry_nontermination: bool = False,
):
    """Empirical output distribution over `runs` runs on a single stream.

    Uses one bit source seeded from the master seed (cheaper than per-run
    sources; still fully reproducible).  Returns (FiniteDist, counts).

    With retry_nontermination, a run that exceeds its iteration cap (an
    empty residue class under a no-fallback algorithm) is redrawn; this
    samples the distribution conditioned on termination, which is what the
    no-fallback closed form describes.  Pair it with a small
    cfg.max_iterations so dead runs are cheap.
    """
    if runs < 1:
        raise DomainError(f"runs must be >= 1, got {runs}")
    src = CountingBitSource(cfg.seed)
    counts: Counter = Counter()
    for _ in range(runs):
        while True:
            try:
                p, _tel = generate(cfg, src)
                break
            except NonTerminationError:
                if not retry_nontermination:
                    raise
        counts[p] += 1
    space = _prime_count(cfg, table)
    return FiniteDist.from_counts(counts, runs, space), counts


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
    if x < 100:
        raise DomainError(f"gap census needs x >= 100, got {x}")
    lambdas = list(lambdas)
    bad = [lam for lam in lambdas if not (0 <= lam < math.inf)]
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
    if table is None:
        table = sieve(x)
    dist = exact_dist_primeinc(x, table)
    delta1 = metrics_of(dist).delta1
    lnx = math.log(x)
    primes_x = primes_upto(x, table)
    pi_x = len(primes_x)
    F = int(np.count_nonzero(np.diff(primes_x) <= 2 * lnx))
    bound_small = lnx / x * F
    bound_large = lnx / x * (pi_x - 1 - F)

    prime_set = set(primes_x.tolist())
    twins = [p for p in prime_set if p >= 5 and (p - 2) in prime_set]
    pmax = int(primes_x[-1])
    twin_uniform = len(twins) / pi_x
    twin_exact = 2 * len(twins) / pmax

    cfg = GenConfig(
        x=x, algorithm=Algorithm.PRIMEINC, seed=seed, primality=Exact(table)
    )
    src = CountingBitSource(cfg.seed)
    twin_set = set(twins)
    hits = 0
    for _ in range(trials):
        p, _tel = generate(cfg, src)
        hits += p in twin_set
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
    units exceeding the default threshold sqrt(pi(x)/phi(q)).  Range mode:
    the exact double sum of E^2 over (Q/2, Q], reported against the
    dimensionless scale x*Q/ln Q.
    """
    if (q is None) == (A is None):
        raise ConfigError("provide exactly one of q or A")
    if table is None:
        table = sieve(x)
    primes_x = primes_upto(x, table)
    pi_x = len(primes_x)

    if q is not None:
        profile = class_profile(x, q, table)
        errors = profile.error_terms
        threshold = math.sqrt(pi_x / len(errors))
        exceeding = sum(1 for e in errors.values() if e > threshold)
        return FixedModulusErrorProfile(
            x=x,
            q=q,
            error_terms=errors,
            max_error=max(errors.values()),
            mean_error=sum(errors.values()) / len(errors),
            threshold=threshold,
            fraction_exceeding=exceeding / len(errors),
        )

    Q = derived_Q(x, A)
    census = class_census(x, range(Q // 2 + 1, Q + 1), primes_x,
                          with_hits=False)
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


# ---------------------------------------------------------------------------
# serialization

def _encode_value(v):
    if isinstance(v, Fraction):
        return {"fraction": f"{v.numerator}/{v.denominator}"}
    if isinstance(v, (Algorithm, ModulusMode, UnitMethod)):
        return v.value
    return v


def _decode_value(v):
    if isinstance(v, dict) and set(v) == {"fraction"}:
        return Fraction(v["fraction"])
    return v


def config_to_dict(cfg: GenConfig) -> dict:
    policy = cfg.primality
    if isinstance(policy, Exact):
        pol = {
            "type": "exact",
            "table_bound": policy.table.bound if policy.table else None,
        }
    elif isinstance(policy, MillerRabin):
        pol = {"type": "miller_rabin", "rounds": policy.rounds,
               "seed": policy.seed}
    else:
        raise DomainError(f"cannot serialize policy {policy!r}")
    return {
        "x": cfg.x,
        "algorithm": cfg.algorithm.value,
        "epsilon": cfg.epsilon,
        "modulus_mode": cfg.modulus_mode.value,
        "q": cfg.q,
        "A": cfg.A,
        "T_override": cfg.T_override,
        "seed": cfg.seed,
        "primality": pol,
        "unit_method": cfg.unit_method.value,
        "max_iterations": cfg.max_iterations,
    }


def config_from_dict(d: dict) -> GenConfig:
    """Rebuild a GenConfig; exact-policy prime tables are not embedded in
    reports, so they come back as Exact(table=None)."""
    pol = d["primality"]
    if pol["type"] == "exact":
        policy = EXACT
    elif pol["type"] == "miller_rabin":
        policy = MillerRabin(rounds=pol["rounds"], seed=pol["seed"])
    else:
        raise DomainError(f"unknown policy type {pol['type']!r}")
    return GenConfig(
        x=d["x"],
        algorithm=Algorithm(d["algorithm"]),
        epsilon=d["epsilon"],
        modulus_mode=ModulusMode(d["modulus_mode"]),
        q=d["q"],
        A=d["A"],
        T_override=d["T_override"],
        seed=d["seed"],
        primality=policy,
        unit_method=UnitMethod(d["unit_method"]),
        max_iterations=d["max_iterations"],
    )


def _metrics_to_dict(m: DistMetrics) -> dict:
    return {
        "delta1": _encode_value(m.delta1),
        "delta2_sq": _encode_value(m.delta2_sq),
        "beta": _encode_value(m.beta),
        "gamma": _encode_value(m.gamma),
        "h2_bits": m.h2_bits,
        "hmin_bits": m.hmin_bits,
    }


def _metrics_from_dict(d: dict) -> DistMetrics:
    return DistMetrics(
        delta1=_decode_value(d["delta1"]),
        delta2_sq=_decode_value(d["delta2_sq"]),
        beta=_decode_value(d["beta"]),
        gamma=_decode_value(d["gamma"]),
        h2_bits=d["h2_bits"],
        hmin_bits=d["hmin_bits"],
    )


def report_to_dict(report: RunReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run_report",
        "config": config_to_dict(report.config),
        "trials": report.trials,
        "mean_iterations": report.mean_iterations,
        "mean_bits": report.mean_bits,
        "mean_loop_bits": report.mean_loop_bits,
        "mean_selection_bits": report.mean_selection_bits,
        "mean_primality_tests": report.mean_primality_tests,
        "fallback_rate": report.fallback_rate,
        "predicted_iterations": report.predicted_iterations,
        "predicted_bits": report.predicted_bits,
        "epsilon_effective": report.epsilon_effective,
        "metrics": _metrics_to_dict(report.metrics) if report.metrics else None,
    }


def report_from_dict(d: dict) -> RunReport:
    if d.get("kind") != "run_report":
        raise DomainError(f"not a run report: kind={d.get('kind')!r}")
    return RunReport(
        config=config_from_dict(d["config"]),
        trials=d["trials"],
        mean_iterations=d["mean_iterations"],
        mean_bits=d["mean_bits"],
        mean_loop_bits=d["mean_loop_bits"],
        mean_selection_bits=d["mean_selection_bits"],
        mean_primality_tests=d["mean_primality_tests"],
        fallback_rate=d["fallback_rate"],
        predicted_iterations=d["predicted_iterations"],
        predicted_bits=d["predicted_bits"],
        epsilon_effective=d["epsilon_effective"],
        metrics=_metrics_from_dict(d["metrics"]) if d["metrics"] else None,
    )


def dist_to_dict(dist: FiniteDist) -> dict:
    rows = [
        [int(p), _encode_value(m)] for p, m in sorted(dist.mass.items())
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "distribution",
        "space_size": dist.space_size,
        "mass": rows,
        "meta": {k: _encode_value(v) for k, v in sorted(dist.meta.items())},
    }


def census_to_dict(census: GapCensus) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "gap_census",
        "x": census.x,
        "lambdas": census.lambdas,
        "F_values": {str(k): v for k, v in census.F_values.items()},
        "normalized": {str(k): v for k, v in census.normalized.items()},
        "prime_fraction": {
            str(k): v for k, v in census.prime_fraction.items()
        },
        "reference": {str(k): v for k, v in census.reference.items()},
    }


def audit_to_dict(audit: PrimeincAudit) -> dict:
    d = {
        "schema_version": SCHEMA_VERSION,
        "kind": "primeinc_audit",
    }
    for field_name in (
        "x", "trials", "gap_count", "bound_gap_large",
        "bound_gap_large_holds", "bound_gap_small", "bound_gap_small_holds",
        "twin_uniform_fraction", "twin_exact_output_fraction",
        "twin_empirical_fraction", "twin_ratio",
    ):
        d[field_name] = getattr(audit, field_name)
    d["delta1"] = _encode_value(audit.delta1)
    return d


def profile_to_dict(profile) -> dict:
    if isinstance(profile, FixedModulusErrorProfile):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "error_profile_fixed",
            "x": profile.x,
            "q": profile.q,
            "error_terms": {str(a): e for a, e in sorted(profile.error_terms.items())},
            "max_error": profile.max_error,
            "mean_error": profile.mean_error,
            "threshold": profile.threshold,
            "fraction_exceeding": profile.fraction_exceeding,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "error_profile_range",
        "x": profile.x,
        "A": profile.A,
        "Q": profile.Q,
        "sum_sq_error": profile.sum_sq_error,
        "scale": profile.scale,
        "ratio": profile.ratio,
    }


def to_jsonable(obj):
    if isinstance(obj, RunReport):
        return report_to_dict(obj)
    if isinstance(obj, FiniteDist):
        return dist_to_dict(obj)
    if isinstance(obj, GapCensus):
        return census_to_dict(obj)
    if isinstance(obj, PrimeincAudit):
        return audit_to_dict(obj)
    if isinstance(obj, (FixedModulusErrorProfile, RangeErrorProfile)):
        return profile_to_dict(obj)
    if isinstance(obj, dict):
        return obj
    raise DomainError(f"cannot serialize {type(obj).__name__}")


def _reports_to_csv(items: list) -> str:
    buf = io.StringIO()
    if items and isinstance(items[0], FiniteDist):
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["prime", "mass"])
        for dist in items:
            for p, m in sorted(dist.mass.items()):
                writer.writerow([p, repr(float(m))])
        return buf.getvalue()
    if items and isinstance(items[0], GapCensus):
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["x", "lambda", "F", "normalized",
                        "prime_fraction", "reference"])
        for c in items:
            for lam in c.lambdas:
                writer.writerow([
                    c.x, lam, c.F_values[lam], repr(c.normalized[lam]),
                    repr(c.prime_fraction[lam]), repr(c.reference[lam]),
                ])
        return buf.getvalue()
    writer = csv.DictWriter(
        buf, fieldnames=REPORT_CSV_COLUMNS, lineterminator="\n"
    )
    writer.writeheader()
    for report in items:
        if not isinstance(report, RunReport):
            raise DomainError(
                f"CSV output for {type(report).__name__} is not defined"
            )
        cfg = report.config
        writer.writerow({
            "algorithm": cfg.algorithm.value,
            "x": cfg.x,
            "trials": report.trials,
            "seed": cfg.seed,
            "mean_iterations": repr(report.mean_iterations),
            "mean_bits": repr(report.mean_bits),
            "mean_loop_bits": repr(report.mean_loop_bits),
            "mean_selection_bits": repr(report.mean_selection_bits),
            "mean_primality_tests": repr(report.mean_primality_tests),
            "fallback_rate": repr(report.fallback_rate),
            "predicted_iterations": repr(report.predicted_iterations),
            "predicted_bits": repr(report.predicted_bits),
            "epsilon_effective": repr(report.epsilon_effective),
        })
    return buf.getvalue()


def report_emit(reports: list, format: str = "json",
                out: str | None = None) -> str:
    """Serialize reports/distributions/censuses; optionally write a file.

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
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise PrimelabError(f"cannot write report to {out}: {exc}") from exc
    return payload


def parse_reports(text: str) -> list:
    """Parse a JSON report array back into objects (run reports only;
    other record kinds are returned as dicts)."""
    records = json.loads(text)
    out = []
    for record in records:
        if isinstance(record, dict) and record.get("kind") == "run_report":
            out.append(report_from_dict(record))
        else:
            out.append(record)
    return out

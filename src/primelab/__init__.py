"""primelab: prime generators with exact output-distribution auditing.

The lab couples six prime generators (uniform rejection, upward scan, and
four residue-class variants with decreasing assumptions) with closed-form
output distributions, regularity metrics (statistical distance, collision
and min entropy), and exact accounting of consumed random bits.
"""

from .errors import (
    BrokenBitSourceError,
    ConfigError,
    DomainError,
    NonTerminationError,
    PrimelabError,
    ResourceLimitError,
)
from .exactdist import (
    error_term_profile,
    exact_dist_basic,
    exact_dist_erh_fallback,
    exact_dist_primeinc,
    exact_dist_trivial,
    exact_dist_uncond,
    exact_dist_uncond_nofallback,
)
from .generators import (
    Algorithm,
    GenConfig,
    ModulusMode,
    Telemetry,
    UnitMethod,
    default_T,
    derived_Q,
    generate,
    sample_unit,
    select_modulus,
)
from .harness import (
    GapCensus,
    PrimeincAudit,
    RunReport,
    benchmark,
    gap_census,
    parse_reports,
    primeinc_audit,
    report_emit,
    sample_distribution,
)
from .metrics import DistMetrics, FiniteDist, metrics_of, tv_between
from .ntheory import (
    EXACT,
    Exact,
    MillerRabin,
    Modulus,
    PrimalityPolicy,
    PrimeTable,
    count_ap_primes,
    is_prime,
    primorial_below,
    residue_class_primes,
    sieve,
    totient_partial_sum,
)
from .rng import CountingBitSource, split_seed

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "BrokenBitSourceError",
    "ConfigError",
    "CountingBitSource",
    "DistMetrics",
    "DomainError",
    "EXACT",
    "Exact",
    "FiniteDist",
    "GapCensus",
    "GenConfig",
    "MillerRabin",
    "Modulus",
    "ModulusMode",
    "NonTerminationError",
    "PrimalityPolicy",
    "PrimeTable",
    "PrimeincAudit",
    "PrimelabError",
    "ResourceLimitError",
    "RunReport",
    "Telemetry",
    "UnitMethod",
    "benchmark",
    "count_ap_primes",
    "default_T",
    "derived_Q",
    "error_term_profile",
    "exact_dist_basic",
    "exact_dist_erh_fallback",
    "exact_dist_primeinc",
    "exact_dist_trivial",
    "exact_dist_uncond",
    "exact_dist_uncond_nofallback",
    "gap_census",
    "generate",
    "is_prime",
    "metrics_of",
    "parse_reports",
    "primeinc_audit",
    "primorial_below",
    "report_emit",
    "residue_class_primes",
    "sample_distribution",
    "sample_unit",
    "select_modulus",
    "sieve",
    "split_seed",
    "totient_partial_sum",
    "tv_between",
]

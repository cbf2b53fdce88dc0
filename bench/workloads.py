"""The four benchmark workloads.

Every call into primelab goes through a module attribute looked up at call
time (`harness.benchmark`, `exactdist.exact_dist_basic`, ...), so the
patches of a traced run apply.  The workload seed only chooses inputs, the
generator seed of each config in each pass; primelab receives nothing but
the generated configs.
"""

import hashlib
import random
import time
from dataclasses import dataclass, field, replace

from primelab import exactdist, harness, metrics, ntheory
from primelab.errors import PrimelabError
from primelab.generators import Algorithm, GenConfig, ModulusMode, default_T

import checks

ALGORITHMS = tuple(a.value for a in Algorithm)

# Calls whose successful return yields `runs` primes (runs_per_s).
GENERATING_CALLS = ("benchmark", "sample_distribution")


def derive_seed(*parts):
    """63-bit input seed from the workload seed and a pass/config tag."""
    return random.Random(":".join(map(str, parts))).getrandbits(63)


@dataclass
class CallRecord:
    algo: str | None
    label: str
    seconds: float
    runs: int
    error: str | None


# Iterations of the reference loop, about 2 ms of pure Python, and the
# loop's fastest time on a 2-vCPU Intel Xeon VM under Python 3.11: the
# nominal speed that `setup_s` is expressed at.
REFERENCE_ITERATIONS = 25_000
REFERENCE_SECONDS = 0.0016


def reference_loop():
    """Fixed pure-Python work, timed before every call and every batch of
    set-ups.  On a shared machine the speed of a core changes by up to 2x
    for tens of seconds at a time; the time of this loop tracks that
    speed, and times divided by it mostly do not."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


def timed_reference():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


@dataclass
class Pass:
    """One pass of a workload: its timed calls and what they produced."""

    calls: list = field(default_factory=list)
    refs: list = field(default_factory=list)  # reference-loop seconds
    problems: list = field(default_factory=list)
    bits: int = 0         # generation-source bits of the returned primes
    primes: int = 0
    info: dict = field(default_factory=dict)

    def call(self, algo, fn, *args, runs=0, **kwargs):
        """Time the reference loop, then fn(*args); a PrimelabError is
        recorded and returns None."""
        self.refs.append(timed_reference())
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except PrimelabError as exc:
            self.calls.append(CallRecord(algo, fn.__name__,
                                         time.perf_counter() - start, 0,
                                         f"{type(exc).__name__}: {exc}"))
            return None
        self.calls.append(CallRecord(algo, fn.__name__,
                                     time.perf_counter() - start, runs, None))
        return out

    @property
    def ref(self):
        """Mean reference-loop time of the pass, in seconds."""
        return sum(self.refs) / len(self.refs)

    @property
    def wall(self):
        return sum(c.seconds for c in self.calls)

    def algo_seconds(self, algo, labels=None):
        return sum(c.seconds for c in self.calls if c.algo == algo
                   and (labels is None or c.label in labels))

    def algo_runs(self, algo):
        return sum(c.runs for c in self.calls if c.algo == algo)


class MonteCarlo:
    """`harness.benchmark(cfg, trials)` for each of the six algorithms,
    then one `report_emit` of the six reports, as `primelab bench` does."""

    def __init__(self, name, x, table_bound, trials, why):
        self.name, self.x, self.table_bound = name, x, table_bound
        self.trials, self.why = trials, why

    def setup(self):
        if self.table_bound:
            policy = ntheory.Exact(ntheory.sieve(self.table_bound))
        else:
            policy = ntheory.Exact()
        x = self.x
        return [
            GenConfig(x=x, algorithm=Algorithm.TRIVIAL, primality=policy),
            GenConfig(x=x, algorithm=Algorithm.PRIMEINC, primality=policy),
            GenConfig(x=x, algorithm=Algorithm.BASIC, epsilon=0.3,
                      primality=policy),
            GenConfig(x=x, algorithm=Algorithm.ERH_FALLBACK, epsilon=0.3,
                      primality=policy),
            GenConfig(x=x, algorithm=Algorithm.UNCOND, A=2.0,
                      primality=policy),
            GenConfig(x=x, algorithm=Algorithm.UNCOND_NOFALLBACK, A=2.0,
                      primality=policy),
        ]

    def run_pass(self, configs, seed, index, p):
        reports = []
        for cfg in configs:
            algo = cfg.algorithm.value
            cfg = replace(cfg, seed=derive_seed(self.name, seed, index, algo))
            report = p.call(algo, harness.benchmark, cfg, self.trials,
                            runs=self.trials)
            if report is None:
                continue
            reports.append(report)
            p.problems += checks.report_problems(report)
            p.bits += round(report.mean_bits * report.trials)
            p.primes += report.trials
        emitted = p.call(None, harness.report_emit, reports)
        if emitted is not None:
            # For information only: a new stream design may change it.
            p.info["report_sha256"] = hashlib.sha256(
                emitted.encode()).hexdigest()


@dataclass(frozen=True)
class OracleCase:
    algo: str
    x: int
    config: dict
    oracle: str          # exactdist function name
    oracle_args: tuple   # after x, before the table
    retry: bool = False


class Oracle:
    """`harness.sample_distribution` on one stream per config, then the
    exact law and `metrics.tv_between`, with a chi-square check of the
    sample against the law."""

    name = "oracle"
    runs = 10_000
    cases = (
        OracleCase("trivial", 1000, {}, "exact_dist_trivial", ()),
        OracleCase("primeinc", 1000, {}, "exact_dist_primeinc", ()),
        # acceptance criterion 2
        OracleCase("basic", 1000,
                   {"q": 30, "modulus_mode": ModulusMode.EXPLICIT},
                   "exact_dist_basic", (30,)),
        # T = 4 so that the fallback part of the mixture is sampled
        OracleCase("erh_fallback", 1000,
                   {"q": 30, "modulus_mode": ModulusMode.EXPLICIT,
                    "T_override": 4},
                   "exact_dist_erh_fallback", (30, 4)),
        OracleCase("uncond", 200, {"A": 1.0}, "exact_dist_uncond",
                   (1.0, default_T(200))),
        # acceptance criterion 6: empty classes run to the 500 cap, retried
        OracleCase("uncond_nofallback", 200,
                   {"A": 1.0, "max_iterations": 500},
                   "exact_dist_uncond_nofallback", (1.0,), retry=True),
    )
    why = ("one bit source per call, so the residue loop and uniform_below "
           "dominate; empty classes run to the iteration cap")

    def setup(self):
        tables = {x: ntheory.sieve(x) for x in {c.x for c in self.cases}}
        return [(case, tables[case.x], GenConfig(
            x=case.x, algorithm=Algorithm(case.algo),
            primality=ntheory.Exact(tables[case.x]), **case.config))
            for case in self.cases]

    def run_pass(self, state, seed, index, p):
        for case, table, cfg in state:
            cfg = replace(cfg, seed=derive_seed(self.name, seed, index,
                                                case.algo))
            sampled = p.call(case.algo, harness.sample_distribution, cfg,
                             self.runs, table,
                             retry_nontermination=case.retry, runs=self.runs)
            if sampled is None:
                continue
            empirical, counts = sampled
            law = p.call(case.algo, getattr(exactdist, case.oracle), case.x,
                         *case.oracle_args, table)
            if law is None:
                continue
            tv = p.call(case.algo, metrics.tv_between, empirical, law)
            _, problems = checks.goodness_of_fit(counts, law.mass, self.runs)
            p.problems += [f"{case.algo}: {msg}" for msg in problems]
            if tv is not None:
                p.info[f"tv.{case.algo}"] = float(tv)


@dataclass(frozen=True)
class ExactCase:
    algo: str
    fn: str
    kwargs: tuple  # (name, value) pairs, before the table

    @property
    def label(self):
        args = ",".join(f"{k}={v}" for k, v in self.kwargs)
        return f"{self.fn}({args})"


# sha256 of dist_to_dict output (without schema_version) per closed form;
# exact masses must stay identical, so any change here is a defect.
EXACT_DIGESTS = {
    "exact_dist_uncond(x=2000,A=1.0,T=58)":
        "5cf3488712ccfb59b1d493414ce05a4415784aae042f686f913ff8f77ac219e0",
    "exact_dist_uncond_nofallback(x=2000,A=1.0)":
        "722379b9fdf7d2bed58f01ebc108ed88b444f507854039b152af79914e9d9f79",
    "exact_dist_uncond_nofallback(x=2000,A=3.0)":
        "1f0f269325df5f3b28847a82812e3e2fe6b9d383af0020561334e092d8480ff9",
    "exact_dist_basic(x=20000,q=2310)":
        "fd573274a8354aa0f67e16764a73887947bea1510e82da258297e97926bb2951",
    "exact_dist_erh_fallback(x=20000,q=2310,T=99)":
        "c538d2ad01339ccb9712290fc9c0f66156fbbe814d7e03966cfef9a1d9826ec8",
    "exact_dist_primeinc(x=100000)":
        "5bb8b7c25059e155edd5f3dcd360ea7c138c77ce650f3521579483a719f80305",
    "exact_dist_trivial(x=20000)":
        "b76aed09c3039216eeb58ba959b5cc6e713744f0e1237368bf7a722c0ea04933",
}


class ExactSweep:
    """Closed forms each followed by `metrics_of`: the work of
    `primelab exact-dist`.  No generator code runs, and the inputs are
    fixed (the digests pin them), so the seed changes nothing here.

    Sizes keep a pass near 1 s, so a run holds many passes: in uncond
    the exactdist class loop takes over 90 % of the call, in erh_fallback
    and primeinc metrics_of takes 75-80 %.
    """

    name = "exact_sweep"
    cases = (
        ExactCase("uncond", "exact_dist_uncond",
                  (("x", 2000), ("A", 1.0), ("T", default_T(2000)))),
        ExactCase("uncond_nofallback", "exact_dist_uncond_nofallback",
                  (("x", 2000), ("A", 1.0))),
        ExactCase("uncond_nofallback", "exact_dist_uncond_nofallback",
                  (("x", 2000), ("A", 3.0))),
        ExactCase("basic", "exact_dist_basic", (("x", 20_000), ("q", 2310))),
        ExactCase("erh_fallback", "exact_dist_erh_fallback",
                  (("x", 20_000), ("q", 2310), ("T", default_T(20_000)))),
        ExactCase("primeinc", "exact_dist_primeinc", (("x", 100_000),)),
        ExactCase("trivial", "exact_dist_trivial", (("x", 20_000),)),
    )
    why = ("the exactdist class loop dominates uncond and metrics_of "
           "dominates erh_fallback and primeinc")

    def setup(self):
        return ntheory.sieve(max(dict(c.kwargs)["x"] for c in self.cases))

    def run_pass(self, table, seed, index, p):
        for case in self.cases:
            dist = p.call(case.algo, getattr(exactdist, case.fn),
                          **dict(case.kwargs), table=table)
            if dist is None:
                continue
            p.call(case.algo, metrics.metrics_of, dist)
            digest = checks.dist_digest(harness.dist_to_dict(dist))
            p.info[f"digest.{case.label}"] = digest
            pinned = EXACT_DIGESTS.get(case.label)
            if digest != pinned:
                p.problems.append(f"{case.label}: digest {digest} != "
                                  f"pinned {pinned}")


WORKLOADS = {
    "mc_table": MonteCarlo(
        "mc_table", x=10**8, table_bound=10**8, trials=2000,
        why="a bit lookup in a 12.5 MB table is the test, so per-run "
            "overhead dominates: source, modulus, tester, predictions_for"),
    "mc_witness": MonteCarlo(
        "mc_witness", x=10**18, table_bound=None, trials=300,
        why="fixed-witness Miller-Rabin dominates; uncond* fail in "
            "predictions_for (totient bound over its cap)"),
    "oracle": Oracle(),
    "exact_sweep": ExactSweep(),
}

"""Span tracing for the benchmark's traced runs.

`instrument` wraps primelab's public functions at run time, on every
module and class object that holds them, so that each call into a layer
opens a span.  Spans nest: a span's self time is its duration minus the
durations of the spans opened inside it.  The hot layers (`rng`,
`ntheory` primality tests) open millions of spans per run, so finished
spans are folded at once into per-name duration and self-time arrays and
into (parent, child) call-edge counts instead of being kept one by one.

Nothing here runs in an untraced run: the patches exist only inside the
`instrument` context and are undone when it exits.
"""

import functools
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

from primelab.generators import Algorithm

# Percentiles tried for a tail figure, highest first; see tail_percentile.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10

ALGORITHMS = tuple(a.value for a in Algorithm)


def _rank(n, pct):
    """Nearest rank (1-based) of percentile pct among n values."""
    return max(1, -(-n * round(pct * 10) // 1000))


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    return sorted_values[_rank(len(sorted_values), pct) - 1]


def tail_percentile(values):
    """(pct, value, n) for the highest percentile of TAIL_LADDER with at
    least MIN_BEYOND of the n samples above its rank, or None when even
    the median has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n - _rank(n, pct) >= MIN_BEYOND:
            return pct, percentile(ordered, pct), n
    return None


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Tracer:
    """Nested span recorder with online self-time accounting (ns)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self._open = []  # frames: [name, start_ns, child_ns]
        self.durations = defaultdict(lambda: array("q"))
        self.self_times = defaultdict(lambda: array("q"))
        self.edges = Counter()  # (parent name or None, child name) -> spans
        self.counts = Counter()  # layer counters, e.g. telemetry sums

    def begin(self, name):
        self._open.append([name, self.clock(), 0])

    def end(self):
        name, start, child = self._open.pop()
        duration = self.clock() - start
        self.durations[name].append(duration)
        self.self_times[name].append(duration - child)
        if self._open:
            parent = self._open[-1]
            parent[2] += duration
            self.edges[(parent[0], name)] += 1
        else:
            self.edges[(None, name)] += 1

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def _values(self, name, self_time):
        return (self.self_times if self_time else self.durations).get(name)

    def median_ns(self, name, self_time=False):
        """Median duration (or self time) of the spans called `name`; 0
        when the layer never ran."""
        values = self._values(name, self_time)
        return median(values) if values else 0

    def mean_ns(self, name, self_time=False):
        """Mean duration (or self time) of the spans called `name`; 0
        when the layer never ran."""
        values = self._values(name, self_time)
        return sum(values) / len(values) if values else 0

    def summary(self):
        """Per span name: count, median and tail duration, median self
        time, and callers, for the detail output."""
        out = {}
        for name in sorted(self.durations):
            tail = tail_percentile(self.durations[name])
            out[name] = {
                "n": len(self.durations[name]),
                "total_s": sum(self.durations[name]) / 1e9,
                "p50_us": self.median_ns(name) / 1e3,
                "tail": None if tail is None else
                {"pct": tail[0], "us": tail[1] / 1e3, "n": tail[2]},
                "self_p50_us": self.median_ns(name, self_time=True) / 1e3,
                "callers": {str(p): c for (p, child), c in
                            sorted(self.edges.items(), key=str)
                            if child == name},
            }
        return out


def traced(tracer, name, fn):
    """fn wrapped in a span called `name`."""
    begin, end = tracer.begin, tracer.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            end()
    return wrapper


class _Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self, modules):
        self.modules = modules
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, fn, wrapper):
        """Point every module attribute bound to fn at wrapper."""
        hits = 0
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)
                    hits += 1
        if not hits:
            raise LookupError(f"{fn.__qualname__} is bound in no module")

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@contextmanager
def instrument(tracer):
    """Trace primelab's public functions for the duration of the block."""
    import primelab
    from primelab import (
        cli, exactdist, generators, harness, metrics, ntheory, rng,
    )
    from primelab.errors import NonTerminationError

    patcher = _Patcher([primelab, cli, exactdist, generators, harness,
                        metrics, ntheory, rng])
    counts = tracer.counts
    try:
        # rng: bit-source construction and bounded draws
        source = rng.CountingBitSource
        patcher.set(source, "__init__",
                    traced(tracer, "rng.source_new", source.__init__))
        uniform_below = source.uniform_below

        @functools.wraps(uniform_below)
        def traced_uniform_below(src, m):
            draws = src.draws
            tracer.begin("rng.uniform_below")
            try:
                return uniform_below(src, m)
            finally:
                tracer.end()
                counts["rng.draws"] += src.draws - draws
        patcher.set(source, "uniform_below", traced_uniform_below)

        # generators: one run, its selection steps and its telemetry
        generate = generators.generate

        @functools.wraps(generate)
        def traced_generate(*args, **kwargs):
            tracer.begin("generators.generate")
            try:
                p, tel = generate(*args, **kwargs)
            except NonTerminationError:
                counts["generators.capped"] += 1
                raise
            finally:
                tracer.end()
            counts["generators.runs"] += 1
            counts["generators.iterations"] += tel.loop_iterations
            counts["generators.tests"] += tel.primality_tests
            counts["generators.selection_bits"] += tel.selection_bits
            counts["generators.loop_bits"] += tel.loop_bits
            counts["generators.fallbacks"] += tel.fallback_entered
            return p, tel
        patcher.function(generate, traced_generate)

        for fn in (generators.select_modulus, generators.sample_unit):
            patcher.function(fn, traced(
                tracer, f"generators.{fn.__name__}", fn))

        primality_tester = generators.primality_tester

        @functools.wraps(primality_tester)
        def traced_primality_tester(*args, **kwargs):
            with tracer.span("generators.primality_tester"):
                test = primality_tester(*args, **kwargs)

            def traced_test(p):
                tracer.begin("ntheory.test")
                try:
                    verdict = test(p)
                finally:
                    tracer.end()
                counts["ntheory.tests"] += 1
                counts["ntheory.primes"] += verdict
                return verdict
            return traced_test
        patcher.function(primality_tester, traced_primality_tester)

        # ntheory
        for fn in (ntheory.sieve, ntheory.totient_sieve,
                   ntheory.primorial_below):
            patcher.function(fn, traced(tracer, f"ntheory.{fn.__name__}", fn))
        from_int = ntheory.Modulus.__dict__["from_int"].__func__
        patcher.set(ntheory.Modulus, "from_int", classmethod(
            traced(tracer, "ntheory.modulus_from_int", from_int)))

        # harness
        for fn in (harness.benchmark, harness.sample_distribution,
                   harness.predictions_for, harness.report_emit):
            patcher.function(fn, traced(tracer, f"harness.{fn.__name__}", fn))

        # exactdist: closed forms, counting the unit classes they sweep
        for algo in ALGORITHMS:
            fn = getattr(exactdist, f"exact_dist_{algo}")
            inner = traced(tracer, f"exactdist.exact_dist_{algo}", fn)

            @functools.wraps(fn)
            def traced_exact(*args, _inner=inner, **kwargs):
                dist = _inner(*args, **kwargs)
                classes = dist.meta.get("F", dist.meta.get("F_star"))
                if classes is not None:
                    counts["exactdist.unit_classes"] += classes
                return dist
            patcher.function(fn, traced_exact)

        # metrics
        metrics_of = metrics.metrics_of
        inner_metrics_of = traced(tracer, "metrics.metrics_of", metrics_of)

        @functools.wraps(metrics_of)
        def traced_metrics_of(dist):
            bits = max((getattr(v, "denominator", 1).bit_length()
                        for v in dist.mass.values()), default=0)
            counts["metrics.mass_denominator_bits"] = max(
                counts["metrics.mass_denominator_bits"], bits)
            return inner_metrics_of(dist)
        patcher.function(metrics_of, traced_metrics_of)
        patcher.function(metrics.tv_between, traced(
            tracer, "metrics.tv_between", metrics.tv_between))
        from_counts = metrics.FiniteDist.__dict__["from_counts"].__func__
        patcher.set(metrics.FiniteDist, "from_counts", classmethod(
            traced(tracer, "metrics.from_counts", from_counts)))
        yield tracer
    finally:
        patcher.restore()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes):
    """Per-layer figures from a traced run of `passes` passes, as
    name -> (value, unit).

    `_us` timings are medians of the many short, alike calls of a hot
    layer; `_s` timings are means per call, because their calls differ in
    size (predictions_for sieves totients for uncond* only).  Counts are
    per generator run (successful `generate` calls) or per call.  A layer
    that never ran reports 0.
    """
    c = tracer.counts
    runs = c["generators.runs"]
    us = lambda name, self_time=False: (
        tracer.median_ns(name, self_time) / 1e3, "us")
    s = lambda name, self_time=False: (
        tracer.mean_ns(name, self_time) / 1e9, "s")
    draw_calls = len(tracer.durations.get("rng.uniform_below", ()))
    out = {
        "rng.source_new_us": us("rng.source_new"),
        "rng.uniform_below_us": us("rng.uniform_below"),
        "rng.uniform_below_calls_per_run": (_ratio(draw_calls, runs), "1/run"),
        "rng.draws_per_call": (_ratio(c["rng.draws"], draw_calls), "ratio"),
        "generators.generate_self_us": us("generators.generate", True),
        "generators.select_modulus_us": us("generators.select_modulus"),
        "generators.sample_unit_us": us("generators.sample_unit"),
        "generators.primality_tester_us": us("generators.primality_tester"),
        "generators.iterations_per_run":
            (_ratio(c["generators.iterations"], runs), "1/run"),
        "generators.tests_per_run":
            (_ratio(c["generators.tests"], runs), "1/run"),
        "generators.selection_bits_per_run":
            (_ratio(c["generators.selection_bits"], runs), "bits/run"),
        "generators.loop_bits_per_run":
            (_ratio(c["generators.loop_bits"], runs), "bits/run"),
        "generators.fallback_rate":
            (_ratio(c["generators.fallbacks"], runs), "ratio"),
        "generators.capped_retries":
            (_ratio(c["generators.capped"], runs), "1/run"),
        "ntheory.test_us": us("ntheory.test"),
        "ntheory.test_prime_ratio":
            (_ratio(c["ntheory.primes"], c["ntheory.tests"]), "ratio"),
        "ntheory.sieve_s": s("ntheory.sieve"),
        "ntheory.totient_sieve_s": s("ntheory.totient_sieve"),
        "ntheory.modulus_from_int_us": us("ntheory.modulus_from_int"),
        "ntheory.primorial_below_us": us("ntheory.primorial_below"),
        "harness.predictions_for_s": s("harness.predictions_for"),
        "harness.benchmark_self_s": s("harness.benchmark", True),
        "harness.sample_distribution_self_s":
            s("harness.sample_distribution", True),
        "harness.report_emit_s": s("harness.report_emit"),
    }
    for algo in ALGORITHMS:
        out[f"exactdist.exact_dist_{algo}_s"] = s(f"exactdist.exact_dist_{algo}")
    out["exactdist.unit_classes"] = (
        _ratio(c["exactdist.unit_classes"], passes), "count")
    out["metrics.metrics_of_s"] = s("metrics.metrics_of")
    out["metrics.mass_denominator_bits"] = (
        c["metrics.mass_denominator_bits"], "bits")
    out["metrics.tv_between_s"] = s("metrics.tv_between")
    out["metrics.from_counts_s"] = s("metrics.from_counts")
    return out

"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from primelab import harness  # noqa: E402
from primelab.errors import ResourceLimitError  # noqa: E402
from primelab.generators import Algorithm, GenConfig  # noqa: E402
from primelab.ntheory import Exact, sieve  # noqa: E402
from workloads import Pass  # noqa: E402


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    tracer = tracing.Tracer(clock=fake_clock(0, 10, 12, 40, 50, 55, 100))
    tracer.begin("outer")        # 0
    tracer.begin("child")        # 10
    tracer.begin("grandchild")   # 12
    tracer.end()                 # 40: grandchild 28
    tracer.end()                 # 50: child 40, self 12
    tracer.begin("child")        # 55
    tracer.end()                 # 100: child 45
    # the outer span is still open: nothing recorded for it yet
    assert "outer" not in tracer.durations
    tracer.clock = fake_clock(130)
    tracer.end()                 # 130: outer 130, self 130 - 40 - 45
    assert list(tracer.durations["grandchild"]) == [28]
    assert list(tracer.self_times["child"]) == [12, 45]
    assert list(tracer.durations["outer"]) == [130]
    assert list(tracer.self_times["outer"]) == [45]
    assert tracer.edges[("child", "grandchild")] == 1
    assert tracer.edges[("outer", "child")] == 2
    assert tracer.edges[(None, "outer")] == 1


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.tail_percentile(range(1, 1001)) == (99.0, 990, 1000)
    assert tracing.tail_percentile(range(1, 10001)) == (99.9, 9990, 10000)
    assert tracing.tail_percentile(range(1, 101)) == (90.0, 90, 100)
    assert tracing.tail_percentile(range(1, 21)) == (50.0, 10, 20)
    assert tracing.tail_percentile(range(1, 20)) is None


def test_median_and_percentile():
    assert tracing.median([3, 1, 2]) == 2
    assert tracing.median([4, 1, 3, 2]) == 2.5
    assert tracing.percentile([1, 2, 3, 4], 50) == 2
    with pytest.raises(ValueError):
        tracing.median([])


def test_failed_call_is_counted_and_the_pass_goes_on():
    def benchmark():
        raise ResourceLimitError("over the cap")

    p = Pass()
    assert p.call("uncond", benchmark, runs=5) is None
    assert p.call("basic", lambda: 7, runs=3) == 7
    assert [c.error for c in p.calls] == ["ResourceLimitError: over the cap",
                                         None]
    assert p.algo_runs("uncond") == 0 and p.algo_runs("basic") == 3

    passes = [p, Pass(calls=p.calls[1:], refs=p.refs[1:])]
    samples = run.pass_samples(object(), passes)
    # the failed call's runs count as zero, its time still counts
    assert samples["runs_per_s.uncond"] == ([0.0], "1/s")
    metrics = run.user_metrics(samples, passes, 1.0, 3)
    assert metrics["error_rate"][0] == 1 / 3
    assert run.failures(passes) == {
        "uncond.benchmark: ResourceLimitError: over the cap": 1}


def test_goodness_of_fit_accepts_the_law_and_rejects_another():
    law = {2: 0.5, 3: 0.25, 5: 0.25}
    _, problems = checks.goodness_of_fit({2: 5010, 3: 2490, 5: 2500}, law,
                                         10_000)
    assert problems == []
    _, problems = checks.goodness_of_fit({2: 3400, 3: 3300, 5: 3300}, law,
                                         10_000)
    assert problems and "chi-square" in problems[0]
    _, problems = checks.goodness_of_fit({2: 5000, 3: 2500, 4: 2500},
                                         {2: 0.5, 3: 0.5, 4: 0}, 10_000)
    assert "zero exact mass" in problems[0]


def test_goodness_of_fit_rejects_a_primeinc_sample_as_uniform():
    table = sieve(1000)
    cfg = GenConfig(x=1000, algorithm=Algorithm.PRIMEINC, seed=3,
                    primality=Exact(table))
    _, counts = harness.sample_distribution(cfg, 20_000, table)
    uniform = {int(p): 1 / 168 for p in table.primes}
    _, problems = checks.goodness_of_fit(counts, uniform, 20_000)
    assert problems


def test_report_problems_flag_inconsistent_fields():
    table = sieve(10_000)
    cfg = GenConfig(x=10_000, algorithm=Algorithm.BASIC, epsilon=0.3,
                    primality=Exact(table))
    report = harness.benchmark(cfg, 500)
    assert checks.report_problems(report) == []
    report.fallback_rate = 1.5
    report.mean_bits += 1
    report.mean_iterations = 2 * report.predicted_iterations
    problems = checks.report_problems(report)
    assert len(problems) == 3


def test_instrument_counts_runs_and_restores_the_package():
    original = harness.benchmark
    table = sieve(10_000)
    cfg = GenConfig(x=10_000, algorithm=Algorithm.UNCOND, A=1.0,
                    primality=Exact(table))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert harness.benchmark is not original
        report = harness.benchmark(cfg, 200)
    assert harness.benchmark is original
    c = tracer.counts
    assert c["generators.runs"] == 200
    assert c["generators.iterations"] == round(report.mean_iterations * 200)
    assert len(tracer.durations["rng.source_new"]) == 200
    assert tracer.edges[("harness.benchmark", "generators.generate")] == 200
    assert tracer.edges[("harness.predictions_for", "ntheory.totient_sieve")] == 1
    layers = tracing.layer_metrics(tracer, passes=1)
    assert layers["generators.iterations_per_run"][0] == pytest.approx(
        report.mean_iterations)
    assert layers["exactdist.exact_dist_basic_s"] == (0, "s")

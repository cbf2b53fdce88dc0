"""primelab benchmark: one workload, end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload mc_table --seed 1 --seconds 15 --trace 0

It imports primelab from ./src (no install step), times set-up, then
runs passes of the workload until --seconds have elapsed, one call at a
time in this single thread.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it runs half the time untraced and half with every
public primelab function wrapped in a span, and reports the per-layer
metrics and the tracing overhead.  Earlier stdout lines carry a readable
table and a JSON detail record (provenance, failures, checks, spans); the
last line is the result object.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up runs in batches of at least SETUP_BATCH_SECONDS, each after a
# timed reference loop; at least SETUP_MIN_BATCHES batches, and more until
# SETUP_MIN_SECONDS have gone by (capped).
SETUP_BATCH_SECONDS = 0.01
SETUP_MIN_BATCHES = 3
SETUP_MIN_SECONDS = 0.3
SETUP_MAX_BATCHES = 1000

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_primelab():
    """Import primelab from this checkout's src/, never from elsewhere."""
    if not (SRC / "primelab" / "__init__.py").is_file():
        raise SystemExit(f"error: no primelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import primelab
    if Path(primelab.__file__).resolve().parent != SRC / "primelab":
        raise SystemExit(f"error: imported primelab from {primelab.__file__}")
    return primelab


def git_commit():
    """HEAD commit read from .git without running git; None outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance():
    import numpy
    files = sorted((SRC / "primelab").glob("*.py"))
    digest = hashlib.sha256()
    lines = {}
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "source_lines": lines,
        "source_lines_total": sum(lines.values()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def time_setup(workload):
    """Set-up timed in batches: (setup_s, raw seconds, set-ups, state).

    setup_s is the median over batches of the time of one set-up.  When a
    set-up is shorter than a batch, that time is divided by the reference
    loop timed just before the batch and multiplied by the loop's nominal
    REFERENCE_SECONDS.  Such set-ups build Python objects, which neighbour
    load slows as much as the loop (up to 2x); a longer set-up here is the
    numpy sieve, which the same load leaves within 10 % while the loop
    varies by 1.8x, so it is taken as measured.  The raw figure is the
    median time of one set-up as measured.
    """
    from tracing import median
    from workloads import REFERENCE_SECONDS, timed_reference
    values, raw = [], []
    reps = 0
    spent = 0.0
    state = None
    while (len(raw) < SETUP_MIN_BATCHES
           or (spent < SETUP_MIN_SECONDS and len(raw) < SETUP_MAX_BATCHES)):
        ref = timed_reference()
        batch = 0
        start = time.perf_counter()
        while not batch or time.perf_counter() - start < SETUP_BATCH_SECONDS:
            state = None  # free the previous state before building the next
            state = workload.setup()
            batch += 1
        elapsed = time.perf_counter() - start
        spent += elapsed
        reps += batch
        one = elapsed / batch
        raw.append(one)
        values.append(one / ref * REFERENCE_SECONDS if batch > 1 else one)
    return median(values), median(raw), reps, state


def run_passes(workload, state, seed, seconds):
    """Passes with indices 0, 1, ... until `seconds` have elapsed."""
    from workloads import Pass
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        p = Pass()
        workload.run_pass(state, seed, len(passes), p)
        passes.append(p)
    return passes


def pass_samples(workload, passes):
    """Per-pass samples of each timing: name -> (values, unit).

    Seconds are as measured.  `ref` figures divide a pass's seconds by the
    mean time of the reference loop run before each of its calls.  Rates
    (`runs_per_s.*`: primes returned per second of the generating calls, a
    failed call's runs counting as zero) are higher-is-better.
    """
    from workloads import ALGORITHMS, GENERATING_CALLS, ExactSweep
    out = {"wall_s": ([p.wall for p in passes], "s"),
           "wall_ref": ([p.wall / p.ref for p in passes], "ref")}
    for algo in ALGORITHMS:
        rates = [p.algo_runs(algo) / seconds for p in passes
                 if (seconds := p.algo_seconds(algo, GENERATING_CALLS))]
        if rates:
            out[f"runs_per_s.{algo}"] = (rates, "1/s")
        if isinstance(workload, ExactSweep):
            out[f"exact_s.{algo}"] = (
                [p.algo_seconds(algo) for p in passes], "s")
    return out


def best(values, unit):
    """The least-disturbed pass, fastest time or highest rate, printed
    beside the median: passes do the same amount of work, and on a shared
    machine a slow pass measures its neighbours."""
    return max(values) if unit == "1/s" else min(values)


# Percentile of the per-pass ratios that wall_ref reports.
WALL_REF_PERCENTILE = 10


def wall_ref(passes):
    """Pass time over the pass's mean reference-loop time, at the 10th
    percentile of the passes: near the least-disturbed pass, without
    resting on one pass whose reference loop alone hit a slow spell."""
    from tracing import percentile
    return percentile(sorted(p.wall / p.ref for p in passes),
                      WALL_REF_PERCENTILE)


def end_to_end(passes, setup_s):
    """Metrics gated by BENCHMARK.json: present and nonzero on every
    workload, and steady from run to run."""
    return {"setup_s": (setup_s, "s"),
            "wall_ref": (wall_ref(passes), "ref"),
            "peak_rss_mb": (peak_rss_mb(), "MB")}


def user_metrics(samples, passes, setup_s, setup_reps):
    """The sixteen user-facing metrics where this workload produces them,
    as name -> (best pass, median pass, samples, unit)."""
    from tracing import median
    out = {"setup_s": (setup_s, setup_s, setup_reps, "s")}
    for name, (values, unit) in samples.items():
        out[name] = (best(values, unit), median(values), len(values), unit)
    out["wall_ref"] = (wall_ref(passes),) + out["wall_ref"][1:]
    primes = sum(p.primes for p in passes)
    if primes:
        bits = sum(p.bits for p in passes) / primes
        out["bits_per_prime"] = (bits, bits, len(passes), "bits")
    calls = [c for p in passes for c in p.calls]
    rate = sum(c.error is not None for c in calls) / len(calls)
    out["error_rate"] = (rate, rate, len(passes), "ratio")
    rss = peak_rss_mb()
    out["peak_rss_mb"] = (rss, rss, 1, "MB")
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def failures(passes):
    counts = {}
    for p in passes:
        for c in p.calls:
            if c.error is not None:
                key = f"{c.algo}.{c.label}: {c.error}"
                counts[key] = counts.get(key, 0) + 1
    return counts


def main(argv=None):
    args = parse_args(argv)
    import_primelab()
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    setup_s, setup_raw_s, setup_reps, state = time_setup(workload)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "provenance": provenance(),
              "setup_reps": setup_reps, "setup_raw_s": setup_raw_s,
              "threads": "one; closed loop, each call waits for the last"}
    if args.trace:
        untraced = run_passes(workload, state, args.seed, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            state = workload.setup()
            traced = run_passes(workload, state, args.seed, args.seconds / 2)
        passes = untraced + traced
        shared = min(len(untraced), len(traced))
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["trace.overhead"] = (
            wall_ref(traced[:shared]) / wall_ref(untraced[:shared]) - 1,
            "ratio")
        detail["spans"] = tracer.summary()
        detail["waits"] = ("none: one thread, no queue or lock between "
                           "layers")
    else:
        passes = run_passes(workload, state, args.seed, args.seconds)
        samples = pass_samples(workload, passes)
        metrics = end_to_end(passes, setup_s)
        print(f"{'workload':12} {'metric':28} {'best':>12} {'median':>12} "
              f"{'n':>6} unit")
        for name, (value, mid, n, unit) in user_metrics(
                samples, passes, setup_s, setup_reps).items():
            print(f"{args.workload:12} {name:28} {value:>12.6g} {mid:>12.6g} "
                  f"{n:>6} {unit}")

    problems = [msg for p in passes for msg in p.problems]
    detail.update(passes=len(passes), failures=failures(passes),
                  problems=problems[:20], first_pass=passes[0].info)
    print(json.dumps(detail, sort_keys=True))
    calls = [c for p in passes for c in p.calls]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(c.error is not None for c in calls),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

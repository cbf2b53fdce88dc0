"""Correctness checks on the outputs the benchmark times.

Each check returns a list of problems (strings); an empty list passes.
"""

import hashlib
import json
import math

# Mean iterations must lie within a window around the prediction.  The
# predictions are asymptotic ((phi(q)/q) ln x and the like): at x = 1e8 the
# true trivial mean is x/pi(x) = 17.4 against ln x = 18.4, and fixed- and
# random-modulus runs sit up to 10 % above theirs, hence the base window.
# Per run, iterations are geometric-like (coefficient of variation about
# 1), so the window widens by ITERATION_SIGMAS standard errors of the
# mean, 1/sqrt(trials) each.
ITERATION_WINDOW = (0.8, 1.25)
ITERATION_SIGMAS = 6.0

# Goodness of fit: a chi-square statistic is rejected above this many
# standard normal deviates (Wilson-Hilferty), a false-alarm chance of
# about 3e-7 per test, so the check tightens with the run count on its own.
GOF_Z_MAX = 5.0
# Cells with fewer expected counts than this are pooled into one cell.
GOF_MIN_EXPECTED = 5.0


def report_problems(report):
    """Internal consistency of one RunReport."""
    problems = []
    name = report.config.algorithm.value
    total = report.mean_loop_bits + report.mean_selection_bits
    if not math.isclose(total, report.mean_bits, rel_tol=1e-12, abs_tol=1e-9):
        problems.append(f"{name}: loop bits {report.mean_loop_bits} + "
                        f"selection bits {report.mean_selection_bits} != "
                        f"bits {report.mean_bits}")
    if not 0 <= report.fallback_rate <= 1:
        problems.append(f"{name}: fallback_rate {report.fallback_rate} "
                        "outside [0, 1]")
    if report.predicted_iterations is not None:
        ratio = report.mean_iterations / report.predicted_iterations
        slack = ITERATION_SIGMAS / math.sqrt(report.trials)
        lo, hi = ITERATION_WINDOW[0] - slack, ITERATION_WINDOW[1] + slack
        if not lo <= ratio <= hi:
            problems.append(f"{name}: mean iterations {report.mean_iterations}"
                            f" is {ratio:.3f} x predicted "
                            f"{report.predicted_iterations}, outside "
                            f"[{lo:.3f}, {hi:.3f}]")
    return problems


def wilson_hilferty_z(stat, dof):
    """Standard normal deviate of a chi-square(dof) statistic."""
    k = float(dof)
    return ((stat / k) ** (1 / 3) - (1 - 2 / (9 * k))) / math.sqrt(2 / (9 * k))


def goodness_of_fit(counts, law, runs):
    """Chi-square test of observed counts against exact masses.

    `counts` maps outcome -> observations (summing to `runs`), `law` maps
    outcome -> probability.  Returns (z, problems); an outcome observed
    where the law puts no mass fails outright.
    """
    problems = []
    impossible = sorted(o for o, c in counts.items()
                        if c and not law.get(o, 0))
    if impossible:
        problems.append(f"outcomes with zero exact mass observed: "
                        f"{impossible[:10]}")
    stat = 0.0
    cells = 0
    pooled_obs = pooled_exp = 0.0
    for outcome, mass in law.items():
        if not mass:
            continue
        expected = runs * float(mass)
        observed = counts.get(outcome, 0)
        if expected < GOF_MIN_EXPECTED:
            pooled_obs += observed
            pooled_exp += expected
            continue
        stat += (observed - expected) ** 2 / expected
        cells += 1
    if pooled_exp:
        stat += (pooled_obs - pooled_exp) ** 2 / pooled_exp
        cells += 1
    if cells < 2:
        problems.append("fewer than two cells to test")
        return math.nan, problems
    z = wilson_hilferty_z(stat, cells - 1)
    if z > GOF_Z_MAX:
        problems.append(f"chi-square {stat:.1f} on {cells - 1} dof is "
                        f"z = {z:.2f} > {GOF_Z_MAX}")
    return z, problems


def dist_digest(record):
    """sha256 of a dist_to_dict record without its schema_version, so a
    schema bump alone does not read as a change of exact masses."""
    body = {k: v for k, v in record.items() if k != "schema_version"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()

"""Command-line interface.

Subcommands map one-to-one onto the lab's experiments:

* generate        one prime plus its telemetry
* bench           aggregate telemetry over many trials
* exact-dist      closed-form output distribution of an algorithm
* audit-primeinc  gap-length bias audit of the scan-upward generator
* gap-census      prime-gap census against the 1 - e^(-lambda) model
* error-profile   residue-class error terms for a modulus or modulus range

Errors are reported as a JSON object on stderr with a nonzero exit code.
"""

import argparse
import json
import sys
from dataclasses import asdict

from .errors import ConfigError, PrimelabError
from .generators import (
    Algorithm,
    GenConfig,
    ModulusMode,
    UnitMethod,
    generate,
)
from .harness import (
    benchmark,
    dist_to_dict,
    gap_census,
    primeinc_audit,
    report_emit,
    to_jsonable,
    write_text,
)
from .metrics import metrics_of
from .ntheory import Exact, MillerRabin, sieve
from .exactdist import (
    error_term_profile,
    exact_dist_basic,
    exact_dist_erh_fallback,
    exact_dist_primeinc,
    exact_dist_trivial,
    exact_dist_uncond,
    exact_dist_uncond_nofallback,
)
from .rng import CountingBitSource


def _add_common_generator_args(p: argparse.ArgumentParser):
    p.add_argument("--x", type=int, required=True, help="upper bound; primes are <= x")
    p.add_argument("--algo", required=True,
                   choices=[a.value for a in Algorithm])
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--A", type=float, default=None, dest="A")
    p.add_argument("--T", type=int, default=None,
                   help="residue-search budget before fallback")
    p.add_argument("--modulus-mode", default="primorial",
                   choices=[m.value for m in ModulusMode])
    p.add_argument("--q", type=int, default=None,
                   help="explicit modulus (sets modulus mode to explicit)")
    p.add_argument("--unit-method", default="joye_paillier",
                   choices=[u.value for u in UnitMethod])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mr-rounds", type=int, default=None,
                   help="use probabilistic primality with this many rounds")


def _config_from_args(args) -> GenConfig:
    mode = args.modulus_mode if args.q is None else ModulusMode.EXPLICIT
    policy = (MillerRabin(rounds=args.mr_rounds, seed=args.seed)
              if args.mr_rounds is not None else Exact())
    return GenConfig(
        x=args.x,
        algorithm=args.algo,
        epsilon=args.epsilon,
        modulus_mode=mode,
        q=args.q,
        A=args.A,
        T_override=args.T,
        seed=args.seed,
        primality=policy,
        unit_method=args.unit_method,
    )


def _emit(payload: str, out: str | None):
    if out is None:
        sys.stdout.write(payload)
    else:
        write_text(payload, out)


def _emit_json(record: dict, out: str | None):
    _emit(json.dumps(record, sort_keys=True, indent=2) + "\n", out)


def _cmd_generate(args) -> int:
    cfg = _config_from_args(args)
    p, tel = generate(cfg, CountingBitSource(cfg.seed))
    _emit_json({"prime": p, **asdict(tel)}, args.out)
    return 0


def _cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    report = benchmark(cfg, args.trials, with_metrics=args.with_metrics)
    _emit(report_emit([report], args.format), args.out)
    return 0


def _cmd_exact_dist(args) -> int:
    cfg = _config_from_args(args)
    algo, x = cfg.algorithm, cfg.x
    table = sieve(x)
    if algo is Algorithm.TRIVIAL:
        dist = exact_dist_trivial(x, table)
    elif algo is Algorithm.PRIMEINC:
        dist = exact_dist_primeinc(x, table)
    elif algo is Algorithm.UNCOND_NOFALLBACK:
        dist = exact_dist_uncond_nofallback(x, cfg.A, table)
    elif algo is Algorithm.UNCOND:
        dist = exact_dist_uncond(x, cfg.A, cfg.budget, table)
    else:
        q = cfg.modulus.q
        dist = (exact_dist_basic(x, q, table) if algo is Algorithm.BASIC
                else exact_dist_erh_fallback(x, q, cfg.budget, table))
    if args.format == "csv":
        _emit(report_emit([dist], "csv"), args.out)
    else:
        record = dist_to_dict(dist)
        record["metrics"] = {
            k: float(v) for k, v in asdict(metrics_of(dist)).items()
        }
        _emit_json(record, args.out)
    return 0


def _cmd_audit_primeinc(args) -> int:
    audit = primeinc_audit(args.x, args.trials, seed=args.seed)
    _emit_json(to_jsonable(audit), args.out)
    return 0


def _cmd_gap_census(args) -> int:
    try:
        lambdas = [float(s) for s in args.lambdas.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"--lambdas: {exc}") from exc
    census = gap_census(args.x, lambdas)
    if args.format == "csv":
        _emit(report_emit([census], "csv"), args.out)
    else:
        _emit_json(to_jsonable(census), args.out)
    return 0


def _cmd_error_profile(args) -> int:
    profile = error_term_profile(args.x, q=args.q, A=args.A)
    _emit_json(to_jsonable(profile), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primelab",
        description="Prime generation laboratory: generators, exact "
                    "output distributions, and resource budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="produce one prime with telemetry")
    _add_common_generator_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="aggregate telemetry over many trials")
    _add_common_generator_args(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--with-metrics", action="store_true")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("exact-dist", help="closed-form output distribution")
    _add_common_generator_args(p)
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_exact_dist)

    p = sub.add_parser("audit-primeinc", help="gap-length bias audit")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--trials", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_audit_primeinc)

    p = sub.add_parser("gap-census", help="prime gap census")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--lambdas", default="0.5,1,2")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gap_census)

    p = sub.add_parser("error-profile", help="residue-class error terms")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--A", type=float, default=None, dest="A")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_error_profile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrimelabError as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands map one-to-one onto the lab's experiments:

* generate        one prime plus its telemetry
* bench           aggregate telemetry over many trials
* exact-dist      exactdist.law of the config; refuses --mr-rounds
* audit-primeinc  gap-length bias audit of the scan-upward generator
* gap-census      prime-gap census against the 1 - e^(-lambda) model
* error-profile   residue-class error terms for a modulus or modulus range

Each subcommand returns one payload, a text or a record dict, and `main`
writes it once: to stdout, or to the file named by --out.  Errors are
reported as a JSON object on stderr with a nonzero exit code: 2 for a
command line that the parser refuses ("UsageError"), else 1.
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
from .ntheory import Exact, MillerRabin
from .exactdist import error_term_profile, law


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


def _cmd_generate(args) -> dict:
    p, tel = generate(_config_from_args(args))
    return {"prime": p, **asdict(tel)}


def _cmd_bench(args) -> str:
    cfg = _config_from_args(args)
    report = benchmark(cfg, args.trials, with_metrics=args.with_metrics)
    return report_emit([report], args.format)


def _cmd_exact_dist(args) -> str | dict:
    dist = law(_config_from_args(args))
    if args.format == "csv":
        return report_emit([dist], "csv")
    record = dist_to_dict(dist)
    record["metrics"] = {
        k: float(v) for k, v in asdict(metrics_of(dist)).items()
    }
    return record


def _cmd_audit_primeinc(args) -> dict:
    return to_jsonable(primeinc_audit(args.x, args.trials, seed=args.seed))


def _cmd_gap_census(args) -> str | dict:
    try:
        lambdas = [float(s) for s in args.lambdas.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"--lambdas: {exc}") from exc
    census = gap_census(args.x, lambdas)
    if args.format == "csv":
        return report_emit([census], "csv")
    return to_jsonable(census)


def _cmd_error_profile(args) -> dict:
    return to_jsonable(error_term_profile(args.x, q=args.q, A=args.A))


class UsageError(Exception):
    """A command line that the parser refuses."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and so each of its subcommands') that raises
    UsageError where argparse would print its usage text and exit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="primelab",
        description="Prime generation laboratory: generators, exact "
                    "output distributions, and resource budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", default="json", choices=["json", "csv"])
    gen = argparse.ArgumentParser(add_help=False)
    gen.add_argument("--x", type=int, required=True,
                     help="upper bound; primes are <= x")
    gen.add_argument("--algo", required=True,
                     choices=[a.value for a in Algorithm])
    gen.add_argument("--epsilon", type=float, default=None)
    gen.add_argument("--A", type=float, default=None, dest="A")
    gen.add_argument("--T", type=int, default=None,
                     help="residue-search budget before fallback")
    gen.add_argument("--modulus-mode", default="primorial",
                     choices=[m.value for m in ModulusMode])
    gen.add_argument("--q", type=int, default=None,
                     help="explicit modulus (sets modulus mode to explicit)")
    gen.add_argument("--unit-method", default="joye_paillier",
                     choices=[u.value for u in UnitMethod])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--mr-rounds", type=int, default=None,
                     help="use probabilistic primality with this many rounds")

    p = sub.add_parser("generate", parents=[gen, out],
                       help="produce one prime with telemetry")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", parents=[gen, fmt, out],
                       help="aggregate telemetry over many trials")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--with-metrics", action="store_true")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("exact-dist", parents=[gen, fmt, out],
                       help="closed-form output distribution")
    p.set_defaults(func=_cmd_exact_dist)

    p = sub.add_parser("audit-primeinc", parents=[out],
                       help="gap-length bias audit")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--trials", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_audit_primeinc)

    p = sub.add_parser("gap-census", parents=[fmt, out],
                       help="prime gap census")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--lambdas", default="0.5,1,2")
    p.set_defaults(func=_cmd_gap_census)

    p = sub.add_parser("error-profile", parents=[out],
                       help="residue-class error terms")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--A", type=float, default=None, dest="A")
    p.set_defaults(func=_cmd_error_profile)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload = args.func(args)
        if isinstance(payload, dict):
            payload = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if args.out is None:
            sys.stdout.write(payload)
        else:
            write_text(payload, args.out)
    except (UsageError, PrimelabError) as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
        }) + "\n")
        return 2 if isinstance(exc, UsageError) else 1  # 2 as argparse's
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden digests of every JSON and CSV output of the library and the CLI.

The digests were recorded before the per-type serializers were replaced
by one dataclass-driven encoder; any change of a key, a value's encoding
or a CSV cell moves them.  The seeded outputs (reports, mixed, audit,
generate, bench) were re-recorded once when the bit source became the
counter-based SplitMix64 stream.  dist2.dict was re-recorded when its
float masses became the equal Fractions, as a FiniteDist holds only
exact masses; its CSV, which writes each mass as a float, kept its digest.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from primelab.cli import main
from primelab.exactdist import (
    error_term_profile,
    exact_dist_basic,
    exact_dist_uncond,
)
from primelab.generators import Algorithm, GenConfig, ModulusMode
from primelab.harness import (
    benchmark,
    dist_to_dict,
    gap_census,
    parse_reports,
    primeinc_audit,
    report_emit,
)
from primelab.metrics import FiniteDist
from primelab.ntheory import Exact, MillerRabin, sieve


def _reports():
    """Benchmark reports for all six algorithms under both policies, with
    explicit q, T and iteration caps, with and without metrics."""
    table = sieve(10**4)
    reports = []
    for algo in Algorithm:
        for x, policy in ((10**4, Exact(table)),
                          (10**6, MillerRabin(rounds=3, seed=5))):
            cfg = GenConfig(x=x, algorithm=algo, epsilon=0.3, A=2.0,
                            seed=11, primality=policy)
            reports.append(benchmark(cfg, 20, with_metrics=x == 10**4))
    explicit = [
        GenConfig(x=1000, algorithm=Algorithm.BASIC, q=30,
                  modulus_mode=ModulusMode.EXPLICIT, max_iterations=500),
        GenConfig(x=1000, algorithm=Algorithm.ERH_FALLBACK, q=30,
                  modulus_mode=ModulusMode.EXPLICIT, T_override=5),
        GenConfig(x=10**4, algorithm=Algorithm.UNCOND_NOFALLBACK, A=1.5,
                  max_iterations=10**4, primality=MillerRabin()),
    ]
    reports += [benchmark(cfg, 15, with_metrics=True) for cfg in explicit]
    return reports


def _library_outputs():
    reports = _reports()
    report_json = report_emit(reports, "json")
    dists = [
        exact_dist_basic(1000, 30),
        exact_dist_uncond(500, A=1.0, T=4),
        FiniteDist(4, {2: Fraction(1, 2), 3: Fraction(1, 4),
                       5: Fraction(1, 4)},
                   meta={"conditioned": True, "algo": "basic"}),
    ]
    census = gap_census(10**4, [0.0, 0.5, 1.0, 2.0])
    audit = primeinc_audit(1000, 200, seed=3)
    fixed = error_term_profile(1000, q=30)
    ranged = error_term_profile(1000, A=1.0)
    outputs = {
        "reports.json": report_json,
        "reports.csv": report_emit(reports, "csv"),
        "reports.parsed.json": report_emit(parse_reports(report_json), "json"),
        "census.json": report_emit([census], "json"),
        "census.csv": report_emit([census], "csv"),
        "audit.json": report_emit([audit], "json"),
        "profile_fixed.json": report_emit([fixed], "json"),
        "profile_range.json": report_emit([ranged], "json"),
        "mixed.json": report_emit(
            [reports[0], dists[0], census, audit, fixed, ranged,
             {"note": 1}], "json"),
        "mixed.parsed": repr(parse_reports(report_emit(
            [reports[-1], census, {"note": 1}], "json"))),
    }
    for i, dist in enumerate(dists):
        outputs[f"dist{i}.dict"] = json.dumps(dist_to_dict(dist),
                                              sort_keys=True)
        outputs[f"dist{i}.csv"] = report_emit([dist], "csv")
    return outputs


CLI_INVOCATIONS = {
    "generate": ["generate", "--x", "1000", "--algo", "basic",
                 "--epsilon", "0.3", "--seed", "5"],
    "generate_mr": ["generate", "--x", "1000000", "--algo", "uncond",
                    "--A", "1", "--mr-rounds", "4", "--seed", "2"],
    "bench_json": ["bench", "--x", "1000", "--algo", "erh_fallback",
                   "--epsilon", "0.3", "--trials", "30", "--seed", "3",
                   "--with-metrics"],
    "bench_csv": ["bench", "--x", "1000", "--algo", "uncond", "--A", "1",
                  "--trials", "30", "--format", "csv"],
    "bench_q": ["bench", "--x", "1000", "--algo", "basic", "--q", "30",
                "--T", "7", "--trials", "10"],
    "exact_json": ["exact-dist", "--x", "100", "--algo", "uncond",
                   "--A", "1"],
    "exact_csv": ["exact-dist", "--x", "30", "--algo", "basic", "--q", "6",
                  "--format", "csv"],
    "exact_primeinc": ["exact-dist", "--x", "200", "--algo", "primeinc"],
    "audit": ["audit-primeinc", "--x", "1000", "--trials", "200",
              "--seed", "4"],
    "census_json": ["gap-census", "--x", "1000", "--lambdas", "0,1,2"],
    "census_csv": ["gap-census", "--x", "1000", "--format", "csv"],
    "profile_q": ["error-profile", "--x", "1000", "--q", "30"],
    "profile_A": ["error-profile", "--x", "1000", "--A", "1"],
    "error_config": ["error-profile", "--x", "1000"],
}


LIBRARY_DIGESTS = {
    "audit.json":
        "fb244d9c64671cb2ee4eecd4ce4d1e78c7de55ce8d070893ca76d066ecea553e",
    "census.csv":
        "7fe7306163297d16e97c2369ab27ac591673623f3b14c07d1e2f360cdda1e069",
    "census.json":
        "cbc354cbe606af61182cf95551610eb0eb5c0c2014eb89103cbba3f838d50f7d",
    "dist0.csv":
        "e2e678277324a2ae67f992471f62912ae93ad0b81757ad724ae2134b3b7c06d9",
    "dist0.dict":
        "71e89822a03d6169e11ce0a4ef00c64eefe75b2c147e540075ccf29c7b02152f",
    "dist1.csv":
        "bdfa91bf79c7bbad3efdf85d0bf21098bb0b315241493bf97792bea980f60ff1",
    "dist1.dict":
        "3f986254bf736ad86375c8f3c4062f4049c8d01cab20957fbf5bbe6e932cc5bc",
    "dist2.csv":
        "ac902110a9a01673a88634a882399684a7ee5206491bed0e49e311dc01a290da",
    "dist2.dict":
        "cbc30d3e1d065c25eb58bdf76c0c8116af6844d8571e2e64b8a6bd83eea858c6",
    "mixed.json":
        "afc21275218e8707586c97e5b562ed4d0247f16daf6ba2adddcbd3462fc8c59e",
    "mixed.parsed":
        "a01891edee39fef078d92869df31228a0b03abfa7bd69580bd3f1f3836572e9f",
    "profile_fixed.json":
        "e947a44010904cd26b68987a2522778eac6e2198ceaee174fcf13642bef8904e",
    "profile_range.json":
        "4ec5d2169a4d88dddf45bd7f496f2b1c1b00402d72b9134cc27660a59932dd6b",
    "reports.csv":
        "a2c58650119a248276b3ecea10667fb2a64039595592e2d4d803b952c2ff2fc7",
    "reports.json":
        "ffd9add200f1cef16661a0623cfd59affc7d92bfacf43b7d0c2d12aed2f97948",
    "reports.parsed.json":
        "9f6de9c625347e3a4a8ad907a580f7ed299a073ec3cd31a177d60242049d8f1b",
}
CLI_DIGESTS = {
    "audit": (0, "23d4649dce771a021cbc3f248f9fa9b3434f16d77c4f54c8689cd8b5f2c92c9f",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bench_csv": (0, "30189a6dfd422c63b2535024b64f19a80c18b7fe0149cd442d207cd4ce26b385",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bench_json": (0, "b183cfe94cceeb9b5cbd5b28581fbc36f2baed0534e5570b9dd0226726f9abf4",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bench_q": (0, "ec03e4f237de7c7eced8295a081130b858b23fa9d0d01dcaaf8855ea4029a986",
               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "census_csv": (0, "f5dac7ae62f978593be310f07fcb75f3f5d2236596bfd6601061189a84db13dc",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "census_json": (0, "385acfddf2c64804be4472a7c4695828f2ee0c2b214ee15446afad96f97eeea4",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "error_config": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                    "592ccebf27a258b0673d76f72a34dc5a3fa7b0fdb1c51fd6c234e4afd28e354e"),
    "exact_csv": (0, "7d1c7b9d1acec9ae0e10e98a02214aac9d44be11390917a30b2bd5fa5477926c",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exact_json": (0, "d979c8b5092a32c1494f3dd5bc1c5882b309adfebd64957adc559fffd591d0fe",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exact_primeinc": (0, "dbfde896e57d8ac99c9d54e1402659803023c6a12f2754505f215073436bbf89",
                      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "generate": (0, "7e43381a214002d2db97c6ef9c0f38ed525b3001929dc47d4ddd4a2e575a97e1",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "generate_mr": (0, "b279ed3414c7c06546991f6f6076cd7c134f35aadf6473be665946b3e341d694",
                   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "profile_A": (0, "5ba0353cb6a60d528494d88aa6fdba29a6934f5114e539484e961ef50655c2c5",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "profile_q": (0, "57fe527260065a85237491cfdd8cef2b5bd874e143bcca56d6d2e98daf7eb3d5",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_library_serialization_golden():
    digests = {name: _digest(text)
               for name, text in _library_outputs().items()}
    assert digests == LIBRARY_DIGESTS


@pytest.mark.parametrize("name", sorted(CLI_INVOCATIONS))
def test_cli_output_golden(capsys, name):
    code = main(CLI_INVOCATIONS[name])
    captured = capsys.readouterr()
    assert (code, _digest(captured.out), _digest(captured.err)) == (
        CLI_DIGESTS[name])

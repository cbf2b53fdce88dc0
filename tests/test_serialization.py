"""Golden digests of every JSON and CSV output of the library and the CLI.

The digests were recorded before the per-type serializers were replaced
by one dataclass-driven encoder; any change of a key, a value's encoding
or a CSV cell moves them.
"""

import hashlib
import json

import pytest

from primelab.cli import main
from primelab.exactdist import exact_dist_basic, exact_dist_uncond
from primelab.generators import Algorithm, GenConfig, ModulusMode
from primelab.harness import (
    benchmark,
    dist_to_dict,
    error_term_profile,
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
        FiniteDist(4, {2: 0.5, 3: 0.25, 5: 0.25},
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
        "7f8d05203797540021be92c39438b0d7f7374caba2bea17d86bf03493353d21d",
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
        "c576b7cb03de5c4d83100a51d1e2cf1aea0ffdd71e4e2b16abc775c3ab7767d3",
    "mixed.json":
        "cd97bb3c9055efefc22963b8c885c7e62b285584ce5646f7f0c928e86a6c0b5a",
    "mixed.parsed":
        "480ae61706f055a88eb00f14fb81e2cb9e36f4aa26692e6bc62d39220e624fa7",
    "profile_fixed.json":
        "e947a44010904cd26b68987a2522778eac6e2198ceaee174fcf13642bef8904e",
    "profile_range.json":
        "4ec5d2169a4d88dddf45bd7f496f2b1c1b00402d72b9134cc27660a59932dd6b",
    "reports.csv":
        "e3f1f19ad1ba4136e5cc12b5ba4c9cc1a46e9551e4c1aba3129a904c2a1ffcbb",
    "reports.json":
        "22f3646bb4d06f852d1499d92ee4e9c0be9520ac56e4ba8bb7d9b6186a98f9cf",
    "reports.parsed.json":
        "e4693d702ddfb8648f7dda6f6f66338f85106ab65c2a95674f3c8c91da565af0",
}
CLI_DIGESTS = {
    "audit": (0, "039e68ac85fb04808d0d8d940e21a3d6fee5a70d830e5939a58460bb3f0a71aa",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bench_csv": (0, "3e970d5fff65ccc62b6ba624378e64c223e05e5f4ec16eab5a47922d29774678",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bench_json": (0, "04b00670a54bf8cae190c9cc742807fa36a3baa0de084cc86b05f9846c675ca2",
                  "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bench_q": (0, "6aa5274071dc0886dddade251c34d1dd6c30c8bf6377e39896eb3a363e372106",
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
    "generate": (0, "ca41064b60dafdddea26f1365aae075dc2273383088d25d880a24bc043d26307",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "generate_mr": (0, "be2a6021c8ea8a865b23dc219acc35ad61a26088d85e6eb20599bca61dc29f4e",
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

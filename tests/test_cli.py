import json
from dataclasses import asdict

import pytest

from primelab.cli import main
from primelab.exactdist import law
from primelab.generators import GenConfig
from primelab.harness import dist_to_dict
from primelab.metrics import metrics_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_basic(capsys):
    code, out, err = run_cli(
        capsys, "generate", "--x", "1000", "--algo", "basic",
        "--epsilon", "0.3", "--seed", "5",
    )
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["prime"] <= 1000
    assert record["bits_consumed"] >= record["selection_bits"] >= 0
    assert record["chosen_q"] > 1


def test_generate_deterministic(capsys):
    args = ("generate", "--x", "500", "--algo", "uncond", "--A", "1",
            "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_bench_json(capsys):
    code, out, err = run_cli(
        capsys, "bench", "--x", "1000", "--algo", "trivial",
        "--trials", "50", "--seed", "3",
    )
    assert code == 0
    (record,) = json.loads(out)
    assert record["kind"] == "run_report"
    assert record["trials"] == 50
    assert record["schema_version"] == 1


def test_bench_beyond_a_word(capsys):
    # x = 2^80: uncond with A = 2 draws moduli q > 2^63
    code, out, err = run_cli(
        capsys, "bench", "--x", str(2**80), "--algo", "uncond", "--A", "2",
        "--trials", "5",
    )
    assert code == 0 and err == ""
    (record,) = json.loads(out)
    assert record["trials"] == 5 and record["config"]["x"] == 2**80


def test_bench_cli_too_many_trials(capsys):
    # numpy's bare ValueError escaped as a traceback
    code, out, err = run_cli(
        capsys, "bench", "--x", "1000", "--algo", "trivial",
        "--trials", str(10**30),
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ResourceLimitError"


def test_exact_dist_csv(capsys):
    code, out, err = run_cli(
        capsys, "exact-dist", "--x", "30", "--algo", "basic", "--q", "6",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "prime,mass"
    assert len(lines) == 11


def test_exact_dist_json_has_metrics(capsys):
    code, out, _ = run_cli(
        capsys, "exact-dist", "--x", "30", "--algo", "basic", "--q", "6",
    )
    record = json.loads(out)
    assert record["metrics"]["delta1"] == pytest.approx(0.4)
    assert record["space_size"] == 10


# exact-dist flags, and the config they build
EXACT_DIST_CASES = {
    "trivial": (["--x", "100", "--algo", "trivial"],
                GenConfig(x=100, algorithm="trivial")),
    "primeinc": (["--x", "100", "--algo", "primeinc"],
                 GenConfig(x=100, algorithm="primeinc")),
    "basic": (["--x", "1000", "--algo", "basic", "--epsilon", "0.3"],
              GenConfig(x=1000, algorithm="basic", epsilon=0.3)),
    "erh_fallback": (["--x", "1000", "--algo", "erh_fallback",
                      "--epsilon", "0.3"],
                     GenConfig(x=1000, algorithm="erh_fallback",
                               epsilon=0.3)),
    "uncond": (["--x", "100", "--algo", "uncond", "--A", "1", "--T", "3"],
               GenConfig(x=100, algorithm="uncond", A=1.0, T_override=3)),
    "uncond_nofallback": (["--x", "100", "--algo", "uncond_nofallback",
                           "--A", "1"],
                          GenConfig(x=100, algorithm="uncond_nofallback",
                                    A=1.0)),
}


@pytest.mark.parametrize("argv,cfg", EXACT_DIST_CASES.values(),
                         ids=EXACT_DIST_CASES.keys())
def test_exact_dist_prints_the_law_of_its_config(capsys, argv, cfg):
    code, out, err = run_cli(capsys, "exact-dist", *argv)
    assert code == 0 and err == ""
    dist = law(cfg)
    expected = dist_to_dict(dist)
    expected["metrics"] = {
        k: float(v) for k, v in asdict(metrics_of(dist)).items()
    }
    assert json.loads(out) == json.loads(json.dumps(expected))


def test_exact_dist_refuses_miller_rabin(capsys):
    # a MillerRabin config has no exact law
    code, out, err = run_cli(
        capsys, "exact-dist", "--x", "1000", "--algo", "basic",
        "--epsilon", "0.3", "--mr-rounds", "1",
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ConfigError"


def test_gap_census_cli(capsys):
    code, out, _ = run_cli(
        capsys, "gap-census", "--x", "1000", "--lambdas", "0,1,2",
    )
    record = json.loads(out)
    assert record["F_values"]["0.0"] == 0
    assert record["kind"] == "gap_census"


@pytest.mark.parametrize("lambdas,error", [
    ("a", "ConfigError"),
    ("1,nan", "DomainError"),
])
def test_gap_census_cli_bad_lambdas(capsys, lambdas, error):
    code, out, err = run_cli(
        capsys, "gap-census", "--x", "1000", "--lambdas", lambdas,
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error


def test_audit_cli(capsys):
    code, out, _ = run_cli(
        capsys, "audit-primeinc", "--x", "1000", "--trials", "200",
    )
    record = json.loads(out)
    assert record["bound_gap_large_holds"] is True
    assert record["twin_ratio"] < 1


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_audit_cli_bad_trials(capsys, trials):
    code, out, err = run_cli(
        capsys, "audit-primeinc", "--x", "1000", "--trials", trials,
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("x", ["3", "4"])
def test_audit_cli_without_twin(capsys, x):
    code, out, err = run_cli(
        capsys, "audit-primeinc", "--x", x, "--trials", "5",
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "DomainError"


def test_error_profile_cli(capsys):
    code, out, _ = run_cli(capsys, "error-profile", "--x", "1000", "--q", "30")
    record = json.loads(out)
    assert record["kind"] == "error_profile_fixed"


def test_cli_error_is_machine_readable(capsys):
    code, out, err = run_cli(capsys, "error-profile", "--x", "1000")
    assert code == 1
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "ConfigError"


def test_error_profile_cli_over_work_cap(capsys):
    code, out, err = run_cli(capsys, "error-profile", "--x", "1000000",
                             "--A", "0.5")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ResourceLimitError"


def test_cli_config_error_exit(capsys):
    code, _, err = run_cli(
        capsys, "generate", "--x", "100", "--algo", "basic",
    )
    assert code == 1
    assert json.loads(err)["error"] == "ConfigError"


def test_cli_writes_out_file(tmp_path, capsys):
    out_file = tmp_path / "dist.csv"
    code, out, _ = run_cli(
        capsys, "exact-dist", "--x", "30", "--algo", "trivial",
        "--format", "csv", "--out", str(out_file),
    )
    assert code == 0
    assert out_file.read_text().startswith("prime,mass")


@pytest.mark.parametrize("command", [
    ("generate",),
    ("bench", "--trials", "5"),
])
def test_cli_out_into_missing_directory(tmp_path, capsys, command):
    out_file = tmp_path / "missing" / "f.json"
    code, out, err = run_cli(
        capsys, *command, "--x", "1000", "--algo", "trivial",
        "--out", str(out_file),
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "PrimelabError"


@pytest.mark.parametrize("argv, wrong", [
    (("bench", "--x", "abc", "--algo", "trivial", "--trials", "5"),
     "--x: invalid int value: 'abc'"),
    (("bench", "--x", "1000", "--algo", "trivial"),
     "the following arguments are required: --trials"),
    (("bench", "--x", "1000", "--algo", "fastest", "--trials", "5"),
     "--algo: invalid choice"),
    ((), "the following arguments are required: command"),
])
def test_cli_usage_error_is_machine_readable(capsys, argv, wrong):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "UsageError"
    assert wrong in record["message"]


def test_cli_help_is_text(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["bench", "--help"])
    captured = capsys.readouterr()
    assert exit_.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: primelab bench")

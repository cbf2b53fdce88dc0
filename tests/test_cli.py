import json

import pytest

from primelab.cli import main


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

"""End-to-end tests of the command line interface."""

import json
import os

import pytest

from heavyspec.cli import main


@pytest.fixture()
def config_path(tmp_path):
    config = {
        "model": {"family": "pareto_symmetric", "alpha": 1.5, "q": 0.5, "scale": 1.0},
        "filter": {
            "c": {"min_lag": 0, "values": [1.0, 0.5]},
            "theta": {"min_lag": 0, "values": [1.0, 0.5]},
            "delta": 0.9,
        },
        "dimension_rule": {"beta": 0.5, "const": 1.0, "p_max": 10},
        "n_values": [40, 80],
        "replicates": 5,
        "seed": 11,
        "checks": {"envelope": False, "ks": False, "order_stats": False, "offdiag": False},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def test_validate_exit_code_ok(config_path, capsys):
    assert main(["validate", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert "admissible" in out
    assert "beta_admissible" in out


def test_validate_rejects_bad_alpha_override(config_path, capsys):
    assert main(["validate", "--config", config_path, "--alpha", "3.5"]) == 1
    assert "NOT admissible" in capsys.readouterr().out


def test_run_writes_outputs(config_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    rc = main(["run", "--config", config_path, "--out", out_dir])
    assert rc == 0
    assert os.path.exists(os.path.join(out_dir, "trials.csv"))
    assert os.path.exists(os.path.join(out_dir, "checks.json"))
    with open(os.path.join(out_dir, "trials.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + 2 * 5  # header + replicates per n


def test_run_byte_reproducible(config_path, tmp_path):
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["run", "--config", config_path, "--out", d1]) == 0
    assert main(["run", "--config", config_path, "--out", d2, "--workers", "2"]) == 0
    with open(os.path.join(d1, "trials.csv"), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(d2, "trials.csv"), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2


def test_run_aborts_on_inadmissible_spec(config_path, tmp_path, capsys):
    out_dir = str(tmp_path / "bad")
    rc = main(["run", "--config", config_path, "--out", out_dir, "--alpha", "3.5"])
    assert rc == 1
    assert not os.path.exists(os.path.join(out_dir, "trials.csv"))


def test_check_recomputes_from_csv(config_path, tmp_path):
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", config_path, "--out", out_dir]) == 0
    checks_path = os.path.join(out_dir, "checks.json")
    with open(checks_path, encoding="utf-8") as fh:
        first = fh.read()
    os.remove(checks_path)
    assert main(["check", "--config", config_path, "--out", out_dir]) == 0
    with open(checks_path, encoding="utf-8") as fh:
        second = fh.read()
    assert first == second


def test_report_prints_summary(config_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    main(["run", "--config", config_path, "--out", out_dir])
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "median scaled_norm" in out
    assert "overall" in out


def test_replicates_override(config_path, tmp_path):
    out_dir = str(tmp_path / "small")
    assert main(["run", "--config", config_path, "--out", out_dir, "--replicates", "2"]) == 0
    with open(os.path.join(out_dir, "trials.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + 2 * 2


def test_n_override(config_path, tmp_path):
    out_dir = str(tmp_path / "single_n")
    assert main(["run", "--config", config_path, "--out", out_dir, "--n", "64"]) == 0
    with open(os.path.join(out_dir, "trials.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    assert all(row.startswith("64,") for row in rows)


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize(
    "run_override, problem",
    [
        (["--n", "64"], "10 missing [(40, 0)], 5 extra [(64, 0)], 0 duplicates"),
        (["--replicates", "2"], "6 missing [(40, 2)], 0 extra [], 0 duplicates"),
    ],
)
def test_refuses_trials_from_other_config(config_path, tmp_path, capsys, command, run_override, problem):
    out_dir = str(tmp_path / "other")
    assert main(["run", "--config", config_path, "--out", out_dir, *run_override]) == 0
    os.remove(os.path.join(out_dir, "checks.json"))
    capsys.readouterr()
    assert main([command, "--config", config_path, "--out", out_dir]) == 1
    captured = capsys.readouterr()
    assert "records do not match the config's (n, replicate) grid" in captured.err
    assert problem in captured.err
    assert captured.out == ""
    assert not os.path.exists(os.path.join(out_dir, "checks.json"))

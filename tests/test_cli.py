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


@pytest.mark.parametrize(
    "override, message",
    [
        (["--workers", "0"], "workers must be >= 1, got 0"),
        (["--workers", "-2"], "workers must be >= 1, got -2"),
        (["--replicates", "0"], "replicates must be >= 1, got 0"),
        (["--n", "0"], "p and n must be >= 1, got p=1, n=0"),
    ],
)
def test_run_rejects_bad_run_size(config_path, tmp_path, capsys, override, message):
    out_dir = str(tmp_path / "bad")
    assert main(["run", "--config", config_path, "--out", out_dir, *override]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not os.path.exists(os.path.join(out_dir, "trials.csv"))


def test_check_recomputes_from_csv(config_path, tmp_path):
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    for checks_on in ((), ("envelope", "order_stats")):
        config["checks"].update({name: True for name in checks_on})
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out_dir = str(tmp_path / "-".join(("out", *checks_on)))
        assert main(["run", "--config", config_path, "--out", out_dir]) == 0
        checks_path = os.path.join(out_dir, "checks.json")
        with open(checks_path, encoding="utf-8") as fh:
            first = fh.read()
        os.remove(checks_path)
        assert main(["check", "--config", config_path, "--out", out_dir]) == 0
        with open(checks_path, encoding="utf-8") as fh:
            second = fh.read()
        assert first == second
        checks = json.loads(second)
        assert [name for name in config["checks"] if checks[name]["enabled"]] == list(checks_on)


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
        (["--seed", "8"], "at (n, replicate) = (40, 0), the config's base seed 11 gives"),
        (["--alpha", "1.2"], "at (n, replicate) = (40, 0), the config's tail model gives"),
    ],
)
def test_refuses_trials_from_other_config(config_path, tmp_path, capsys, command, run_override, problem):
    out_dir = str(tmp_path / "other")
    assert main(["run", "--config", config_path, "--out", out_dir, *run_override]) == 0
    os.remove(os.path.join(out_dir, "checks.json"))
    capsys.readouterr()
    assert main([command, "--config", config_path, "--out", out_dir]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("records do not match the config")
    assert problem in captured.err
    assert captured.out == ""
    assert not os.path.exists(os.path.join(out_dir, "checks.json"))


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("window", ["c", "theta"])
def test_refuses_trials_from_other_filter(config_path, tmp_path, capsys, command, window):
    # (1, 0.6) in place of the run's (1, 0.5): every stored field check passes,
    # and only the rerun of replicate 0 tells the two filters apart.
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", config_path, "--out", out_dir]) == 0
    os.remove(os.path.join(out_dir, "checks.json"))
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["filter"][window]["values"] = [1.0, 0.6]
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    capsys.readouterr()
    assert main([command, "--config", config_path, "--out", out_dir]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("records do not match the config: scaled_norm = ")
    assert "at (n, replicate) = (40, 0), a rerun of the config gives" in captured.err
    assert captured.out == ""
    assert not os.path.exists(os.path.join(out_dir, "checks.json"))


@pytest.mark.parametrize("key", ["slack", "z", "ks_tol", "offdiag_threshold"])
def test_refuses_config_with_unknown_key(config_path, capsys, key):
    # The check tolerances are constants; a config that still sets one is
    # refused rather than judged by the constant.
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config[key] = 0.05
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    assert main(["validate", "--config", config_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"unknown config keys ['{key}']; known: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        ("validate --config {config} --alpha 5", "alpha must lie in (0, 4), got 5.0"),
        ("run --config {config} --out {tmp}/out --alpha 5", "alpha must lie in (0, 4), got 5.0"),
        ("validate --config {config} --n 0", "p and n must be >= 1, got p=1, n=0"),
        ("run --config {config} --out {tmp}/out --n 4", "got top_k=3 with p=2 at n=4"),
        ("check --config {config} --out {tmp}/absent", "absent/trials.csv: No such file or directory"),
        ("report --config {config} --out {tmp}/absent", "absent/trials.csv: No such file or directory"),
        *[
            (f"{command} --config {{tmp}}/absent.json", "absent.json: No such file or directory")
            for command in ("validate", "run", "check", "report")
        ],
    ],
)
def test_refusal_is_one_message_without_traceback(config_path, tmp_path, capsys, argv, message):
    assert main(argv.format(config=config_path, tmp=tmp_path).split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert not os.path.exists(os.path.join(tmp_path, "out", "trials.csv"))


def test_check_refuses_other_top_k(config_path, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", config_path, "--out", out_dir]) == 0
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["top_k"] = 4
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    capsys.readouterr()
    assert main(["check", "--config", config_path, "--out", out_dir]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3 top values at (n, replicate) = (40, 0), the config's top_k is 4" in captured.err
    assert "Traceback" not in captured.err

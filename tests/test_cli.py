"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heavyspec.cli import main
from heavyspec.experiment import CHECKS, check_status

ROOT = Path(__file__).resolve().parent.parent


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
    assert out.splitlines()[-1] == "admissible"
    assert "beta_admissible" in out


def test_validate_prints_the_report_once_after_the_grid(config_path, capsys):
    # Admissibility constrains the model and the growth rule, not one n: the
    # report follows the whole (n, p) grid once.
    assert main(["validate", "--config", config_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["n=40 p=6", "n=80 p=9"]
    assert [line.split()[1] for line in lines[2:4]] == ["zero_mean", "beta_admissible"]
    assert lines[4:] == ["admissible"]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("validate", "--out"),
        ("validate", "--workers"),
        ("validate", "--seed"),
        ("check", "--workers"),
        ("report", "--workers"),
    ],
)
def test_command_refuses_flag_it_does_not_read(config_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config_path, flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_validate_rejects_bad_alpha_override(config_path, capsys):
    assert main(["validate", "--config", config_path, "--alpha", "3.5"]) == 1
    assert "NOT admissible" in capsys.readouterr().out


def test_validate_caps_overflowing_growth_at_p_max(config_path, capsys):
    # 40^400 exceeds the largest float: p is p_max, and beta 400 is not admissible.
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["dimension_rule"]["beta"] = 400
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    assert main(["validate", "--config", config_path]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[:2] == ["n=40 p=10", "n=80 p=10"]
    assert lines[3].startswith("  FAIL  beta_admissible") and lines[4:] == ["NOT admissible"]
    assert captured.err == ""


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
        (["--n", "0"], "n must be >= 1, got 0"),
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


@pytest.mark.parametrize(
    "turned_on, statuses",
    [
        (["offdiag"], {"envelope": "disabled", "ks": "disabled", "order_stats": "disabled"}),
        # theta (1, .5) has two nonzero weights, so the KS law is not exact.
        (list(CHECKS), {"ks": "n/a"}),
    ],
    ids=["offdiag", "all"],
)
def test_report_judges_the_batch_under_its_config(config_path, tmp_path, capsys, turned_on, statuses):
    # The run leaves every check off in checks.json; report, given a config
    # that turns some on, prints check's fresh status of each and leaves
    # checks.json alone.
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", config_path, "--out", out_dir]) == 0
    checks_path = os.path.join(out_dir, "checks.json")
    with open(checks_path, encoding="utf-8") as fh:
        stored = fh.read()
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["checks"].update(dict.fromkeys(turned_on, True))
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    capsys.readouterr()
    assert main(["report", "--config", config_path, "--out", out_dir]) == 0
    lines = capsys.readouterr().out.splitlines()
    with open(checks_path, encoding="utf-8") as fh:
        assert fh.read() == stored
    assert main(["check", "--config", config_path, "--out", out_dir]) in (0, 2)
    with open(checks_path, encoding="utf-8") as fh:
        fresh = json.load(fh)
    status = {name: check_status(fresh[name]) for name in CHECKS}
    assert status.items() >= statuses.items()
    overall = "pass" if fresh["overall_passed"] else "FAIL"
    assert lines[-6:] == ["checks:", *(f"  {name:12s} {status[name]}" for name in CHECKS), f"overall: {overall}"]


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
    "key, value, message",
    [
        ("checks", {"envelope": "false"}, "checks must map check names to true or false"),
        ("replicates", 2.7, "replicates must be an integer, got 2.7"),
        ("top_k", 2.9, "top_k must be an integer, got 2.9"),
    ],
)
def test_refuses_non_boolean_flag_and_non_integral_count(
    config_path, tmp_path, capsys, key, value, message
):
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config[key] = value
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    assert main(["run", "--config", config_path, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert not os.path.exists(os.path.join(tmp_path, "out", "trials.csv"))


@pytest.mark.parametrize(
    "argv, message",
    [
        ("validate --config {config} --alpha 5", "alpha must lie in (0, 4), got 5.0"),
        ("run --config {config} --out {tmp}/out --alpha 5", "alpha must lie in (0, 4), got 5.0"),
        ("validate --config {config} --n 0", "n must be >= 1, got 0"),
        ("validate --config {config} --n -5", "n must be >= 1, got -5"),
        ("run --config {config} --out {tmp}/out --n -5", "n must be >= 1, got -5"),
        ("run --config {config} --out {tmp}/out --n 4", "got top_k=3 with p=2 at n=4"),
        ("validate --config {config} --n 4", "got top_k=3 with p=2 at n=4"),
        ("validate --config {tmp}/n_values_empty.json", "n_values must be nonempty"),
        ("validate --config {config} --replicates 0", "replicates must be >= 1, got 0"),
        ("check --config {config} --out {tmp}/absent", "absent/trials.csv: No such file or directory"),
        ("report --config {config} --out {tmp}/absent", "absent/trials.csv: No such file or directory"),
        *[
            (f"{command} --config {{config}} --out {{tmp}}/{name}", message)
            for command in ("check", "report")
            for name, message in (
                ("short_row", "short_row/trials.csv:3: 5 cells, the header has 10"),
                ("bad_int", "bad_int/trials.csv:3: invalid literal for int() with base 10: 'x118'"),
                ("nan_cell", "nan_cell/trials.csv:3: scaled_norm is nan, not a finite number"),
                ("inf_cell", "inf_cell/trials.csv:2: offdiag_dev is inf, not a finite number"),
                ("minus_inf_cell", "minus_inf_cell/trials.csv:3: top1 is -inf, not a finite number"),
                (
                    "no_top",
                    "no_top/trials.csv:1: header is not n,p,replicate,seed,a_np,scaled_norm,offdiag_dev,top1,...,topK",
                ),
            )
        ],
        ("check --config {config} --out {tmp}/bad_header", "bad_header/trials.csv:1: header is not n,p,"),
        *[
            (f"{command} --config {{tmp}}/absent.json", "absent.json: No such file or directory")
            for command in ("validate", "run", "check", "report")
        ],
        ("validate --config {tmp}/no_replicates.json", "config lacks required key 'replicates'"),
        ("validate --config {tmp}/repeated_keys.json", "config object repeats keys ['replicates', 'seed']; each key"),
        ("run --config {tmp}/no_filter_c.json --out {tmp}/out", "config lacks required key 'filter.c'"),
        ("validate --config {tmp}/alpha_true.json", "alpha must be a number, got True"),
        ("run --config {tmp}/beta_string.json --out {tmp}/out", "beta must be a number, got '0.5'"),
        ("validate --config {tmp}/filter_int.json", "filter must be a JSON object, got 5"),
        ("validate --config {tmp}/n_values_int.json", "n_values must be a list, got 1000"),
        ("run --config {tmp}/c_values_float.json --out {tmp}/out", "values must be a list, got 1.0"),
        ("validate --config {tmp}/model_list.json", "model must be a JSON object, got [1]"),
        ("validate --config {tmp}/const_huge.json", "dimension_rule overflows at n=40: computing 1e+308 * n^0.5 exceeds"),
        *[
            (f"{command} --config {{tmp}}/n_values_repeated.json{out}", "n_values repeats [40]; each n must appear once")
            for command, out in (("validate", ""), ("run", " --out {tmp}/out"), ("check", " --out {tmp}/one_row"))
        ],
        ("validate --config {tmp}/pmax.json", "unknown config keys ['dimension_rule.pmax']; known: "),
        ("run --config {tmp}/sclae.json --out {tmp}/out", "unknown config keys ['model.sclae']; known: "),
        ("validate --config {tmp}/minlag.json", "unknown config keys ['filter.theta.minlag']; known: "),
        ("validate --config {tmp}/np_one.json", "n * p must be at least 2, got n=1 and p=1"),
        ("run --config {tmp}/np_one.json --out {tmp}/out", "n * p must be at least 2, got n=1 and p=1"),
        *[
            (
                f"{command} --config {{tmp}}/student_t.json{out}",
                "unknown family 'student_t'; expected one of ('pareto_symmetric', 'pareto_positive', 'pareto_skewed')",
            )
            for command, out in (
                ("validate", ""),
                ("run", " --out {tmp}/out"),
                ("check", " --out {tmp}/one_row"),
                ("report", " --out {tmp}/one_row"),
            )
        ],
        ("validate --config {tmp}/scale_inf.json", "scale must be positive and finite, got inf"),
        ("run --config {tmp}/scale_inf.json --out {tmp}/out", "scale must be positive and finite, got inf"),
        *[
            (f"{command} --config {{tmp}}/{name}.json{out}", message)
            for command, out in (
                ("validate", ""),
                ("run", " --out {tmp}/out"),
                ("check", " --out {tmp}/one_row"),
                ("report", " --out {tmp}/one_row"),
            )
            for name, message in (
                (
                    "c_min_lag_huge",
                    "min_lag must keep every lag inside (-2**62, 2**62), got lags -10000000000000000000 through "
                    "-9999999999999999999",
                ),
                (
                    "theta_min_lag_huge",
                    "min_lag must keep every lag inside (-2**62, 2**62), got lags 10000000000000000000 through "
                    "10000000000000000001",
                ),
                (
                    "n_huge",
                    "n_values entry 9223372036854775808 gives p=10; n and p must be below 2**62, so noise indices "
                    "fit in int64",
                ),
                ("scale_tiny", "scale=1e-300 and alpha=1.5 give a_np^2 = 0 at n=40, p=6, not a positive normal float"),
                (
                    "scale_subnormal",
                    "scale=1e-160 and alpha=1.5 give a_np^2 = 1.49147e-317 at n=40, p=6, not a positive normal float",
                ),
                ("scale_huge", "scale=1e+300 and alpha=1.5 give a_np^2 = inf at n=40, p=6, not a positive normal float"),
                # config.example.json at a scale whose Gram product overflows
                # mid-run; the fixture's config at a tail index below the floor.
                ("example_scale_1e148", "scale=1e+148 and alpha=1.2 bound |S| by inf at n=1000, p=400: a Gram"),
                ("alpha_below_floor", "scale=1 and alpha=0.1 bound |S| by inf at n=40, p=6: a Gram product can"),
            )
        ],
    ],
)
def test_refusal_is_one_message_without_traceback(config_path, tmp_path, capsys, argv, message):
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    for name, path, value in (
        ("no_replicates", ("replicates",), None),
        ("no_filter_c", ("filter", "c"), None),
        ("alpha_true", ("model", "alpha"), True),
        ("beta_string", ("dimension_rule", "beta"), "0.5"),
        ("filter_int", ("filter",), 5),
        ("n_values_int", ("n_values",), 1000),
        ("c_values_float", ("filter", "c", "values"), 1.0),
        ("model_list", ("model",), [1]),
        ("const_huge", ("dimension_rule",), {"beta": 0.5, "const": 1e308}),
        ("n_values_empty", ("n_values",), []),
        ("n_values_repeated", ("n_values",), [40, 80, 40]),
        ("pmax", ("dimension_rule", "pmax"), 10),
        ("sclae", ("model", "sclae"), 2.0),
        ("minlag", ("filter", "theta", "minlag"), -3),
        ("student_t", ("model", "family"), "student_t"),
        # json writes and reads this as the bare token Infinity.
        ("scale_inf", ("model", "scale"), float("inf")),
        # Noise indices and seed keys past int64, and an a_np^2 that is 0, a
        # subnormal or inf.
        ("c_min_lag_huge", ("filter", "c", "min_lag"), -(10**19)),
        ("theta_min_lag_huge", ("filter", "theta", "min_lag"), 10**19),
        ("n_huge", ("n_values",), [2**63]),
        ("scale_tiny", ("model", "scale"), 1e-300),
        ("scale_subnormal", ("model", "scale"), 1e-160),
        ("scale_huge", ("model", "scale"), 1e300),
        ("alpha_below_floor", ("model", "alpha"), 0.1),
    ):
        edited = json.loads(json.dumps(config))
        node = edited
        for key in path[:-1]:
            node = node[key]
        if value is None:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        (tmp_path / f"{name}.json").write_text(json.dumps(edited), encoding="utf-8")
    # json.dumps writes each key once: this file gives replicates and seed a
    # second time, which json.load alone would read as the last values.
    repeated = json.dumps(config)[:-1] + ', "replicates": 500, "seed": 8}'
    (tmp_path / "repeated_keys.json").write_text(repeated, encoding="utf-8")
    example = json.loads((ROOT / "config.example.json").read_text(encoding="utf-8"))
    example["model"]["scale"] = 1e148
    (tmp_path / "example_scale_1e148.json").write_text(json.dumps(example), encoding="utf-8")
    # At n * p = 1 a_np is the 0 quantile of |Z|: refused before any trial.
    np_one = {**config, "n_values": [1], "top_k": 1}
    (tmp_path / "np_one.json").write_text(json.dumps(np_one), encoding="utf-8")
    header = "n,p,replicate,seed,a_np,scaled_norm,offdiag_dev,top1,top2,top3"
    good = "40,6,0,117,1.5,0.25,0.125,0.5,0.25,0.125"
    for name, lines in (
        ("one_row", [header, good]),
        ("short_row", [header, good, "40,6,1,118,1.5"]),
        ("bad_int", [header, good, "40,6,1,x118,1.5,0.25,0.125,0.5,0.25,0.125"]),
        ("bad_header", [header.replace("replicate", "rep"), good]),
        ("nan_cell", [header, good, "40,6,1,118,1.5,nan,0.125,0.5,0.25,0.125"]),
        ("inf_cell", [header, "40,6,0,117,1.5,0.25,inf,0.5,0.25,0.125", good]),
        ("minus_inf_cell", [header, good, "40,6,1,118,1.5,0.25,0.125,-inf,0.25,0.125"]),
        ("no_top", [header.split(",top1")[0], "40,6,0,117,1.5,0.25,0.125"]),
    ):
        (tmp_path / name).mkdir()
        (tmp_path / name / "trials.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(argv.format(config=config_path, tmp=tmp_path).split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not os.path.exists(os.path.join(tmp_path, "out", "trials.csv"))


def test_solver_failure_names_the_trial_in_one_line(tmp_path, capsys, monkeypatch):
    # A Lanczos run that cannot converge stops the run with the trial's
    # (n, replicate, seed), so that it can be rerun alone.
    import re

    from heavyspec import spectral
    from heavyspec.experiment import derive_seed

    monkeypatch.setattr(spectral, "_MAX_RESTARTS", 1)
    monkeypatch.setattr(spectral, "_ARPACK_TOL", 1e-300)
    argv = ["run", "--config", str(ROOT / "config.example.json"), "--out", str(tmp_path / "out")]
    assert main([*argv, "--n", "300", "--replicates", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    found = re.fullmatch(
        r"trial \(n, replicate, seed\) = \(300, ([01]), (\d+)\): "
        r"ARPACK did not converge within 1 restarts at tolerance 1e-300\n",
        captured.err,
    )
    assert found and int(found.group(2)) == derive_seed(7, 300, int(found.group(1)))


def test_module_entry_point_refuses_in_one_line(config_path, tmp_path):
    # `python -m heavyspec.cli` maps main's return value to the exit status.
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    del config["replicates"]
    path = tmp_path / "no_replicates.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    argv = [sys.executable, "-m", "heavyspec.cli", "validate", "--config", str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "config lacks required key 'replicates'\n"


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

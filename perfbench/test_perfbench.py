"""Fast checks of the benchmark itself.

Run from the root of a checkout:

    python3 -m pytest perfbench -q

Every workload runs at a tiny size through both modes and must print each
metric BENCHMARK.json names, with its unit; the oracle gate must reject a
perturbed stored value; and without the program the command must fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (first: it puts the checkout's src/ on the path)
import oracle  # noqa: E402
from heavyspec import experiment  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(workload: run.Workload) -> run.Workload:
    return replace(workload, n=60, p_max=16, trials=6)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_prints_every_metric(name, trace, section):
    result, lines = run.run(tiny(run.WORKLOADS[name]), seed=3, seconds=0.2, trace=trace, setup_repeats=1)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 12
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        value = result["metrics"][metric]["value"]
        assert any(line.startswith(f"metric {metric} = {value:.6g} {unit}") for line in lines), metric


def _tiny_batch():
    workload = tiny(run.WORKLOADS["light_centered_w1"])
    config = experiment.ExperimentConfig.from_dict(workload.config(seed=5))
    batch = experiment.run_batch(
        config.template, config.rule, config.n_values, config.replicates, config.seed, top_k=config.top_k
    )
    return config, list(batch.records)


@pytest.mark.parametrize("field", ["scaled_norm", "offdiag_dev", "a_np"])
def test_oracle_rejects_perturbed_value(field):
    config, records = _tiny_batch()
    assert oracle.check(config, records) == []
    records[0] = replace(records[0], **{field: getattr(records[0], field) * (1.0 + 1e-6)})
    mismatches = oracle.check(config, records)
    assert [(m.replicate, m.field) for m in mismatches] == [(0, field)]


def test_oracle_rejects_missing_trial():
    config, records = _tiny_batch()
    mismatches = oracle.check(config, records[:-1])
    assert [m.field for m in mismatches] == ["record"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "light_centered_w1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

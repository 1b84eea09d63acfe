"""heavyspec benchmark: throughput and time to verdict on Monte Carlo workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload envelope_p400_w2 --seed 1 --seconds 40 --trace 0

Each run writes the workload's config, then repeats one closed-loop batch
(``run_batch`` -> ``run_checks`` -> ``emit_report``) at that seed until
``--seconds`` are spent, and times a fresh ``heavyspec validate`` process for
set-up.  Outside the timed region it recomputes a fixed sample of trials with
an independent dense reference and requires every repeat to write the same
``trials.csv`` bytes.  ``--trace 1`` interleaves untraced repeats with traced
ones and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit, the spreads and the machine facts.  The
benchmark sets no BLAS thread variable and never changes a worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Benchmark the checkout's own source, never an installed copy.
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import scipy

    import heavyspec
    import heavyspec.cli as cli
    import heavyspec.experiment as experiment
    import oracle
    from tracer import Tracer, layer_metrics, self_time_lines
except ImportError as err:
    sys.exit(f"perfbench: cannot import heavyspec from {SRC}: {err}")

RUN_DIR = ROOT / ".perfbench_runs"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
MIN_REPEATS = 2
WARMUP_TRIALS = 2
SETUP_REPEATS = 5
CLI_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One closed-loop batch configuration; ``trials`` is the batch size."""

    name: str
    alpha: float
    beta: float
    const: float
    p_max: int
    n: int
    workers: int
    trials: int

    def config(self, seed: int) -> dict:
        return {
            "model": {"family": "pareto_symmetric", "alpha": self.alpha, "q": 0.5, "scale": 1.0},
            "filter": {
                "c": {"min_lag": 0, "values": [1.0, 0.5]},
                "theta": {"min_lag": 0, "values": [1.0, 0.5]},
                "delta": 0.9,
            },
            "dimension_rule": {"beta": self.beta, "const": self.const, "p_max": self.p_max},
            "n_values": [self.n],
            "replicates": self.trials,
            "seed": seed,
            "checks": {"envelope": True, "ks": False, "order_stats": True, "offdiag": False},
        }


# BENCHMARK.json says why each workload was chosen.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("envelope_p400_w2", alpha=1.2, beta=0.9, const=1.0, p_max=400, n=1000, workers=2, trials=48),
        Workload("light_centered_w1", alpha=3.0, beta=0.15, const=200.0, p_max=400, n=1000, workers=1, trials=24),
    )
}


@dataclass
class Repeat:
    traced: bool
    batch_s: float = float("nan")
    verdict_s: float = float("nan")
    csv: bytes = b""
    checks_passed: bool | None = None
    records: tuple = ()
    error: str | None = None


def one_repeat(config, workers: int, out_dir: Path, tracer: Tracer | None) -> Repeat:
    """One closed-loop batch: run_batch -> run_checks -> emit_report."""
    rep = Repeat(traced=tracer is not None)
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            batch = experiment.run_batch(
                config.template, config.rule, config.n_values, config.replicates, config.seed,
                workers=workers, top_k=config.top_k,
            )
            t1 = time.perf_counter()
            checks = experiment.run_checks(batch, config)
            paths = experiment.emit_report(batch, checks, str(out_dir))
            t2 = time.perf_counter()
    except Exception:  # a failing program is a measured outcome, not a crash
        rep.error = traceback.format_exc()
        return rep
    rep.batch_s, rep.verdict_s = t1 - t0, t2 - t0
    rep.csv = Path(paths["trials"]).read_bytes()
    rep.checks_passed = bool(checks["overall_passed"])
    rep.records = batch.records
    shutil.rmtree(out_dir)
    return rep


def warm_up(config) -> str | None:
    """Untimed trials first, so that lazy set-up in the process (allocator
    growth, first solver calls) is not charged to the first repeat.  A user
    pays it once per process, not once per batch."""
    try:
        experiment.run_batch(
            config.template, config.rule, config.n_values, WARMUP_TRIALS, config.seed, top_k=config.top_k
        )
    except Exception:
        return traceback.format_exc()
    return None


def measure(config, workers: int, seconds: float, run_dir: Path, tracer: Tracer | None) -> list[Repeat]:
    """Repeat the batch until the next repeat would overrun ``seconds``.

    With a tracer, untraced and traced repeats alternate so that drift on the
    machine hits both alike.
    """
    repeats: list[Repeat] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(repeats) % 2 == 1
        repeats.append(one_repeat(config, workers, run_dir / f"rep{len(repeats)}", tracer if traced else None))
        elapsed = time.perf_counter() - start
        if repeats[-1].error or (
            len(repeats) >= MIN_REPEATS and elapsed * (len(repeats) + 1) / len(repeats) > seconds
        ):
            return repeats


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus ``workers`` times the largest
    waited-for child, so pool workers count; read before any other child runs."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + (workers * child_kb if workers > 1 else 0)) / 1024.0


def time_setup(config_path: Path, repeats: int) -> tuple[list[float], str | None]:
    """Wall time of fresh ``heavyspec validate`` processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "heavyspec.cli", "validate", "--config", str(config_path)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.splitlines()[-1:] != ["admissible"]:
            return times, f"validate exited {proc.returncode}: {proc.stdout[-500:]}{proc.stderr[-500:]}"
    return times, None


def time_cli_in_process(tracer: Tracer, config_path: Path) -> None:
    """Trace the in-process ``validate`` command, without interpreter start and imports."""
    for _ in range(CLI_REPEATS):
        with contextlib.redirect_stdout(io.StringIO()):
            tracer.call("cli.validate", cli.main, (["validate", "--config", str(config_path)],), {})


def _blas_threads() -> dict:
    """Effective OpenBLAS thread counts of numpy's and scipy's bundled libraries."""
    out = {}
    for key, pattern, symbol in (
        ("numpy", "numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
        ("scipy", "scipy.libs/libscipy_openblas*.so", "scipy_openblas_get_num_threads"),
    ):
        out[key] = "unknown"
        package = np if key == "numpy" else scipy
        for path in glob.glob(str(Path(package.__file__).parent.parent / pattern)):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.argtypes, fn.restype = [], ctypes.c_int
            out[key] = fn()
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_facts(workers: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "env": {var: os.environ.get(var) for var in BLAS_VARS},
        "workers": workers,
        "git_commit": _git_commit(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} p25={q1:.6g} p75={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def check_gates(config, good: list[Repeat]) -> tuple[int, list[str], list[str]]:
    """Determinism and oracle gates over the repeats that ran to the end.

    Returns the failed trial count, the problems found and report lines.
    """
    failed, problems = 0, []
    first = good[0].csv.splitlines()
    for rep in good[1:]:
        rows = rep.csv.splitlines()
        differing = sum(a != b for a, b in zip(first[1:], rows[1:])) + abs(len(first) - len(rows))
        if differing:
            problems.append(f"determinism: a repeat differs from the first on {differing} trials.csv rows")
            failed += differing
    missing = config.replicates - len(good[0].records)
    if missing:
        problems.append(f"{missing} trials missing from the batch")
    mismatches = oracle.check(config, list(good[0].records))
    problems += [f"oracle: {m}" for m in mismatches]
    failed += len(good) * (missing + len({m.replicate for m in mismatches}))
    lines = [
        f"determinism: {len(good)} repeats, trials.csv sha256 {hashlib.sha256(good[0].csv).hexdigest()[:16]}..., "
        + ("DIFFERENT" if any(p.startswith("determinism") for p in problems) else "identical"),
        f"oracle: replicates {oracle.sample_replicates(config.replicates)} vs dense eigvalsh reference, "
        f"rel tol {oracle.REL_TOL:g}: {len(mismatches)} mismatches",
        f"checks: overall_passed={good[0].checks_passed} (recorded, not gated: the checks are weak and seed-dependent)",
    ]
    return failed, problems, lines


def end_to_end_metrics(config, untraced, setup, rss_mb, ok_frac) -> tuple[dict, list[str]]:
    tps = [config.replicates / r.batch_s for r in untraced]
    verdict = [r.verdict_s for r in untraced]
    metrics = {
        "trials_per_s": {"value": _median(tps), "unit": "1/s"},
        "verdict_s": {"value": _median(verdict), "unit": "s"},
        "setup_s": {"value": _median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "ok_frac": {"value": ok_frac, "unit": "fraction"},
    }
    spreads = {"trials_per_s": _spread(tps), "verdict_s": _spread(verdict), "setup_s": _spread(setup)}
    lines = [f"metric {k} = {m['value']:.6g} {m['unit']}  {spreads.get(k, '')}".rstrip() for k, m in metrics.items()]
    return metrics, lines


def per_layer_metrics(config, workload, tracer, traced, untraced) -> tuple[dict, list[str]]:
    layer, tails = layer_metrics(tracer.spans, workload.workers)
    ratio = _median([config.replicates / r.batch_s for r in traced]) / _median(
        [config.replicates / r.batch_s for r in untraced]
    )
    layer["tracing.trials_per_s_ratio"] = (ratio, "fraction")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    lines = [
        f"metric {name} = {value:.6g} {unit}" + (f"  (p{tails[name]})" if name in tails else "")
        for name, (value, unit) in layer.items()
    ]
    lines.append(
        f"tracing overhead: traced trials_per_s is {ratio:.4f} of untraced "
        f"({len(traced)} traced, {len(untraced)} untraced repeats)"
    )
    return metrics, lines + self_time_lines(tracer.spans)


def run(workload: Workload, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS):
    """Run one workload; returns (result JSON object, report lines)."""
    run_dir = RUN_DIR / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(workload.config(seed), indent=2) + "\n")
    config = experiment.load_config(str(config_path))
    tracer = Tracer() if trace else None
    lines = [
        f"workload {workload.name} seed={seed} trace={int(trace)} trials_per_batch={config.replicates} "
        f"workers={workload.workers} seconds={seconds}"
    ]
    problems = []
    warm_up_error = warm_up(config)
    if warm_up_error:
        problems.append(f"warm-up raised:\n{warm_up_error}")

    repeats = measure(config, workload.workers, seconds, run_dir, tracer)
    rss_mb = peak_rss_mb(workload.workers)
    good = [r for r in repeats if r.error is None]
    attempted = len(repeats) * config.replicates
    failed = (len(repeats) - len(good)) * config.replicates
    problems += [f"repeat raised:\n{r.error}" for r in repeats if r.error]
    if good:
        gate_failed, gate_problems, gate_lines = check_gates(config, good)
        failed += gate_failed
        problems += gate_problems
        lines += gate_lines

    untraced = [r for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    metrics = {}
    if not trace and untraced:
        setup, setup_error = time_setup(config_path, setup_repeats)
        if setup_error:
            problems.append(f"setup: {setup_error}")
        metrics, metric_lines = end_to_end_metrics(config, untraced, setup, rss_mb, 1.0 - failed / attempted)
        lines += metric_lines
        lines.append(f"metric failed_frac = {failed / attempted:.6g} fraction  ({failed} of {attempted} trials)")
    elif trace and traced and untraced:
        time_cli_in_process(tracer, config_path)
        metrics, metric_lines = per_layer_metrics(config, workload, tracer, traced, untraced)
        lines += metric_lines
        trace_path = RUN_DIR / f"trace-{workload.name}-seed{seed}.json"
        trace_path.write_text(json.dumps({"workload": workload.name, "seed": seed, "spans": tracer.spans}))
        lines.append(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")

    lines.append("machine " + json.dumps(machine_facts(workload.workers)))
    lines += [f"FAILED {p}" for p in problems]
    shutil.rmtree(run_dir, ignore_errors=True)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"default {DEFAULT_SEED}; held out {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(heavyspec.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: heavyspec imported from {heavyspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Monte Carlo harness: trial batches, statistical checks against the limit
laws, and deterministic result persistence.  The config layer and its
admissibility validation live in ``_config``, which alone exports them.

A trial batch is a pure function of its configuration: replicate seeds are
derived from (base_seed, n, replicate), every trial is counter-based, and
records are sorted before emission, so output files are byte-reproducible
regardless of worker scheduling.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import islice

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.special import kolmogi, smirnov

from .limit_law import envelope_scales, frechet_cdf, limit_order_statistics
from ._config import (
    CHECKS, DimensionRule, EnsembleSpec, EnsembleTemplate, ExperimentConfig, FilterSpec, TailModel,
    ValidationError, batch_grid, config_int, norming_constant, validate,
)
from ._config import load_config  # noqa: F401  (perfbench's run.py calls this name)
from .linear_filter import build_row_process, window_sum
from .linear_filter import build_xhat  # noqa: F401  (perfbench's tracer wraps this name)
from .rv_noise import derive_key, sample_noise
from .spectral import (
    _ARPACK_TOL,
    SpectralNormError,
    centered_covariance,
    centered_gram_diag,
    mu_x_alpha,
    offdiag_deviation,
    spectral_norm,
)

__all__ = [
    "TrialBatch",
    "TrialRecord",
    "check_status",
    "derive_seed",
    "emit_report",
    "envelope_check",
    "ks_check",
    "ks_distance",
    "offdiag_trend_check",
    "order_stat_check",
    "read_trials_csv",
    "run_batch",
    "run_checks",
    "run_trial",
    "write_checks",
]

_SEED_DOMAIN = 0x7B1A15


@dataclass(frozen=True)
class TrialRecord:
    """Per-replicate scalars, one row of trials.csv; ``top_diag`` holds the k
    largest row-window moving averages of the scaled centered diagonal.

    The fields, in order, are the columns of trials.csv, ``top_diag`` as
    top1..topK: a new statistic is one int or float field plus the code in
    ``run_trial`` that computes it."""

    n: int
    p: int
    replicate: int
    seed: int
    a_np: float
    scaled_norm: float
    offdiag_dev: float
    top_diag: tuple[float, ...]


# Noise entries per row block of a trial (512 KiB of float64): the block's
# hash, sign and value buffers and the row filter's scratch take 2 MiB, about
# one L2 cache.  The one-hash noise and row filter of one pareto_symmetric
# trial at p = 400, n = 1000, c = theta = (1, .5), one BLAS thread, on a
# 2-vCPU Xeon (OpenBLAS 0.3.31, numpy 2.4.6), in ms, median of 101 rounds
# alternating the sizes (interquartile range):
#
#   entries  rows  alpha 1.2          alpha 3
#   2**14     16   7.70 (6.00-8.54)   7.92 (6.25-8.49)
#   2**15     32   6.74 (5.42-7.35)   6.80 (5.32-7.27)
#   2**16     65   6.45 (5.35-6.95)   6.51 (5.60-6.87)
#   2**17    130   6.61 (5.83-7.19)   6.78 (5.95-7.36)
#
# 2**16 had the lowest median at both alphas, here and in a second run of
# 101 rounds; 2**15 and 2**17 lie within its spread, 2**14 is slower.
_BLOCK_ENTRIES = 2**16


class _TrialWorkspace:
    """Every large array a trial of one shape writes, allocated once.

    ``key`` is (panel rows m, panel columns, n, p, block rows).  The m x m
    Gram is the only square array, F-ordered and used by its lower triangle
    alone: S is an operator on the Gram, whose products need only vectors,
    and ``offdiag_deviation`` zeroes the Gram's diagonal for its solve and
    restores it, with no copy.
    """

    def __init__(self, key: tuple[int, int, int, int, int]):
        m, width, n, _, block_rows = key
        self.key = key
        self.noise = (*(np.empty((block_rows, width), np.uint64) for _ in range(2)), np.empty((block_rows, width)))
        self.block_scratch = np.empty((block_rows, n))
        self.x_rows = np.empty((m, n))
        self.d_tilde = np.empty(m)
        self.gram = np.empty((m, m), order="F")


# One workspace per thread, so that two threads never share buffers; it is
# replaced when a trial of another shape runs and kept for the process's life.
_LOCAL = threading.local()


def _trial_workspace(key: tuple[int, int, int, int, int]) -> _TrialWorkspace:
    """This thread's workspace for ``key``, made anew when the key changed."""
    ws = getattr(_LOCAL, "workspace", None)
    if ws is None or ws.key != key:
        # Drop every reference to the old shape's buffers, so that they are
        # freed before the new ones are allocated.
        _LOCAL.workspace = ws = None
        ws = _LOCAL.workspace = _TrialWorkspace(key)
    return ws


def run_trial(spec: EnsembleSpec, top_k: int = 3) -> TrialRecord:
    """Draw one replicate and reduce it to its record scalars.

    Deterministic given ``spec``; the replicate number is filled by the batch
    runner.  The noise is drawn and row-filtered one block of rows at a time,
    about ``_BLOCK_ENTRIES`` noise entries each, so the whole noise panel is
    never held.  Each noise entry depends only on (seed, row, column), and the
    filter acts within a row, so the blocks give the same bits as one full
    panel.  Every statistic then comes from the one Gram product of the rows,
    BLAS ``dsyrk`` into the lower triangle of the workspace's Gram: S, the
    off-diagonal part and the centered diagonal.  Each norm checks the Gram
    in O(m), from its diagonal, leaves it as it was and comes back raw: this
    is the one place that scales the norms and the top values by a_np².

    Every large array lives in this thread's workspace for the trial's
    shape, so a trial after the first of its shape allocates none.
    """
    model, fspec, p, n, seed = spec.model, spec.filter, spec.p, spec.n, spec.seed
    theta, c = fspec.theta, fspec.c

    a_np = norming_constant(model, n * p)
    mu = mu_x_alpha(model, c, a_np)
    r0, r1 = 1 - theta.max_lag, p - theta.min_lag + 1
    cols = (1 - c.max_lag, n - c.min_lag + 1)
    width = cols[1] - cols[0]
    step = min(max(1, _BLOCK_ENTRIES // width), r1 - r0)
    ws = _trial_workspace((r1 - r0, width, n, p, step))
    for lo in range(r0, r1, step):
        hi = min(lo + step, r1)
        rows = slice(lo - r0, hi - r0)
        noise = sample_noise(model, (lo, hi), cols, seed, buffers=tuple(b[: hi - lo] for b in ws.noise))
        build_row_process(noise, c, (lo, hi), n, out=ws.x_rows[rows], scratch=ws.block_scratch[: hi - lo])
    # With trans=1, dsyrk forms Aᵀ A for A = Xᵀ, the F-ordered view of the
    # rows: X Xᵀ, written into the workspace in place with no copy of either
    # array; the upper triangle keeps what it held.
    gram = dsyrk(1.0, ws.x_rows.T, trans=1, lower=1, c=ws.gram, overwrite_c=1)
    d_tilde = centered_gram_diag(gram, n, mu, out=ws.d_tilde)

    # Both norms read the lower triangle alone.  They are called through
    # this module's names, with the Gram first: perfbench's tracer wraps
    # them and reads the Gram's shape.
    a2 = a_np * a_np
    scaled = spectral_norm(centered_covariance(gram, theta, p, n, mu)) / a2
    offdiag = offdiag_deviation(gram) / a2
    top = np.sort(window_sum(theta, d_tilde, p) / a2)[::-1][:top_k]
    return TrialRecord(
        n=n,
        p=p,
        replicate=0,
        seed=seed,
        a_np=a_np,
        scaled_norm=scaled,
        offdiag_dev=offdiag,
        top_diag=tuple(float(v) for v in top),
    )


def derive_seed(base_seed: int, n: int, replicate: int | np.ndarray) -> int | np.ndarray:
    """Injective (up to 64-bit hashing) per-replicate seed derivation, elementwise over an array."""
    return derive_key(base_seed, _SEED_DOMAIN, n, replicate)


@dataclass(frozen=True)
class TrialBatch:
    """All replicate records of one experiment plus the template that made them."""

    model: TailModel
    filter: FilterSpec
    n_values: tuple[int, ...]
    top_k: int
    records: tuple[TrialRecord, ...]

    @property
    def largest_n(self) -> int:
        return max(self.n_values)

    def records_at(self, n: int) -> list[TrialRecord]:
        return [r for r in self.records if r.n == n]

    def scaled_norms(self, n: int | None = None) -> np.ndarray:
        n = self.largest_n if n is None else n
        return np.array([r.scaled_norm for r in self.records_at(n)])

    def offdiag_devs(self, n: int) -> np.ndarray:
        return np.array([r.offdiag_dev for r in self.records_at(n)])

    def top_matrix(self) -> np.ndarray:
        return np.array([r.top_diag for r in self.records_at(self.largest_n)])


def _trial_job(args: tuple[EnsembleSpec, int, int]) -> TrialRecord:
    spec, replicate, top_k = args
    try:
        record = run_trial(spec, top_k=top_k)
    except SpectralNormError as err:
        where = f"trial (n, replicate, seed) = ({spec.n}, {replicate}, {spec.seed})"
        raise SpectralNormError(f"{where}: {err}") from err
    return replace(record, replicate=replicate)


# Thread-count calls of the OpenBLAS builds numpy and scipy bundle (the 64-bit
# integer one numpy ships, then scipy's), then of a plain OpenBLAS.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _set_blas_threads(count: int) -> list[tuple[object, int]]:
    """Set every OpenBLAS library loaded in this process to ``count`` threads.

    Returns ``(set_num_threads, previous count)`` per library, so the caller
    can restore them. A library already at ``count`` is left alone: in a
    forked child, ``set_num_threads`` starts anew the helper threads that a
    fork does not copy, whatever the count. Does nothing where no OpenBLAS
    is loaded, or where the process has no ``/proc/self/maps`` to find one in.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except FileNotFoundError:
        return []
    previous = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            if hasattr(lib, set_name):
                get_threads, set_threads = getattr(lib, get_name), getattr(lib, set_name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                current = get_threads()
                previous.append((set_threads, current))
                if current != count:
                    set_threads(count)
                break
    return previous


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one BLAS thread, then restore the caller's counts."""
    previous = _set_blas_threads(1)
    try:
        yield
    finally:
        for set_threads, count in previous:
            set_threads(count)


def run_batch(
    template: EnsembleTemplate,
    rule: DimensionRule,
    n_values,
    replicates: int,
    base_seed: int,
    workers: int = 1,
    top_k: int = 3,
) -> TrialBatch:
    """Validate, then run every replicate at every n; refuses, before any
    trial runs, a count that is not an integer, what ``batch_grid`` refuses
    and an inadmissible config.

    Replicate seeds depend only on (base_seed, n, replicate); records are
    sorted afterwards so the batch is independent of scheduling.

    Every trial runs with one BLAS thread, in pool workers and in the serial
    loop alike. The bits of the Gram product depend on the BLAS thread count,
    and OpenBLAS's default count follows the core count, so this keeps records
    equal across worker counts and machines. The caller drops to one thread
    while the batch runs and gets its own count back when it ends. A forked
    worker inherits the one thread and starts no BLAS helper thread; the
    pool's initializer sets the count only in a worker that starts from a
    fresh interpreter (``spawn``, ``forkserver``) at the library's default.
    """
    n_values = tuple(config_int(n, "n_values entry") for n in n_values)
    replicates, top_k = config_int(replicates, "replicates"), config_int(top_k, "top_k")
    workers = config_int(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    grid = batch_grid(template, rule, n_values, replicates, top_k)
    # validate through this module's name, which perfbench's tracer wraps.
    report = validate(template.model, rule)
    if not report.ok:
        raise ValidationError(report)
    jobs = []
    for n, p in grid:
        seeds = derive_seed(base_seed, n, np.arange(replicates)).tolist()
        jobs += [(template.spec(p, n, seed), r, top_k) for r, seed in enumerate(seeds)]
    # A pool forks all its workers at once: start no more than there are jobs.
    workers = min(workers, len(jobs))
    with _one_blas_thread():
        if workers > 1:
            # Jobs per pool task: run_batch's trials per second on 2 workers
            # (2-vCPU Xeon, OpenBLAS 0.3.31, one BLAS thread), chunk size 1
            # against 8 in alternating pairs, two runs each, median
            # [quartiles]:
            #
            #   batch                      pairs  chunk 1               chunk 8               1 faster
            #   48 trials, p 400, alpha 1.2   20  130.0 [123.1, 136.1]  128.8 [124.2, 132.5]  11/20
            #                                 30  122.1 [119.0, 129.5]  121.0 [115.1, 126.7]  17/30
            #   config.example.json, 500       5  157.3 [151.7, 158.4]  156.8 [147.9, 164.8]   3/5
            #                                  6  148.3 [138.3, 163.5]  168.5 [155.6, 179.2]   1/6
            #
            # 1 ties 8 on the short batch and lost on the long one, so 8 stays.
            with ProcessPoolExecutor(max_workers=workers, initializer=_set_blas_threads, initargs=(1,)) as pool:
                records = list(pool.map(_trial_job, jobs, chunksize=8))
        else:
            records = [_trial_job(job) for job in jobs]
    records.sort(key=lambda rec: (rec.n, rec.replicate))
    return TrialBatch(template.model, template.filter, n_values, top_k, tuple(records))


# ---------------------------------------------------------------------------
# Empirical-law statistics and the checks.
#
# Each check takes only the batch and judges it by fixed module constants, so
# every run of a config gets the same verdict rule; checks.json records the
# values each check used.


def _one_sided_sups(values, cdf_plus, cdf_minus) -> tuple[tuple[float, float], tuple[float, float]]:
    """``((d_plus, x_plus), (d_minus, x_minus))``: d_plus = sup(ECDF -
    cdf_plus) and d_minus = sup(cdf_minus - ECDF), each at least 0, with the
    sorted value where it is reached (d_minus as x rises to it), evaluated
    exactly at the sample points."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("KS distance of an empty sample is undefined")
    steps = np.arange(1, v.size + 1) / v.size
    plus = steps - np.asarray(cdf_plus(v), dtype=float)
    minus = np.asarray(cdf_minus(v), dtype=float) - (steps - 1.0 / v.size)
    i, j = int(np.argmax(plus)), int(np.argmax(minus))
    return (float(plus[i]), float(v[i])), (float(minus[j]), float(v[j]))


def ks_distance(values, cdf) -> float:
    """sup_x |ECDF(x) - cdf(x)|, evaluated exactly at the sample points."""
    return max(d for d, _ in _one_sided_sups(values, cdf, cdf))


def _rows(**columns) -> list[dict]:
    """One dict of Python scalars per index of the equal-length arrays,
    keyed by the argument names in their order."""
    return [dict(zip(columns, row)) for row in zip(*(np.asarray(c).tolist() for c in columns.values()))]


_KS_LEVEL = 0.05
_LIMIT_DRAWS = 2000
_OFFDIAG_THRESHOLD = 0.15


def envelope_check(batch: TrialBatch) -> dict:
    """Test the scaled norms at each n against the theorem's envelope,
    ``frechet_cdf(x, upper_scale) <= F(x) <= frechet_cdf(x, lower_scale)``
    for their law F, as two one-sided Smirnov tests.

    Norms too small: d_plus = sup(ECDF - the law at lower_scale); norms too
    big: d_minus = sup(the law at upper_scale - ECDF).  Where the bound
    holds, each is stochastically below the one-sided KS statistic against
    F, so ``smirnov(count, d)`` bounds its p-value exactly.  The largest n
    decides: it passes when both p-values exceed ``_KS_LEVEL / 2``
    (Bonferroni over the two sides).  With one nonzero weight the two scales
    are equal and this is a two-sided KS test against the exact law.
    """
    lower_scale, upper_scale = envelope_scales(batch.filter)
    alpha = batch.model.alpha
    upper, lower = (lambda x: frechet_cdf(x, lower_scale, alpha)), (lambda x: frechet_cdf(x, upper_scale, alpha))
    per_n = []
    for n in sorted(batch.n_values):
        values = batch.scaled_norms(n)
        entry = {"n": n, "count": values.size}
        for side, (d, x) in zip(("plus", "minus"), _one_sided_sups(values, upper, lower)):
            entry |= {f"d_{side}": d, f"x_{side}": x, f"p_{side}": float(smirnov(values.size, d))}
        per_n.append(entry)
    return {
        "applicable": True,
        # The loop ends at the largest n, which decides.
        "passed": min(entry["p_plus"], entry["p_minus"]) > _KS_LEVEL / 2,
        "alpha": alpha,
        "lower_scale": lower_scale,
        "upper_scale": upper_scale,
        "level": _KS_LEVEL,
        "level_per_side": _KS_LEVEL / 2,
        "per_n": per_n,
    }


def ks_check(batch: TrialBatch) -> dict:
    """KS distance of the scaled norms at the largest n against the exact
    limit law; passes at a distance of at most the Kolmogorov critical value
    at level ``_KS_LEVEL`` for the replicate count, ``kolmogi(level)/√count``.

    Only applicable when the envelope degenerates (single nonzero row weight);
    otherwise the distances to both envelope CDFs are reported without a
    verdict: ``ks_vs_lower_cdf`` to the law at ``upper_scale`` and
    ``ks_vs_upper_cdf`` to the law at ``lower_scale``.
    """
    lower_scale, upper_scale = envelope_scales(batch.filter)
    alpha = batch.model.alpha
    values = batch.scaled_norms()
    ks_lower = ks_distance(values, lambda x: frechet_cdf(x, upper_scale, alpha))
    ks_upper = ks_distance(values, lambda x: frechet_cdf(x, lower_scale, alpha))
    single = lower_scale == upper_scale
    tol = float(kolmogi(_KS_LEVEL)) / math.sqrt(values.size)
    out = {
        "applicable": single,
        "n": batch.largest_n,
        "count": int(values.size),
        "level": _KS_LEVEL,
        "tol": tol,
        "ks_vs_lower_cdf": ks_lower,
        "ks_vs_upper_cdf": ks_upper,
    }
    out["passed"] = bool(ks_upper <= tol) if single else None
    return out


_LIMIT_SEED = 0x0A11
_IQR_FACTOR = 0.5


def order_stat_check(batch: TrialBatch) -> dict:
    """Compare the batch's ``top_k`` top-rank diagonal statistics at the
    largest n with ``_LIMIT_DRAWS`` draws of the limit point process.

    Per rank, the empirical median across replicates must agree with the
    simulated limit median within _IQR_FACTOR * (empirical IQR + limit IQR).
    Not applicable when no theta weight is positive: the limit then has no
    top points to compare with.
    """
    k = batch.top_k
    if max(batch.filter.theta.values) <= 0.0:
        return {"applicable": False, "passed": None, "n": batch.largest_n, "k": k}
    emp = batch.top_matrix()
    seeds = derive_key(_LIMIT_SEED, np.arange(_LIMIT_DRAWS))
    draws = limit_order_statistics(batch.filter, batch.model.alpha, k, seeds)
    med_e, med_l = np.median(emp, axis=0), np.median(draws, axis=0)
    iqr_e = np.subtract(*np.percentile(emp, [75, 25], axis=0))
    iqr_l = np.subtract(*np.percentile(draws, [75, 25], axis=0))
    tol = _IQR_FACTOR * (iqr_e + iqr_l)
    ok = np.abs(med_e - med_l) <= tol
    ranks = _rows(
        rank=np.arange(1, k + 1),
        empirical_median=med_e,
        empirical_iqr=iqr_e,
        limit_median=med_l,
        limit_iqr=iqr_l,
        tol=tol,
        passed=ok,
    )
    return {
        "applicable": True,
        "passed": bool(ok.all()),
        "n": batch.largest_n,
        "k": k,
        "limit_draws": _LIMIT_DRAWS,
        "iqr_factor": _IQR_FACTOR,
        "ranks": ranks,
    }


def offdiag_trend_check(batch: TrialBatch) -> dict:
    """Median off-diagonal deviation must decrease along the n grid and end
    below ``_OFFDIAG_THRESHOLD``."""
    ns = sorted(batch.n_values)
    medians = [float(np.median(batch.offdiag_devs(n))) for n in ns]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    final_ok = medians[-1] < _OFFDIAG_THRESHOLD
    return {
        "applicable": True,
        "passed": decreasing and final_ok,
        "threshold": _OFFDIAG_THRESHOLD,
        "n_values": ns,
        "medians": medians,
        "decreasing": decreasing,
        "final_below_threshold": final_ok,
    }


def check_status(entry: dict) -> str:
    """The status of one check entry of ``run_checks``: "disabled", "n/a"
    (not applicable, or no verdict), "pass" or "FAIL"."""
    if not entry["enabled"]:
        return "disabled"
    if not entry["applicable"] or entry["passed"] is None:
        return "n/a"
    return "pass" if entry["passed"] else "FAIL"


def run_checks(batch: TrialBatch, config: ExperimentConfig) -> dict:
    """Run each check of ``CHECKS`` that the config enables, on the batch
    alone; the batch passes overall when no check's status is FAIL."""
    out = {}
    for name, function in CHECKS.items():
        out[name] = {"enabled": True, **globals()[function](batch)} if config.checks[name] else {"enabled": False}
    out["overall_passed"] = all(check_status(entry) != "FAIL" for entry in out.values())
    return out


# ---------------------------------------------------------------------------
# Persistence.


# The columns come from TrialRecord, the class: a subclass's own fields
# (perfbench's traced records) are no columns.
_TOP = "top_diag"


def _schema(top_k: int) -> list[tuple[str, type, str]]:
    """(column, int or float, field name) per column of trials.csv."""
    # Annotations are strings in this module.
    return [
        (column, int if f.type == "int" else float, f.name)
        for f in fields(TrialRecord)
        for column in ([f"top{i}" for i in range(1, top_k + 1)] if f.name == _TOP else [f.name])
    ]


def _values(rec: TrialRecord) -> list:
    """The record's numbers in column order."""
    return [v for f in fields(TrialRecord) for v in (rec.top_diag if f.name == _TOP else [getattr(rec, f.name)])]


def emit_report(batch: TrialBatch, checks: dict | None, out_dir: str) -> dict:
    """Write trials.csv (and checks.json if checks were run) into out_dir.

    Output is UTF-8 with LF endings and 17-significant-digit floats, and is
    byte-identical for identical inputs.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {"trials": os.path.join(out_dir, "trials.csv")}
    schema = _schema(batch.top_k)
    lines = [",".join(column for column, _, _ in schema)]
    for rec in batch.records:
        cells = zip(schema, _values(rec), strict=True)
        lines.append(",".join(str(v) if kind is int else format(float(v), ".17g") for (_, kind, _), v in cells))
    with open(paths["trials"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    if checks is not None:
        paths["checks"] = write_checks(checks, out_dir)
    return paths


def write_checks(checks: dict, out_dir: str) -> str:
    """Write checks.json into out_dir and return its path."""
    path = os.path.join(out_dir, "checks.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(checks, indent=2) + "\n")
    return path


def read_trials_csv(path: str) -> list[TrialRecord]:
    """Reload the trial records that ``emit_report`` wrote; refuses, in one
    line that gives ``path:line``, a header other than ``TrialRecord``'s
    columns for some K >= 1, a row with another number of cells, a cell that is
    not a number and a ``nan`` or ``inf`` cell, which ``run_trial`` never
    writes."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        top_k = len(header) - len(fields(TrialRecord)) + 1
        schema = _schema(top_k)
        if top_k < 1 or header != [column for column, _, _ in schema]:
            expected = ",".join("top1,...,topK" if name == _TOP else column for column, _, name in _schema(1))
            raise ValueError(f"{path}:1: header is not {expected}")
        for line_no, line in enumerate(fh, 2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}:{line_no}: {len(cells)} cells, the header has {len(header)}")
            try:
                values = [kind(cell) for (_, kind, _), cell in zip(schema, cells)]
            except ValueError as err:
                raise ValueError(f"{path}:{line_no}: {err}") from err
            for (column, kind, _), cell, value in zip(schema, cells, values):
                if kind is float and not math.isfinite(value):
                    raise ValueError(f"{path}:{line_no}: {column} is {cell}, not a finite number")
            it = iter(values)
            record = (tuple(islice(it, top_k)) if f.name == _TOP else next(it) for f in fields(TrialRecord))
            records.append(TrialRecord(*record))
    return records


# The ARPACK tolerance: a rerun on another BLAS build may differ from the
# stored record in the last bits of the Gram product.
_RERUN_REL_TOL = _ARPACK_TOL


def _mismatch(detail: str) -> ValueError:
    return ValueError(f"records do not match the config: {detail}")


def batch_from_records(config: ExperimentConfig, records) -> TrialBatch:
    """Wrap reloaded records, which must cover exactly the config's
    (n, replicate) grid, each with the config's p for its n, the seed the
    config's base seed derives for it, the norming constant of the config's
    tail model, and top_k top values.

    Replicate 0 at each n then runs again, and every float of its stored
    row must match the rerun to ``_RERUN_REL_TOL``, each scalar relative to
    its own size and the top values relative to the largest |top|; this
    refuses records that another filter made."""
    p_at = dict(batch_grid(config.template, config.rule, config.n_values, config.replicates, config.top_k))
    records = tuple(records)
    cells = {(n, r) for n in p_at for r in range(config.replicates)}
    found = [(rec.n, rec.replicate) for rec in records]
    missing, extra = sorted(cells - set(found)), sorted(set(found) - cells)
    if missing or extra or len(found) != len(cells):
        raise ValueError(
            f"records do not match the config's (n, replicate) grid: {len(missing)} missing "
            f"{missing[:1]}, {len(extra)} extra {extra[:1]}, {len(found) - len(set(found))} duplicates"
        )
    a_np = {n: norming_constant(config.model, n * p) for n, p in p_at.items()}
    seeds = {n: derive_seed(config.seed, n, np.arange(config.replicates)).tolist() for n in p_at}
    for rec in records:
        where = f"at (n, replicate) = ({rec.n}, {rec.replicate})"
        seed = seeds[rec.n][rec.replicate]
        if rec.p != p_at[rec.n]:
            raise _mismatch(f"p = {rec.p} at n = {rec.n}, the config gives p = {p_at[rec.n]}")
        if rec.seed != seed:
            raise _mismatch(f"seed = {rec.seed} {where}, the config's base seed {config.seed} gives {seed}")
        if rec.a_np != a_np[rec.n]:
            raise _mismatch(f"a_np = {rec.a_np!r} {where}, the config's tail model gives {a_np[rec.n]!r}")
        if len(rec.top_diag) != config.top_k:
            raise _mismatch(f"{len(rec.top_diag)} top values {where}, the config's top_k is {config.top_k}")
    stored = {(rec.n, rec.replicate): rec for rec in records}
    rerun = run_batch(config.template, config.rule, config.n_values, 1, config.seed, top_k=config.top_k)
    schema = _schema(config.top_k)
    for want in rerun.records:
        got = stored[(want.n, 0)]
        top_scale = max(abs(v) for v in want.top_diag)
        for (column, kind, name), g, w in zip(schema, _values(got), _values(want), strict=True):
            scale = top_scale if name == _TOP else 0.0
            if kind is float and not abs(g - w) <= _RERUN_REL_TOL * max(abs(g), abs(w), scale):
                where = f"at (n, replicate) = ({want.n}, 0)"
                raise _mismatch(f"{column} = {g!r} {where}, a rerun of the config gives {w!r}")
    return TrialBatch(config.model, config.filter, config.n_values, config.top_k, records)

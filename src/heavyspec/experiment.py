"""Monte Carlo harness: trial batches, statistical checks against the limit
laws, and deterministic result persistence; it re-exports the config layer
and its admissibility validation from ``_config``.

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
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import kolmogi

from .limit_law import (
    bound_cdf_lower,
    bound_cdf_upper,
    bound_constants,
    frechet_quantile,
    limit_order_statistics,
)
from ._config import (
    CHECKS, DimensionRule, EnsembleSpec, EnsembleTemplate, ExperimentConfig, FilterSpec, TailModel,
    ValidationError, ValidationReport, batch_grid, beta_limit, load_config, validate,
)
from .linear_filter import build_row_process, window_sum
from .linear_filter import build_xhat  # noqa: F401  (perfbench's tracer wraps this name)
from .rv_noise import derive_key, norming_constant, sample_noise
from .spectral import (
    _ARPACK_TOL,
    centered_covariance,
    centered_gram_diag,
    mu_x_alpha,
    offdiag_deviation,
    spectral_norm,
)

__all__ = [
    "CHECKS",
    "DimensionRule",
    "EnsembleSpec",
    "EnsembleTemplate",
    "ExperimentConfig",
    "TrialBatch",
    "TrialRecord",
    "ValidationError",
    "ValidationReport",
    "beta_limit",
    "derive_seed",
    "ecdf",
    "emit_report",
    "envelope_check",
    "ks_check",
    "ks_distance",
    "load_config",
    "offdiag_trend_check",
    "order_stat_check",
    "read_trials_csv",
    "run_batch",
    "run_checks",
    "run_trial",
    "validate",
    "write_checks",
]

_SEED_DOMAIN = 0x7B1A15


@dataclass(frozen=True)
class TrialRecord:
    """Per-replicate scalars, one row of trials.csv; ``top_diag`` holds the k
    largest row-window moving averages of the scaled centered diagonal."""

    n: int
    p: int
    replicate: int
    seed: int
    a_np: float
    scaled_norm: float
    offdiag_dev: float
    top_diag: tuple[float, ...]


# Noise entries per row block of a trial (512 KiB of float64): one block, its
# hash scratch and its filtered rows stay in a 2 MB L2 cache.  The noise and
# row filter of one pareto_symmetric trial at p = 400, n = 1000,
# c = theta = (1, .5), one BLAS thread, on a 2-vCPU Xeon (OpenBLAS 0.3.31,
# numpy 2.4.6), in ms, median of 101 (interquartile range):
#
#   entries  rows  alpha 1.2            alpha 3
#   2**14     16   11.32 (10.99-11.72)  7.49 (7.24-8.91)
#   2**15     32    9.91 (9.62-10.20)   6.73 (6.58-7.64)
#   2**16     65    9.93 (9.59-10.16)   7.06 (6.83-8.05)
#   2**17    130   10.15 (9.67-10.98)   8.29 (7.35-8.83)
#
# 2**15 and 2**16 tie within the spread; smaller and larger blocks are slower.
_BLOCK_ENTRIES = 2**16


class _TrialWorkspace:
    """Every large array a trial of one shape writes, allocated once.

    ``key`` is (panel rows m, panel columns, n, p, block rows).  The m x m
    ``tg`` and ``terms`` hold T G and its terms in their first p rows while
    ``centered_covariance`` runs, then the zero-diagonal Gram and its
    pre-scaled copy in ``offdiag_deviation``; the p x p ``s`` holds S, and
    ``scaled_s`` is ``spectral_norm(S)``'s ``out``: S - Sᵀ, then the
    symmetrized, pre-scaled S.
    """

    def __init__(self, key: tuple[int, int, int, int, int]):
        m, width, n, p, block_rows = key
        self.key = key
        self.noise = (*(np.empty((block_rows, width), np.uint64) for _ in range(3)), np.empty((block_rows, width)))
        self.block_scratch = np.empty((block_rows, n))
        self.x_rows = np.empty((m, n))
        self.d_tilde = np.empty(m)
        self.gram = np.empty((m, m))
        self.tg = np.empty((m, m))
        self.terms = np.empty((m, m))
        self.scaled_s = np.empty((p, p))
        self.s = np.empty((p, p))


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
    panel.  Every statistic then comes from the one Gram product of the rows:
    S, the off-diagonal part and the centered diagonal.

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
    gram = np.matmul(ws.x_rows, ws.x_rows.T, out=ws.gram)
    d_tilde = centered_gram_diag(gram, n, mu, out=ws.d_tilde)

    s = centered_covariance(gram, theta, p, n, mu, buffers=(ws.tg[:p], ws.terms[:p], ws.s))
    a2 = a_np * a_np
    scaled = spectral_norm(s, out=ws.scaled_s) / a2
    offdiag = offdiag_deviation(gram, a_np, buffers=(ws.tg, ws.terms))

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


def derive_seed(base_seed: int, n: int, replicate: int) -> int:
    """Injective (up to 64-bit hashing) per-replicate seed derivation."""
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
    return replace(run_trial(spec, top_k=top_k), replicate=replicate)


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
    trial runs, what ``batch_grid`` refuses and an inadmissible config.

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
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n_values = tuple(int(n) for n in n_values)
    grid = batch_grid(template.model, rule, n_values, replicates, top_k)
    # validate through this module's name, which perfbench's tracer wraps.
    report = validate(template.model, rule)
    if not report.ok:
        raise ValidationError(report)
    jobs = []
    for n, p in grid:
        for r in range(replicates):
            jobs.append((template.spec(p, n, derive_seed(base_seed, n, r)), r, top_k))
    # A pool forks all its workers at once: start no more than there are jobs.
    workers = min(workers, len(jobs))
    with _one_blas_thread():
        if workers > 1:
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


def ecdf(values, x):
    """Fraction of values <= x (right-continuous, vectorized over x)."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("ecdf of an empty sample is undefined")
    out = np.searchsorted(v, np.asarray(x, dtype=float), side="right") / v.size
    return out if out.ndim else float(out)


def ks_distance(values, cdf) -> float:
    """sup_x |ECDF(x) - cdf(x)|, evaluated exactly at the sample points."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("KS distance of an empty sample is undefined")
    f = np.asarray(cdf(v), dtype=float)
    steps = np.arange(1, v.size + 1) / v.size
    d_plus = float(np.max(steps - f))
    d_minus = float(np.max(f - (steps - 1.0 / v.size)))
    return max(d_plus, d_minus, 0.0)


_ENVELOPE_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
_ENVELOPE_SLACK = 0.03
_ENVELOPE_Z = 4.0
_KS_LEVEL = 0.05
_LIMIT_DRAWS = 2000
_OFFDIAG_THRESHOLD = 0.15


def envelope_check(batch: TrialBatch) -> dict:
    """Test containment of the empirical CDF between the two envelope CDFs.

    The grid puts the x values at the lower-envelope quantiles of
    ``_ENVELOPE_LEVELS``, so the test has comparable power across the
    distribution. A grid point passes when its ECDF lies within
    ``_ENVELOPE_SLACK + _ENVELOPE_Z`` standard errors of the envelope. Overall
    pass requires every grid point to pass at the largest n.
    """
    b = bound_constants(batch.filter, batch.model.alpha)
    grid = frechet_quantile(np.asarray(_ENVELOPE_LEVELS), b.upper_scale, b.alpha)
    per_n = []
    overall = True
    for n in sorted(batch.n_values):
        values = batch.scaled_norms(n)
        count = values.size
        rows = []
        for x in grid:
            ec = float(ecdf(values, x))
            lo = float(bound_cdf_lower(x, b))
            hi = float(bound_cdf_upper(x, b))
            phat = min(max(ec, 0.5 / count), 1.0 - 0.5 / count)
            se = math.sqrt(phat * (1.0 - phat) / count)
            tol = _ENVELOPE_SLACK + _ENVELOPE_Z * se
            ok = (ec >= lo - tol) and (ec <= hi + tol)
            rows.append(
                {
                    "x": float(x),
                    "ecdf": ec,
                    "cdf_lower": lo,
                    "cdf_upper": hi,
                    "stderr": se,
                    "tol": tol,
                    "passed": ok,
                }
            )
        per_n.append({"n": n, "count": count, "grid": rows})
        if n == batch.largest_n:
            overall = all(r["passed"] for r in rows)
    return {
        "applicable": True,
        "passed": overall,
        "alpha": batch.model.alpha,
        "lower_scale": b.lower_scale,
        "upper_scale": b.upper_scale,
        "slack": _ENVELOPE_SLACK,
        "z": _ENVELOPE_Z,
        "per_n": per_n,
    }


def ks_check(batch: TrialBatch) -> dict:
    """KS distance of the scaled norms at the largest n against the exact
    limit law; passes at a distance of at most the Kolmogorov critical value
    at level ``_KS_LEVEL`` for the replicate count, ``kolmogi(level)/√count``.

    Only applicable when the envelope degenerates (single nonzero row weight);
    otherwise the distances to both envelope CDFs are reported without a
    verdict.
    """
    b = bound_constants(batch.filter, batch.model.alpha)
    values = batch.scaled_norms()
    ks_lower = ks_distance(values, lambda x: bound_cdf_lower(x, b))
    ks_upper = ks_distance(values, lambda x: bound_cdf_upper(x, b))
    single = b.lower_scale == b.upper_scale
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
    ranks = []
    overall = True
    for r in range(k):
        e = emp[:, r]
        med_e = float(np.median(e))
        iqr_e = float(np.percentile(e, 75) - np.percentile(e, 25))
        med_l = float(np.median(draws[:, r]))
        iqr_l = float(np.percentile(draws[:, r], 75) - np.percentile(draws[:, r], 25))
        tol = _IQR_FACTOR * (iqr_e + iqr_l)
        ok = abs(med_e - med_l) <= tol
        overall = overall and ok
        ranks.append(
            {
                "rank": r + 1,
                "empirical_median": med_e,
                "empirical_iqr": iqr_e,
                "limit_median": med_l,
                "limit_iqr": iqr_l,
                "tol": tol,
                "passed": ok,
            }
        )
    return {
        "applicable": True,
        "passed": overall,
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


def run_checks(batch: TrialBatch, config: ExperimentConfig) -> dict:
    """Run each check of ``CHECKS`` that the config enables, on the batch
    alone; overall pass ignores disabled and inapplicable ones."""
    out = {}
    for name, function in CHECKS.items():
        enabled = config.checks.get(name, True)
        out[name] = {"enabled": True, **globals()[function](batch)} if enabled else {"enabled": False}
    verdicts = [
        c["passed"]
        for c in out.values()
        if c.get("enabled") and c.get("applicable") and c.get("passed") is not None
    ]
    out["overall_passed"] = bool(all(verdicts)) if verdicts else True
    return out


# ---------------------------------------------------------------------------
# Persistence.


# The leading columns of trials.csv, one per scalar of a record; top1..topK follow.
_TRIAL_COLUMNS = ("n", "p", "replicate", "seed", "a_np", "scaled_norm", "offdiag_dev")


def _trials_header(top_k: int) -> list[str]:
    return [*_TRIAL_COLUMNS, *(f"top{i + 1}" for i in range(top_k))]


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def emit_report(batch: TrialBatch, checks: dict | None, out_dir: str) -> dict:
    """Write trials.csv (and checks.json if checks were run) into out_dir.

    Output is UTF-8 with LF endings and 17-significant-digit floats, and is
    byte-identical for identical inputs.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    trials_path = os.path.join(out_dir, "trials.csv")
    lines = [",".join(_trials_header(batch.top_k))]
    for rec in batch.records:
        cells = [
            str(rec.n),
            str(rec.p),
            str(rec.replicate),
            str(rec.seed),
            _fmt(rec.a_np),
            _fmt(rec.scaled_norm),
            _fmt(rec.offdiag_dev),
            *[_fmt(v) for v in rec.top_diag],
        ]
        lines.append(",".join(cells))
    with open(trials_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    paths["trials"] = trials_path
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
    line that gives ``path:line``, a header other than ``_TRIAL_COLUMNS`` and
    top1..topK, a row with another number of cells, a cell that is not a
    number and a ``nan`` or ``inf`` cell, which ``run_trial`` never writes."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != _trials_header(len(header) - len(_TRIAL_COLUMNS)):
            raise ValueError(f"{path}:1: header is not {','.join(_TRIAL_COLUMNS)},top1,...,topK")
        for line_no, line in enumerate(fh, 2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}:{line_no}: {len(cells)} cells, the header has {len(header)}")
            try:
                n, p, replicate, seed = (int(c) for c in cells[:4])
                a_np, scaled_norm, offdiag_dev, *top = reals = [float(c) for c in cells[4:]]
            except ValueError as err:
                raise ValueError(f"{path}:{line_no}: {err}") from err
            for name, cell, value in zip(header[4:], cells[4:], reals):
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{line_no}: {name} is {cell}, not a finite number")
            records.append(TrialRecord(n, p, replicate, seed, a_np, scaled_norm, offdiag_dev, tuple(top)))
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

    Replicate 0 at each n then runs again, and its ``scaled_norm``,
    ``offdiag_dev`` and top values (relative to the largest |top|) must
    match the stored row to ``_RERUN_REL_TOL``; this refuses records that
    another filter made."""
    p_at = dict(batch_grid(config.model, config.rule, config.n_values, config.replicates, config.top_k))
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
    for rec in records:
        where = f"at (n, replicate) = ({rec.n}, {rec.replicate})"
        seed = derive_seed(config.seed, rec.n, rec.replicate)
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
    for want in rerun.records:
        got = stored[(want.n, 0)]
        top_scale = max(abs(v) for v in want.top_diag)
        values = [
            ("scaled_norm", got.scaled_norm, want.scaled_norm, 0.0),
            ("offdiag_dev", got.offdiag_dev, want.offdiag_dev, 0.0),
            *[(f"top{i}", g, w, top_scale) for i, (g, w) in enumerate(zip(got.top_diag, want.top_diag), 1)],
        ]
        for name, g, w, scale in values:
            if not abs(g - w) <= _RERUN_REL_TOL * max(abs(g), abs(w), scale):
                where = f"at (n, replicate) = ({want.n}, 0)"
                raise _mismatch(f"{name} = {g!r} {where}, a rerun of the config gives {w!r}")
    return TrialBatch(config.model, config.filter, config.n_values, config.top_k, records)

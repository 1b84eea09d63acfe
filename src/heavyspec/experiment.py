"""Monte Carlo harness: admissibility validation, trial batches, statistical
checks against the limit laws, and deterministic result persistence.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .limit_law import (
    bound_cdf_lower,
    bound_cdf_upper,
    bound_constants,
    frechet_quantile,
    limit_order_statistics,
)
from .linear_filter import FilterSpec, build_row_process
from .linear_filter import build_xhat  # noqa: F401  (perfbench's tracer wraps this name)
from .rv_noise import TailModel, derive_key, mean_value, norming_constant, sample_noise
from .spectral import (
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


def beta_limit(alpha: float) -> float:
    """Largest admissible growth exponent for p = O(n^beta) at tail index alpha."""
    if not 0.0 < alpha < 4.0:
        raise ValueError(f"alpha must lie in (0, 4), got {alpha}")
    if alpha <= 1.0:
        return math.inf
    if alpha < 2.0:
        return max((2.0 - alpha) / (alpha - 1.0), 0.5)
    if alpha < 3.0:
        return max((4.0 - alpha) / (4.0 * (alpha - 1.0)), 1.0 / 3.0)
    return (4.0 - alpha) / (3.0 * alpha - 4.0)


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything needed to draw one replicate."""

    model: TailModel
    filter: FilterSpec
    p: int
    n: int
    seed: int

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise ValueError(f"p and n must be >= 1, got p={self.p}, n={self.n}")


@dataclass(frozen=True)
class EnsembleTemplate:
    """The per-batch part of an ensemble spec: noise model plus filter."""

    model: TailModel
    filter: FilterSpec

    def spec(self, p: int, n: int, seed: int) -> EnsembleSpec:
        return EnsembleSpec(model=self.model, filter=self.filter, p=p, n=n, seed=seed)


@dataclass(frozen=True)
class DimensionRule:
    """Row growth rule p = round(const * n^beta), optionally capped."""

    beta: float
    const: float = 1.0
    p_max: int | None = None

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.const > 0.0:
            raise ValueError(f"const must be positive, got {self.const}")
        if self.p_max is not None and self.p_max < 1:
            raise ValueError(f"p_max must be >= 1, got {self.p_max}")

    def p_for(self, n: int) -> int:
        p = max(1, int(round(self.const * float(n) ** self.beta)))
        if self.p_max is not None:
            p = min(p, self.p_max)
        return p

    @classmethod
    def from_dict(cls, d: dict) -> "DimensionRule":
        p_max = d.get("p_max")
        return cls(
            beta=float(d["beta"]),
            const=float(d.get("const", 1.0)),
            p_max=None if p_max is None else int(p_max),
        )


@dataclass(frozen=True)
class ValidationItem:
    name: str
    passed: bool
    margin: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    items: tuple[ValidationItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        out = []
        for it in self.items:
            status = "pass" if it.passed else "FAIL"
            out.append(f"{status:4s}  {it.name:16s} margin={it.margin:+.6g}  {it.detail}")
        return out


class ValidationError(ValueError):
    def __init__(self, report: ValidationReport):
        super().__init__("ensemble spec violates admissibility:\n" + "\n".join(report.lines()))
        self.report = report


def validate(spec: EnsembleSpec, rule: DimensionRule) -> ValidationReport:
    """Check every admissibility hypothesis; each item reports its margin.

    The tail index range (0, 4) is not an item: ``TailModel`` refuses any
    other alpha before a spec exists."""
    alpha = spec.model.alpha
    if alpha > 5.0 / 3.0:
        mean = mean_value(spec.model)
        detail = f"E(Z)={mean:g} (required zero for alpha in (5/3, 4))"
        zero_mean = ValidationItem("zero_mean", mean == 0.0, -abs(mean), detail)
    else:
        zero_mean = ValidationItem("zero_mean", True, math.inf, "not required for alpha <= 5/3")
    limit = beta_limit(alpha)
    detail = f"beta={rule.beta} < beta_limit({alpha})={limit:g}"
    beta_admissible = ValidationItem("beta_admissible", rule.beta < limit, limit - rule.beta, detail)
    return ValidationReport(items=(zero_mean, beta_admissible))


@dataclass(frozen=True)
class TrialRecord:
    """Per-replicate scalars; ``top_diag`` holds the k largest row-window
    moving averages of the scaled centered diagonal, ``diag_sq_max`` the
    largest squared-window average (the centered-Gram diagonal max)."""

    n: int
    p: int
    replicate: int
    seed: int
    a_np: float
    scaled_norm: float
    offdiag_dev: float
    top_diag: tuple[float, ...]
    diag_sq_max: float


def run_trial(spec: EnsembleSpec, top_k: int = 3) -> TrialRecord:
    """Draw one replicate and reduce it to its record scalars.

    Deterministic given ``spec``; the replicate number is filled by the batch
    runner.
    """
    model, fspec, p, n, seed = spec.model, spec.filter, spec.p, spec.n, spec.seed
    theta, c = fspec.theta, fspec.c
    k_lo, k_hi = theta.min_lag, theta.max_lag
    j_lo, j_hi = c.min_lag, c.max_lag

    row_range = (1 - k_hi, p - k_lo + 1)
    noise = sample_noise(model, row_range, (1 - j_hi, n - j_lo + 1), seed)
    x_rows = build_row_process(noise, c, row_range, n)
    gram = x_rows @ x_rows.T

    a_np = norming_constant(model, n * p)
    mu = mu_x_alpha(model, c, a_np)
    s = centered_covariance(gram, theta, p, n, mu)
    a2 = a_np * a_np
    scaled = spectral_norm(s) / a2
    offdiag = offdiag_deviation(gram, a_np)

    d_tilde = centered_gram_diag(x_rows, mu)
    ma = np.zeros(p)
    ma_sq = np.zeros(p)
    for k, w in zip(theta.lags, theta.values):
        seg = d_tilde[k_hi - k : k_hi - k + p]
        ma += w * seg
        ma_sq += (w * w) * seg
    top = np.sort(ma / a2)[::-1][:top_k]
    return TrialRecord(
        n=n,
        p=p,
        replicate=0,
        seed=seed,
        a_np=a_np,
        scaled_norm=scaled,
        offdiag_dev=offdiag,
        top_diag=tuple(float(v) for v in top),
        diag_sq_max=float(ma_sq.max() / a2),
    )


def derive_seed(base_seed: int, n: int, replicate: int) -> int:
    """Injective (up to 64-bit hashing) per-replicate seed derivation."""
    return derive_key(base_seed, _SEED_DOMAIN, n, replicate)


@dataclass(frozen=True)
class TrialBatch:
    """All replicate records of one experiment plus the template that made them."""

    model: TailModel
    filter: FilterSpec
    rule: DimensionRule
    n_values: tuple[int, ...]
    replicates: int
    base_seed: int
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

    def top_matrix(self, n: int | None = None) -> np.ndarray:
        n = self.largest_n if n is None else n
        return np.array([r.top_diag for r in self.records_at(n)])


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
    can restore them. Does nothing where no OpenBLAS is loaded, or where the
    process has no ``/proc/self/maps`` to find one in.
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
                previous.append((set_threads, get_threads()))
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
    """Validate, then run every replicate at every n.

    Refuses, before any trial runs, a ``top_k`` outside ``[1, p]`` at any n:
    each record holds exactly ``top_k`` ranks of the p windowed diagonals.

    Replicate seeds depend only on (base_seed, n, replicate); records are
    sorted afterwards so the batch is independent of scheduling.

    Every trial runs with one BLAS thread, in pool workers and in the serial
    loop alike; the serial loop restores the caller's thread count when it
    ends. The bits of the Gram product depend on the BLAS thread count, and
    OpenBLAS's default count follows the core count, so this keeps records
    equal across worker counts and machines. It also stops each pool worker
    from spinning extra BLAS threads that take the CPU from the others.
    """
    n_values = tuple(int(n) for n in n_values)
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = []
    for n in n_values:
        p = rule.p_for(n)
        report = validate(template.spec(p, n, base_seed), rule)
        if not report.ok:
            raise ValidationError(report)
        if not 1 <= top_k <= p:
            raise ValueError(f"top_k must lie in [1, p], got top_k={top_k} with p={p} at n={n}")
        for r in range(replicates):
            jobs.append((template.spec(p, n, derive_seed(base_seed, n, r)), r, top_k))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_blas_threads, initargs=(1,)) as pool:
            records = list(pool.map(_trial_job, jobs, chunksize=8))
    else:
        with _one_blas_thread():
            records = [_trial_job(job) for job in jobs]
    records.sort(key=lambda rec: (rec.n, rec.replicate))
    return TrialBatch(
        model=template.model,
        filter=template.filter,
        rule=rule,
        n_values=n_values,
        replicates=replicates,
        base_seed=base_seed,
        top_k=top_k,
        records=tuple(records),
    )


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
_KS_TOL = 0.10
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
    limit law; passes at a distance of at most ``_KS_TOL``.

    Only applicable when the envelope degenerates (single nonzero row weight);
    otherwise the distances to both envelope CDFs are reported without a
    verdict.
    """
    b = bound_constants(batch.filter, batch.model.alpha)
    values = batch.scaled_norms()
    ks_lower = ks_distance(values, lambda x: bound_cdf_lower(x, b))
    ks_upper = ks_distance(values, lambda x: bound_cdf_upper(x, b))
    single = b.lower_scale == b.upper_scale
    out = {
        "applicable": single,
        "n": batch.largest_n,
        "count": int(values.size),
        "tol": _KS_TOL,
        "ks_vs_lower_cdf": ks_lower,
        "ks_vs_upper_cdf": ks_upper,
    }
    out["passed"] = bool(ks_upper <= _KS_TOL) if single else None
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
    draws = np.array(
        [
            limit_order_statistics(batch.filter, batch.model.alpha, k, derive_key(_LIMIT_SEED, i))
            for i in range(_LIMIT_DRAWS)
        ]
    )
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


# Every check, by its key in the config's "checks" and in checks.json, with the
# name of its function in this module. run_checks looks each function up when
# it runs, so a wrapper set on the module attribute (perfbench's tracer) sees
# the call.
CHECKS = {
    "envelope": "envelope_check",
    "ks": "ks_check",
    "order_stats": "order_stat_check",
    "offdiag": "offdiag_trend_check",
}


# ---------------------------------------------------------------------------
# Configuration and persistence.


_CONFIG_KEYS = ("model", "filter", "dimension_rule", "n_values", "replicates", "seed", "checks", "top_k")


@dataclass(frozen=True)
class ExperimentConfig:
    model: TailModel
    filter: FilterSpec
    rule: DimensionRule
    n_values: tuple[int, ...]
    replicates: int
    seed: int
    checks: dict = field(default_factory=lambda: dict.fromkeys(CHECKS, True))
    top_k: int = 3

    @property
    def template(self) -> EnsembleTemplate:
        return EnsembleTemplate(model=self.model, filter=self.filter)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config a JSON object describes; refuses any key it does not know."""
        unknown = sorted(set(d) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; known: {sorted(_CONFIG_KEYS)}")
        checks = dict.fromkeys(CHECKS, True)
        unknown = sorted(set(d.get("checks", {})) - set(checks))
        if unknown:
            raise ValueError(f"unknown checks {unknown}; known: {sorted(checks)}")
        checks.update(d.get("checks", {}))
        return cls(
            model=TailModel.from_dict(d["model"]),
            filter=FilterSpec.from_dict(d["filter"]),
            rule=DimensionRule.from_dict(d["dimension_rule"]),
            n_values=tuple(int(n) for n in d["n_values"]),
            replicates=int(d["replicates"]),
            seed=int(d["seed"]),
            checks=checks,
            top_k=int(d.get("top_k", 3)),
        )


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


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
    top_cols = [f"top{i + 1}" for i in range(batch.top_k)]
    header = ["n", "p", "replicate", "seed", "a_np", "scaled_norm", "offdiag_dev", *top_cols]
    lines = [",".join(header)]
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
    """Reload trial records; the squared-window diagnostic is not persisted."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        top_count = sum(1 for h in header if h.startswith("top"))
        for line in fh:
            cells = line.strip().split(",")
            if not cells or cells == [""]:
                continue
            records.append(
                TrialRecord(
                    n=int(cells[0]),
                    p=int(cells[1]),
                    replicate=int(cells[2]),
                    seed=int(cells[3]),
                    a_np=float(cells[4]),
                    scaled_norm=float(cells[5]),
                    offdiag_dev=float(cells[6]),
                    top_diag=tuple(float(c) for c in cells[7 : 7 + top_count]),
                    diag_sq_max=math.nan,
                )
            )
    return records


# spectral_norm's default ARPACK tolerance: a rerun on another BLAS build may
# differ from the stored record in the last bits of the Gram product.
_RERUN_REL_TOL = 1e-8


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
    if config.replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {config.replicates}")
    records = tuple(records)
    grid = {(n, r) for n in config.n_values for r in range(config.replicates)}
    found = [(rec.n, rec.replicate) for rec in records]
    missing, extra = sorted(grid - set(found)), sorted(set(found) - grid)
    if missing or extra or len(found) != len(grid):
        raise ValueError(
            f"records do not match the config's (n, replicate) grid: {len(missing)} missing "
            f"{missing[:1]}, {len(extra)} extra {extra[:1]}, {len(found) - len(set(found))} duplicates"
        )
    p_at = {n: config.rule.p_for(n) for n in config.n_values}
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
    return TrialBatch(
        model=config.model,
        filter=config.filter,
        rule=config.rule,
        n_values=config.n_values,
        replicates=config.replicates,
        base_seed=config.seed,
        top_k=config.top_k,
        records=records,
    )

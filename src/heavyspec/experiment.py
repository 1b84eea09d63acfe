"""Monte Carlo harness: admissibility validation, trial batches, statistical
checks against the limit laws, and deterministic result persistence.

A trial batch is a pure function of its configuration: replicate seeds are
derived from (base_seed, n, replicate), every trial is counter-based, and
records are sorted before emission, so output files are byte-reproducible
regardless of worker scheduling.
"""

from __future__ import annotations

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
    CenteringSpec,
    build_H,
    centered_covariance,
    centered_gram_diag,
    mu_x_alpha,
    offdiag_deviation,
    spectral_norm,
)

__all__ = [
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

    def to_dict(self) -> dict:
        d = {"beta": self.beta, "const": self.const}
        if self.p_max is not None:
            d["p_max"] = self.p_max
        return d

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


def validate(spec: EnsembleSpec, rule: DimensionRule | None = None) -> ValidationReport:
    """Check every admissibility hypothesis; each item reports its margin."""
    model, fspec = spec.model, spec.filter
    alpha, delta = model.alpha, fspec.delta
    items = [
        ValidationItem(
            "alpha_range",
            0.0 < alpha < 4.0,
            min(alpha, 4.0 - alpha),
            f"alpha={alpha}",
        ),
        ValidationItem(
            "delta_vs_alpha",
            delta < min(alpha, 1.0),
            min(alpha, 1.0) - delta,
            f"delta={delta} < min(alpha, 1)={min(alpha, 1.0)}",
        ),
    ]
    if 5.0 / 3.0 < alpha < 4.0:
        mean = mean_value(model)
        items.append(
            ValidationItem(
                "zero_mean",
                mean == 0.0,
                -abs(mean),
                f"E(Z)={mean:g} (required zero for alpha in (5/3, 4))",
            )
        )
    else:
        items.append(
            ValidationItem("zero_mean", True, math.inf, "not required for alpha <= 5/3")
        )
    if rule is not None:
        limit = beta_limit(alpha)
        items.append(
            ValidationItem(
                "beta_admissible",
                rule.beta < limit,
                limit - rule.beta,
                f"beta={rule.beta} < beta_limit({alpha})={limit:g}",
            )
        )
    return ValidationReport(items=tuple(items))


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
    s = centered_covariance(gram, theta, CenteringSpec(mu=mu, H=build_H(theta, p), n=n))
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
    if top.size < top_k:
        top = np.concatenate([top, np.full(top_k - top.size, math.nan)])
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

    Replicate seeds depend only on (base_seed, n, replicate); records are
    sorted afterwards so the batch is independent of scheduling.
    """
    n_values = tuple(int(n) for n in n_values)
    if not n_values:
        raise ValueError("n_values must be nonempty")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    jobs = []
    for n in n_values:
        p = rule.p_for(n)
        report = validate(template.spec(p, n, base_seed), rule)
        if not report.ok:
            raise ValidationError(report)
        for r in range(replicates):
            jobs.append((template.spec(p, n, derive_seed(base_seed, n, r)), r, top_k))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_trial_job, jobs, chunksize=8))
    else:
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
# Empirical-law statistics.


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


def envelope_check(
    batch: TrialBatch,
    grid=None,
    levels=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    slack: float = 0.03,
    z: float = 4.0,
) -> dict:
    """Test containment of the empirical CDF between the two envelope CDFs.

    The default grid puts the x values at the lower-envelope quantiles of the
    given levels, so the test has comparable power across the distribution.
    Overall pass requires every grid point to pass at the largest n.
    """
    b = bound_constants(batch.filter, batch.model.alpha)
    if grid is None:
        grid = frechet_quantile(np.asarray(levels, dtype=float), b.upper_scale, b.alpha)
    grid = np.asarray(grid, dtype=float)
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
            tol = slack + z * se
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
        "slack": slack,
        "z": z,
        "per_n": per_n,
    }


def ks_check(batch: TrialBatch, tol: float = 0.10) -> dict:
    """KS distance of the scaled norms against the exact limit law.

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
        "tol": tol,
        "ks_vs_lower_cdf": ks_lower,
        "ks_vs_upper_cdf": ks_upper,
    }
    out["passed"] = bool(ks_upper <= tol) if single else None
    return out


def order_stat_check(
    batch: TrialBatch,
    spec: EnsembleSpec | None = None,
    k: int | None = None,
    limit_draws: int = 2000,
    limit_seed: int = 0x0A11,
    iqr_factor: float = 0.5,
) -> dict:
    """Compare top-rank diagonal statistics with the limit point process.

    Per rank, the empirical median across replicates must agree with the
    simulated limit median within iqr_factor * (empirical IQR + limit IQR).
    """
    fspec = batch.filter if spec is None else spec.filter
    alpha = batch.model.alpha if spec is None else spec.model.alpha
    k = batch.top_k if k is None else k
    emp = batch.top_matrix()[:, :k]
    draws = np.array(
        [
            limit_order_statistics(fspec, alpha, k, derive_key(limit_seed, i))
            for i in range(limit_draws)
        ]
    )
    ranks = []
    overall = True
    for r in range(k):
        e = emp[:, r]
        e = e[np.isfinite(e)]
        med_e = float(np.median(e))
        iqr_e = float(np.percentile(e, 75) - np.percentile(e, 25))
        med_l = float(np.median(draws[:, r]))
        iqr_l = float(np.percentile(draws[:, r], 75) - np.percentile(draws[:, r], 25))
        tol = iqr_factor * (iqr_e + iqr_l)
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
        "limit_draws": limit_draws,
        "iqr_factor": iqr_factor,
        "ranks": ranks,
    }


def offdiag_trend_check(batch: TrialBatch, threshold: float = 0.15) -> dict:
    """Median off-diagonal deviation must decrease along the n grid and end
    below the threshold."""
    ns = sorted(batch.n_values)
    medians = [float(np.median(batch.offdiag_devs(n))) for n in ns]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    final_ok = medians[-1] < threshold
    return {
        "applicable": True,
        "passed": decreasing and final_ok,
        "threshold": threshold,
        "n_values": ns,
        "medians": medians,
        "decreasing": decreasing,
        "final_below_threshold": final_ok,
    }


# ---------------------------------------------------------------------------
# Configuration and persistence.


_DEFAULT_CHECKS = {"envelope": True, "ks": True, "order_stats": True, "offdiag": True}


@dataclass(frozen=True)
class ExperimentConfig:
    model: TailModel
    filter: FilterSpec
    rule: DimensionRule
    n_values: tuple[int, ...]
    replicates: int
    seed: int
    checks: dict = field(default_factory=lambda: dict(_DEFAULT_CHECKS))
    top_k: int = 3
    slack: float = 0.03
    z: float = 4.0
    ks_tol: float = 0.10
    offdiag_threshold: float = 0.15

    @property
    def template(self) -> EnsembleTemplate:
        return EnsembleTemplate(model=self.model, filter=self.filter)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        checks = dict(_DEFAULT_CHECKS)
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
            slack=float(d.get("slack", 0.03)),
            z=float(d.get("z", 4.0)),
            ks_tol=float(d.get("ks_tol", 0.10)),
            offdiag_threshold=float(d.get("offdiag_threshold", 0.15)),
        )


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def run_checks(batch: TrialBatch, config: ExperimentConfig) -> dict:
    """Run every enabled check; overall pass ignores disabled/inapplicable ones."""
    calls = (
        ("envelope", lambda: envelope_check(batch, slack=config.slack, z=config.z)),
        ("ks", lambda: ks_check(batch, tol=config.ks_tol)),
        ("order_stats", lambda: order_stat_check(batch)),
        ("offdiag", lambda: offdiag_trend_check(batch, threshold=config.offdiag_threshold)),
    )
    out = {}
    for name, call in calls:
        enabled = config.checks.get(name, True)
        out[name] = {"enabled": True, **call()} if enabled else {"enabled": False}
    verdicts = [
        c["passed"]
        for c in out.values()
        if c.get("enabled") and c.get("applicable") and c.get("passed") is not None
    ]
    out["overall_passed"] = bool(all(verdicts)) if verdicts else True
    return out


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


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
        fh.write(json.dumps(_jsonify(checks), indent=2) + "\n")
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


def batch_from_records(config: ExperimentConfig, records) -> TrialBatch:
    """Wrap reloaded records, which must cover exactly the config's
    (n, replicate) grid, each with the config's p for its n."""
    records = tuple(records)
    grid = {(n, r) for n in config.n_values for r in range(config.replicates)}
    found = [(rec.n, rec.replicate) for rec in records]
    missing, extra = sorted(grid - set(found)), sorted(set(found) - grid)
    if missing or extra or len(found) != len(grid):
        raise ValueError(
            f"records do not match the config's (n, replicate) grid: {len(missing)} missing "
            f"{missing[:1]}, {len(extra)} extra {extra[:1]}, {len(found) - len(set(found))} duplicates"
        )
    for rec in records:
        if rec.p != config.rule.p_for(rec.n):
            raise ValueError(
                f"records do not match the config: p = {rec.p} at n = {rec.n}, "
                f"the config gives p = {config.rule.p_for(rec.n)}"
            )
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

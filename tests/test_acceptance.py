"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte Carlo criteria
use the exact spec-level tolerances; batches run with two workers and finish
in a few minutes on a desktop.
"""

import math
import os
import time

import numpy as np
import pytest

from heavyspec.experiment import (
    DimensionRule,
    EnsembleTemplate,
    beta_limit,
    emit_report,
    envelope_check,
    ks_check,
    ks_distance,
    offdiag_trend_check,
    order_stat_check,
    run_batch,
)
from heavyspec.limit_law import bound_constants, frechet_cdf
from heavyspec.linear_filter import CoefficientSequence, FilterSpec
from heavyspec.rv_noise import TailModel
from heavyspec.spectral import centered_covariance, mu_x_alpha, spectral_norm

WORKERS = min(2, os.cpu_count() or 1)


def _fs(c_vals, theta_vals):
    return FilterSpec(
        c=CoefficientSequence(tuple(c_vals)),
        theta=CoefficientSequence(tuple(theta_vals)),
    )


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def envelope_batch():
    # alpha=1.2, c=(1, 0.5), theta=(1, 0.5), beta=0.9 (admissible:
    # the admissible limit at alpha=1.2 is 4), n=1000, p = n^0.9 capped at 400.
    template = EnsembleTemplate(
        model=TailModel("pareto_symmetric", alpha=1.2),
        filter=_fs((1.0, 0.5), (1.0, 0.5)),
    )
    # The run_batch arguments, so that criterion 8 can rerun the batch.
    args = (template, DimensionRule(beta=0.9, const=1.0, p_max=400), [1000], 500, 20250301)
    return args, run_batch(*args, workers=WORKERS)


def test_criterion_1_exact_algebra():
    t0 = time.perf_counter()

    # Centering band H Hᵀ, read off S = -n * mu * H Hᵀ with a zero Gram and
    # n * mu = 2: a single spike gives the identity, the window (1, 0.5) the
    # tridiagonal 1.25/0.5 matrix, and lags 1..3 at p = 2 lose lag 3 to the
    # indicator of H.
    def hht(theta_vals, p, min_lag=0):
        m = p + len(theta_vals) - 1
        theta = CoefficientSequence(theta_vals, min_lag=min_lag)
        return centered_covariance(np.zeros((m, m)), theta, p, 4, 0.5) @ np.eye(p) / -2.0

    ok = np.array_equal(hht((1.0,), 5), np.eye(5))
    ok &= np.array_equal(
        hht((1.0, 0.5), 3), [[1.25, 0.5, 0.0], [0.5, 1.25, 0.5], [0.0, 0.5, 1.25]]
    )
    ok &= np.array_equal(hht((1.0, 0.5, 0.25), 2, min_lag=1), [[1.25, 0.5], [0.5, 1.25]])

    # mu_x_alpha branches.
    ok &= mu_x_alpha(
        TailModel("pareto_symmetric", alpha=1.2), CoefficientSequence((1.0, 2.0)), 10.0
    ) == 0.0
    ok &= mu_x_alpha(
        TailModel("pareto_positive", alpha=3.0, q=1.0), CoefficientSequence((1.0,)), 5.0
    ) == pytest.approx(3.0, rel=1e-12)
    ok &= mu_x_alpha(
        TailModel("pareto_symmetric", alpha=2.0), CoefficientSequence((1.0, 1.0)), math.e
    ) == pytest.approx(4.0, rel=1e-12)

    # beta_limit branches.
    ok &= math.isinf(beta_limit(0.8))
    ok &= beta_limit(1.5) == pytest.approx(1.0, rel=1e-12)
    ok &= beta_limit(3.5) == pytest.approx(0.5 / 6.5, rel=1e-12)

    # bound_constants.
    b = bound_constants(_fs((1.0,), (1.0,)), 2.0)
    ok &= b.lower_scale == 1.0 and b.upper_scale == 1.0
    b2 = bound_constants(_fs((1.0,), (1.0, 0.5)), 2.0)
    ok &= b2.lower_scale == 1.0 and b2.upper_scale == 1.5

    # First-order constants: bound_constants on c = (1), theta = (1, t).
    for t, expected in ((0.0, (1.0, 1.0)), (1.0, (1.0, 2.0)), (2.0, (4.0, 6.0))):
        b = bound_constants(_fs((1.0,), (1.0, t)), 2.0)
        ok &= (b.lower_scale, b.upper_scale) == expected

    elapsed = time.perf_counter() - t0
    ok = bool(ok) and elapsed < 1.0
    _report(1, ok, f"exact algebra suite in {elapsed:.3f}s (< 1s)")
    assert ok


def test_criterion_2_spectral_norm_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(200):
        dim = int(rng.integers(2, 51))
        if trial % 2 == 0:
            a = rng.normal(size=(dim, dim))
        else:
            mags = (rng.pareto(1.0, size=(dim, dim)) + 1.0)
            a = mags * rng.choice([-1.0, 1.0], size=(dim, dim))
        a = 0.5 * (a + a.T)
        ref = float(np.abs(np.linalg.eigvalsh(a)).max())
        got = spectral_norm(a)
        worst = max(worst, abs(got - ref) / ref)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(2, ok, f"200 matrices, worst rel err {worst:.2e} in {elapsed:.1f}s (< 30s)")
    assert ok


def test_criterion_3_single_spike_exact_law():
    template = EnsembleTemplate(
        model=TailModel("pareto_symmetric", alpha=1.5), filter=_fs((1.0,), (1.0,))
    )
    rule = DimensionRule(beta=0.9, const=1.0, p_max=100)  # p = 100 at n = 1000
    batch = run_batch(template, rule, [1000], 1000, base_seed=20250302, workers=WORKERS)
    assert batch.records[0].p == 100
    ks = ks_distance(batch.scaled_norms(), lambda x: frechet_cdf(x, 1.0, 1.5))
    ok = ks <= 0.10
    _report(3, ok, f"KS to exp(-x^(-3/4)) = {ks:.4f} (<= 0.10), 1000 replicates")
    assert ok


def test_criterion_4_envelope_containment(envelope_batch):
    _, batch = envelope_batch
    assert batch.records[0].p == 400  # n^0.9 capped
    report = envelope_check(batch)
    entry = report["per_n"][-1]
    ok = report["passed"]
    _report(
        4,
        ok,
        f"too small p = {entry['p_plus']:.4g} at x {entry['x_plus']:.4g}, "
        f"too big p = {entry['p_minus']:.4g} at x {entry['x_minus']:.4g} (each > {report['level_per_side']})",
    )
    assert ok


def test_criterion_5_offdiag_vanishing():
    template = EnsembleTemplate(
        model=TailModel("pareto_symmetric", alpha=1.2), filter=_fs((1.0, 0.5), (1.0,))
    )
    rule = DimensionRule(beta=0.9, const=1.0, p_max=400)
    batch = run_batch(
        template, rule, [200, 500, 1000, 2000], 100, base_seed=20250303, workers=WORKERS
    )
    report = offdiag_trend_check(batch)
    meds = ", ".join(f"{m:.4f}" for m in report["medians"])
    ok = report["passed"]
    _report(5, ok, f"median offdiag per n: [{meds}] strictly decreasing, final < 0.15")
    assert ok


def test_criterion_6_order_statistic_limit():
    template = EnsembleTemplate(
        model=TailModel("pareto_symmetric", alpha=1.5), filter=_fs((1.0,), (1.0, 0.5))
    )
    rule = DimensionRule(beta=0.9, const=1.0, p_max=400)
    batch = run_batch(template, rule, [1000], 500, base_seed=20250304, workers=WORKERS)
    report = order_stat_check(batch)
    detail = "; ".join(
        f"rank {r['rank']}: |{r['empirical_median']:.3f} - {r['limit_median']:.3f}| <= {r['tol']:.3f}"
        for r in report["ranks"]
    )
    ok = report["passed"]
    _report(6, ok, detail)
    assert ok


def test_criterion_7_ma1_constants():
    # max_i (D_i + theta^2 D_(i+1)) / a^2 is the top windowed diagonal under
    # the squared window (1, theta^2); its Frechet scale is the lower-envelope
    # scale of the window (1, theta).
    theta = 0.7
    model = TailModel("pareto_symmetric", alpha=1.5)
    squared = EnsembleTemplate(model=model, filter=_fs((1.0,), (1.0, theta * theta)))
    rule = DimensionRule(beta=0.9, const=1.0, p_max=400)
    batch = run_batch(squared, rule, [1000], 500, base_seed=20250305, workers=WORKERS)
    scale = bound_constants(_fs((1.0,), (1.0, theta)), 1.5).lower_scale
    values = batch.top_matrix()[:, 0]
    ks = ks_distance(values, lambda x: frechet_cdf(x, scale, 1.5))
    ok = ks <= 0.10
    _report(
        7, ok, f"max of (D_i + {theta}^2 D_(i+1))/a^2: KS = {ks:.4f} vs Frechet scale {scale}"
    )
    assert ok


def test_criterion_8_determinism(envelope_batch, tmp_path):
    args, batch = envelope_batch
    first = emit_report(batch, None, str(tmp_path / "first"))
    rerun = run_batch(*args, workers=1 if WORKERS > 1 else WORKERS)
    second = emit_report(rerun, None, str(tmp_path / "second"))
    with open(first["trials"], "rb") as fh:
        b1 = fh.read()
    with open(second["trials"], "rb") as fh:
        b2 = fh.read()
    ok = b1 == b2
    _report(8, ok, f"re-run byte-reproduces trials.csv ({len(b1)} bytes)")
    assert ok

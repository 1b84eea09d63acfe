"""Tests for the Monte Carlo harness, checks and persistence."""

import functools
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import sys
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import smirnov
from scipy.stats import binom

from heavyspec._config import (
    CHECKS,
    CoefficientSequence,
    DimensionRule,
    EnsembleSpec,
    EnsembleTemplate,
    ExperimentConfig,
    FilterSpec,
    TailModel,
    ValidationError,
    batch_grid,
    beta_limit,
    load_config,
    norming_constant,
    validate,
)
from heavyspec.experiment import (
    TrialBatch,
    TrialRecord,
    batch_from_records,
    check_status,
    derive_seed,
    emit_report,
    envelope_check,
    ks_check,
    ks_distance,
    offdiag_trend_check,
    order_stat_check,
    read_trials_csv,
    run_batch,
    run_checks,
    run_trial,
)
from heavyspec.experiment import (
    _IQR_FACTOR,
    _KS_LEVEL,
    _LIMIT_DRAWS,
    _LIMIT_SEED,
    _one_blas_thread,
    _one_sided_sups,
    _set_blas_threads,
)
from heavyspec.limit_law import envelope_scales, frechet_cdf, frechet_quantile, limit_order_statistics
from heavyspec.rv_noise import derive_key, sample_noise
from heavyspec.spectral import spectral_norm

MODEL15 = TailModel("pareto_symmetric", alpha=1.5)
SPIKE = FilterSpec(c=CoefficientSequence((1.0,)), theta=CoefficientSequence((1.0,)))


def _fs(c_vals, theta_vals):
    return FilterSpec(
        c=CoefficientSequence(tuple(c_vals)),
        theta=CoefficientSequence(tuple(theta_vals)),
    )


def _os_threads_job(args):
    # Stands in for run_batch's trial job: runs the trial, then reports how
    # many OS threads its process has. run_batch sorts by (n, replicate) alone.
    spec, replicate, top_k = args
    run_trial(spec, top_k=top_k)
    return SimpleNamespace(n=spec.n, replicate=replicate, os_threads=len(os.listdir("/proc/self/task")))


def _synthetic_batch(values, fspec, model, n=1000, top=None):
    records = tuple(
        TrialRecord(
            n=n,
            p=10,
            replicate=i,
            seed=i,
            a_np=1.0,
            scaled_norm=float(v),
            offdiag_dev=0.0,
            top_diag=tuple(top[i]) if top is not None else (float(v),),
        )
        for i, v in enumerate(values)
    )
    return TrialBatch(
        model=model,
        filter=fspec,
        n_values=(n,),
        top_k=len(records[0].top_diag),
        records=records,
    )


class TestBetaLimit:
    def test_flat_region_is_unbounded(self):
        assert math.isinf(beta_limit(0.8))
        assert math.isinf(beta_limit(1.0))

    def test_middle_branches(self):
        assert beta_limit(1.5) == pytest.approx(1.0)
        assert beta_limit(1.2) == pytest.approx(4.0, rel=1e-12)
        assert beta_limit(1.9) == pytest.approx(0.5)  # max((0.1/0.9), 1/2)
        assert beta_limit(2.0) == pytest.approx(0.5)  # max(2/4, 1/3)
        assert beta_limit(2.9) == pytest.approx(1.0 / 3.0)

    def test_top_branch(self):
        assert beta_limit(3.5) == pytest.approx(0.5 / 6.5, rel=1e-12)
        assert beta_limit(3.0) == pytest.approx(0.2)

    def test_rejects_out_of_range(self):
        for bad in (0.0, 4.0, -1.0, 5.0):
            with pytest.raises(ValueError, match="alpha"):
                beta_limit(bad)


class TestDimensionRule:
    def test_power_rule_and_cap(self):
        rule = DimensionRule(beta=0.9, const=1.0, p_max=400)
        assert rule.p_for(1000) == 400
        assert rule.p_for(200) == round(200**0.9)
        assert DimensionRule(beta=0.5, const=0.001).p_for(10) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="beta"):
            DimensionRule(beta=0.0)
        with pytest.raises(ValueError, match="const"):
            DimensionRule(beta=0.5, const=-1.0)
        # A negative n would raise n to a fractional power: a complex p.
        with pytest.raises(ValueError, match="n must be >= 1, got -5"):
            DimensionRule(beta=0.9).p_for(-5)

    @pytest.mark.parametrize("beta, const", [(400.0, 1.0), (0.9, 1e308), (103.0, 1e-300)])
    def test_overflowing_product_is_p_max(self, beta, const):
        # 1000^400, 1e308 * 1000^0.9 and 1000^103 exceed the largest float,
        # and each product exceeds p_max, even 1e-300 * 1000^103 = 1e9.
        assert DimensionRule(beta=beta, const=const, p_max=400).p_for(1000) == 400

    @pytest.mark.parametrize(
        "beta, const, p_max, product",
        [
            (400.0, 1.0, None, "1 * n^400"),
            (0.9, 1e308, None, "1e+308 * n^0.9"),
            (103.0, 1e-300, 10**20, "1e-300 * n^103"),
        ],
    )
    def test_overflowing_product_refused_without_a_cap_above_it(self, beta, const, p_max, product):
        message = f"dimension_rule overflows at n=1000: computing {product} exceeds the largest float"
        with pytest.raises(ValueError, match=re.escape(message)):
            DimensionRule(beta=beta, const=const, p_max=p_max).p_for(1000)

    def test_from_dict_defaults(self):
        assert DimensionRule.from_dict({"beta": 0.5}) == DimensionRule(beta=0.5, const=1.0, p_max=None)
        d = {"beta": 0.9, "const": 2.0, "p_max": 400}
        assert DimensionRule.from_dict(d) == DimensionRule(beta=0.9, const=2.0, p_max=400)

    def test_from_dict_refuses_unknown_key(self):
        with pytest.raises(ValueError, match=re.escape("unknown config keys ['pmax']; known: ['beta', 'const', 'p_max']")):
            DimensionRule.from_dict({"beta": 0.9, "pmax": 10})


class TestValidate:
    def test_admissible_case(self):
        report = validate(MODEL15, DimensionRule(beta=0.9))
        assert report.ok
        margins = {it.name: it.margin for it in report.items}
        assert margins["beta_admissible"] == pytest.approx(0.1)

    def test_alpha_below_one_admissible_with_default_filter(self):
        # A finite filter window meets the summability hypothesis at every
        # alpha, so the filter puts no lower bound on alpha.
        report = validate(TailModel("pareto_symmetric", alpha=0.8), DimensionRule(beta=0.9, p_max=400))
        assert [it.name for it in report.items] == ["zero_mean", "beta_admissible"]
        assert report.ok

    def test_nonzero_mean_fails_above_five_thirds(self):
        report = validate(TailModel("pareto_positive", alpha=2.5, q=1.0), DimensionRule(beta=0.3))
        items = {it.name: it for it in report.items}
        assert not items["zero_mean"].passed

    def test_zero_mean_margin_is_plus_zero(self):
        report = validate(TailModel("pareto_symmetric", alpha=2.0), DimensionRule(beta=0.3))
        assert report.ok
        margin = report.items[0].margin
        assert report.items[0].name == "zero_mean" and margin == 0.0
        assert math.copysign(1.0, margin) == 1.0
        assert "margin=+0 " in report.lines()[0]

    def test_inadmissible_beta_fails(self):
        report = validate(TailModel("pareto_symmetric", alpha=3.5), DimensionRule(beta=0.5))
        items = {it.name: it for it in report.items}
        assert not items["beta_admissible"].passed


class TestRunTrial:
    def test_identity_filter_matches_noise_gram(self):
        spec = EnsembleSpec(model=MODEL15, filter=SPIKE, p=20, n=50, seed=42)
        rec = run_trial(spec)
        noise = sample_noise(MODEL15, (1, 21), (1, 51), 42)
        ref = spectral_norm(noise.values @ noise.values.T) / rec.a_np**2
        assert rec.scaled_norm == ref

    def test_scalar_row_case(self):
        spec = EnsembleSpec(model=MODEL15, filter=SPIKE, p=1, n=10, seed=3)
        rec = run_trial(spec)
        noise = sample_noise(MODEL15, (1, 2), (1, 11), 3)
        assert rec.scaled_norm == abs((noise.values**2).sum()) / rec.a_np**2

    def test_deterministic(self):
        spec = EnsembleSpec(model=MODEL15, filter=_fs((1.0, 0.5), (1.0, 0.5)), p=12, n=30, seed=7)
        assert run_trial(spec) == run_trial(spec)

    def test_monotone_coupling_exact(self):
        # Doubling c multiplies every scaled statistic by exactly four when mu = 0.
        base = _fs((1.0, 0.5), (1.0,))
        scaled = _fs((2.0, 1.0), (1.0,))
        s1 = EnsembleSpec(model=MODEL15, filter=base, p=15, n=40, seed=11)
        s2 = EnsembleSpec(model=MODEL15, filter=scaled, p=15, n=40, seed=11)
        r1, r2 = run_trial(s1), run_trial(s2)
        assert r2.scaled_norm == 4.0 * r1.scaled_norm
        assert r2.offdiag_dev == 4.0 * r1.offdiag_dev
        assert all(b == 4.0 * a for a, b in zip(r1.top_diag, r2.top_diag))

    def test_top_diag_is_window_average_of_centered_diagonal(self):
        from heavyspec.linear_filter import build_row_process
        from heavyspec.spectral import centered_gram_diag

        fspec = _fs((1.0, 0.5), (1.0, 0.5))
        spec = EnsembleSpec(model=MODEL15, filter=fspec, p=10, n=25, seed=5)
        rec = run_trial(spec, top_k=4)
        noise = sample_noise(MODEL15, (0, 11), (0, 26), 5)
        x = build_row_process(noise, fspec.c, (0, 11), 25)
        d = centered_gram_diag(x @ x.T, 25, 0.0)
        ma = np.array([d[i] + 0.5 * d[i - 1] for i in range(1, 11)])
        expect = np.sort(ma)[::-1][:4] / rec.a_np**2
        assert np.allclose(rec.top_diag, expect, rtol=1e-13)


class TestNormStage:
    """``run_trial`` writes one triangle of its Gram and hands it to both norm
    functions, which check it in O(m) from its diagonal and leave it whole."""

    SPEC = EnsembleSpec(model=MODEL15, filter=_fs((1.0, 0.5), (1.0, 0.5)), p=37, n=80, seed=13)

    def test_gram_is_checked_from_its_diagonal_alone(self, monkeypatch):
        # Each norm function checks the Gram's diagonal, and each norm the
        # first image of its operator; no m x m check pass (finite and
        # symmetric over every entry) runs in a trial: every largest entry
        # a trial takes is a vector's.
        from heavyspec import spectral

        shapes = []
        max_abs = spectral._max_abs

        def recording(a):
            shapes.append(a.shape)
            return max_abs(a)

        monkeypatch.setattr(spectral, "_max_abs", recording)
        record = run_trial(self.SPEC)
        # The Gram's diagonal and S's first image, then the diagonal again
        # and the off-diagonal part's first image.
        assert shapes == [(38,), (37,), (38,), (38,)]
        monkeypatch.undo()
        assert record == run_trial(self.SPEC)

    def test_gram_is_written_into_the_workspace(self, monkeypatch):
        # dsyrk hands back the workspace's Gram itself, not a copy.
        import heavyspec.experiment as experiment

        returned = []
        syrk = experiment.dsyrk

        def recording(*args, **kwargs):
            returned.append((syrk(*args, **kwargs), kwargs["c"]))
            return returned[-1][0]

        monkeypatch.setattr(experiment, "dsyrk", recording)
        run_trial(self.SPEC)
        [(gram, c)] = returned
        assert gram is c is experiment._LOCAL.workspace.gram
        assert gram.flags.f_contiguous

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nan_row_is_refused_before_any_product(self, monkeypatch, bad):
        # A NaN or an infinity in the row process makes its row's diagonal
        # Gram entry non-finite; the trial stops at the diagonal check of the
        # first norm function, before ARPACK takes a product.
        import heavyspec.experiment as experiment
        from heavyspec import spectral

        build = experiment.build_row_process

        def poisoned(noise, c, rows, n, out=None, scratch=None):
            x = build(noise, c, rows, n, out=out, scratch=scratch)
            if rows[0] <= 5 < rows[1]:
                x[5 - rows[0], 3] = bad
            return x

        def unreached(*args, **kwargs):
            raise AssertionError("a norm was solved on a non-finite Gram")

        monkeypatch.setattr(experiment, "build_row_process", poisoned)
        monkeypatch.setattr(experiment, "spectral_norm", unreached)
        monkeypatch.setattr(spectral, "spectral_norm", unreached)
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            run_trial(self.SPEC)

    def test_norm_of_s_takes_fewer_products_than_at_the_default_ncv(self, monkeypatch):
        # config.example.json's replicate 0: ||S|| takes fewer ARPACK products
        # at the module's ncv than at eigsh's default of 20.
        import heavyspec.experiment as experiment
        from heavyspec import spectral

        config = load_config(os.path.join(os.path.dirname(__file__), "..", "config.example.json"))
        [(n, p)] = batch_grid(config.template, config.rule, config.n_values, 1, config.top_k)
        operators = []
        build = experiment.centered_covariance

        def keep(gram, *args, **kwargs):
            operators.append(build(gram, *args, **kwargs))
            return operators[-1]

        monkeypatch.setattr(experiment, "centered_covariance", keep)
        record = run_trial(config.template.spec(p, n, derive_seed(config.seed, n, 0)))
        [op] = operators
        a2 = record.a_np * record.a_np
        products = []

        def count_products(ncv):
            monkeypatch.setattr(spectral, "_ARPACK_NCV", ncv)
            count, product = [0], op.product

            def counted(v):
                count[0] += 1
                return product(v)

            op.product = counted
            try:
                norm = spectral_norm(op)
            finally:
                op.product = product
            products.append(count[0])
            return norm

        assert count_products(spectral._ARPACK_NCV) / a2 == record.scaled_norm
        assert count_products(None) / a2 == pytest.approx(record.scaled_norm, rel=1e-12)
        assert products[0] < products[1]


class TestCenteredTrials:
    """Trials in the regimes that require nonzero centering."""

    FS = _fs((1.0, 0.5), (1.0, 0.5))

    # The truncated second moment reads only |Z|, so q does not move it.
    @pytest.mark.parametrize(
        "model",
        [TailModel("pareto_symmetric", alpha=2.0), TailModel("pareto_skewed", alpha=2.0, q=0.3)],
        ids=lambda m: m.family,
    )
    def test_truncated_centering_at_alpha_two(self, model):
        from heavyspec.rv_noise import truncated_second_moment
        from heavyspec.spectral import mu_x_alpha

        spec = EnsembleSpec(model=model, filter=self.FS, p=20, n=500, seed=4)
        rec = run_trial(spec)
        assert math.isfinite(rec.scaled_norm) and rec.scaled_norm > 0
        a = norming_constant(model, 500 * 20)
        mu = mu_x_alpha(model, self.FS.c, a)
        assert mu == pytest.approx(truncated_second_moment(model, a) * self.FS.c.sq_sum)
        # The truncated second moment of the unit Pareto is exactly 2 log a.
        assert mu / self.FS.c.sq_sum == pytest.approx(2.0 * math.log(a), abs=1e-3)
        assert mu > 0
        # The truncation level moves with (n, p), so mu is per-trial.
        assert mu != mu_x_alpha(model, self.FS.c, norming_constant(model, 1000 * 30))
        assert run_trial(spec) == rec

    def test_exact_moment_centering_above_two(self):
        from heavyspec.linear_filter import build_row_process
        from heavyspec.spectral import centered_gram_diag, mu_x_alpha

        # The centred diagonal's mean is the mean of N = 400k terms x_t**2
        # minus mu = E x**2.  Its miss is mostly that of the mean of Z**2,
        # which is Pareto with tail index kappa = alpha/2 in (1, 2): it shrinks
        # like N**(1/kappa - 1), not N**-0.5, and is far wider above than
        # below.  With y(k) = (N/k)**(1/kappa), the level that N draws of
        # Z**2 exceed k times on average, each side of the relative miss holds
        # with probability about 1 - delta:
        #   above: one draw above y(delta) adds y(delta) / (N E Z**2);
        #   below: no draw above y = y(log(1/delta)) removes E Z**2's tail
        #   share y**(1 - kappa) above it, give or take three standard
        #   deviations of the mean of the draws below it.
        # Over seeds 0-199 no correct run failed this, and every run centred
        # by mu = 0 or by a mu too large for the law did (CHANGES.md).
        n_terms, delta = 200 * 2000, 0.005
        for alpha in (2.5, 3.5):
            model = TailModel("pareto_symmetric", alpha=alpha)
            mu = mu_x_alpha(model, self.FS.c, 100.0)
            assert mu == pytest.approx(alpha / (alpha - 2.0) * self.FS.c.sq_sum, rel=1e-14)
            kappa = alpha / 2.0
            ez2 = kappa / (kappa - 1.0)
            high = (n_terms / delta) ** (1.0 / kappa) / (n_terms * ez2)
            y = (n_terms / math.log(1.0 / delta)) ** (1.0 / kappa)
            spread = math.sqrt(kappa / (2.0 - kappa) * y ** (2.0 - kappa) / n_terms) / ez2
            low = -(y ** (1.0 - kappa) + 3.0 * spread)
            noise = sample_noise(model, (0, 200), (0, 2001), seed=8)
            x = build_row_process(noise, self.FS.c, (0, 200), 2000)
            centered = centered_gram_diag(x @ x.T, 2000, mu).mean() / 2000
            assert low * mu <= centered <= high * mu, (alpha, centered / mu, low, high)

    def test_batch_admissible_above_two(self):
        template = EnsembleTemplate(model=TailModel("pareto_symmetric", alpha=2.5), filter=self.FS)
        batch = run_batch(template, DimensionRule(beta=0.3), [500], 5, base_seed=7)
        assert all(math.isfinite(r.scaled_norm) and r.scaled_norm > 0 for r in batch.records)
        assert beta_limit(2.5) == pytest.approx(1.0 / 3.0)


def _full_panel_trial(spec: EnsembleSpec, top_k: int) -> TrialRecord:
    """``run_trial`` from one full noise panel: draw and filter every row at
    once, take the Gram of the whole row process, then reduce as
    ``run_trial`` does."""
    from scipy.linalg.blas import dsyrk

    from heavyspec.linear_filter import build_row_process
    from heavyspec.spectral import centered_covariance, centered_gram_diag, mu_x_alpha, offdiag_deviation

    model, theta, c, p, n = spec.model, spec.filter.theta, spec.filter.c, spec.p, spec.n
    rows = (1 - theta.max_lag, p - theta.min_lag + 1)
    noise = sample_noise(model, rows, (1 - c.max_lag, n - c.min_lag + 1), spec.seed)
    x_rows = build_row_process(noise, c, rows, n)
    a_np = norming_constant(model, n * p)
    mu = mu_x_alpha(model, c, a_np)
    # run_trial's Gram kernel, mirrored into a full symmetric matrix for the
    # self-checking public calls: this compares row blocks with one panel,
    # not Gram kernels, and numpy's x_rows @ x_rows.T is a dot product, not
    # dsyrk, at one row, with other last bits.
    gram = dsyrk(1.0, x_rows.T, trans=1, lower=1)
    upper = np.triu_indices(len(gram), 1)
    gram[upper] = gram.T[upper]
    d_tilde = centered_gram_diag(gram, n, mu)
    a2 = a_np * a_np
    ma = np.zeros(p)
    for k, w in zip(theta.lags, theta.values):
        ma += w * d_tilde[theta.max_lag - k : theta.max_lag - k + p]
    return TrialRecord(
        n=n,
        p=p,
        replicate=0,
        seed=spec.seed,
        a_np=a_np,
        scaled_norm=spectral_norm(centered_covariance(gram, theta, p, n, mu)) / a2,
        offdiag_dev=offdiag_deviation(gram) / a2,
        top_diag=tuple(float(v) for v in np.sort(ma / a2)[::-1][:top_k]),
    )


class TestRowBlocks:
    """``run_trial`` draws and filters the panel one row block at a time."""

    # Two-sided windows with negative lags: the noise panel then starts at a
    # row and a column other than 1, and a block's row range has an offset.
    LAGGED = FilterSpec(
        c=CoefficientSequence((0.5, 1.0, -0.3), min_lag=-1),
        theta=CoefficientSequence((0.25, 0.7, 1.0, 0.5), min_lag=-2),
    )
    # The positive Pareto draws no sign lane and, at alpha 3, is centred by
    # its second moment; at alpha 2 the centring is the truncated one.
    MODELS = (
        TailModel("pareto_symmetric", alpha=1.5),
        TailModel("pareto_skewed", alpha=1.2, q=0.3),
        TailModel("pareto_positive", alpha=3.0, q=1.0),
        TailModel("pareto_symmetric", alpha=2.0),
    )
    MODEL_IDS = ("pareto_symmetric", "pareto_skewed", "pareto_positive", "pareto_symmetric-a2")

    @pytest.mark.parametrize("block_rows", [1, 3, 7, None])
    @pytest.mark.parametrize("p", [1, 2, 5, 37])
    @pytest.mark.parametrize("fspec", [SPIKE, LAGGED], ids=["spike", "lagged"])
    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_blocks_equal_the_full_panel(self, monkeypatch, block_rows, p, fspec, model):
        import heavyspec.experiment as experiment

        n = 45
        cols = n + fspec.c.max_lag - fspec.c.min_lag
        if block_rows is not None:
            # The largest entry count that still floors to block_rows rows.
            monkeypatch.setattr(experiment, "_BLOCK_ENTRIES", (block_rows + 1) * cols - 1)
        # A seed of its own per case, so that no earlier case leaves this
        # trial's values in memory that a skipped block would then reuse.
        seed = derive_key(0xB10C, p, block_rows or 0, self.MODELS.index(model), int(fspec is SPIKE))
        spec = EnsembleSpec(model=model, filter=fspec, p=p, n=n, seed=seed)
        top_k = min(3, p)
        got = run_trial(spec, top_k=top_k)
        assert got == _full_panel_trial(spec, top_k)

    def test_no_call_draws_the_full_panel(self, monkeypatch):
        import heavyspec.experiment as experiment

        calls = []

        def recorder(model, row_range, col_range, seed, buffers=None):
            calls.append((row_range, col_range))
            return sample_noise(model, row_range, col_range, seed, buffers=buffers)

        monkeypatch.setattr(experiment, "sample_noise", recorder)
        fspec = _fs((1.0, 0.5), (1.0, 0.5))
        p, n = 400, 1000
        run_trial(EnsembleSpec(model=MODEL15, filter=fspec, p=p, n=n, seed=17))
        cols = (0, n + 1)
        limit = max(experiment._BLOCK_ENTRIES, cols[1] - cols[0])
        assert len(calls) > 1
        for (r0, r1), col_range in calls:
            assert col_range == cols
            assert (r1 - r0) * (cols[1] - cols[0]) <= limit
        # The row ranges tile the panel rows 0..p: each row drawn exactly once.
        rows = [r for (r0, r1), _ in calls for r in range(r0, r1)]
        assert sorted(rows) == list(range(0, p + 1))


def _workspace_arrays(ws) -> list[np.ndarray]:
    out = []
    for value in vars(ws).values():
        out.extend(value if isinstance(value, tuple) else [value])
    return [a for a in out if isinstance(a, np.ndarray)]


class TestTrialWorkspace:
    """``run_trial`` writes every large array into its thread's workspace."""

    @staticmethod
    def _poison_before_each_trial(monkeypatch) -> list:
        # NaN in every float buffer and all-ones bits in every uint64 one,
        # just before each trial writes them; returns the workspaces handed out.
        import heavyspec.experiment as experiment

        handed = []
        original = experiment._trial_workspace

        def poisoned(key):
            ws = original(key)
            for a in _workspace_arrays(ws):
                a.fill(np.iinfo(np.uint64).max if a.dtype == np.uint64 else np.nan)
            handed.append(ws)
            return ws

        monkeypatch.setattr(experiment, "_trial_workspace", poisoned)
        return handed

    @pytest.mark.parametrize("p", [1, 2, 5, 37])
    @pytest.mark.parametrize("fspec", [SPIKE, TestRowBlocks.LAGGED], ids=["spike", "lagged"])
    @pytest.mark.parametrize("model", TestRowBlocks.MODELS, ids=TestRowBlocks.MODEL_IDS)
    def test_poisoned_workspace_leaves_records_equal(self, monkeypatch, p, fspec, model):
        handed = self._poison_before_each_trial(monkeypatch)
        n = 45
        for seed in (derive_key(0x9015, p, 0), derive_key(0x9015, p, 1)):
            spec = EnsembleSpec(model=model, filter=fspec, p=p, n=n, seed=seed)
            assert run_trial(spec, top_k=min(3, p)) == _full_panel_trial(spec, min(3, p))
        assert len(handed) == 2 and handed[0] is handed[1]

    def test_shape_switch_replaces_the_workspace(self, monkeypatch):
        handed = self._poison_before_each_trial(monkeypatch)
        model = TailModel("pareto_skewed", alpha=1.2, q=0.3)
        a = EnsembleSpec(model=model, filter=TestRowBlocks.LAGGED, p=37, n=45, seed=5)
        b = EnsembleSpec(model=model, filter=SPIKE, p=12, n=60, seed=6)
        for spec in (a, b, a):
            assert run_trial(spec) == _full_panel_trial(spec, 3)
        keys = [ws.key for ws in handed]
        assert keys[0] == keys[2] != keys[1]
        assert handed[0] is not handed[2]

    def test_the_gram_is_the_one_square_array(self):
        # The off-diagonal norm zeroes the Gram's diagonal for its solve and
        # restores it, so the workspace holds no m x m scratch and the trial
        # leaves the lower triangle that dsyrk wrote.
        import heavyspec.experiment as experiment

        spec = EnsembleSpec(model=MODEL15, filter=_fs((1.0, 0.5), (1.0, 0.5)), p=37, n=200, seed=3)
        run_trial(spec)
        ws = experiment._LOCAL.workspace
        m = ws.key[0]
        squares = [a for a in _workspace_arrays(ws) if a.shape == (m, m)]
        assert len(squares) == 1 and squares[0] is ws.gram
        fresh = experiment.dsyrk(1.0, ws.x_rows.T, trans=1, lower=1)
        lower = np.tril_indices(m)
        assert np.array_equal(ws.gram[lower].view(np.uint64), fresh[lower].view(np.uint64))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts minor faults as Linux reports them")
    def test_trials_of_one_shape_fault_in_no_heap(self):
        import resource

        fspec = _fs((1.0, 0.5), (1.0, 0.5))
        specs = [EnsembleSpec(model=MODEL15, filter=fspec, p=400, n=1000, seed=seed) for seed in range(7)]
        with _one_blas_thread():
            run_trial(specs[0])
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for spec in specs[1:]:
                run_trial(spec)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults <= 100 * len(specs[1:])

    def test_threads_get_their_own_workspace(self):
        import heavyspec.experiment as experiment

        fspec = _fs((1.0, 0.5), (1.0, 0.5))
        specs = [EnsembleSpec(model=MODEL15, filter=fspec, p=37, n=200, seed=seed) for seed in range(4)]
        serial = [run_trial(spec) for spec in specs]
        # The tasks wait for each other, so each runs in a thread of its own;
        # three threads on a short switch interval interleave their trials.
        barrier = threading.Barrier(3, timeout=60)

        def task():
            barrier.wait()
            return [run_trial(spec) for spec in specs], experiment._LOCAL.workspace

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                results = [f.result(timeout=120) for f in [pool.submit(task) for _ in range(3)]]
        finally:
            sys.setswitchinterval(interval)
        assert all(records == serial for records, _ in results)
        spaces = [ws for _, ws in results] + [experiment._LOCAL.workspace]
        assert len({ws.key for ws in spaces}) == 1
        for i, x in enumerate(spaces):
            for y in spaces[i + 1 :]:
                assert not any(np.shares_memory(u, v) for u in _workspace_arrays(x) for v in _workspace_arrays(y))


class TestSetBlasThreads:
    @staticmethod
    def _fake_openblas(monkeypatch, maps, threads):
        # One stand-in OpenBLAS at `threads`, found through a stand-in
        # /proc/self/maps; returns the counts its setter was called with.
        import heavyspec.experiment as experiment

        calls = []

        def get_threads():
            return threads[0]

        def set_threads(count):
            calls.append(count)
            threads[0] = count

        lib = SimpleNamespace(openblas_get_num_threads=get_threads, openblas_set_num_threads=set_threads)
        monkeypatch.setattr(experiment, "open", lambda *args, **kwargs: io.StringIO(maps), raising=False)
        monkeypatch.setattr(experiment.ctypes, "CDLL", lambda path: lib)
        return calls

    def test_current_count_calls_no_setter(self, monkeypatch):
        maps = "7f0000-7f1000 r-xp 00000000 08:01 42 /usr/lib/libopenblas.so.0\n"
        calls = self._fake_openblas(monkeypatch, maps, threads=[2])
        assert [count for _, count in _set_blas_threads(1)] == [2]
        assert [count for _, count in _set_blas_threads(1)] == [1]
        assert calls == [1]

    def test_no_openblas_loaded_returns_empty(self, monkeypatch):
        maps = "7f0000-7f1000 r-xp 00000000 08:01 42 /usr/lib/libm.so.6\n"
        calls = self._fake_openblas(monkeypatch, maps, threads=[2])
        assert _set_blas_threads(1) == []
        assert calls == []

    def test_second_call_reads_one(self):
        saved = _set_blas_threads(1)
        try:
            again = _set_blas_threads(1)
        finally:
            for set_threads, count in saved:
                set_threads(count)
        assert [count for _, count in again] == [1] * len(saved)


class TestRunBatch:
    def test_validation_aborts_before_trials(self):
        template = EnsembleTemplate(
            model=TailModel("pareto_positive", alpha=2.5, q=1.0), filter=SPIKE
        )
        with pytest.raises(ValidationError, match="zero_mean"):
            run_batch(template, DimensionRule(beta=0.3), [50], 5, base_seed=1)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ({"n_values": [100.7]}, "n_values entry must be an integer, got 100.7"),
            ({"replicates": 2.5}, "replicates must be an integer, got 2.5"),
            ({"top_k": 1.5}, "top_k must be an integer, got 1.5"),
            ({"workers": 1.5}, "workers must be an integer, got 1.5"),
            ({"top_k": np.float32(2.5)}, "top_k must be an integer, got np.float32(2.5)"),
        ],
        ids=["n", "replicates", "top_k", "workers", "top_k_float32"],
    )
    def test_refuses_non_integral_counts_before_any_trial(self, monkeypatch, counts, message):
        # Each was once truncated (n 100.7 to 100, 2.5 replicates to 3) or
        # failed inside the first trial or the pool with a TypeError.
        def unreached(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("heavyspec.experiment.run_trial", unreached)
        t = EnsembleTemplate(model=MODEL15, filter=SPIKE)
        args = {"n_values": [100], "replicates": 2, "top_k": 1, "workers": 1, **counts}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_batch(t, DimensionRule(0.5), args.pop("n_values"), args.pop("replicates"), 1, **args)

    def test_numpy_integers_and_integral_floats_are_counts(self):
        t = EnsembleTemplate(model=MODEL15, filter=SPIKE)
        want = run_batch(t, DimensionRule(0.5), [100], 2, 1, workers=1, top_k=2)
        got = run_batch(t, DimensionRule(0.5), [np.int64(100)], 2.0, 1, workers=np.int32(1), top_k=np.float64(2.0))
        assert got == want
        # float32 and float16 are numbers.Real but, unlike float64, no float.
        assert run_batch(t, DimensionRule(0.5), [np.float32(100.0)], np.float16(2.0), 1, top_k=np.float32(2.0)) == want
        assert type(got.n_values[0]) is int and type(got.top_k) is int

    @pytest.mark.parametrize(
        "template, rule, n_values, p_values",
        [
            (EnsembleTemplate(model=MODEL15, filter=SPIKE), DimensionRule(beta=0.5, p_max=10), [40, 80], [6, 9]),
            # config.example.json's model at two shapes where OpenBLAS threads
            # the Gram product: every trial process replaces its workspace at
            # the shape change, and pool workers start from the one they inherit.
            (
                EnsembleTemplate(model=TailModel("pareto_symmetric", alpha=1.2), filter=_fs((1.0, 0.5), (1.0, 0.5))),
                DimensionRule(beta=0.9, p_max=400),
                [200, 1000],
                [118, 400],
            ),
        ],
        ids=["small", "two_shapes"],
    )
    def test_parallel_equals_serial(self, template, rule, n_values, p_values):
        a = run_batch(template, rule, n_values, 4, base_seed=9, workers=1)
        b = run_batch(template, rule, n_values, 4, base_seed=9, workers=2)
        assert [r.p for r in a.records[::4]] == p_values
        assert a.records == b.records

    def test_pool_starts_no_more_workers_than_jobs(self, monkeypatch):
        # A pool forks all its workers at once; a fake pool that maps serially
        # records how many it was asked for, and the BLAS thread counts of the
        # process it maps in, and starts no process.
        asked, mapped_at = [], []

        class SerialPool:
            def __init__(self, max_workers, **options):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                mapped_at.append([count for _, count in _set_blas_threads(1)])
                return map(fn, jobs)

        template = EnsembleTemplate(model=MODEL15, filter=SPIKE)
        rule = DimensionRule(beta=0.5, p_max=10)
        serial = run_batch(template, rule, [40], 2, base_seed=9, workers=1)
        monkeypatch.setattr("heavyspec.experiment.ProcessPoolExecutor", SerialPool)
        saved = _set_blas_threads(2)
        try:
            # One job runs in the serial loop: no pool is made for it.
            assert run_batch(template, rule, [40], 1, base_seed=9, workers=3).records == serial.records[:1]
            assert run_batch(template, rule, [40], 2, base_seed=9, workers=3).records == serial.records
            assert run_batch(template, rule, [40, 80], 2, base_seed=9, workers=3).records[:2] == serial.records
            after = [count for _, count in _set_blas_threads(2)]
        finally:
            for set_threads, count in saved:
                set_threads(count)
        assert asked == [2, 3]
        # The pool is made and mapped at one thread, so forked workers inherit it.
        assert mapped_at == [[1] * len(saved)] * 2
        assert after == [2] * len(saved)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
    def test_forked_workers_run_on_one_os_thread(self, monkeypatch):
        # Setting the BLAS thread count in a forked worker starts anew the
        # helper threads a fork does not copy; one that inherits 1 thread has none.
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs two cores for a threaded BLAS")
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers inherit the parent's BLAS state only when forked")
        monkeypatch.setattr("heavyspec.experiment._trial_job", _os_threads_job)
        model = TailModel("pareto_symmetric", alpha=3.0)
        template = EnsembleTemplate(model=model, filter=_fs((1.0, 0.5), (1.0, 0.5)))
        rule = DimensionRule(beta=0.1, const=100.0, p_max=100)
        batch = run_batch(template, rule, [300], 4, base_seed=5, workers=2)
        assert [rec.os_threads for rec in batch.records] == [1] * 4

    def test_spawned_workers_equal_the_serial_loop(self, monkeypatch):
        # A spawned worker starts from a fresh interpreter at the library's
        # default BLAS thread count, and only the pool's initializer drops it
        # to one; at p = 100 the bits of the Gram product follow that count.
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs two cores for a threaded BLAS")
        spawn = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
        monkeypatch.setattr("heavyspec.experiment.ProcessPoolExecutor", spawn)
        model = TailModel("pareto_symmetric", alpha=3.0)
        template = EnsembleTemplate(model=model, filter=_fs((1.0, 0.5), (1.0, 0.5)))
        rule = DimensionRule(beta=0.1, const=100.0, p_max=100)
        pooled = run_batch(template, rule, [300], 6, base_seed=5, workers=2)
        serial = run_batch(template, rule, [300], 6, base_seed=5, workers=1)
        assert pooled.records[0].p == 100
        assert pooled.records == serial.records

    def test_records_independent_of_caller_blas_threads(self):
        # At p = 100 OpenBLAS threads the Gram product, and its bits follow the
        # thread count; at p <= 64 it runs single-threaded and nothing differs.
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs two cores for a two-thread BLAS")
        saved = _set_blas_threads(2)
        if not saved:
            pytest.skip("no OpenBLAS thread control in this process")
        model = TailModel("pareto_symmetric", alpha=3.0)
        template = EnsembleTemplate(model=model, filter=_fs((1.0, 0.5), (1.0, 0.5)))
        rule = DimensionRule(beta=0.1, const=100.0, p_max=100)
        try:
            two = run_batch(template, rule, [300], 6, base_seed=5, workers=1)
            assert [count for _, count in _set_blas_threads(2)] == [2] * len(saved)
            pooled = run_batch(template, rule, [300], 6, base_seed=5, workers=2)
            assert [count for _, count in _set_blas_threads(1)] == [2] * len(saved)
            one = run_batch(template, rule, [300], 6, base_seed=5, workers=1)
            assert [count for _, count in _set_blas_threads(1)] == [1] * len(saved)
        finally:
            for set_threads, count in saved:
                set_threads(count)
        assert two.records[0].p == 100
        assert two.records == pooled.records == one.records

    def test_seed_derivation_injective_within_batch(self):
        seeds = {derive_seed(7, n, r) for n in (100, 200, 400) for r in range(500)}
        assert len(seeds) == 1500

    @pytest.mark.parametrize("base_seed", [0, 1, 7919, 2**64 - 1, -5])
    def test_array_seeds_equal_scalar_ones(self, base_seed):
        # run_batch and batch_from_records derive each n's seeds in one call.
        for n in (40, 1000):
            seeds = derive_seed(base_seed, n, np.arange(500))
            assert seeds.dtype == np.uint64
            assert seeds.tolist() == [derive_seed(base_seed, n, r) for r in range(500)]

    def test_rejects_top_k_outside_one_to_p(self):
        template = EnsembleTemplate(model=MODEL15, filter=SPIKE)
        rule = DimensionRule(beta=0.5, p_max=3)
        with pytest.raises(ValueError, match=r"got top_k=0 with p=3 at n=40"):
            run_batch(template, rule, [40], 2, base_seed=1, top_k=0)
        with pytest.raises(ValueError, match=r"got top_k=4 with p=3 at n=40"):
            run_batch(template, rule, [40], 2, base_seed=1, top_k=4)
        # Refused at the first n whose p is too small, before any trial runs.
        with pytest.raises(ValueError, match=r"got top_k=3 with p=2 at n=4"):
            run_batch(template, rule, [40, 4], 2, base_seed=1, top_k=3)
        assert run_batch(template, rule, [40], 2, base_seed=1, top_k=3).top_matrix().shape == (2, 3)

    @pytest.mark.parametrize(
        "model",
        [MODEL15, TailModel("pareto_positive", alpha=1.5, q=1.0), TailModel("pareto_skewed", alpha=1.5, q=0.3)],
        ids=lambda m: m.family,
    )
    def test_rejects_n_times_p_one_before_any_trial(self, monkeypatch, model):
        # At n * p = 1 the norming constant is the 0 quantile of |Z|.
        monkeypatch.setattr("heavyspec.experiment.run_trial", None)
        template = EnsembleTemplate(model=model, filter=SPIKE)
        with pytest.raises(ValueError, match=re.escape("n * p must be at least 2, got n=1 and p=1")):
            run_batch(template, DimensionRule(beta=0.5), [40, 1], 1, base_seed=1, top_k=1)

    @pytest.mark.parametrize(
        "theta, scale, bound",
        [((1e-170, 5e-171), 1.0, "0"), ((1e160,), 1e-100, "inf")],
        ids=["underflow", "overflow"],
    )
    def test_rejects_envelope_scales_outside_normal_floats_before_any_trial(self, monkeypatch, theta, scale, bound):
        # A zero envelope scale judged every batch a FAIL of the theorem, and
        # max theta^2 past the largest float raised OverflowError in the check.
        monkeypatch.setattr("heavyspec.experiment.run_trial", None)
        model = TailModel("pareto_symmetric", alpha=1.5, scale=scale)
        template = EnsembleTemplate(model=model, filter=_fs((1.0, 0.5), theta))
        message = f"max theta^2 sum c^2 = {bound} and max|theta| sum|theta| sum c^2 = {bound} are not positive normal"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_batch(template, DimensionRule(beta=0.5, p_max=8), [40], 2, base_seed=1)

    def test_rejects_repeated_n(self):
        # A repeated n used to draw each of its replicates twice, with the
        # same seeds, into a batch that check then refused as duplicates.
        template = EnsembleTemplate(model=MODEL15, filter=SPIKE)
        with pytest.raises(ValueError, match=re.escape("n_values repeats [60]; each n must appear once")):
            run_batch(template, DimensionRule(beta=0.5, p_max=8), [60, 30, 60], 2, base_seed=2)

    def test_records_sorted(self):
        template = EnsembleTemplate(model=MODEL15, filter=SPIKE)
        batch = run_batch(template, DimensionRule(beta=0.5, p_max=8), [60, 30], 3, base_seed=2)
        keys = [(r.n, r.replicate) for r in batch.records]
        assert keys == sorted(keys)


class TestKsDistance:
    def test_samples_from_cdf_within_critical_band(self):
        rng = np.random.default_rng(17)
        u = rng.uniform(size=10_000)
        values = frechet_quantile(u, 1.0, 1.5)
        ks = ks_distance(values, lambda x: frechet_cdf(x, 1.0, 1.5))
        assert ks < 1.63 / math.sqrt(10_000)

    def test_shrinks_with_sample_size(self):
        rng = np.random.default_rng(18)
        small = frechet_quantile(rng.uniform(size=500), 1.0, 1.5)
        large = frechet_quantile(rng.uniform(size=100_000), 1.0, 1.5)
        cdf = lambda x: frechet_cdf(x, 1.0, 1.5)
        assert ks_distance(large, cdf) < ks_distance(small, cdf)
        assert ks_distance(large, cdf) < 0.01

    def test_shifted_law_bounded_away_from_zero(self):
        rng = np.random.default_rng(19)
        values = 2.0 * frechet_quantile(rng.uniform(size=20_000), 1.0, 1.5)
        ks = ks_distance(values, lambda x: frechet_cdf(x, 1.0, 1.5))
        assert ks > 0.1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ks_distance([], lambda x: x)


def _envelope_rejections(fspec, alpha, scale, replicates, runs, seed):
    """Judge ``runs`` batches of ``replicates`` exact draws of the
    Fréchet(alpha/2) law at ``scale`` by envelope_check; returns how many
    were rejected by d_plus, by d_minus and overall."""
    model = TailModel("pareto_symmetric", alpha=alpha)
    rng = np.random.default_rng(seed)
    counts = np.zeros(3, dtype=int)
    for _ in range(runs):
        values = frechet_quantile(rng.uniform(size=replicates), scale, alpha)
        report = envelope_check(_synthetic_batch(values, fspec, model))
        entry, side = report["per_n"][0], report["level_per_side"]
        counts += (entry["p_plus"] <= side, entry["p_minus"] <= side, not report["passed"])
    return counts


class TestEnvelopeCheck:
    # config.example.json's filter: the envelope's scales are 1.25 and 1.875.
    FILTER = _fs((1.0, 0.5), (1.0, 0.5))

    def test_one_sided_sups_at_ties(self):
        # Uniform on [0, 4]. The ECDF is 0.25, 0.75 and 1 at 0.5, 1.5 and 4:
        # ECDF - cdf peaks after the tied pair, cdf - ECDF just below 4.
        sups = _one_sided_sups([4.0, 1.5, 0.5, 1.5], lambda x: x / 4.0, lambda x: x / 4.0)
        assert sups == ((0.375, 1.5), (0.25, 4.0))
        assert ks_distance([4.0, 1.5, 0.5, 1.5], lambda x: x / 4.0) == 0.375

    def test_synthetic_draws_from_upper_cdf_pass(self):
        alpha = 1.2
        model = TailModel("pareto_symmetric", alpha=alpha)
        lower, _ = envelope_scales(self.FILTER)
        rng = np.random.default_rng(20)
        values = frechet_quantile(rng.uniform(size=800), lower, alpha)
        batch = _synthetic_batch(values, self.FILTER, model)
        report = envelope_check(batch)
        assert report["passed"]
        assert (report["level"], report["level_per_side"]) == (0.05, 0.025)

    def test_all_zero_values_fail(self):
        model = TailModel("pareto_symmetric", alpha=1.2)
        batch = _synthetic_batch(np.zeros(500), self.FILTER, model)
        report = envelope_check(batch)
        assert not report["passed"]
        entry = report["per_n"][0]
        assert (entry["count"], entry["d_plus"], entry["x_plus"]) == (500, 1.0, 0.0)
        assert entry["p_plus"] < 1e-100

    def test_single_spike_is_the_two_sided_ks_test(self):
        # One nonzero weight: both envelope CDFs are the exact law, and the
        # larger of the two sups is ks_check's distance.
        model = TailModel("pareto_symmetric", alpha=1.5)
        scale, _ = envelope_scales(SPIKE)
        rng = np.random.default_rng(21)
        values = frechet_quantile(rng.uniform(size=800), scale, 1.5)
        batch = _synthetic_batch(values, SPIKE, model)
        report = envelope_check(batch)
        assert report["passed"]
        entry = report["per_n"][0]
        assert max(entry["d_plus"], entry["d_minus"]) == ks_check(batch)["ks_vs_upper_cdf"]

    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_size_at_an_envelope_end(self, end):
        # Exact draws of one envelope law at 100 replicates, 400 runs: the
        # side that this end makes tight rejects at its 2.5%, within the 99%
        # binomial interval, and the other side at most that often.
        lower, upper = envelope_scales(self.FILTER)
        scale = upper if end == "lower" else lower
        runs = 400
        plus, minus, overall = _envelope_rejections(self.FILTER, 1.2, scale, 100, runs, seed=23)
        tight, slack = (minus, plus) if end == "lower" else (plus, minus)
        low, high = binom.interval(0.99, runs, _KS_LEVEL / 2)
        assert low <= tight <= high
        assert slack <= high
        assert overall <= tight + slack

    def test_rejects_a_law_above_the_envelope(self):
        # The rank-one law (scale sum theta^2 * sum c^2 = 1.5625) at 1.5
        # times its scale, 2.34, lies above the envelope's 1.875: at 1000
        # replicates the "too big" side rejects it in about 0.92 of runs.
        rank_one = self.FILTER.theta.sq_sum * self.FILTER.c.sq_sum
        runs = 40
        plus, minus, overall = _envelope_rejections(self.FILTER, 1.2, 1.5 * rank_one, 1000, runs, seed=24)
        assert overall >= 0.75 * runs
        assert (plus, minus) == (0, overall)

    def test_spike_pipeline_batch_passes(self):
        # The exact law's own config at 30 replicates (alpha 1.5, c = theta =
        # (1), p_max 60): p = 0.74 and 0.067 at n 400, where one norm lies
        # below the law's 0.2 quantile.
        template = EnsembleTemplate(model=MODEL15, filter=SPIKE)
        batch = run_batch(template, DimensionRule(beta=0.9, p_max=60), [100, 200, 400], 30, base_seed=7)
        report = envelope_check(batch)
        assert report["passed"]
        assert [(entry["n"], entry["count"]) for entry in report["per_n"]] == [(100, 30), (200, 30), (400, 30)]

    def test_spike_pipeline_batch_fails_under_a_wider_law(self):
        # The spike config's own trials at n 400, judged by the exact law at
        # 1.5 times their scale (theta = (sqrt(1.5),)): the norms are too
        # small for it. Base seeds 1-40 FAILed in 40 of 40 runs at 500
        # replicates (35 at 200, 23 at 100); at seed 7 p_plus is 0.68 under
        # the true filter and 1.7e-6 under this one.
        template = EnsembleTemplate(model=MODEL15, filter=SPIKE)
        batch = run_batch(template, DimensionRule(beta=0.9, p_max=60), [400], 500, base_seed=7)
        report = envelope_check(replace(batch, filter=_fs((1.0,), (math.sqrt(1.5),))))
        assert not report["passed"]
        assert report["per_n"][0]["p_plus"] <= report["level_per_side"]


class TestKsCheck:
    def test_single_spike_applicable(self):
        model = TailModel("pareto_symmetric", alpha=1.5)
        scale, _ = envelope_scales(SPIKE)
        rng = np.random.default_rng(22)
        values = frechet_quantile(rng.uniform(size=2000), scale, 1.5)
        batch = _synthetic_batch(values, SPIKE, model)
        report = ks_check(batch)
        assert report["applicable"]
        assert report["passed"]

    @pytest.mark.parametrize(
        "size, factor, seed, passed", [(100, 1.0, 104, True), (1000, 1.3, 101, False)], ids=["exact", "scale_x1.3"]
    )
    def test_tolerance_is_the_five_percent_critical_value(self, size, factor, seed, passed):
        # KS 0.118 on 100 draws of the exact law, 0.076 on 1000 at 1.3 times
        # its scale: a fixed tolerance of 0.10 gave each the other verdict.
        model = TailModel("pareto_symmetric", alpha=1.5)
        scale, _ = envelope_scales(SPIKE)
        rng = np.random.default_rng(seed)
        values = factor * frechet_quantile(rng.uniform(size=size), scale, 1.5)
        report = ks_check(_synthetic_batch(values, SPIKE, model))
        assert report["tol"] == pytest.approx(1.3581 / math.sqrt(size), rel=1e-4)
        assert report["passed"] is passed
        assert (report["ks_vs_upper_cdf"] <= 0.10) is not passed

    def test_multi_spike_not_applicable(self):
        fspec = _fs((1.0,), (1.0, 0.5))
        model = TailModel("pareto_symmetric", alpha=1.5)
        batch = _synthetic_batch(np.ones(50), fspec, model)
        report = ks_check(batch)
        assert not report["applicable"]
        assert report["passed"] is None


class TestOffdiagTrendCheck:
    def _batch_with_offdiags(self, per_n):
        records = []
        for n, devs in per_n.items():
            for i, d in enumerate(devs):
                records.append(
                    TrialRecord(
                        n=n,
                        p=5,
                        replicate=i,
                        seed=i,
                        a_np=1.0,
                        scaled_norm=1.0,
                        offdiag_dev=float(d),
                        top_diag=(1.0,),
                    )
                )
        return TrialBatch(
            model=MODEL15,
            filter=SPIKE,
            n_values=tuple(per_n),
            top_k=1,
            records=tuple(records),
        )

    def test_decreasing_below_threshold_passes(self):
        batch = self._batch_with_offdiags({100: [0.4, 0.5], 200: [0.2, 0.3], 400: [0.05, 0.1]})
        report = offdiag_trend_check(batch)
        assert report["passed"] and report["decreasing"]

    def test_non_monotone_fails(self):
        batch = self._batch_with_offdiags({100: [0.2], 200: [0.3], 400: [0.1]})
        assert not offdiag_trend_check(batch)["passed"]

    def test_final_above_threshold_fails(self):
        batch = self._batch_with_offdiags({100: [0.9], 200: [0.5]})
        report = offdiag_trend_check(batch)
        assert report["decreasing"] and not report["passed"]


class TestOrderStatCheck:
    def test_smoke_structure(self):
        template = EnsembleTemplate(model=MODEL15, filter=_fs((1.0,), (1.0, 0.5)))
        batch = run_batch(template, DimensionRule(beta=0.9, p_max=60), [200], 60, base_seed=31)
        report = order_stat_check(batch)
        assert (report["k"], report["limit_draws"]) == (3, 2000)
        assert {r["rank"] for r in report["ranks"]} == {1, 2, 3}
        for r in report["ranks"]:
            assert r["tol"] > 0

    def test_not_applicable_without_positive_theta(self):
        # The limit has no top points when every theta weight is nonpositive;
        # the check reports that instead of failing the run.
        template = EnsembleTemplate(model=MODEL15, filter=_fs((1.0,), (-1.0, -0.5)))
        rule = DimensionRule(beta=0.5, p_max=8)
        batch = run_batch(template, rule, [60], 4, base_seed=3)
        report = order_stat_check(batch)
        assert report == {"applicable": False, "passed": None, "n": 60, "k": 3}
        config = ExperimentConfig(
            model=MODEL15, filter=batch.filter, rule=rule, n_values=(60,), replicates=4, seed=3,
            checks={"envelope": False, "ks": False, "order_stats": True, "offdiag": False},
        )
        assert run_checks(batch, config)["overall_passed"] is True


def _envelope_reference(batch):
    """envelope_check as a loop over the sorted norms at each n, one point at
    a time: the ECDF is i / count at the i-th and one step less below it."""
    lower_scale, upper_scale = envelope_scales(batch.filter)
    alpha = batch.model.alpha
    per_n = []
    for n in sorted(batch.n_values):
        values = sorted(batch.scaled_norms(n).tolist())
        count = len(values)
        d_plus = d_minus = -math.inf
        for i, x in enumerate(values, 1):
            plus = i / count - float(frechet_cdf(x, lower_scale, alpha))
            minus = float(frechet_cdf(x, upper_scale, alpha)) - (i / count - 1.0 / count)
            if plus > d_plus:
                d_plus, x_plus = plus, x
            if minus > d_minus:
                d_minus, x_minus = minus, x
        p_plus, p_minus = float(smirnov(count, d_plus)), float(smirnov(count, d_minus))
        per_n.append(
            {
                "n": n,
                "count": count,
                "d_plus": d_plus,
                "x_plus": x_plus,
                "p_plus": p_plus,
                "d_minus": d_minus,
                "x_minus": x_minus,
                "p_minus": p_minus,
            }
        )
    return {
        "applicable": True,
        "passed": p_plus > _KS_LEVEL / 2 and p_minus > _KS_LEVEL / 2,
        "alpha": alpha,
        "lower_scale": lower_scale,
        "upper_scale": upper_scale,
        "level": _KS_LEVEL,
        "level_per_side": _KS_LEVEL / 2,
        "per_n": per_n,
    }


def _order_stat_reference(batch):
    """order_stat_check as a loop over the ranks, one column at a time."""
    k = batch.top_k
    emp = batch.top_matrix()
    seeds = derive_key(_LIMIT_SEED, np.arange(_LIMIT_DRAWS))
    draws = limit_order_statistics(batch.filter, batch.model.alpha, k, seeds)
    ranks = []
    overall = True
    for r in range(k):
        e, d = emp[:, r], draws[:, r]
        med_e, med_l = float(np.median(e)), float(np.median(d))
        iqr_e = float(np.percentile(e, 75) - np.percentile(e, 25))
        iqr_l = float(np.percentile(d, 75) - np.percentile(d, 25))
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


def _tied_batch(fspec, replicates, k, seed, zero_at=None):
    """Draws of the upper envelope law at n 200, 40 and 90 (unsorted, as a
    config may list them), a third of them rounded to one decimal to create
    ties, with k decreasing top values per record rounded likewise; the norms
    at n ``zero_at`` are all zero, which fails that n's envelope."""
    alpha = 1.3
    lower_scale, _ = envelope_scales(fspec)
    rng = np.random.default_rng(seed)
    n_values = (200, 40, 90)
    records = []
    for n in n_values:
        norms = frechet_quantile(rng.uniform(0.01, 0.99, size=replicates), lower_scale, alpha)
        norms[::3] = np.round(norms[::3], 1)
        if n == zero_at:
            norms[:] = 0.0
        top = np.round(np.sort(rng.pareto(alpha, size=(replicates, k)), axis=1)[:, ::-1], 1)
        records += [
            TrialRecord(n, 10, r, r, 1.0, float(v), 0.0, tuple(float(t) for t in row))
            for r, (v, row) in enumerate(zip(norms, top))
        ]
    model = TailModel("pareto_symmetric", alpha=alpha)
    return TrialBatch(model, fspec, n_values, k, tuple(records))


class TestChecksEqualTheirPerPointLoops:
    # The checks compute over whole arrays; the loops above, one sorted point
    # or rank at a time, give the same floats, bit for bit, and the same
    # verdict.
    @pytest.mark.parametrize(
        "replicates, k",
        [(1, 1), (2, 2), (3, 5), (7, 3), (60, 4), (600, 5), (600, 1)],
    )
    @pytest.mark.parametrize(
        "fspec",
        [SPIKE, _fs((1.0, 0.5), (1.0, 0.5)), _fs((0.5, 1.0, 0.25), (0.3, 1.0, -0.4))],
        ids=["spike", "one_sided", "two_sided"],
    )
    def test_envelope_and_order_statistics(self, fspec, replicates, k):
        batch = _tied_batch(fspec, replicates, k, seed=replicates * 10 + k)
        if replicates >= 60:
            assert np.unique(batch.scaled_norms(40)).size < replicates
        for got, want in (
            (envelope_check(batch), _envelope_reference(batch)),
            (order_stat_check(batch), _order_stat_reference(batch)),
        ):
            assert got == want
            assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("zero_at, passed", [(200, False), (40, True)])
    def test_the_largest_n_decides_the_envelope(self, zero_at, passed):
        batch = _tied_batch(SPIKE, 600, 1, seed=5, zero_at=zero_at)
        report = envelope_check(batch)
        assert report == _envelope_reference(batch)
        assert [entry["n"] for entry in report["per_n"]] == [40, 90, 200]
        assert report["passed"] is passed
        failed = [entry["n"] for entry in report["per_n"] if entry["p_plus"] <= report["level_per_side"]]
        assert failed == [zero_at]


# Every entry a check emits, with the status report prints for it.
_ENTRIES = {
    "disabled": ({"enabled": False}, "disabled"),
    "ks_not_applicable": (
        {"enabled": True, "applicable": False, "n": 80, "count": 5, "tol": 0.6, "passed": None},
        "n/a",
    ),
    "order_stats_not_applicable": ({"enabled": True, "applicable": False, "passed": None, "n": 60, "k": 3}, "n/a"),
    "pass": ({"enabled": True, "applicable": True, "passed": True}, "pass"),
    "FAIL": ({"enabled": True, "applicable": True, "passed": False}, "FAIL"),
}


class TestCheckStatus:
    @pytest.mark.parametrize("entry, status", _ENTRIES.values(), ids=list(_ENTRIES))
    def test_status_of_each_entry(self, entry, status):
        assert check_status(entry) == status

    def test_overall_passed_is_the_rule_it_replaced(self, monkeypatch):
        # Every assignment of the entries above to the four checks: overall
        # pass holds exactly when no enabled, applicable check with a verdict
        # has a false one, and the batch is never read.
        import heavyspec.experiment as experiment

        config = ExperimentConfig(
            model=MODEL15, filter=SPIKE, rule=DimensionRule(beta=0.5), n_values=(40,), replicates=1, seed=1
        )
        names = list(CHECKS)
        for combo in itertools.product(_ENTRIES.values(), repeat=len(names)):
            for name, (entry, _) in zip(names, combo):
                body = {key: value for key, value in entry.items() if key != "enabled"}
                monkeypatch.setattr(experiment, CHECKS[name], lambda batch, body=body: body)
            checks = {name: entry["enabled"] for name, (entry, _) in zip(names, combo)}
            out = run_checks(None, replace(config, checks=checks))
            verdicts = [
                c["passed"]
                for c in (out[name] for name in names)
                if c.get("enabled") and c.get("applicable") and c.get("passed") is not None
            ]
            assert out["overall_passed"] is (bool(all(verdicts)) if verdicts else True)
            assert [check_status(out[name]) for name in names] == [status for _, status in combo]


class TestEmitAndReload:
    RULE = DimensionRule(beta=0.5, p_max=12)

    def _small_batch(self):
        template = EnsembleTemplate(model=MODEL15, filter=_fs((1.0, 0.5), (1.0, 0.5)))
        return run_batch(template, self.RULE, [40, 60], 4, base_seed=13)

    def test_byte_deterministic_output(self, tmp_path):
        batch1 = self._small_batch()
        batch2 = self._small_batch()
        p1 = emit_report(batch1, None, str(tmp_path / "a"))
        p2 = emit_report(batch2, None, str(tmp_path / "b"))
        with open(p1["trials"], "rb") as fh:
            b1 = fh.read()
        with open(p2["trials"], "rb") as fh:
            b2 = fh.read()
        assert b1 == b2

    def test_csv_header_and_roundtrip(self, tmp_path):
        # A record is exactly a trials.csv row: reading back gives every
        # record of both n values whole.
        batch = self._small_batch()
        paths = emit_report(batch, None, str(tmp_path))
        with open(paths["trials"], encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "n,p,replicate,seed,a_np,scaled_norm,offdiag_dev,top1,top2,top3"
        assert read_trials_csv(paths["trials"]) == list(batch.records)
        assert len(batch.records) == 8

    @settings(deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda top_k: st.lists(
                st.builds(
                    TrialRecord,
                    n=st.integers(1, 10**6),
                    p=st.integers(1, 10**4),
                    replicate=st.integers(0, 10**6),
                    seed=st.integers(0, 2**64 - 1),
                    a_np=st.floats(allow_nan=False, allow_infinity=False),
                    scaled_norm=st.floats(allow_nan=False, allow_infinity=False),
                    offdiag_dev=st.floats(allow_nan=False, allow_infinity=False),
                    top_diag=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * top_k),
                ),
                min_size=1,
                max_size=4,
            )
        )
    )
    @example(
        [
            TrialRecord(
                n=1,
                p=2,
                replicate=0,
                seed=2**64 - 1,
                a_np=-0.0,
                scaled_norm=5e-324,
                offdiag_dev=-1.7976931348623157e308,
                top_diag=(1.7976931348623157e308, -0.0),
            )
        ]
    )
    def test_csv_roundtrip_is_exact(self, records):
        # Every finite float, -0.0 and subnormals included, and every 64-bit
        # seed come back with their bits; the header is TrialRecord's scalar
        # fields, then top1..topK.
        top_k = len(records[0].top_diag)
        batch = TrialBatch(MODEL15, SPIKE, (1,), top_k, tuple(records))
        with tempfile.TemporaryDirectory() as out_dir:
            path = emit_report(batch, None, out_dir)["trials"]
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().strip().split(",")
            read = read_trials_csv(path)
        scalars = [f.name for f in fields(TrialRecord) if f.name != "top_diag"]
        assert header == [*scalars, *(f"top{i}" for i in range(1, top_k + 1))]
        assert read == records
        assert repr(read) == repr(records)

    def test_checks_json_written(self, tmp_path):
        batch = self._small_batch()
        config = ExperimentConfig(
            model=batch.model,
            filter=batch.filter,
            rule=self.RULE,
            n_values=batch.n_values,
            replicates=4,
            seed=13,
            checks={"envelope": True, "ks": False, "order_stats": False, "offdiag": True},
        )
        checks = run_checks(batch, config)
        paths = emit_report(batch, checks, str(tmp_path))
        with open(paths["checks"], encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["ks"] == {"enabled": False}
        assert loaded["order_stats"] == {"enabled": False}
        assert loaded["envelope"]["enabled"]
        assert "overall_passed" in loaded

    def test_checks_json_flags_are_booleans(self, tmp_path):
        # Two theta weights: ks reports distances without a verdict (null).
        batch = self._small_batch()
        config = ExperimentConfig(
            model=batch.model,
            filter=batch.filter,
            rule=self.RULE,
            n_values=batch.n_values,
            replicates=4,
            seed=13,
            top_k=batch.top_k,
        )
        paths = emit_report(batch, run_checks(batch, config), str(tmp_path))
        with open(paths["checks"], encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert type(loaded["overall_passed"]) is bool
        for name in ("envelope", "order_stats", "offdiag"):
            assert loaded[name]["enabled"] is True and loaded[name]["applicable"] is True
            assert type(loaded[name]["passed"]) is bool
        assert loaded["ks"]["enabled"] is True and loaded["ks"]["applicable"] is False
        assert loaded["ks"]["passed"] is None
        for key in ("d_plus", "x_plus", "p_plus", "d_minus", "x_minus", "p_minus"):
            assert all(type(entry[key]) is float for entry in loaded["envelope"]["per_n"])
        assert all(type(rank["passed"]) is bool for rank in loaded["order_stats"]["ranks"])


def _stored(config, n, replicate, **changes):
    # The record of this trial of the config as trials.csv stores it.
    spec = config.template.spec(config.rule.p_for(n), n, derive_seed(config.seed, n, replicate))
    return replace(run_trial(spec, top_k=config.top_k), replicate=replicate, **changes)


def _minimal_config() -> dict:
    return {
        "model": {"family": "pareto_symmetric", "alpha": 1.2, "q": 0.5, "scale": 1.0},
        "filter": {"c": {"values": [1.0]}, "theta": {"values": [1.0]}},
        "dimension_rule": {"beta": 0.9, "const": 1.0},
        "n_values": [100],
        "replicates": 2,
        "seed": 3,
    }


class TestConfig:
    def test_from_dict_roundtrip(self, tmp_path):
        d = {
            "model": {"family": "pareto_symmetric", "alpha": 1.2, "q": 0.5, "scale": 1.0},
            "filter": {
                "c": {"min_lag": 0, "values": [1.0, 0.5]},
                "theta": {"min_lag": 0, "values": [1.0, 0.5]},
            },
            "dimension_rule": {"beta": 0.9, "const": 1.0, "p_max": 400},
            "n_values": [500, 1000],
            "replicates": 7,
            "seed": 3,
            "checks": {"ks": False},
        }
        config = ExperimentConfig.from_dict(d)
        assert config.model.alpha == 1.2
        assert config.rule.p_max == 400
        assert config.n_values == (500, 1000)
        assert config.checks["ks"] is False
        assert config.checks["envelope"] is True
        path = tmp_path / "config.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        assert load_config(str(path)) == config

    def test_batch_from_records(self):
        config = ExperimentConfig(
            model=MODEL15,
            filter=SPIKE,
            rule=DimensionRule(beta=0.5),
            n_values=(40,),
            replicates=1,
            seed=0,
        )
        rec = _stored(config, 40, 0)
        batch = batch_from_records(config, [rec])
        assert batch.records == (rec,)
        assert batch.largest_n == 40

    def test_batch_from_records_rejects_other_grid(self):
        config = ExperimentConfig(
            model=MODEL15,
            filter=SPIKE,
            rule=DimensionRule(beta=0.5),
            n_values=(40,),
            replicates=2,
            seed=0,
        )
        rec = _stored(config, 40, 0)
        with pytest.raises(ValueError, match=r"1 missing \[\(40, 1\)\], 0 extra \[\], 0 duplicates"):
            batch_from_records(config, [rec])
        with pytest.raises(ValueError, match=r"0 missing \[\], 0 extra \[\], 1 duplicates"):
            batch_from_records(config, [rec, rec, replace(rec, replicate=1)])
        with pytest.raises(ValueError, match="p = 7 at n = 40, the config gives p = 6"):
            batch_from_records(config, [replace(rec, p=7), _stored(config, 40, 1)])
        with pytest.raises(ValueError, match=r"0 missing \[\], 1 extra \[\(80, 0\)\]"):
            batch_from_records(config, [rec, _stored(config, 40, 1), replace(rec, n=80, p=9)])
        # A header-only trials.csv under --replicates 0 has no replicate 0 to rerun.
        with pytest.raises(ValueError, match=r"replicates must be >= 1, got 0"):
            batch_from_records(replace(config, replicates=0), [])
        with pytest.raises(ValueError, match=re.escape("n_values repeats [40]")):
            batch_from_records(replace(config, n_values=(40, 40)), [rec, _stored(config, 40, 1)] * 2)

    def test_batch_from_records_rejects_other_seed_model_or_top_k(self):
        config = ExperimentConfig(
            model=MODEL15,
            filter=SPIKE,
            rule=DimensionRule(beta=0.5),
            n_values=(40,),
            replicates=2,
            seed=7,
        )
        first = _stored(config, 40, 0)
        other_seed = _stored(replace(config, seed=8), 40, 1)
        with pytest.raises(ValueError, match=r"seed = \d+ at \(n, replicate\) = \(40, 1\), the config's base seed 7"):
            batch_from_records(config, [first, other_seed])
        other_model = _stored(replace(config, model=TailModel("pareto_symmetric", alpha=1.2)), 40, 1)
        with pytest.raises(ValueError, match=r"a_np = .* at \(n, replicate\) = \(40, 1\), the config's tail model"):
            batch_from_records(config, [first, other_model])
        two_tops = _stored(config, 40, 1, top_diag=(1.0, 0.5))
        with pytest.raises(ValueError, match=r"2 top values at \(n, replicate\) = \(40, 1\), the config's top_k is 3"):
            batch_from_records(config, [first, two_tops])
        assert batch_from_records(config, [first, _stored(config, 40, 1)]).top_k == 3

    def test_batch_from_records_rejects_other_filter_or_statistics(self):
        config = ExperimentConfig(
            model=MODEL15,
            filter=_fs((1.0, 0.5), (1.0, 0.5)),
            rule=DimensionRule(beta=0.5),
            n_values=(40, 60),
            replicates=2,
            seed=7,
        )
        records = [_stored(config, n, r) for n in (40, 60) for r in range(2)]
        assert batch_from_records(config, records).records == tuple(records)
        for window in ("c", "theta"):
            other = replace(config, filter=replace(config.filter, **{window: CoefficientSequence((1.0, 0.6))}))
            with pytest.raises(ValueError, match=r"scaled_norm = .* at \(n, replicate\) = \(40, 0\), a rerun"):
                batch_from_records(other, records)
        at_60 = records[2]
        assert (at_60.n, at_60.replicate) == (60, 0)
        for changes, name in (
            ({"offdiag_dev": at_60.offdiag_dev * (1 + 1e-6)}, "offdiag_dev"),
            ({"top_diag": (at_60.top_diag[0], at_60.top_diag[1] + 1e-6 * at_60.top_diag[0], at_60.top_diag[2])}, "top2"),
        ):
            changed = [*records[:2], replace(at_60, **changes), records[3]]
            with pytest.raises(ValueError, match=rf"{name} = .* at \(n, replicate\) = \(60, 0\), a rerun"):
                batch_from_records(config, changed)
        # Within the tolerance, as another BLAS build may differ, it is the same run.
        nudged = replace(at_60, scaled_norm=at_60.scaled_norm * (1 + 1e-12))
        assert batch_from_records(config, [*records[:2], nudged, records[3]]).records[2] == nudged

    def test_unknown_checks_key_rejected(self):
        d = {
            "model": {"family": "pareto_symmetric", "alpha": 1.2},
            "filter": {"c": {"values": [1.0]}, "theta": {"values": [1.0]}},
            "dimension_rule": {"beta": 0.9},
            "n_values": [100],
            "replicates": 2,
            "seed": 3,
            "checks": {"order_stat": False},
        }
        with pytest.raises(ValueError, match=r"unknown checks \['order_stat'\]"):
            ExperimentConfig.from_dict(d)
        with pytest.raises(ValueError, match=r"^unknown config keys \['slack'\]; known: \['checks', "):
            ExperimentConfig.from_dict({**d, "checks": {}, "slack": 0.05})

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("checks", "envelope"), "false", "checks must map check names to true or false"),
            (("checks", "ks"), 0, "checks must map check names to true or false"),
            (("checks",), ["envelope"], "checks must map check names to true or false"),
            (("replicates",), 2.7, "replicates must be an integer, got 2.7"),
            (("replicates",), True, "replicates must be an integer, got True"),
            (("top_k",), 2.9, "top_k must be an integer, got 2.9"),
            (("seed",), "3", "seed must be an integer, got '3'"),
            (("n_values", 1), 100.5, "n_values entry must be an integer, got 100.5"),
            (("dimension_rule", "p_max"), 40.5, "dimension_rule: p_max must be an integer, got 40.5"),
            (("filter", "theta", "min_lag"), False, "filter.theta: min_lag must be an integer, got False"),
        ],
    )
    def test_refuses_non_boolean_flag_and_non_integral_count(self, path, value, message):
        # int() used to truncate 2.7 to 2, and a string flag "false" ran the check.
        d = {
            "model": {"family": "pareto_symmetric", "alpha": 1.2},
            "filter": {"c": {"values": [1.0]}, "theta": {"values": [1.0]}},
            "dimension_rule": {"beta": 0.9, "p_max": 40},
            "n_values": [100, 200],
            "replicates": 2,
            "seed": 3,
            "checks": {"envelope": True},
            "top_k": 2,
        }
        assert ExperimentConfig.from_dict(d).replicates == 2
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("model", "alpha"), True, "model: alpha must be a number, got True"),
            (("model", "alpha"), "1.2", "model: alpha must be a number, got '1.2'"),
            (("model", "q"), "0.5", "model: q must be a number, got '0.5'"),
            (("model", "scale"), True, "model: scale must be a number, got True"),
            (("dimension_rule", "beta"), True, "dimension_rule: beta must be a number, got True"),
            (("dimension_rule", "const"), "2", "dimension_rule: const must be a number, got '2'"),
            (("filter", "theta", "values"), [True, 0.5], "filter.theta: coefficient value must be a number, got True"),
            (("filter", "c", "values"), [None], "filter.c: coefficient value must be a number, got None"),
        ],
    )
    def test_refuses_non_number_real(self, path, value, message):
        # float() used to read true as 1.0 and "1.2" as 1.2.
        d = _minimal_config()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "path",
        [
            ("model",),
            ("model", "family"),
            ("model", "alpha"),
            ("filter",),
            ("filter", "c"),
            ("filter", "theta", "values"),
            ("dimension_rule",),
            ("dimension_rule", "beta"),
            ("n_values",),
            ("replicates",),
            ("seed",),
        ],
    )
    def test_refuses_missing_key_by_its_path(self, path):
        d = _minimal_config()
        node = d
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        with pytest.raises(ValueError, match=re.escape(f"config lacks required key '{'.'.join(path)}'")):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("filter",), 5, "filter must be a JSON object, got 5"),
            (("model",), [1], "model must be a JSON object, got [1]"),
            (("dimension_rule",), "0.9", "dimension_rule must be a JSON object, got '0.9'"),
            (("filter", "c"), [1.0], "filter.c must be a JSON object, got [1.0]"),
            (("n_values",), 1000, "n_values must be a list, got 1000"),
            (("n_values",), "100", "n_values must be a list, got '100'"),
            (("filter", "c", "values"), 1.0, "filter.c: values must be a list, got 1.0"),
            (("filter", "theta", "values"), {"0": 1.0}, "filter.theta: values must be a list, got {'0': 1.0}"),
            (("filter", "theta", "values"), "x", "filter.theta: values must be a list, got 'x'"),
        ],
    )
    def test_refuses_value_of_wrong_shape(self, path, value, message):
        # Iterating a number used to end in a TypeError, a list for a section
        # in "config lacks required key 'model.family'", and the string "100"
        # was refused by its first character, "got '1'". A nested section is
        # named by its path.
        d = _minimal_config()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "path, known",
        [
            (("dimension_rule", "pmax"), "['dimension_rule.beta', 'dimension_rule.const', 'dimension_rule.p_max']"),
            (("model", "sclae"), "['model.alpha', 'model.family', 'model.q', 'model.scale']"),
            (("filter", "theta", "minlag"), "['filter.theta.min_lag', 'filter.theta.values']"),
            (("filter", "c", "value"), "['filter.c.min_lag', 'filter.c.values']"),
            (("filter", "thta"), "['filter.c', 'filter.delta', 'filter.theta']"),
        ],
    )
    def test_refuses_unknown_section_key_by_its_path(self, path, known):
        # A misspelled optional key used to be dropped: "pmax" gave an
        # uncapped p, "sclae" scale 1 and "minlag" lag 0; a misspelled
        # filter key was read as absent beside the two windows.
        d = _minimal_config()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 1
        message = f"unknown config keys ['{'.'.join(path)}']; known: {known}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_dict(d)

    def test_filter_delta_is_read_and_ignored(self):
        # perfbench's configs carry a filter.delta, the one key that is read
        # and ignored; every other unknown filter key is refused above.
        d = _minimal_config()
        d["filter"]["delta"] = 0.9
        assert ExperimentConfig.from_dict(d).filter == ExperimentConfig.from_dict(_minimal_config()).filter

    def test_refuses_config_that_is_not_an_object(self):
        for value in ([_minimal_config()], 5, "config"):
            with pytest.raises(ValueError, match=re.escape(f"config must be a JSON object, got {value!r}")):
                ExperimentConfig.from_dict(value)

    def test_integral_float_counts_are_accepted(self):
        d = {
            "model": {"family": "pareto_symmetric", "alpha": 1.2},
            "filter": {"c": {"values": [1.0]}, "theta": {"values": [1.0], "min_lag": -1.0}},
            "dimension_rule": {"beta": 0.9, "p_max": 40.0},
            "n_values": [100.0],
            "replicates": 2.0,
            "seed": 3.0,
            "top_k": 2.0,
        }
        config = ExperimentConfig.from_dict(d)
        assert (config.replicates, config.seed, config.top_k, config.n_values) == (2, 3, 2, (100,))
        assert (config.rule.p_max, config.filter.theta.min_lag) == (40, -1)
        assert all(type(v) is int for v in (config.replicates, config.seed, config.top_k, config.rule.p_max))

    LIBRARY_CONFIG = ExperimentConfig(
        model=MODEL15, filter=SPIKE, rule=DimensionRule(beta=0.5), n_values=(100,), replicates=2, seed=3
    )

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CoefficientSequence("10"), "values must be a list, got '10'"),
            (lambda: CoefficientSequence(1.0), "values must be a list, got 1.0"),
            (lambda: CoefficientSequence({0.5, 1.0}), "values must be a list, got {0.5, 1.0}"),
            (lambda: CoefficientSequence((True, 0.5)), "coefficient value must be a number, got True"),
            (lambda: CoefficientSequence((1.0,), min_lag=False), "min_lag must be an integer, got False"),
            (lambda: TailModel("pareto_symmetric", alpha=True), "alpha must be a number, got True"),
            (lambda: TailModel("pareto_skewed", alpha=1.2, q="0.3"), "q must be a number, got '0.3'"),
            (lambda: replace(MODEL15, scale=True), "scale must be a number, got True"),
            (lambda: DimensionRule(beta="0.9"), "beta must be a number, got '0.9'"),
            (lambda: DimensionRule(beta=0.9, p_max=40.5), "p_max must be an integer, got 40.5"),
            (
                lambda: replace(TestConfig.LIBRARY_CONFIG, checks={"envelop": False}),
                "unknown checks ['envelop']; known: ['envelope', 'ks', 'offdiag', 'order_stats']",
            ),
            (
                lambda: replace(TestConfig.LIBRARY_CONFIG, checks={"ks": "false"}),
                "checks must map check names to true or false, got {'ks': 'false'}",
            ),
            (lambda: replace(TestConfig.LIBRARY_CONFIG, replicates=2.5), "replicates must be an integer, got 2.5"),
            (lambda: replace(TestConfig.LIBRARY_CONFIG, seed="3"), "seed must be an integer, got '3'"),
            (lambda: replace(TestConfig.LIBRARY_CONFIG, top_k=1.5), "top_k must be an integer, got 1.5"),
            (
                lambda: replace(TestConfig.LIBRARY_CONFIG, n_values=(100.7,)),
                "n_values entry must be an integer, got 100.7",
            ),
            (lambda: replace(TestConfig.LIBRARY_CONFIG, n_values=1000), "n_values must be a list, got 1000"),
        ],
        ids=[
            "values_str", "values_float", "values_set", "value_bool", "min_lag_bool", "alpha_bool", "q_str",
            "scale_bool", "beta_str", "p_max_float", "checks_typo", "checks_str_flag", "replicates_float", "seed_str",
            "top_k_float", "n_float", "n_values_int",
        ],
    )
    def test_library_objects_are_refused_in_the_readers_words(self, build, message):
        # Objects built directly or changed with replace once skipped these
        # checks: "10" was the window (1.0, 0.0), a set was read in hash
        # order, alpha True ran at alpha 1, a misspelled check was ignored,
        # and p_max 40.5 failed inside run_batch with a TypeError.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: TailModel("pareto_symmetric", alpha=np.True_), "alpha"),
            (lambda: CoefficientSequence([np.True_]), "coefficient value"),
            (lambda: DimensionRule(beta=np.True_), "beta"),
        ],
        ids=["tail_model", "coefficient_sequence", "dimension_rule"],
    )
    def test_library_objects_refuse_numpy_booleans_as_reals(self, build, name):
        # numpy's bool is no real, as config_int holds it no integer.
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a number, got np.True_$"):
            build()

    def test_library_objects_take_numpy_scalars_and_fill_defaults(self):
        rule = DimensionRule(np.float64(0.9), p_max=np.int64(400))
        assert rule == DimensionRule(0.9, p_max=400) and type(rule.p_max) is int
        window = CoefficientSequence(np.array([1.0, 0.5], dtype=np.float32), min_lag=np.int32(-1))
        assert (window.values, window.min_lag) == ((1.0, 0.5), -1) and type(window.min_lag) is int
        model = TailModel("pareto_symmetric", alpha=np.float32(1.5))
        assert model == MODEL15 and type(model.alpha) is float
        config = replace(self.LIBRARY_CONFIG, checks={"ks": True}, n_values=[np.int64(100)])
        assert config.checks == {"envelope": True, "ks": True, "order_stats": True, "offdiag": True}
        assert config.n_values == (100,) and type(config.n_values[0]) is int

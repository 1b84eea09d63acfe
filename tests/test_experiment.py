"""Tests for the Monte Carlo harness, checks and persistence."""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from heavyspec.experiment import (
    DimensionRule,
    EnsembleSpec,
    EnsembleTemplate,
    ExperimentConfig,
    TrialBatch,
    TrialRecord,
    ValidationError,
    batch_from_records,
    beta_limit,
    derive_seed,
    ecdf,
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
    validate,
)
from heavyspec.experiment import _set_blas_threads
from heavyspec.limit_law import bound_constants, frechet_cdf, frechet_quantile
from heavyspec.linear_filter import CoefficientSequence, FilterSpec
from heavyspec.rv_noise import TailModel, sample_noise
from heavyspec.spectral import spectral_norm

MODEL15 = TailModel("pareto_symmetric", alpha=1.5)
SPIKE = FilterSpec(c=CoefficientSequence((1.0,)), theta=CoefficientSequence((1.0,)))


def _fs(c_vals, theta_vals):
    return FilterSpec(
        c=CoefficientSequence(tuple(c_vals)),
        theta=CoefficientSequence(tuple(theta_vals)),
    )


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
            diag_sq_max=float(v),
        )
        for i, v in enumerate(values)
    )
    return TrialBatch(
        model=model,
        filter=fspec,
        rule=DimensionRule(beta=0.5),
        n_values=(n,),
        replicates=len(records),
        base_seed=0,
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

    def test_from_dict_defaults(self):
        assert DimensionRule.from_dict({"beta": 0.5}) == DimensionRule(beta=0.5, const=1.0, p_max=None)
        d = {"beta": 0.9, "const": 2.0, "p_max": 400}
        assert DimensionRule.from_dict(d) == DimensionRule(beta=0.9, const=2.0, p_max=400)


class TestValidate:
    def test_admissible_case(self):
        spec = EnsembleSpec(model=MODEL15, filter=_fs((1.0,), (1.0,)), p=10, n=100, seed=1)
        report = validate(spec, DimensionRule(beta=0.9))
        assert report.ok
        margins = {it.name: it.margin for it in report.items}
        assert margins["beta_admissible"] == pytest.approx(0.1)

    def test_alpha_below_one_admissible_with_default_filter(self):
        # A finite filter window meets the summability hypothesis at every
        # alpha, so the filter puts no lower bound on alpha.
        spec = EnsembleSpec(
            model=TailModel("pareto_symmetric", alpha=0.8),
            filter=_fs((1.0, 0.5), (1.0, 0.5)),
            p=400,
            n=1000,
            seed=1,
        )
        report = validate(spec, DimensionRule(beta=0.9, p_max=400))
        assert [it.name for it in report.items] == ["zero_mean", "beta_admissible"]
        assert report.ok

    def test_nonzero_mean_fails_above_five_thirds(self):
        spec = EnsembleSpec(
            model=TailModel("pareto_positive", alpha=2.5, q=1.0),
            filter=_fs((1.0,), (1.0,)),
            p=5,
            n=10,
            seed=1,
        )
        report = validate(spec, DimensionRule(beta=0.3))
        items = {it.name: it for it in report.items}
        assert not items["zero_mean"].passed

    def test_inadmissible_beta_fails(self):
        spec = EnsembleSpec(
            model=TailModel("pareto_symmetric", alpha=3.5),
            filter=_fs((1.0,), (1.0,)),
            p=5,
            n=10,
            seed=1,
        )
        report = validate(spec, DimensionRule(beta=0.5))
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
        assert r2.diag_sq_max == 4.0 * r1.diag_sq_max

    def test_top_diag_is_window_average_of_centered_diagonal(self):
        from heavyspec.linear_filter import build_row_process
        from heavyspec.spectral import centered_gram_diag

        fspec = _fs((1.0, 0.5), (1.0, 0.5))
        spec = EnsembleSpec(model=MODEL15, filter=fspec, p=10, n=25, seed=5)
        rec = run_trial(spec, top_k=4)
        noise = sample_noise(MODEL15, (0, 11), (0, 26), 5)
        x = build_row_process(noise, fspec.c, (0, 11), 25)
        d = centered_gram_diag(x, 0.0)
        ma = np.array([d[i] + 0.5 * d[i - 1] for i in range(1, 11)])
        expect = np.sort(ma)[::-1][:4] / rec.a_np**2
        assert np.allclose(rec.top_diag, expect, rtol=1e-13)


class TestCenteredTrials:
    """Trials in the regimes that require nonzero centering."""

    FS = _fs((1.0, 0.5), (1.0, 0.5))

    def test_truncated_centering_at_alpha_two(self):
        from heavyspec.rv_noise import norming_constant, truncated_second_moment
        from heavyspec.spectral import mu_x_alpha

        model = TailModel("pareto_symmetric", alpha=2.0)
        spec = EnsembleSpec(model=model, filter=self.FS, p=20, n=500, seed=4)
        rec = run_trial(spec)
        assert math.isfinite(rec.scaled_norm) and rec.scaled_norm > 0
        a = norming_constant(model, 500 * 20)
        mu = mu_x_alpha(model, self.FS.c, a)
        assert mu == pytest.approx(truncated_second_moment(model, a) * self.FS.c.sq_sum)
        assert mu > 0
        # The truncation level moves with (n, p), so mu is per-trial.
        assert mu != mu_x_alpha(model, self.FS.c, norming_constant(model, 1000 * 30))
        assert run_trial(spec) == rec

    def test_exact_moment_centering_above_two(self):
        from heavyspec.linear_filter import build_row_process
        from heavyspec.spectral import centered_gram_diag, gram_diag, mu_x_alpha

        model = TailModel("pareto_symmetric", alpha=2.5)
        mu = mu_x_alpha(model, self.FS.c, 100.0)
        assert mu == pytest.approx(2.5 / 0.5 * self.FS.c.sq_sum, rel=1e-14)
        noise = sample_noise(model, (0, 200), (0, 2001), seed=8)
        x = build_row_process(noise, self.FS.c, (0, 200), 2000)
        raw = gram_diag(x).mean() / 2000
        centered = centered_gram_diag(x, mu).mean() / 2000
        assert abs(centered) < 0.05 * raw

    def test_batch_admissible_above_two(self):
        template = EnsembleTemplate(model=TailModel("pareto_symmetric", alpha=2.5), filter=self.FS)
        batch = run_batch(template, DimensionRule(beta=0.3), [500], 5, base_seed=7)
        assert all(math.isfinite(r.scaled_norm) and r.scaled_norm > 0 for r in batch.records)
        assert beta_limit(2.5) == pytest.approx(1.0 / 3.0)

    def test_student_t_noise_end_to_end(self):
        model = TailModel("student_t", alpha=3.0)
        spec = EnsembleSpec(model=model, filter=self.FS, p=8, n=200, seed=12)
        assert validate(spec, DimensionRule(beta=0.15)).ok
        rec = run_trial(spec)
        assert math.isfinite(rec.scaled_norm) and rec.scaled_norm > 0
        assert run_trial(spec) == rec


class TestRunBatch:
    def test_validation_aborts_before_trials(self):
        template = EnsembleTemplate(
            model=TailModel("pareto_positive", alpha=2.5, q=1.0), filter=SPIKE
        )
        with pytest.raises(ValidationError, match="zero_mean"):
            run_batch(template, DimensionRule(beta=0.3), [50], 5, base_seed=1)

    def test_parallel_equals_serial(self):
        template = EnsembleTemplate(model=MODEL15, filter=SPIKE)
        rule = DimensionRule(beta=0.5, p_max=10)
        a = run_batch(template, rule, [40, 80], 4, base_seed=9, workers=1)
        b = run_batch(template, rule, [40, 80], 4, base_seed=9, workers=2)
        assert a.records == b.records

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
            assert [count for _, count in _set_blas_threads(1)] == [2] * len(saved)
            one = run_batch(template, rule, [300], 6, base_seed=5, workers=1)
            assert [count for _, count in _set_blas_threads(1)] == [1] * len(saved)
        finally:
            for set_threads, count in saved:
                set_threads(count)
        assert two.records[0].p == 100
        assert two.records == one.records

    def test_seed_derivation_injective_within_batch(self):
        seeds = {derive_seed(7, n, r) for n in (100, 200, 400) for r in range(500)}
        assert len(seeds) == 1500

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

    def test_records_sorted(self):
        template = EnsembleTemplate(model=MODEL15, filter=SPIKE)
        batch = run_batch(template, DimensionRule(beta=0.5, p_max=8), [60, 30], 3, base_seed=2)
        keys = [(r.n, r.replicate) for r in batch.records]
        assert keys == sorted(keys)


class TestEcdf:
    def test_basic_fraction(self):
        assert ecdf([1.0, 2.0, 3.0], 2.0) == pytest.approx(2.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ecdf([], 1.0)

    def test_limits(self):
        assert ecdf([1.0, 2.0], -math.inf) == 0.0
        assert ecdf([1.0, 2.0], math.inf) == 1.0

    def test_right_continuous_nondecreasing(self):
        vals = [0.5, 1.5, 1.5, 4.0]
        grid = np.linspace(0, 5, 101)
        out = ecdf(vals, grid)
        assert np.all(np.diff(out) >= 0)
        assert ecdf(vals, 1.5) == pytest.approx(0.75)  # jump included at the point
        assert ecdf(vals, 1.5 - 1e-12) == pytest.approx(0.25)


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


class TestEnvelopeCheck:
    def test_synthetic_draws_from_upper_cdf_pass(self):
        fspec = _fs((1.0, 0.5), (1.0, 0.5))
        alpha = 1.2
        model = TailModel("pareto_symmetric", alpha=alpha)
        b = bound_constants(fspec, alpha)
        rng = np.random.default_rng(20)
        values = frechet_quantile(rng.uniform(size=800), b.lower_scale, alpha)
        batch = _synthetic_batch(values, fspec, model)
        report = envelope_check(batch)
        assert report["passed"]

    def test_all_zero_values_fail(self):
        fspec = _fs((1.0, 0.5), (1.0, 0.5))
        model = TailModel("pareto_symmetric", alpha=1.2)
        batch = _synthetic_batch(np.zeros(500), fspec, model)
        report = envelope_check(batch)
        assert not report["passed"]

    def test_single_spike_envelope_degenerates(self):
        model = TailModel("pareto_symmetric", alpha=1.5)
        b = bound_constants(SPIKE, 1.5)
        rng = np.random.default_rng(21)
        values = frechet_quantile(rng.uniform(size=800), b.lower_scale, 1.5)
        batch = _synthetic_batch(values, SPIKE, model)
        report = envelope_check(batch)
        assert report["passed"]
        for row in report["per_n"][0]["grid"]:
            assert row["cdf_lower"] == row["cdf_upper"]

    def test_grid_at_lower_cdf_quantiles(self):
        fspec = _fs((1.0, 0.5), (1.0, 0.5))
        model = TailModel("pareto_symmetric", alpha=1.2)
        batch = _synthetic_batch(np.ones(100), fspec, model)
        report = envelope_check(batch)
        levels = [row["cdf_lower"] for row in report["per_n"][0]["grid"]]
        assert np.allclose(levels, np.arange(1, 10) / 10.0, rtol=1e-10)


class TestKsCheck:
    def test_single_spike_applicable(self):
        model = TailModel("pareto_symmetric", alpha=1.5)
        b = bound_constants(SPIKE, 1.5)
        rng = np.random.default_rng(22)
        values = frechet_quantile(rng.uniform(size=2000), b.lower_scale, 1.5)
        batch = _synthetic_batch(values, SPIKE, model)
        report = ks_check(batch)
        assert report["applicable"]
        assert report["passed"]

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
                        diag_sq_max=1.0,
                    )
                )
        return TrialBatch(
            model=MODEL15,
            filter=SPIKE,
            rule=DimensionRule(beta=0.5),
            n_values=tuple(per_n),
            replicates=max(len(v) for v in per_n.values()),
            base_seed=0,
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
        batch = run_batch(template, DimensionRule(beta=0.5, p_max=8), [60], 4, base_seed=3)
        report = order_stat_check(batch)
        assert report == {"applicable": False, "passed": None, "n": 60, "k": 3}
        config = ExperimentConfig(
            model=MODEL15, filter=batch.filter, rule=batch.rule, n_values=(60,), replicates=4, seed=3,
            checks={"envelope": False, "ks": False, "order_stats": True, "offdiag": False},
        )
        assert run_checks(batch, config)["overall_passed"] is True


class TestEmitAndReload:
    def _small_batch(self):
        template = EnsembleTemplate(model=MODEL15, filter=_fs((1.0, 0.5), (1.0, 0.5)))
        return run_batch(template, DimensionRule(beta=0.5, p_max=12), [40, 60], 4, base_seed=13)

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
        batch = self._small_batch()
        paths = emit_report(batch, None, str(tmp_path))
        with open(paths["trials"], encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == "n,p,replicate,seed,a_np,scaled_norm,offdiag_dev,top1,top2,top3"
        records = read_trials_csv(paths["trials"])
        assert len(records) == len(batch.records)
        for got, ref in zip(records, batch.records):
            assert (got.n, got.p, got.replicate, got.seed) == (ref.n, ref.p, ref.replicate, ref.seed)
            assert got.scaled_norm == ref.scaled_norm
            assert got.offdiag_dev == ref.offdiag_dev
            assert got.top_diag == ref.top_diag
            assert math.isnan(got.diag_sq_max)

    def test_checks_json_written(self, tmp_path):
        batch = self._small_batch()
        config = ExperimentConfig(
            model=batch.model,
            filter=batch.filter,
            rule=batch.rule,
            n_values=batch.n_values,
            replicates=batch.replicates,
            seed=batch.base_seed,
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
            rule=batch.rule,
            n_values=batch.n_values,
            replicates=batch.replicates,
            seed=batch.base_seed,
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
        assert all(type(row["passed"]) is bool for row in loaded["envelope"]["per_n"][-1]["grid"])
        assert all(type(rank["passed"]) is bool for rank in loaded["order_stats"]["ranks"])


def _stored(config, n, replicate, **changes):
    # The record of this trial of the config as trials.csv stores it.
    spec = config.template.spec(config.rule.p_for(n), n, derive_seed(config.seed, n, replicate))
    rec = replace(run_trial(spec, top_k=config.top_k), replicate=replicate, diag_sq_max=math.nan)
    return replace(rec, **changes)


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
        from heavyspec.experiment import load_config

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

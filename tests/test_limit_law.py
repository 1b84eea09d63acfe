"""Tests for the envelope laws, Poisson arrivals and order-statistic limits."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heavyspec.experiment as experiment
import heavyspec.limit_law as limit_law
import heavyspec.rv_noise as rvn
from heavyspec._config import CoefficientSequence, FilterSpec, TailModel
from heavyspec.experiment import TrialBatch, TrialRecord
from heavyspec.limit_law import envelope_scales, frechet_cdf, frechet_quantile, limit_order_statistics


def _fs(c_vals, theta_vals):
    return FilterSpec(
        c=CoefficientSequence(tuple(c_vals)),
        theta=CoefficientSequence(tuple(theta_vals)),
    )


# A window weight: zero, or a magnitude in [1e-3, 1e3] of either sign, so
# that no scale under- or overflows and a second nonzero weight moves
# sum|theta| past max|theta| in floating point.
_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def _filters(draw):
    def window():
        values = draw(st.lists(_WEIGHT, min_size=1, max_size=6).filter(any))
        return CoefficientSequence(tuple(values), min_lag=draw(st.integers(-3, 3)))

    return FilterSpec(c=window(), theta=window())


class TestEnvelopeScales:
    def test_single_spike_equality(self):
        assert envelope_scales(_fs((1.0,), (1.0,))) == (1.0, 1.0)

    def test_two_lag_window(self):
        assert envelope_scales(_fs((1.0,), (1.0, 0.5))) == (1.0, 1.5)

    def test_ma1_specialization(self):
        theta = 0.5
        lower, upper = envelope_scales(_fs((1.0, 2.0), (1.0, theta)))
        sum_c2 = 5.0
        assert lower == pytest.approx(max(1.0, theta**2) * sum_c2)
        assert upper == pytest.approx(max(1.0, abs(theta)) * (1.0 + abs(theta)) * sum_c2)
        # For |theta| <= 1 this matches the first-order constant (1 + |theta|).
        assert upper == pytest.approx((1.0 + abs(theta)) * sum_c2)

    def test_strict_gap_for_multi_spike(self):
        lower, upper = envelope_scales(_fs((1.0,), (1.0, 0.5)))
        assert lower < upper

    @settings(deadline=None)
    @given(_filters())
    @example(_fs((1.0,), (0.0, -2.0, 0.0)))
    @example(_fs((-0.5, 0.0, 2.0), (-1.0, 0.5)))
    def test_scales_are_ordered_and_equal_for_one_weight_alone(self, fs):
        # 0 < lower_scale <= upper_scale, equal exactly when theta has one
        # nonzero weight, where ks_check gives a verdict; the envelope
        # entry of checks.json reports these two scales.
        lower, upper = envelope_scales(fs)
        one_weight = sum(v != 0.0 for v in fs.theta.values) == 1
        assert 0.0 < lower <= upper
        assert (lower == upper) is one_weight
        record = TrialRecord(1000, 10, 0, 0, 1.0, 1.0, 0.0, (1.0,))
        batch = TrialBatch(TailModel("pareto_symmetric", alpha=1.2), fs, (1000,), 1, (record,))
        report = experiment.envelope_check(batch)
        assert (report["lower_scale"], report["upper_scale"]) == (lower, upper)
        assert experiment.ks_check(batch)["applicable"] is one_weight


class TestEnvelopeCdfs:
    # The lower envelope CDF is the Fréchet law at upper_scale, the upper
    # envelope CDF the law at lower_scale.
    def test_single_spike_value(self):
        lower, upper = envelope_scales(_fs((1.0,), (1.0,)))
        assert frechet_cdf(1.0, upper, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert frechet_cdf(1.0, lower, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_two_lag_values(self):
        lower, upper = envelope_scales(_fs((1.0,), (1.0, 0.5)))
        assert frechet_cdf(1.0, upper, 2.0) == pytest.approx(math.exp(-1.5), rel=1e-14)
        assert frechet_cdf(1.0, lower, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_limits(self):
        lower, upper = envelope_scales(_fs((1.0, 0.3), (1.0, 0.5)))
        assert frechet_cdf(1e12, upper, 1.5) == pytest.approx(1.0, abs=1e-6)
        assert frechet_cdf(1e-12, upper, 1.5) == pytest.approx(0.0, abs=1e-12)
        assert frechet_cdf(0.0, lower, 1.5) == 0.0

    def test_ordering_everywhere(self):
        lower, upper = envelope_scales(_fs((1.0, 0.3), (1.0, -0.4)))
        x = np.logspace(-3, 3, 200)
        lo = frechet_cdf(x, upper, 1.2)
        hi = frechet_cdf(x, lower, 1.2)
        assert np.all(lo <= hi)
        assert np.all(np.diff(lo) > 0) and np.all(np.diff(hi) > 0)

    def test_single_spike_cdfs_coincide_everywhere(self):
        lower, upper = envelope_scales(_fs((1.0, 0.5), (2.0,)))
        x = np.logspace(-2, 2, 50)
        assert np.array_equal(frechet_cdf(x, upper, 1.7), frechet_cdf(x, lower, 1.7))

    def test_quantile_inverts_cdf(self):
        levels = np.linspace(0.05, 0.95, 19)
        x = frechet_quantile(levels, 2.5, 1.3)
        assert np.allclose(frechet_cdf(x, 2.5, 1.3), levels, rtol=1e-12)


def _arrivals(k: int, seed) -> np.ndarray:
    # The first k Poisson arrival times, as limit_order_statistics draws them,
    # along the last axis for each of a uint64 seed array.
    return np.cumsum(limit_law._exp_increments(seed, k), axis=-1)


class TestSampleGamma:
    """Arrival times of the unit-rate Poisson process behind the limit laws."""

    def test_increments_positive_and_increasing(self):
        g = _arrivals(100, seed=5)
        assert g[0] > 0
        assert np.all(np.diff(g) > 0)

    def test_deterministic_and_extendable(self):
        a = _arrivals(10, seed=3)
        b = _arrivals(25, seed=3)
        assert np.allclose(a, b[:10], rtol=0, atol=0)

    def test_mean_of_fifth_arrival(self):
        n = 100_000
        fifth = _arrivals(5, seed=np.arange(n, dtype=np.uint64))[:, -1]
        se = math.sqrt(5.0 / n)
        assert abs(fifth.mean() - 5.0) <= 3.0 * se

    def test_first_arrival_is_unit_exponential(self):
        n = 100_000
        first = _arrivals(1, seed=np.arange(n, dtype=np.uint64))[:, 0]
        frac = np.mean(first > 1.0)
        se = math.sqrt(math.exp(-1.0) * (1 - math.exp(-1.0)) / n)
        assert abs(frac - math.exp(-1.0)) <= 3.0 * se

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            limit_order_statistics(_fs((1.0,), (1.0,)), 1.5, 0, seed=1)


def _vectorized_first_arrivals(seeds: np.ndarray) -> np.ndarray:
    # Same chain as the first arrival increment, vectorized over seeds.
    h = rvn._finalize(seeds.astype(np.uint64))
    with np.errstate(over="ignore"):
        h = rvn._finalize(h ^ (np.uint64(limit_law._GAMMA_TAG) * rvn._TAG_SALT))
    h = rvn._finalize(h ^ np.uint64(0))
    return -np.log(rvn._to_unit(h))


class TestClosedFormVsSampler:
    def test_vectorized_arrivals_match_sampler(self):
        seeds = np.arange(2000)
        vec = _vectorized_first_arrivals(seeds)
        direct = np.array([_arrivals(1, seed=int(s))[0] for s in seeds])
        assert np.array_equal(vec, direct)

    def test_upper_cdf_matches_gamma_sampler(self):
        # P(Gamma_1^(-2/alpha) * lower_scale <= x) against one million draws.
        alpha = 1.5
        lower, _ = envelope_scales(_fs((1.0, 0.5), (1.0, 0.5)))
        n = 1_000_000
        draws = _vectorized_first_arrivals(np.arange(n)) ** (-2.0 / alpha) * lower
        for x in (0.5, 1.0, 2.0, 5.0, 20.0):
            target = frechet_cdf(x, lower, alpha)
            frac = np.mean(draws <= x)
            se = math.sqrt(target * (1 - target) / n)
            assert abs(frac - target) <= 4.0 * se, (x, frac, target)


class TestLimitOrderStatistics:
    def test_single_spike_equals_transformed_arrivals(self):
        fs = _fs((1.0,), (1.0,))
        alpha = 1.5
        tops = limit_order_statistics(fs, alpha, 5, seed=9)
        assert np.all(np.diff(tops) <= 0)
        assert np.allclose(tops, _arrivals(5, seed=9) ** (-2.0 / alpha), rtol=0, atol=0)

    def test_duplicate_window_duplicates_points(self):
        tops = limit_order_statistics(_fs((1.0,), (1.0, 1.0)), 1.5, 4, seed=3)
        assert tops[0] == tops[1]
        assert tops[2] == tops[3]
        assert tops[1] > tops[2]

    def test_max_follows_frechet_law(self):
        fs = _fs((1.0, 0.5), (1.0, 0.5))
        alpha = 1.5
        scale = fs.theta.max_abs * fs.c.sq_sum  # positive max weight times sum c^2
        n = 4000
        maxima = limit_order_statistics(fs, alpha, 1, seed=np.arange(n, dtype=np.uint64))[:, 0]
        # One-sample KS against the closed form; 99% critical value ~ 1.63/sqrt(n).
        v = np.sort(maxima)
        f = frechet_cdf(v, scale, alpha)
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(steps - f), np.max(f - (steps - 1.0 / n)))
        assert ks < 1.63 / math.sqrt(n) * 1.2

    def test_negative_weights_stay_out_of_top(self):
        tops = limit_order_statistics(_fs((1.0,), (1.0, -0.5)), 1.5, 3, seed=4)
        assert np.all(tops > 0)

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize(
        "c_vals, theta_vals, min_lag",
        [
            ((1.0,), (1.0, -0.5), 0),  # negative weight
            ((1.0, 0.5), (1.0, 1.0), 0),  # duplicate weights
            ((1.0,), (0.3, 1.0, -0.2), -1),  # two-sided window
            ((0.5, 2.0), (-0.4, 0.2, 0.7), 0),  # largest weight last
        ],
    )
    def test_equals_brute_force_over_500_arrivals(self, k, c_vals, theta_vals, min_lag):
        fs = FilterSpec(
            c=CoefficientSequence(c_vals),
            theta=CoefficientSequence(theta_vals, min_lag=min_lag),
        )
        alpha = 1.3
        theta = np.asarray(theta_vals)
        for seed in range(5):
            gammas = _arrivals(500, seed)
            points = (gammas ** (-2.0 / alpha))[:, None] * theta[None, :] * fs.c.sq_sum
            brute = np.sort(points.ravel())[::-1][:k]
            assert np.array_equal(limit_order_statistics(fs, alpha, k, seed), brute)

    @pytest.mark.parametrize("k", [1, 3, 10])
    @pytest.mark.parametrize(
        "c_vals, theta_vals, min_lag",
        [
            ((1.0,), (1.0, -0.5), 0),  # negative weight
            ((1.0, 0.5), (1.0, 1.0), 0),  # duplicate weights
            ((1.0,), (0.3, 1.0, -0.2), -1),  # two-sided window
        ],
    )
    def test_seed_array_equals_per_seed_calls(self, k, c_vals, theta_vals, min_lag):
        fs = FilterSpec(
            c=CoefficientSequence(c_vals),
            theta=CoefficientSequence(theta_vals, min_lag=min_lag),
        )
        seeds = rvn.derive_key(0x0A11, np.arange(60))
        draws = limit_order_statistics(fs, 1.3, k, seeds)
        assert draws.shape == (60, k)
        singles = np.array([limit_order_statistics(fs, 1.3, k, int(s)) for s in seeds])
        assert np.array_equal(draws, singles)
        # Any seed shape: the draws take its shape plus the k ranks.
        assert np.array_equal(limit_order_statistics(fs, 1.3, k, seeds.reshape(6, 10)), draws.reshape(6, 10, k))

    def test_check_draws_are_pinned(self, monkeypatch):
        # The 2000 x 3 limit sample order_stat_check compares with, for
        # config.example.json's filter at alpha 1.2, comes from one call, and
        # the sha256 of its little-endian bytes is pinned: a change to the
        # keys, the arrivals or the sort changes the check's verdict inputs.
        calls = []

        def recording(*args):
            calls.append(limit_order_statistics(*args))
            return calls[-1]

        monkeypatch.setattr(experiment, "limit_order_statistics", recording)
        record = TrialRecord(1000, 400, 0, 1, 1.0, 1.0, 0.0, (3.0, 2.0, 1.0))
        batch = TrialBatch(
            model=TailModel("pareto_symmetric", alpha=1.2),
            filter=_fs((1.0, 0.5), (1.0, 0.5)),
            n_values=(1000,),
            top_k=3,
            records=(record,),
        )
        experiment.order_stat_check(batch)
        assert len(calls) == 1
        draws = calls[0]
        assert draws.shape == (2000, 3)
        digest = hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest()
        assert digest == "47dc0ab03f53e039b5aea52e6c5d86d3ce2631a83d29bdb033e59a35545e6b7d"

    def test_requires_positive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            limit_order_statistics(_fs((1.0,), (-1.0, -0.5)), 1.5, 2, seed=1)


class TestMa1Constants:
    """The first-order row filter theta = (1, t): envelope_scales gives
    (max(1, t^2), max(1 + |t|, |t| + t^2))."""

    def _constants(self, theta):
        return envelope_scales(_fs((1.0,), (1.0, theta)))

    def test_zero(self):
        assert self._constants(0.0) == (1.0, 1.0)

    def test_one(self):
        assert self._constants(1.0) == (1.0, 2.0)

    def test_two(self):
        assert self._constants(2.0) == (4.0, 6.0)

    @pytest.mark.parametrize("theta", [-2.5, -0.7, 0.3, 0.7, 1.0, 1.5, 2.5])
    def test_first_order_closed_form(self, theta):
        lower, upper = self._constants(theta)
        assert lower == max(1.0, theta * theta)
        assert upper == pytest.approx(max(1.0 + abs(theta), abs(theta) + theta * theta), rel=1e-15)

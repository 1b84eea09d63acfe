"""Tests for the regularly varying samplers and tail functionals."""

import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from heavyspec import rv_noise as rvn
from heavyspec.rv_noise import (
    FAMILIES,
    NoiseCoverageError,
    NoisePanel,
    TailModel,
    derive_key,
    index_uniforms,
    mean_value,
    norming_constant,
    sample_noise,
    second_moment,
    truncated_second_moment,
)


def _models():
    return [
        TailModel("pareto_symmetric", alpha=1.5),
        TailModel("pareto_positive", alpha=1.5, q=1.0),
        TailModel("pareto_skewed", alpha=1.5, q=0.3),
        TailModel("student_t", alpha=3.0),
    ]


def _lanes(seed, row_range, col_range):
    """The lane-0 and lane-1 uint64 grid hashes that ``sample_noise`` draws from."""
    h, tmp = rvn._grid_hash(seed, row_range, col_range)
    return h.copy(), rvn._mix_(h ^ rvn._LANE_SALT, tmp)


def _unit(m):
    # The float unit map on top-53-bit values m, as the allocating formula wrote it.
    return (np.asarray(m, dtype=np.uint64).astype(np.float64) + 0.5) * 2.0**-53


def _reference_noise(model, row_range, col_range, seed):
    """The allocating formula the in-place sampler must reproduce bit for bit."""
    lane0, lane1 = _lanes(seed, row_range, col_range)
    u = _unit(lane0 >> np.uint64(11))
    if model.family == "student_t":
        return model.scale * stats.t.ppf(u, df=model.alpha)
    magnitude = model.scale * u ** (-1.0 / model.alpha)
    if model.family == "pareto_positive":
        return magnitude
    u_sign = _unit(lane1 >> np.uint64(11))
    return np.where(u_sign < model.q, 1.0, -1.0) * magnitude


class TestTailModel:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            TailModel("pareto_symmetric", alpha=4.0)
        with pytest.raises(ValueError, match="alpha"):
            TailModel("pareto_symmetric", alpha=0.0)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError, match="q"):
            TailModel("pareto_symmetric", alpha=1.0, q=0.7)
        with pytest.raises(ValueError, match="q"):
            TailModel("pareto_positive", alpha=1.0, q=0.5)
        with pytest.raises(ValueError, match="q"):
            TailModel("pareto_skewed", alpha=1.0, q=1.2)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            TailModel("cauchy", alpha=1.0)

    def test_json_roundtrip(self):
        for m in _models():
            d = {"family": m.family, "alpha": m.alpha, "q": m.q, "scale": m.scale}
            assert TailModel.from_dict(d) == m
        defaults = TailModel.from_dict({"family": "pareto_symmetric", "alpha": 1.5})
        assert (defaults.q, defaults.scale) == (0.5, 1.0)


class TestNoisePanel:
    def test_block_and_get(self):
        panel = NoisePanel(values=np.arange(12.0).reshape(3, 4), row_offset=-1, col_offset=2)
        assert panel.block((-1, 0), (2, 3))[0, 0] == 0.0
        assert panel.block((1, 2), (5, 6))[0, 0] == 11.0
        block = panel.block((0, 2), (3, 5))
        assert np.array_equal(block, np.array([[5.0, 6.0], [9.0, 10.0]]))

    def test_out_of_range_is_error_not_zero(self):
        panel = NoisePanel(values=np.zeros((3, 4)), row_offset=0, col_offset=0)
        with pytest.raises(NoiseCoverageError, match=r"missing rows \[-2, 0\)"):
            panel.block((-2, 2), (0, 4))
        with pytest.raises(NoiseCoverageError, match=r"missing cols \[4, 6\)"):
            panel.block((0, 3), (2, 6))
        with pytest.raises(NoiseCoverageError):
            panel.block((3, 4), (0, 1))


class TestSampleNoise:
    def test_pareto_positive_support(self):
        model = TailModel("pareto_positive", alpha=1.0, q=1.0)
        panel = sample_noise(model, (0, 100), (0, 100), seed=5)
        assert np.all(panel.values >= 1.0)

    def test_symmetric_tail_fraction(self):
        # P(|Z| > 100) = 100^-0.5 = 0.1 exactly for this model.
        model = TailModel("pareto_symmetric", alpha=0.5)
        panel = sample_noise(model, (0, 1000), (0, 1000), seed=101)
        frac = np.mean(np.abs(panel.values) > 100.0)
        se = math.sqrt(0.1 * 0.9 / panel.values.size)
        assert abs(frac - 0.1) <= 3.0 * se

    def test_counter_based_overlap(self):
        model = TailModel("pareto_symmetric", alpha=1.5)
        small = sample_noise(model, (0, 10), (0, 10), seed=77)
        large = sample_noise(model, (0, 20), (0, 20), seed=77)
        assert np.array_equal(small.values, large.values[:10, :10])
        shifted = sample_noise(model, (-4, 10), (-6, 10), seed=77)
        assert np.array_equal(small.values, shifted.values[4:, 6:])

    def test_empty_range_rejected(self):
        model = TailModel("pareto_symmetric", alpha=1.5)
        with pytest.raises(ValueError, match="nonempty"):
            sample_noise(model, (3, 3), (0, 4), seed=0)

    def test_bit_reproducible_across_processes(self):
        model = TailModel("pareto_symmetric", alpha=1.5)
        panel = sample_noise(model, (-3, 40), (2, 60), seed=123)
        digest = hashlib.sha256(panel.values.tobytes()).hexdigest()
        code = (
            "import hashlib, numpy as np\n"
            "from heavyspec.rv_noise import TailModel, sample_noise\n"
            "p = sample_noise(TailModel('pareto_symmetric', alpha=1.5), (-3, 40), (2, 60), seed=123)\n"
            "print(hashlib.sha256(p.values.tobytes()).hexdigest())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == digest

    def test_student_t_matches_reference_distribution(self):
        model = TailModel("student_t", alpha=3.0, scale=2.0)
        panel = sample_noise(model, (0, 300), (0, 350), seed=9)
        ks = stats.kstest(panel.values.ravel() / 2.0, "t", args=(3.0,)).statistic
        # 99% KS band at n = 105000 is ~1.63/sqrt(n) ~ 0.0050.
        assert ks < 0.006

    @pytest.mark.parametrize("model", _models(), ids=lambda m: m.family)
    def test_tail_split_matches_q(self, model):
        panel = sample_noise(model, (0, 1000), (0, 1000), seed=31)
        x = 10.0 * model.scale
        flat = panel.values.ravel()
        exceed = flat[np.abs(flat) > x]
        assert exceed.size > 100
        frac_right = np.mean(exceed > 0)
        q_eff = 0.5 if model.family == "student_t" else model.q
        se = math.sqrt(max(q_eff * (1 - q_eff), 1e-12) / exceed.size)
        assert abs(frac_right - q_eff) <= max(4.0 * se, 1e-12)


class TestParetoTailFunction:
    @pytest.mark.parametrize(
        "family,q", [("pareto_symmetric", 0.5), ("pareto_positive", 1.0), ("pareto_skewed", 0.3)]
    )
    def test_empirical_tail_matches_closed_form(self, family, q):
        model = TailModel(family, alpha=1.5, q=q, scale=2.0)
        panel = sample_noise(model, (0, 1000), (0, 1000), seed=13)
        flat = np.abs(panel.values.ravel())
        for x in (2.0, 3.0, 8.0, 20.0):
            expected = (model.scale / x) ** model.alpha if x > model.scale else 1.0
            frac = np.mean(flat > x)
            se = math.sqrt(expected * (1 - expected) / flat.size)
            assert abs(frac - expected) <= max(4.0 * se, 1e-12), (x, frac, expected)


class TestNormingConstant:
    def test_pareto_closed_form(self):
        model = TailModel("pareto_symmetric", alpha=2.0)
        assert norming_constant(model, 100) == pytest.approx(10.0, rel=1e-14)

    def test_m_equals_one_returns_scale(self):
        for family, q in (("pareto_symmetric", 0.5), ("pareto_positive", 1.0), ("pareto_skewed", 0.2)):
            model = TailModel(family, alpha=1.3, q=q, scale=0.7)
            assert norming_constant(model, 1) == pytest.approx(0.7, rel=1e-14)

    def test_student_t_against_empirical_quantile(self):
        model = TailModel("student_t", alpha=3.0)
        a = norming_constant(model, 1000)
        rng = np.random.default_rng(12345)
        sample = np.abs(rng.standard_t(3.0, size=10_000_000))
        empirical = np.quantile(sample, 1.0 - 1.0 / 1000)
        assert abs(a - empirical) / empirical < 0.01

    @pytest.mark.parametrize("model", _models(), ids=lambda m: m.family)
    @pytest.mark.parametrize("m", [1, 10, 1000, 10**6])
    def test_defining_equation(self, model, m):
        a = norming_constant(model, m)
        if model.is_pareto:
            survival = (model.scale / a) ** model.alpha  # P(|Z| > x) for x >= scale
        else:
            survival = 2.0 * stats.t.sf(a / model.scale, df=model.alpha)
        assert m * survival == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("m", [1, 10, 1000, 10**6])
    def test_student_t_same_bits_as_scipy_isf(self, alpha, m):
        model = TailModel("student_t", alpha=alpha, scale=1.3)
        expected = 1.3 * float(stats.t.isf(0.5 / m, df=alpha))
        assert norming_constant(model, m).hex() == expected.hex()

    def test_rejects_m_below_one(self):
        with pytest.raises(ValueError, match="m"):
            norming_constant(TailModel("pareto_symmetric", alpha=1.0), 0)


class TestTruncatedSecondMoment:
    def test_cutoff_at_scale_is_zero(self):
        model = TailModel("pareto_positive", alpha=2.0, q=1.0)
        assert truncated_second_moment(model, 1.0) == 0.0

    def test_log_branch_at_alpha_two(self):
        model = TailModel("pareto_positive", alpha=2.0, q=1.0)
        assert truncated_second_moment(model, math.e) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("family", ["pareto_symmetric", "student_t"])
    @pytest.mark.parametrize("alpha", [1.5, 1.999, 2.001, 3.0])
    def test_rejects_alpha_other_than_two(self, family, alpha):
        with pytest.raises(ValueError, match="alpha = 2 only"):
            truncated_second_moment(TailModel(family, alpha=alpha), 4.0)

    @pytest.mark.parametrize("cutoff", [0.1, 0.5, 1.0, 10.0, 100.0, 1e4, 1e6])
    def test_student_t_closed_form_matches_quadrature(self, cutoff):
        from scipy import integrate

        model = TailModel("student_t", alpha=2.0, scale=1.5)
        value, _ = integrate.quad(
            lambda u: u * u * stats.t.pdf(u, 2.0), 0.0, cutoff / 1.5,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        expected = 2.0 * 1.5**2 * value
        assert truncated_second_moment(model, cutoff) == pytest.approx(expected, rel=1e-12)

    def test_grows_like_two_log_cutoff(self):
        # No second moment at alpha = 2: the truncated one grows without bound,
        # as 2 log c for the Pareto and 2 log c + log 2 - 2 for t_2.
        pareto = TailModel("pareto_positive", alpha=2.0, q=1.0)
        student = TailModel("student_t", alpha=2.0)
        cuts = [2.0, 10.0, 100.0, 1e6, 1e12]
        for model in (pareto, student):
            vals = [truncated_second_moment(model, c) for c in cuts]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        assert truncated_second_moment(pareto, 1e12) == pytest.approx(2.0 * math.log(1e12), rel=1e-14)
        gap = truncated_second_moment(student, 1e12) - 2.0 * math.log(1e12)
        assert gap == pytest.approx(math.log(2.0) - 2.0, abs=1e-9)

    def test_bounded_cutoff_matches_monte_carlo_pareto(self):
        # Truncation bounds the integrand, so the sample mean has a clean SE
        # even though the second moment of Z is infinite.
        model = TailModel("pareto_positive", alpha=2.0, q=1.0)
        value = truncated_second_moment(model, 4.0)
        rng = np.random.default_rng(7)
        z = rng.pareto(2.0, size=10_000_000) + 1.0
        kept = np.where(z <= 4.0, z * z, 0.0)
        se = kept.std() / math.sqrt(kept.size)
        assert abs(value - kept.mean()) <= 3.0 * se

    def test_student_t_closed_form_matches_monte_carlo(self):
        model = TailModel("student_t", alpha=2.0)
        value = truncated_second_moment(model, 2.0)
        rng = np.random.default_rng(8)
        z = rng.standard_t(2.0, size=10_000_000)
        kept = np.where(np.abs(z) <= 2.0, z * z, 0.0)
        se = kept.std() / math.sqrt(kept.size)
        assert abs(value - kept.mean()) <= 3.0 * se

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            truncated_second_moment(TailModel("pareto_symmetric", alpha=2.0), 0.0)


class TestSecondMoment:
    def test_pareto_closed_form(self):
        model = TailModel("pareto_positive", alpha=3.0, q=1.0)
        assert second_moment(model) == pytest.approx(3.0, rel=1e-14)

    def test_infinite_flag_below_two(self):
        assert math.isinf(second_moment(TailModel("pareto_symmetric", alpha=1.5)))
        assert math.isinf(second_moment(TailModel("pareto_symmetric", alpha=2.0)))
        assert math.isinf(second_moment(TailModel("student_t", alpha=2.0)))

    def test_student_t_finite_variance(self):
        # Z^2 has tail index 3/2, so a raw Monte Carlo mean has infinite
        # variance; split off the bounded part (clean SE) and integrate the
        # tail with quadrature, both independent of the closed form.
        from scipy import integrate

        model = TailModel("student_t", alpha=3.0)
        value = second_moment(model)
        assert math.isfinite(value)
        cut = 20.0
        tail, _ = integrate.quad(lambda x: 2.0 * x * x * stats.t.pdf(x, 3.0), cut, np.inf)
        rng = np.random.default_rng(9)
        z = rng.standard_t(3.0, size=10_000_000)
        kept = np.where(np.abs(z) <= cut, z * z, 0.0)
        se = kept.std() / math.sqrt(kept.size)
        assert abs(value - (kept.mean() + tail)) <= 3.0 * se
        assert abs(value - (kept.mean() + tail)) / value < 0.01


class TestMeanValue:
    def test_symmetric_zero(self):
        assert mean_value(TailModel("pareto_symmetric", alpha=2.5)) == 0.0
        assert mean_value(TailModel("student_t", alpha=2.5)) == 0.0

    def test_positive_pareto(self):
        model = TailModel("pareto_positive", alpha=3.0, q=1.0, scale=2.0)
        assert mean_value(model) == pytest.approx(3.0, rel=1e-14)

    def test_undefined_below_one(self):
        assert math.isnan(mean_value(TailModel("pareto_positive", alpha=0.9, q=1.0)))


class TestIndexedUniforms:
    def test_values_in_open_unit_interval(self):
        u = index_uniforms(3, np.arange(10000))
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_lane_and_tag_separate_streams(self):
        idx = np.arange(1000)
        base = index_uniforms(3, idx)
        assert not np.array_equal(base, index_uniforms(3, idx, tag=1))
        assert not np.array_equal(base, index_uniforms(4, idx))
        lane0, lane1 = _lanes(3, (0, 30), (0, 30))
        assert not np.array_equal(lane0, lane1)

    def test_grid_not_symmetric_in_row_col(self):
        g = rvn._to_unit(_lanes(3, (0, 50), (0, 50))[0])
        assert not np.allclose(g, g.T)

    def test_uniform_moments(self):
        for lane in _lanes(11, (0, 1000), (0, 1000)):
            u = rvn._to_unit(lane).ravel()
            se = 1.0 / math.sqrt(12.0 * u.size)
            assert abs(u.mean() - 0.5) <= 4.0 * se
            assert abs(np.mean(u * u) - 1.0 / 3.0) <= 4.0 * math.sqrt(4.0 / 45.0 / u.size)

    def test_seed_array_gives_each_seed_alone(self):
        keys = derive_key(5, np.arange(4))
        assert keys.dtype == np.uint64
        assert keys.tolist() == [derive_key(5, i) for i in range(4)]
        idx = np.arange(-3, 7)
        u = index_uniforms(keys, idx, tag=9)
        assert u.shape == (4, 10)
        assert np.array_equal(u, [index_uniforms(int(key), idx, tag=9) for key in keys])

    def test_derive_key_distinct(self):
        keys = {derive_key(5, n, r) for n in range(100) for r in range(100)}
        assert len(keys) == 10000


class TestCounterContract:
    # Digests of the little-endian uint64 lane hashes for seed 20240607 on
    # rows [-3, 37) x cols [-5, 52).  Integer arithmetic only, so they hold on
    # every machine; a change here changes every panel ever drawn.
    LANE0_SHA256 = "e2a62621eef16547cad736425cc112170db2bc31fd8470bb63aaac1409faedf2"
    LANE1_SHA256 = "a34401f0468f6225800bd141d73a04726bc9a5adba170764b9cc0462d9829ba2"

    def test_lane_hash_digests(self):
        lane0, lane1 = _lanes(20240607, (-3, 37), (-5, 52))
        assert lane0.shape == (40, 57)
        assert hashlib.sha256(lane0.astype("<u8").tobytes()).hexdigest() == self.LANE0_SHA256
        assert hashlib.sha256(lane1.astype("<u8").tobytes()).hexdigest() == self.LANE1_SHA256

    @pytest.mark.parametrize(
        "model",
        [
            TailModel("pareto_symmetric", alpha=1.2),
            TailModel("pareto_symmetric", alpha=1.0, scale=3.0),
            TailModel("pareto_positive", alpha=3.0, q=1.0, scale=0.7),
            TailModel("pareto_skewed", alpha=1.5, q=0.0, scale=2.5),
            TailModel("pareto_skewed", alpha=1.5, q=0.3, scale=2.5),
            TailModel("pareto_skewed", alpha=2.0, q=1.0),
            TailModel("student_t", alpha=3.0, scale=2.0),
        ],
        ids=lambda m: f"{m.family}-a{m.alpha}-q{m.q}-s{m.scale}",
    )
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_sampler_matches_allocating_reference(self, model, seed):
        rows, cols = (-7, 33), (-12, 50)
        panel = sample_noise(model, rows, cols, seed)
        assert np.array_equal(panel.values, _reference_noise(model, rows, cols, seed))

    def test_unit_range_is_half_open_at_zero_closed_at_one(self):
        # 2**53 - 0.5 rounds to even, so the largest value is exactly 1.0 (and
        # under student_t that entry is ppf(1) = inf, a 2**-53 event per entry).
        top = (1 << 53) - 1
        # 2**53 - 1.5 rounds down to even, one step below 1.0.
        expected = [1.0, 1.0 - 2.0**-52, 2.0**-54]
        for h in ([top << 11, (top - 1) << 11, 0], [2**64 - 1, ((top - 1) << 11) | 2047, 2047]):
            u = rvn._to_unit(np.array(h, dtype=np.uint64))
            assert u.tolist() == expected
            assert _unit(np.array(h, dtype=np.uint64) >> np.uint64(11)).tolist() == expected


class TestSignThreshold:
    QS = [0.0, 0.3, 0.5, 1.0, math.nextafter(0.5, 0.0), math.nextafter(1.0, 0.0)]

    @pytest.mark.parametrize("q", QS)
    def test_threshold_is_least_m_at_or_above_q(self, q):
        t = rvn._sign_threshold(q)
        assert 0 <= t < 2**53
        assert _unit([t])[0] >= q
        if t > 0:
            assert _unit([t - 1])[0] < q

    @pytest.mark.parametrize("q", QS + [0.123456789, 0.75, 2.0**-54, 1e-300])
    def test_integer_test_agrees_with_float_rule(self, q):
        t = rvn._sign_threshold(q)
        rng = np.random.default_rng(4)
        near = np.arange(-600, 600)
        m = np.concatenate(
            [
                rng.integers(0, 2**53, size=200_000, dtype=np.uint64),
                (2**52 + near).astype(np.uint64),
                np.clip(t + near, 0, 2**53 - 1).astype(np.uint64),
                np.array([0, 2**53 - 2, 2**53 - 1], dtype=np.uint64),
            ]
        )
        u = _unit(m)
        assert np.array_equal(m >= np.uint64(t), u >= q)
        # The sampler's sign bit is set exactly where the old rule gave -1,
        # whatever the 11 low bits that the unit map drops.
        low = rng.integers(0, 2048, size=m.size, dtype=np.uint64)
        negative = rvn._negative_bits((m << np.uint64(11)) | low, q) == np.uint64(1 << 63)
        assert np.array_equal(negative, ~(u < q))

"""Tests for the regularly varying samplers and tail functionals."""

import hashlib
import math
import subprocess
import sys

import numpy as np
import pytest

from heavyspec import rv_noise as rvn
from heavyspec._config import TailModel, mean_value, norming_constant
from heavyspec.rv_noise import (
    NoiseCoverageError,
    NoisePanel,
    derive_key,
    index_uniforms,
    sample_noise,
    second_moment,
    truncated_second_moment,
)


def _models():
    return [
        TailModel("pareto_symmetric", alpha=1.5),
        TailModel("pareto_positive", alpha=1.5, q=1.0),
        TailModel("pareto_skewed", alpha=1.5, q=0.3),
    ]


def _grid_hashes(seed, row_range, col_range):
    """The uint64 grid hash that ``sample_noise`` draws both sign and magnitude from."""
    shape = (row_range[1] - row_range[0], col_range[1] - col_range[0])
    return rvn._grid_hash(seed, row_range, col_range, np.empty(shape, np.uint64), np.empty(shape, np.uint64))


def _unit(m):
    # The float unit map on top-53-bit values m, as the allocating formula wrote it.
    return (np.asarray(m, dtype=np.uint64).astype(np.float64) + 0.5) * 2.0**-53


def _reference_noise(model, row_range, col_range, seed):
    """The allocating formula the in-place sampler must reproduce bit for bit:
    the top 53 bits m are positive below T = T(q) with u = (m + 0.5) / T, and
    negative from T on with u = (m - T + 0.5) / (2**53 - T)."""
    m = _grid_hashes(seed, row_range, col_range) >> np.uint64(11)
    if model.q == 1.0:
        # No left tail: not even the top unit value 1.0 gives a negative sign.
        return model.scale * _unit(m) ** (-1.0 / model.alpha)
    t = rvn._sign_threshold(model.q)
    negative = m >= np.uint64(t)
    offset = np.where(negative, np.uint64(t), np.uint64(0))
    u = ((m - offset).astype(np.float64) + 0.5) / np.where(negative, float(2**53 - t), float(t))
    magnitude = model.scale * u ** (-1.0 / model.alpha)
    return np.where(negative, -magnitude, magnitude)


class TestTailModel:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            TailModel("pareto_symmetric", alpha=4.0)
        with pytest.raises(ValueError, match="alpha"):
            TailModel("pareto_symmetric", alpha=0.0)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError, match="q"):
            TailModel("pareto_symmetric", alpha=1.0, q=0.7)
        with pytest.raises(ValueError, match=r"^pareto_positive requires q = 1, got 0\.5$"):
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

    @pytest.mark.parametrize("family, q", [("pareto_symmetric", 0.5), ("pareto_positive", 1.0), ("pareto_skewed", 0.5)])
    def test_family_supplies_q(self, family, q):
        # A pareto_positive model without q was once refused with "requires
        # q = 1, got 0.5", a 0.5 its caller never wrote.
        assert TailModel(family, alpha=1.2).q == q
        assert TailModel.from_dict({"family": family, "alpha": 1.2}).q == q


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
            "from heavyspec._config import TailModel\n"
            "from heavyspec.rv_noise import sample_noise\n"
            "p = sample_noise(TailModel('pareto_symmetric', alpha=1.5), (-3, 40), (2, 60), seed=123)\n"
            "print(hashlib.sha256(p.values.tobytes()).hexdigest())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == digest

    def test_skewed_at_q_one_is_the_positive_pareto(self, monkeypatch):
        # The sign and the mixture's two branches are drawn only where q < 1,
        # whatever the family's name.
        positive = TailModel("pareto_positive", alpha=1.5, q=1.0, scale=2.0)
        skewed = TailModel("pareto_skewed", alpha=1.5, q=1.0, scale=2.0)
        rows, cols = (-5, 60), (-3, 80)
        want = sample_noise(positive, rows, cols, seed=41).values
        monkeypatch.setattr(rvn, "_mixture_unit", None)
        got = sample_noise(skewed, rows, cols, seed=41).values
        assert got.tobytes() == want.tobytes()
        assert np.all(want >= 2.0)

    @pytest.mark.parametrize("model", _models(), ids=lambda m: m.family)
    def test_tail_split_matches_q(self, model):
        panel = sample_noise(model, (0, 1000), (0, 1000), seed=31)
        x = 10.0 * model.scale
        flat = panel.values.ravel()
        exceed = flat[np.abs(flat) > x]
        assert exceed.size > 100
        frac_right = np.mean(exceed > 0)
        se = math.sqrt(max(model.q * (1 - model.q), 1e-12) / exceed.size)
        assert abs(frac_right - model.q) <= max(4.0 * se, 1e-12)


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

    @pytest.mark.parametrize("model", _models(), ids=lambda m: m.family)
    @pytest.mark.parametrize("m", [1, 10, 1000, 10**6])
    def test_defining_equation(self, model, m):
        a = norming_constant(model, m)
        survival = (model.scale / a) ** model.alpha  # P(|Z| > x) for x >= scale
        assert m * survival == pytest.approx(1.0, rel=1e-9)

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

    @pytest.mark.parametrize("family", ["pareto_symmetric", "pareto_skewed"])
    @pytest.mark.parametrize("alpha", [1.5, 1.999, 2.001, 3.0])
    def test_rejects_alpha_other_than_two(self, family, alpha):
        with pytest.raises(ValueError, match="alpha = 2 only"):
            truncated_second_moment(TailModel(family, alpha=alpha), 4.0)

    def test_grows_like_two_log_cutoff(self):
        # No second moment at alpha = 2: the truncated one grows without bound,
        # as 2 log c.
        pareto = TailModel("pareto_positive", alpha=2.0, q=1.0)
        vals = [truncated_second_moment(pareto, c) for c in [2.0, 10.0, 100.0, 1e6, 1e12]]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert truncated_second_moment(pareto, 1e12) == pytest.approx(2.0 * math.log(1e12), rel=1e-14)

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


class TestMeanValue:
    def test_symmetric_zero(self):
        assert mean_value(TailModel("pareto_symmetric", alpha=2.5)) == 0.0

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
        # The grid hash keys (row, column) apart from the indexed stream of
        # the same seed.
        grid = rvn._to_unit(_grid_hashes(3, (0, 1), (0, 1000)))[0]
        assert not np.any(grid == base)

    def test_grid_not_symmetric_in_row_col(self):
        g = rvn._to_unit(_grid_hashes(3, (0, 50), (0, 50)))
        assert not np.allclose(g, g.T)

    def test_uniform_moments(self):
        # The unit value of the grid hash, and the uniform of each branch of
        # the mixture at q 0.3 and 0.5: each is uniform on (0, 1].
        branches = [rvn._to_unit(_grid_hashes(11, (0, 1000), (0, 1000))).ravel()]
        for q in (0.3, 0.5):
            h = _grid_hashes(11, (0, 1000), (0, 1000))
            sign = np.empty_like(h)
            u = rvn._mixture_unit(h, rvn._sign_threshold(q), sign, np.empty(h.shape))
            branches += [u[sign == 0], u[sign != 0]]
        for u in branches:
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
    # Digest of the little-endian uint64 grid hash for seed 20240607 on rows
    # [-3, 37) x cols [-5, 52).  Integer arithmetic only, so it holds on every
    # machine; a change here changes every panel ever drawn.
    LANE0_SHA256 = "e2a62621eef16547cad736425cc112170db2bc31fd8470bb63aaac1409faedf2"

    def test_lane_hash_digests(self):
        lane0 = _grid_hashes(20240607, (-3, 37), (-5, 52))
        assert lane0.shape == (40, 57)
        assert hashlib.sha256(lane0.astype("<u8").tobytes()).hexdigest() == self.LANE0_SHA256

    @pytest.mark.parametrize(
        "model",
        [
            TailModel("pareto_symmetric", alpha=1.2),
            TailModel("pareto_symmetric", alpha=1.0, scale=3.0),
            TailModel("pareto_positive", alpha=3.0, q=1.0, scale=0.7),
            TailModel("pareto_skewed", alpha=1.5, q=0.0, scale=2.5),
            TailModel("pareto_skewed", alpha=1.5, q=0.3, scale=2.5),
            TailModel("pareto_skewed", alpha=0.8, q=0.7),
            TailModel("pareto_skewed", alpha=2.0, q=1.0),
        ],
        ids=lambda m: f"{m.family}-a{m.alpha}-q{m.q}-s{m.scale}",
    )
    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
    def test_sampler_matches_allocating_reference(self, model, seed):
        rows, cols = (-7, 33), (-12, 50)
        panel = sample_noise(model, rows, cols, seed)
        assert np.array_equal(panel.values, _reference_noise(model, rows, cols, seed))

    @pytest.mark.parametrize("q", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 2**63 + 5])
    def test_one_sided_panels_keep_the_unit_value_of_the_hash(self, q, seed):
        # At q = 0 every entry is negative with u = (m + 0.5) / 2**53, and at
        # q = 1 every entry is positive with that u: the panels drawn while
        # the sign came from a hash of its own, bit for bit.
        model = TailModel("pareto_skewed", alpha=1.3, q=q, scale=1.5)
        rows, cols = (-7, 33), (-12, 50)
        magnitude = model.scale * _unit(_grid_hashes(seed, rows, cols) >> np.uint64(11)) ** (-1.0 / model.alpha)
        want = magnitude if q == 1.0 else -magnitude
        assert sample_noise(model, rows, cols, seed).values.tobytes() == want.tobytes()

    def test_unit_range_is_half_open_at_zero_closed_at_one(self):
        # 2**53 - 0.5 rounds to even, so the largest value is exactly 1.0.
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

    def test_bisection_runs_once_per_q(self):
        # A trial samples one row block at a time, all at its model's q.
        rvn._sign_threshold.cache_clear()
        model = TailModel("pareto_skewed", alpha=1.2, q=0.3)
        for rows in ((0, 3), (3, 9), (9, 10)):
            sample_noise(model, rows, (0, 5), seed=1)
        assert rvn._sign_threshold.cache_info().misses == 1

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
        # The sampler's sign bit is set exactly where the float rule on the
        # unit value of m gives a negative entry, whatever the 11 low bits of
        # the hash that m drops.
        low = rng.integers(0, 2048, size=m.size, dtype=np.uint64)
        sign = np.empty_like(m)
        rvn._mixture_unit((m << np.uint64(11)) | low, t, sign, np.empty(m.shape))
        negative = sign == np.uint64(1 << 63)
        assert np.array_equal(negative, ~(u < q))


class TestHalfMixture:
    """At q = 1/2, ``_mixture_unit`` reads the sign off bit 63 of the hash and
    the uniform off an exponent OR and one subtraction."""

    @staticmethod
    def _integer_formula(h):
        # The general branch's steps at t = 2**52: the sign bit of
        # (t - 1) - m, wrapping, and u = (m mod 2**52 + 0.5) 2**-52.
        m = h >> np.uint64(11)
        with np.errstate(over="ignore"):
            sign = (np.uint64(2**52 - 1) - m) & np.uint64(1 << 63)
        u = ((m & np.uint64(2**52 - 1)).astype(np.float64) + 0.5) * 2.0**-52
        return sign, u

    def test_values_and_signs_equal_the_integer_formula_bit_for_bit(self):
        assert rvn._sign_threshold(0.5) == 2**52
        ends = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1], dtype=np.uint64)
        edges = np.concatenate([(ends << np.uint64(11)) | np.uint64(low) for low in (0, 2047)])
        rng = np.random.default_rng(52)
        h = np.concatenate([edges, rng.integers(0, 2**64, size=10**5, dtype=np.uint64)])
        expect_sign, expect_u = self._integer_formula(h)
        sign, u = np.empty_like(h), np.full(h.shape, np.nan)
        assert rvn._mixture_unit(h.copy(), 2**52, sign, u) is u
        assert np.array_equal(sign, expect_sign)
        assert np.array_equal(u.view(np.uint64), expect_u.view(np.uint64))
        # Both branches reach both ends of (0, 1]: 2**-53 and 1 - 2**-53.
        assert u[:6].tolist() == [2.0**-53, 3 * 2.0**-53, 1 - 2.0**-53] * 2
        assert sign[:6].tolist() == [0] * 3 + [1 << 63] * 3


class TestMixtureLaw:
    """One uniform gives both the sign and the magnitude: the sign is
    negative with probability 1 - q, and |Z| has the same law given either
    sign."""

    @staticmethod
    def _magnitudes_by_sign(model, seed, draws):
        # |Z| of the positive and of the negative entries, each sorted, from
        # `draws` entries in blocks of 10**6.
        positive, negative = [], []
        for lo in range(0, draws // 1000, 1000):
            z = sample_noise(model, (lo, lo + 1000), (0, 1000), seed).values.ravel()
            positive.append(z[z > 0.0])
            negative.append(-z[z < 0.0])
        return [np.sort(np.concatenate(part)) for part in (positive, negative)]

    @pytest.mark.parametrize("q", [0.3, 0.5])
    def test_sign_frequency_and_magnitude_law_given_sign(self, q):
        from scipy.special import kolmogorov

        family = "pareto_symmetric" if q == 0.5 else "pareto_skewed"
        model = TailModel(family, alpha=1.2, q=q, scale=1.5)
        draws = 10**7
        pos, neg = self._magnitudes_by_sign(model, 29, draws)
        assert pos.size + neg.size == draws
        assert abs(neg.size / draws - (1.0 - q)) <= 4.0 * math.sqrt(q * (1.0 - q) / draws)
        # Two-sample KS distance: the largest gap between the two ECDFs, which
        # is reached at one of the sample points.
        gap = max(
            np.abs(np.searchsorted(a, a, "right") / a.size - np.searchsorted(b, a, "right") / b.size).max()
            for a, b in ((pos, neg), (neg, pos))
        )
        p_value = kolmogorov(math.sqrt(pos.size * neg.size / draws) * gap)
        assert p_value > 1e-3, (gap, p_value)
        assert pos[0] >= model.scale and neg[0] >= model.scale

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [0.5, 1.2, 3.0])
    def test_extreme_hashes_stay_in_the_overflow_bound(self, monkeypatch, q, alpha):
        # The least and the greatest m of each branch: |Z| lies in
        # [scale, scale 2**(54/alpha)], the bound batch_grid's overflow
        # refusal rests on (with its 1 + 2**-40 slack), since the least
        # uniform is 0.5 / max(T, 2**53 - T) >= 2**-54.
        t = rvn._sign_threshold(q) if q < 1.0 else 1 << 53
        ends = [m for lo, hi in ((0, t), (t, 1 << 53)) if lo < hi for m in (lo, hi - 1)]
        hashes = np.array([[(m << 11) | low for m in ends for low in (0, 2047)]], dtype=np.uint64)
        monkeypatch.setattr(rvn, "_grid_hash", lambda *args: hashes.copy())
        family = {0.5: "pareto_symmetric", 1.0: "pareto_positive"}.get(q, "pareto_skewed")
        model = TailModel(family, alpha=alpha, q=q, scale=2.5)
        z = sample_noise(model, (0, 1), (0, hashes.size), seed=0).values[0]
        assert np.all(np.abs(z) >= model.scale)
        assert np.all(np.abs(z) <= model.scale * 2.0 ** (54.0 / alpha) * (1.0 + 2.0**-40))
        assert np.array_equal(z < 0.0, np.repeat([m >= t for m in ends], 2))

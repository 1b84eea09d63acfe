"""Tests for centering algebra and the ARPACK spectral norm."""

import math

import numpy as np
import pytest

from heavyspec.linear_filter import (
    CoefficientSequence,
    FilterSpec,
    build_row_process,
    build_xhat,
)
from heavyspec.rv_noise import TailModel, norming_constant, sample_noise
from heavyspec.spectral import (
    BandedH,
    CenteringSpec,
    SpectralNormError,
    build_H,
    centered_covariance,
    centered_gram_diag,
    gram_diag,
    hdh_matrix,
    hht_matrix,
    mu_x_alpha,
    offdiag_deviation,
    spectral_norm,
)


def _brute_H(theta: CoefficientSequence, p: int) -> np.ndarray:
    vals = dict(zip(theta.lags, theta.values))
    h = np.zeros((p, 3 * p))
    for i in range(p):
        for j in range(3 * p):
            if 0 <= j - i <= 2 * p:
                h[i, j] = vals.get(p - (j - i), 0.0)
    return h


class TestBuildH:
    def test_single_spike_positions(self):
        h = build_H(CoefficientSequence((1.0,)), 2).dense()
        expect = np.zeros((2, 6))
        expect[0, 2] = 1.0
        expect[1, 3] = 1.0
        assert np.array_equal(h, expect)

    def test_spike_gives_identity_hht(self):
        h = build_H(CoefficientSequence((1.0,)), 4)
        assert np.array_equal(hht_matrix(h).dense(), np.eye(4))

    def test_two_lag_window_against_brute_force(self):
        theta = CoefficientSequence((1.0, 0.5))
        h = build_H(theta, 3)
        dense = h.dense()
        assert np.array_equal(dense, _brute_H(theta, 3))
        # Each row holds (0.5, 1.0) at columns i+p-1, i+p.
        for i in range(3):
            assert dense[i, i + 2] == 0.5
            assert dense[i, i + 3] == 1.0

    def test_two_sided_window_against_brute_force(self):
        theta = CoefficientSequence((0.3, 1.0, -0.2), min_lag=-1)
        for p in (1, 2, 5):
            assert np.array_equal(build_H(theta, p).dense(), _brute_H(theta, p))

    def test_row_abs_sums(self):
        theta = CoefficientSequence((1.0, -0.5, 0.25))
        h = build_H(theta, 6)
        dense = h.dense()
        assert np.allclose(np.abs(dense).sum(axis=1), theta.abs_sum)

    def test_lags_beyond_p_fall_outside_indicator(self):
        theta = CoefficientSequence((1.0, 0.5, 0.25), min_lag=1)  # lags 1, 2, 3
        assert np.array_equal(build_H(theta, 2).dense(), _brute_H(theta, 2))


class TestHdhMatrix:
    def test_spike_permutes_diagonal(self):
        h = build_H(CoefficientSequence((1.0,)), 3)
        d = np.arange(1.0, 10.0)
        got = hdh_matrix(h, d).dense()
        assert np.array_equal(got, np.diag(d[3:6]))

    def test_ma1_hand_multiplication(self):
        theta = 0.7
        h = BandedH(nrows=2, ncols=3, shift=0, weights=(theta, 1.0))
        got = hdh_matrix(h, np.array([1.0, 2.0, 3.0])).dense()
        expect = np.array(
            [[theta**2 * 1.0 + 2.0, 2.0 * theta], [2.0 * theta, theta**2 * 2.0 + 3.0]]
        )
        assert np.allclose(got, expect, rtol=0, atol=1e-15)

    def test_band_formula_matches_triple_product(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = int(rng.integers(1, 9))
            L = int(rng.integers(1, 6))
            ncols = p + L + int(rng.integers(0, 4))
            shift = int(rng.integers(0, ncols - (p - 1) - L + 1))
            h = BandedH(nrows=p, ncols=ncols, shift=shift, weights=tuple(rng.normal(size=L)))
            d = rng.normal(size=ncols)
            ref = h.dense() @ np.diag(d) @ h.dense().T
            got = hdh_matrix(h, d).dense()
            assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)

    def test_hht_interior_diagonal_is_theta_square_sum(self):
        theta = CoefficientSequence((1.0, -0.5, 0.25), min_lag=-1)
        h = build_H(theta, 7)
        hht = hht_matrix(h)
        assert np.allclose(hht.bands[0], theta.sq_sum, rtol=1e-15)

    def test_wrong_d_length_rejected(self):
        h = build_H(CoefficientSequence((1.0,)), 2)
        with pytest.raises(ValueError, match="length"):
            hdh_matrix(h, np.ones(5))


class TestMuXAlpha:
    def test_zero_below_two(self):
        model = TailModel("pareto_symmetric", alpha=1.2)
        assert mu_x_alpha(model, CoefficientSequence((1.0, 2.0)), 10.0) == 0.0

    def test_finite_variance_branch(self):
        model = TailModel("pareto_positive", alpha=3.0, q=1.0)
        assert mu_x_alpha(model, CoefficientSequence((1.0,)), 5.0) == pytest.approx(3.0)

    def test_truncated_branch_at_two(self):
        model = TailModel("pareto_symmetric", alpha=2.0)
        got = mu_x_alpha(model, CoefficientSequence((1.0, 1.0)), math.e)
        assert got == pytest.approx(4.0, rel=1e-14)


class TestCenteredCovariance:
    SPIKE = CoefficientSequence((1.0,))

    def test_zero_mu_is_gram(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 9))
        spec = CenteringSpec(mu=0.0, H=build_H(self.SPIKE, 4), n=9)
        s = centered_covariance(x @ x.T, self.SPIKE, spec)
        assert np.allclose(s, x @ x.T, rtol=1e-15)
        # Gram matrix is positive semidefinite.
        assert np.linalg.eigvalsh(s).min() >= -1e-10

    def test_scalar_hand_case(self):
        gram = np.array([[5.0]])  # Gram of the 1 x 2 panel (1, 2)
        spec = CenteringSpec(mu=1.0, H=build_H(self.SPIKE, 1), n=2)
        s = centered_covariance(gram, self.SPIKE, spec)
        assert s.shape == (1, 1)
        assert s[0, 0] == 5.0 - 2.0 * 1.0 * 1.0

    def test_dimension_mismatch(self):
        theta = CoefficientSequence((1.0, 0.5))
        spec = CenteringSpec(mu=0.0, H=build_H(theta, 4), n=5)
        with pytest.raises(ValueError, match="gram must be 5 x 5"):
            centered_covariance(np.zeros((4, 4)), theta, spec)
        with pytest.raises(ValueError, match="gram must be"):
            centered_covariance(np.zeros((5, 6)), theta, spec)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 11))
        theta = CoefficientSequence((1.0, 0.5))
        spec = CenteringSpec(mu=0.5, H=build_H(theta, 6), n=11)
        s = centered_covariance(x @ x.T, theta, spec)
        assert np.array_equal(s, s.T)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])  # mu = 0, truncated, exact
    @pytest.mark.parametrize(
        "theta_vals, min_lag, p",
        [
            ((1.0, 0.5), 0, 9),
            ((0.3, 1.0, -0.2), -1, 6),
            ((1.0, 0.5, 0.25), 1, 2),  # lag 3 lies beyond p, outside H
        ],
    )
    def test_gram_route_matches_filtered_panel(self, alpha, theta_vals, min_lag, p):
        model = TailModel("pareto_symmetric", alpha=alpha)
        c = CoefficientSequence((1.0, -0.4, 0.3), min_lag=-1)
        theta = CoefficientSequence(theta_vals, min_lag=min_lag)
        fspec = FilterSpec(c=c, theta=theta)
        n = 40
        rows = (1 - theta.max_lag, p - theta.min_lag + 1)
        noise = sample_noise(model, rows, (1 - c.max_lag, n - c.min_lag + 1), seed=17)
        x_rows = build_row_process(noise, c, rows, n)
        xhat = build_xhat(noise, fspec, p, n)
        a_np = norming_constant(model, n * p)
        mu = mu_x_alpha(model, c, a_np)
        assert (mu == 0.0) == (alpha < 2.0)
        H = build_H(theta, p)
        got = centered_covariance(x_rows @ x_rows.T, theta, CenteringSpec(mu=mu, H=H, n=n))
        ref = xhat @ xhat.T - n * mu * hht_matrix(H).dense()
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestGramDiagonals:
    def test_identity(self):
        assert np.array_equal(gram_diag(np.eye(3)), np.ones(3))

    def test_hand_values(self):
        assert np.array_equal(gram_diag(np.array([[1.0, 2.0], [3.0, 4.0]])), [5.0, 25.0])

    def test_zero_row(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert gram_diag(x)[0] == 0.0

    def test_centered_matches_uncentered_at_zero_mu(self):
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(centered_gram_diag(x, 0.0), gram_diag(x))

    def test_centered_hand_case(self):
        assert centered_gram_diag(np.array([[1.0, 1.0]]), 1.0)[0] == 0.0

    def test_centered_can_be_negative(self):
        assert centered_gram_diag(np.array([[0.1, 0.1]]), 1.0)[0] < 0.0


class TestOffdiagDeviation:
    def test_orthogonal_rows_vanish(self):
        assert offdiag_deviation(np.eye(3), 2.0) == 0.0

    def test_single_row_vanishes(self):
        assert offdiag_deviation(np.array([[14.0]]), 1.5) == 0.0  # Gram of the row (1, 2, 3)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-4, 5, size=(5, 8)).astype(float)
        g = x @ x.T
        got = offdiag_deviation(g, 2.5)
        np.fill_diagonal(g, 0.0)
        ref = np.abs(np.linalg.eigvalsh(g)).max()
        assert got == pytest.approx(ref / 2.5**2, rel=1e-10)


class TestSpectralNorm:
    def test_diagonal_reads_off(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, rel=1e-12)

    def test_identity(self):
        for dim in (1, 2, 10, 37):
            assert spectral_norm(np.eye(dim)) == pytest.approx(1.0, rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_matches_dense_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            dim = int(rng.integers(2, 51))
            a = rng.normal(size=(dim, dim))
            a = 0.5 * (a + a.T)
            ref = np.abs(np.linalg.eigvalsh(a)).max()
            assert abs(spectral_norm(a) - ref) <= 1e-8 * ref

    def test_matches_dense_oracle_20x20(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(20, 20))
        a = 0.5 * (a + a.T)
        ref = np.abs(np.linalg.eigvalsh(a)).max()
        assert spectral_norm(a, rel_tol=1e-10) == pytest.approx(ref, rel=1e-9)

    def test_clustered_extremes(self):
        # Nearly degenerate top pair; the solver must still resolve the norm.
        d = np.concatenate([[1.0, 1.0 - 1e-6], np.linspace(0.0, 0.9, 48)])
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(50, 50)))
        a = (q * d) @ q.T
        a = 0.5 * (a + a.T)
        ref = np.abs(np.linalg.eigvalsh(a)).max()
        assert abs(spectral_norm(a) - ref) <= 1e-8 * ref

    def test_rejects_asymmetric(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            spectral_norm(a)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="square"):
            spectral_norm(np.zeros((2, 3)))
        a = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="finite"):
            spectral_norm(a)

    def test_iteration_cap_reported(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(40, 40))
        a = 0.5 * (a + a.T)
        with pytest.raises(SpectralNormError, match="did not converge within 1 restarts"):
            spectral_norm(a, rel_tol=1e-14, max_iter=1)

    def test_power_of_two_homogeneity_exact(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(15, 15))
        a = 0.5 * (a + a.T)
        assert spectral_norm(4.0 * a) == 4.0 * spectral_norm(a)

    def test_norm_bounded_by_inf_norm(self):
        theta = CoefficientSequence((1.0, 0.5))
        h = build_H(theta, 12)
        rng = np.random.default_rng(11)
        d = rng.pareto(0.75, size=36) ** 2
        hdh = hdh_matrix(h, d).dense()
        assert spectral_norm(hdh) <= np.abs(hdh).sum(axis=1).max() * (1.0 + 1e-8)

    def test_weyl_inequality(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            dim = int(rng.integers(2, 30))
            a = rng.normal(size=(dim, dim))
            a = 0.5 * (a + a.T)
            b = rng.normal(size=(dim, dim))
            b = 0.5 * (b + b.T)
            na, nb, nd = spectral_norm(a), spectral_norm(b), spectral_norm(a - b)
            assert abs(na - nb) <= nd * (1.0 + 1e-8) + 1e-12

"""Tests for centering algebra and the ARPACK spectral norm."""

import math
import subprocess
import sys

import numpy as np
import pytest

from heavyspec import spectral
from heavyspec.linear_filter import (
    CoefficientSequence,
    FilterSpec,
    build_row_process,
    build_xhat,
    window_sum,
)
from heavyspec.rv_noise import TailModel, norming_constant, sample_noise
from heavyspec.spectral import (
    SpectralNormError,
    centered_covariance,
    centered_gram_diag,
    mu_x_alpha,
    offdiag_deviation,
    spectral_norm,
)


# The two functions that take a Gram matrix, each solving its norm on a
# square one of any size.  The two-tap S of an m x m Gram has m - 1 rows: one
# at m = 2, whose norm is its entry, with no ARPACK call.
GRAM_FUNCTIONS = [
    pytest.param(offdiag_deviation, id="offdiag_deviation"),
    pytest.param(
        lambda g: spectral_norm(centered_covariance(g, CoefficientSequence((1.0,)), len(g), 3, 0.0)),
        id="centered_covariance",
    ),
    pytest.param(
        lambda g: spectral_norm(centered_covariance(g, CoefficientSequence((1.0, 0.5)), len(g) - 1, 3, 0.0)),
        id="centered_covariance_two_taps",
    ),
]


def _brute_H(theta: CoefficientSequence, p: int) -> np.ndarray:
    vals = dict(zip(theta.lags, theta.values))
    h = np.zeros((p, 3 * p))
    for i in range(p):
        for j in range(3 * p):
            if 0 <= j - i <= 2 * p:
                h[i, j] = vals.get(p - (j - i), 0.0)
    return h


def _hht_from_centering(theta: CoefficientSequence, p: int) -> np.ndarray:
    # With a zero Gram, S = -n * mu * H Hᵀ; n * mu = 2 keeps the scaling exact.
    m = p + len(theta.values) - 1
    return centered_covariance(np.zeros((m, m)), theta, p, 4, 0.5) @ np.eye(p) / -2.0


class TestBuildH:
    """Positions of H, checked exactly through the centering band H Hᵀ."""

    def test_single_spike_positions(self):
        expect = np.zeros((2, 6))
        expect[0, 2] = 1.0
        expect[1, 3] = 1.0
        assert np.array_equal(_brute_H(CoefficientSequence((1.0,)), 2), expect)
        assert np.array_equal(_hht_from_centering(CoefficientSequence((1.0,)), 2), expect @ expect.T)

    def test_spike_gives_identity_hht(self):
        assert np.array_equal(_hht_from_centering(CoefficientSequence((1.0,)), 4), np.eye(4))

    def test_two_lag_window_against_brute_force(self):
        theta = CoefficientSequence((1.0, 0.5))
        dense = _brute_H(theta, 3)
        # Each row holds (0.5, 1.0) at columns i+p-1, i+p.
        for i in range(3):
            assert dense[i, i + 2] == 0.5
            assert dense[i, i + 3] == 1.0
        expect = np.array([[1.25, 0.5, 0.0], [0.5, 1.25, 0.5], [0.0, 0.5, 1.25]])
        assert np.array_equal(dense @ dense.T, expect)
        assert np.array_equal(_hht_from_centering(theta, 3), expect)

    def test_two_sided_window_against_brute_force(self):
        theta = CoefficientSequence((0.3, 1.0, -0.2), min_lag=-1)
        for p in (1, 2, 5):
            h = _brute_H(theta, p)
            assert np.array_equal(_hht_from_centering(theta, p), h @ h.T)

    def test_row_abs_sums(self):
        theta = CoefficientSequence((1.0, -0.5, 0.25))
        hht = _hht_from_centering(theta, 6)
        # Rows far enough from both edges carry the whole autocorrelation.
        assert np.array_equal(hht.sum(axis=1)[2:4], [sum(theta.values) ** 2] * 2)
        assert np.abs(hht).sum(axis=1).max() <= theta.abs_sum**2

    def test_lags_beyond_p_fall_outside_indicator(self):
        theta = CoefficientSequence((1.0, 0.5, 0.25), min_lag=1)  # lags 1, 2, 3
        h = _brute_H(theta, 2)
        assert np.array_equal(_hht_from_centering(theta, 2), h @ h.T)
        # Lag 3 lies outside [-p, p], so only the window (1, 0.5) is left.
        assert np.array_equal(h @ h.T, [[1.25, 0.5], [0.5, 1.25]])


class TestHdhMatrix:
    """H diag(d) Hᵀ at d = 1, the centering band H Hᵀ."""

    def test_band_formula_matches_triple_product(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            p = int(rng.integers(1, 9))
            theta = CoefficientSequence(
                tuple(rng.normal(size=int(rng.integers(1, 6)))), min_lag=int(rng.integers(-6, 4))
            )
            h = _brute_H(theta, p)
            ref = h @ h.T
            got = _hht_from_centering(theta, p)
            assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)

    def test_hht_interior_diagonal_is_theta_square_sum(self):
        theta = CoefficientSequence((1.0, -0.5, 0.25), min_lag=-1)
        hht = _hht_from_centering(theta, 7)
        assert np.allclose(np.diag(hht), theta.sq_sum, rtol=1e-15)


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
        s = centered_covariance(x @ x.T, self.SPIKE, 4, 9, 0.0) @ np.eye(4)
        assert np.allclose(s, x @ x.T, rtol=1e-15)
        # Gram matrix is positive semidefinite.
        assert np.linalg.eigvalsh(s).min() >= -1e-10

    def test_scalar_hand_case(self):
        gram = np.array([[5.0]])  # Gram of the 1 x 2 panel (1, 2)
        s = centered_covariance(gram, self.SPIKE, 1, 2, 1.0) @ np.eye(1)
        assert s.shape == (1, 1)
        assert s[0, 0] == 5.0 - 2.0 * 1.0 * 1.0

    def test_dimension_mismatch(self):
        theta = CoefficientSequence((1.0, 0.5))
        with pytest.raises(ValueError, match="gram must be 5 x 5"):
            centered_covariance(np.zeros((4, 4)), theta, 4, 5, 0.0)
        with pytest.raises(ValueError, match="gram must be"):
            centered_covariance(np.zeros((5, 6)), theta, 4, 5, 0.0)

    def test_output_symmetric_to_rounding(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 11))
        theta = CoefficientSequence((1.0, 0.5))
        s = centered_covariance(x @ x.T, theta, 6, 11, 0.5) @ np.eye(6)
        assert np.abs(s - s.T).max() <= 1e-12 * np.abs(s).max()

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
        got = centered_covariance(x_rows @ x_rows.T, theta, p, n, mu) @ np.eye(p)
        h = _brute_H(theta, p)
        ref = xhat @ xhat.T - n * mu * (h @ h.T)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestGramDiagonals:
    """``centered_gram_diag`` reads the diagonal of a Gram X Xᵀ and subtracts n * mu."""

    @staticmethod
    def _diag(x, mu):
        x = np.asarray(x, dtype=float)
        return centered_gram_diag(x @ x.T, x.shape[1], mu)

    def test_identity(self):
        assert np.array_equal(self._diag(np.eye(3), 0.0), np.ones(3))

    def test_hand_values(self):
        assert np.array_equal(self._diag([[1.0, 2.0], [3.0, 4.0]], 0.0), [5.0, 25.0])

    def test_zero_row(self):
        assert self._diag([[0.0, 0.0], [1.0, 1.0]], 0.0)[0] == 0.0

    def test_centered_hand_case(self):
        assert self._diag([[1.0, 1.0]], 1.0)[0] == 0.0

    def test_centered_can_be_negative(self):
        assert self._diag([[0.1, 0.1]], 1.0)[0] < 0.0

    def test_reads_only_the_diagonal_into_out(self):
        out = np.full(2, np.nan)
        assert centered_gram_diag(np.array([[1.0, 2.0], [3.0, 4.0]]), 3, 0.5, out=out) is out
        assert np.array_equal(out, [-0.5, 2.5])


class TestOffdiagDeviation:
    def test_orthogonal_rows_vanish(self):
        assert offdiag_deviation(np.eye(3)) == 0.0

    def test_single_row_vanishes(self):
        assert offdiag_deviation(np.array([[14.0]])) == 0.0  # Gram of the row (1, 2, 3)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.integers(-4, 5, size=(5, 8)).astype(float)
        g = x @ x.T
        before = g.copy()
        got = offdiag_deviation(g)
        # The Gram is never written, and the norm comes back raw.
        assert np.array_equal(g, before)
        np.fill_diagonal(g, 0.0)
        ref = np.abs(np.linalg.eigvalsh(g)).max()
        assert got == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_upper_triangle_is_never_read(self, order):
        # Products read the lower triangle of an F-ordered Gram, the run
        # path's, and the upper one of a C-ordered Gram.  NaN in the other
        # triangle changes neither norm's bits from the full symmetric Gram's.
        rng = np.random.default_rng(17)
        x = rng.standard_t(1.5, size=(9, 30))
        g = x @ x.T
        half = np.array(g, order=order)
        half[np.triu_indices(9, 1) if order == "F" else np.tril_indices(9, -1)] = np.nan
        theta = CoefficientSequence((1.0, 0.5))
        got = spectral_norm(centered_covariance(half, theta, 8, 30, 0.5))
        assert got == spectral_norm(centered_covariance(g, theta, 8, 30, 0.5))
        assert offdiag_deviation(half) == offdiag_deviation(g)

    @pytest.mark.parametrize("function", GRAM_FUNCTIONS)
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_gram_is_left_bit_identical(self, order, function):
        # offdiag_deviation zeroes the diagonal for its solve and puts it
        # back.  F-ordered, the run path's Gram, with NaN above its lower
        # triangle; C-ordered, a full symmetric one.
        rng = np.random.default_rng(19)
        x = rng.standard_t(1.5, size=(9, 30))
        g = np.array(x @ x.T, order=order)
        if order == "F":
            g[np.triu_indices(9, 1)] = np.nan
        before = g.copy(order="K")
        assert math.isfinite(function(g))
        assert np.array_equal(g.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("function", GRAM_FUNCTIONS)
    def test_gram_is_left_bit_identical_when_the_solve_fails(self, monkeypatch, function):
        monkeypatch.setattr(spectral, "_ARPACK_TOL", 1e-14)
        monkeypatch.setattr(spectral, "_MAX_RESTARTS", 1)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(40, 80))
        g = x @ x.T
        before = g.copy()
        with pytest.raises(SpectralNormError, match="did not converge within 1 restarts"):
            function(g)
        assert np.array_equal(g.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("function", GRAM_FUNCTIONS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_nonfinite_gram(self, bad, function):
        # Wherever the non-finite entry sits: on the diagonal, which the
        # off-diagonal part leaves out and which is refused at once, or off
        # it, which is refused at the norm's first product.  Either way G is
        # left bit-identical, NaN bits too.
        grams = []
        for i, j in ((0, 0), (0, 1)):
            g = np.array([[4.0, 1.0], [1.0, 3.0]])
            g[i, j] = g[j, i] = bad
            grams.append(g)
        grams.append(np.array([[4.0, bad, 1.0], [bad, 5.0, 0.5], [1.0, 0.5, 6.0]]))
        for g in grams:
            before = g.copy()
            with pytest.raises(ValueError, match="matrix contains non-finite entries"):
                function(g)
            assert np.array_equal(g.view(np.uint64), before.view(np.uint64))

    def test_nonfinite_operator_never_reaches_arpack(self):
        # A NaN pair off a finite diagonal is refused at the first product,
        # before ARPACK reads it: ARPACK's LAPACK would print DLASCL errors on
        # the process's stdout, outside Python, so a fresh interpreter runs
        # each Gram function and its whole stdout is read.
        code = (
            "import numpy as np\n"
            "from heavyspec.linear_filter import CoefficientSequence as C\n"
            "from heavyspec.spectral import centered_covariance, offdiag_deviation, spectral_norm\n"
            "g = np.array([[4.0, np.nan, 1.0], [np.nan, 5.0, 0.5], [1.0, 0.5, 6.0]])\n"
            "for f in (offdiag_deviation, lambda g: spectral_norm(centered_covariance(g, C((1.0,)), 3, 3, 0.0)),\n"
            "          lambda g: spectral_norm(centered_covariance(g, C((1.0, 0.5)), 2, 3, 0.0))):\n"
            "    try:\n"
            "        f(g)\n"
            "    except ValueError as err:\n"
            "        print(err)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout == "matrix contains non-finite entries\n" * 3
        assert out.stderr == ""

    def test_gram_near_the_largest_float(self):
        # |S| and the off-diagonal norm are finite, but T G Tᵀ v overflows
        # unless v is pre-scaled before the Gram product: Tᵀ v sums v's two
        # entries into the middle one, where G holds -b.
        b, c = 1.5e308, 1e307
        g = np.array([[b, c, 0.0], [c, -b, c], [0.0, c, b]])
        theta = CoefficientSequence((1.0, 1.0))
        s = np.array([[2 * c, 2 * c - b], [2 * c - b, 2 * c]])
        zeroed = g - np.diag(np.diag(g))
        for got, ref in (
            (spectral_norm(centered_covariance(g, theta, 2, 1, 0.0)), s),
            (offdiag_deviation(g), zeroed),
        ):
            want = np.abs(np.linalg.eigvalsh(ref)).max()
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-10)


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

    def test_matches_dense_oracle_20x20(self, monkeypatch):
        monkeypatch.setattr(spectral, "_ARPACK_TOL", 1e-10)
        rng = np.random.default_rng(6)
        a = rng.normal(size=(20, 20))
        a = 0.5 * (a + a.T)
        ref = np.abs(np.linalg.eigvalsh(a)).max()
        assert spectral_norm(a) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("dim", [4, spectral._ARPACK_NCV, spectral._ARPACK_NCV + 2, 50])
    def test_clustered_extremes(self, dim):
        # Nearly degenerate top pair; the solver must still resolve the norm,
        # also where eigsh clips ncv to the dimension.
        d = np.concatenate([[1.0, 1.0 - 1e-6], np.linspace(0.0, 0.9, dim - 2)])
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = (q * d) @ q.T
        a = 0.5 * (a + a.T)
        ref = np.abs(np.linalg.eigvalsh(a)).max()
        assert abs(spectral_norm(a) - ref) <= 1e-8 * ref

    @pytest.mark.parametrize("dim", range(2, spectral._ARPACK_NCV + 3))
    def test_matches_dense_oracle_where_ncv_meets_the_dimension(self, dim):
        # eigsh clips ncv to the dimension: at and below ncv the Lanczos
        # basis spans the whole space, above it ARPACK restarts.
        rng = np.random.default_rng(100 + dim)
        a = rng.normal(size=(dim, dim))
        a = 0.5 * (a + a.T)
        ref = np.abs(np.linalg.eigvalsh(a)).max()
        assert abs(spectral_norm(a) - ref) <= 1e-8 * ref
        x = rng.standard_t(1.5, size=(dim, 3 * dim))
        g = x @ x.T
        zeroed = g - np.diag(np.diag(g))
        ref = np.abs(np.linalg.eigvalsh(zeroed)).max()
        assert abs(offdiag_deviation(g) - ref) <= 1e-8 * ref

    def test_start_vector_is_cached_and_read_only(self):
        v0 = spectral._start_vector(7)
        assert spectral._start_vector(7) is v0
        assert not v0.flags.writeable
        assert np.array_equal(v0, spectral.index_uniforms(0, np.arange(7), tag=spectral._SPECTRAL_TAG) - 0.5)

    def test_rejects_asymmetric(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            spectral_norm(a)

    @pytest.mark.parametrize("p", [6, 37, 120])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_rounding_asymmetry_solved_from_one_triangle(self, order, p):
        # S summed over a two-lag window is asymmetric in its last bits; past
        # the symmetry gate the norm is, to the bit, that of the exactly
        # symmetric matrix of the triangle the products read (the lower one
        # of an F-ordered array, the upper one of a C-ordered), and S is not
        # written.
        theta = CoefficientSequence((1.0, 0.5))
        rng = np.random.default_rng(p)
        x = rng.normal(size=(p + 1, 2 * p))
        s = np.array(window_sum(theta, window_sum(theta, x @ x.T, p).T, p), order=order)
        before = s.copy()
        assert not np.array_equal(s, s.T)
        half = np.tril(s) if order == "F" else np.triu(s)
        symmetric = half + half.T - np.diag(np.diag(s))
        assert spectral_norm(s) == spectral_norm(symmetric)
        assert np.array_equal(s, before)

    def test_rejects_asymmetry_beyond_rounding(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(7, 11))
        s = centered_covariance(x @ x.T, CoefficientSequence((1.0, 0.5)), 6, 11, 0.5) @ np.eye(6)
        s[0, 1] += 1e-9 * np.abs(s).max()
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            spectral_norm(s)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="square"):
            spectral_norm(np.zeros((2, 3)))
        a = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="finite"):
            spectral_norm(a)
        # One non-finite entry among finite ones, wherever the largest
        # finite entry sits and whatever its sign.
        for bad in (np.nan, np.inf, -np.inf):
            for big in (5.0, -5.0):
                a = np.array([[1.0, big, 0.0], [big, 2.0, 0.5], [0.0, 0.5, bad]])
                with pytest.raises(ValueError, match="matrix contains non-finite entries"):
                    spectral_norm(a)

    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(spectral, "_ARPACK_TOL", 1e-14)
        monkeypatch.setattr(spectral, "_MAX_RESTARTS", 1)
        rng = np.random.default_rng(9)
        a = rng.normal(size=(40, 40))
        a = 0.5 * (a + a.T)
        with pytest.raises(SpectralNormError, match="did not converge within 1 restarts"):
            spectral_norm(a)

    def test_power_of_two_homogeneity_exact(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(15, 15))
        a = 0.5 * (a + a.T)
        assert spectral_norm(4.0 * a) == 4.0 * spectral_norm(a)

    def test_norm_bounded_by_inf_norm(self):
        theta = CoefficientSequence((1.0, 0.5))
        rng = np.random.default_rng(11)
        x = rng.pareto(0.75, size=(13, 36)) * rng.choice([-1.0, 1.0], size=(13, 36))
        op = centered_covariance(x @ x.T, theta, 12, 36, 3.0)
        s = op @ np.eye(12)
        assert spectral_norm(op) <= np.abs(s).sum(axis=1).max() * (1.0 + 1e-8)

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

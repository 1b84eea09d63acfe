"""Tests for coefficient windows and the two-stage linear filter."""

import itertools
import re

import numpy as np
import pytest

from heavyspec.linear_filter import (
    CoefficientSequence,
    FilterSpec,
    build_row_process,
    build_xhat,
    build_xhat_direct,
    window_sum,
)
from heavyspec.rv_noise import NoiseCoverageError, NoisePanel, TailModel, sample_noise


def _int_panel(rows, cols, row_offset=0, col_offset=0, seed=3):
    rng = np.random.default_rng(seed)
    vals = rng.integers(-5, 6, size=(rows, cols)).astype(float)
    return NoisePanel(values=vals, row_offset=row_offset, col_offset=col_offset)


class TestCoefficientSequence:
    def test_rejects_empty_and_all_zero(self):
        with pytest.raises(ValueError, match="empty"):
            CoefficientSequence(())
        with pytest.raises(ValueError, match="nonzero"):
            CoefficientSequence((0.0, 0.0))

    def test_cached_sums(self):
        seq = CoefficientSequence((1.0, -0.5, 0.25), min_lag=-1)
        assert seq.abs_sum == 1.75
        assert seq.sq_sum == 1.3125
        assert seq.max_abs == 1.0
        assert seq.max_lag == 1
        assert list(seq.lags) == [-1, 0, 1]

    def test_json_roundtrip(self):
        d = {"min_lag": -2, "values": [1.0, 0.5]}
        assert CoefficientSequence.from_dict(d) == CoefficientSequence((1.0, 0.5), min_lag=-2)
        assert CoefficientSequence.from_dict({"values": [1.0]}).min_lag == 0

    def test_filter_spec_json_roundtrip(self):
        d = {"c": {"values": [1.0, 0.5]}, "theta": {"min_lag": 1, "values": [0.3]}}
        assert FilterSpec.from_dict(d) == FilterSpec(
            c=CoefficientSequence((1.0, 0.5)),
            theta=CoefficientSequence((0.3,), min_lag=1),
        )

    @pytest.mark.parametrize(
        "d, message",
        [
            ({"c": {"values": [1.0]}}, "config lacks required key 'theta'"),
            (
                {"c": {"values": [1.0], "minlag": 0}, "theta": {"values": [1.0]}},
                "unknown config keys ['c.minlag']; known: ['c.min_lag', 'c.values']",
            ),
        ],
        ids=["missing", "unknown"],
    )
    def test_filter_spec_from_dict_names_keys_from_itself(self, d, message):
        # Read alone, the filter is the top: no leading dot, no "filter." prefix.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FilterSpec.from_dict(d)


class TestWindowSum:
    # A two-sided window: lags -2 through 1.
    W = CoefficientSequence((0.3, -1.25, 0.7, 0.5), min_lag=-2)

    @staticmethod
    def _lag_loop(w, a, size):
        # out[i] = sum_k w_k a[w.max_lag - k + i], one output row at a time,
        # from 0.0 in ascending lag.
        out = np.zeros((size, *a.shape[1:]))
        for i in range(size):
            for k, v in zip(w.lags, w.values):
                out[i] += v * a[w.max_lag - k + i]
        return out

    def test_hand_computation(self):
        # Lags -1 and 0: out[i] = 1 * a[i + 1] + 2 * a[i].
        a = np.arange(5.0)
        out = window_sum(CoefficientSequence((1.0, 2.0), min_lag=-1), a, 4)
        assert np.array_equal(out, a[1:] + 2.0 * a[:-1])

    def test_rows_equal_the_lag_loop_bit_for_bit(self):
        a = sample_noise(TailModel("pareto_skewed", alpha=1.2, q=0.3), (0, 12), (0, 7), seed=5).values
        expect = self._lag_loop(self.W, a, 9)
        out, scratch = np.full((9, 7), np.nan), np.full((9, 7), np.nan)
        assert window_sum(self.W, a, 9, out, scratch) is out
        assert np.array_equal(out, expect)
        assert np.array_equal(window_sum(self.W, a, 9), expect)

    def test_transposed_views_equal_the_lag_loop_bit_for_bit(self):
        # Through transposed views the window runs along the last axis, into
        # the columns of a C-ordered out.
        a = sample_noise(TailModel("pareto_symmetric", alpha=1.5), (0, 6), (0, 13), seed=9).values
        expect = self._lag_loop(self.W, a.T, 10).T
        out, scratch = np.full((6, 10), np.nan), np.full((6, 10), np.nan)
        window_sum(self.W, a.T, 10, out.T, scratch.T)
        assert np.array_equal(out, expect)
        # A window over a 1-d array, the windowed diagonal's case.
        assert np.array_equal(window_sum(self.W, a[0], 10), self._lag_loop(self.W, a[0], 10))

    # Signed zeros, infinities, NaN, subnormals and finite values whose
    # products and sums overflow.
    SPECIAL = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1.5, -3.25, 1e308, -1e308)

    @staticmethod
    def _first_term_first(w, a, size):
        # The first lag's product, then each later lag's added to it: the
        # order window_sum keeps for any first coefficient but 1.0.
        lagged = [a[w.max_lag - k : w.max_lag - k + size] for k in w.lags]
        out = w.values[0] * lagged[0]
        for v, x in zip(w.values[1:], lagged[1:]):
            out = out + v * x
        return out

    @staticmethod
    def _assert_same_bits(got, expect):
        # IEEE 754 does not say which of two NaNs a sum returns, so NaNs
        # compare by place alone.
        nan = np.isnan(expect)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got.view(np.uint64)[~nan], expect.view(np.uint64)[~nan])

    @pytest.mark.parametrize("values", [(1.0,), (1.0, 0.5), (1.0, -0.75, 2.0), (1.0, 0.0, 1.0)])
    def test_unit_first_coefficient_keeps_the_bits(self, values):
        # Every combination of special entries in one window: the unit first
        # tap's sum has the bits of the product-first order, and the lag
        # loop's value.
        w = CoefficientSequence(values, min_lag=-1)
        a = np.array(list(itertools.product(self.SPECIAL, repeat=len(values)))).T.copy()
        with np.errstate(all="ignore"):
            got = window_sum(w, a, 1)
            self._assert_same_bits(got, self._first_term_first(w, a, 1))
            assert np.array_equal(got, self._lag_loop(w, a, 1), equal_nan=True)
            # Along the last axis through transposed views, into out and scratch.
            b = np.random.default_rng(len(values)).choice(np.array(self.SPECIAL), size=(5, 40))
            size = 40 - len(values) + 1
            out, scratch = np.full((5, size), np.nan), np.full((5, size), np.nan)
            window_sum(w, b.T, size, out.T, scratch.T)
            self._assert_same_bits(out, self._first_term_first(w, b.T, size).T)


class TestBuildRowProcess:
    @pytest.mark.parametrize("cols, missing", [((1, 12), "cols [0, 1)"), ((0, 11), "cols [11, 12)")])
    def test_refuses_a_panel_missing_a_column(self, cols, missing):
        # Lags -1 through 1 at n = 10 need columns 0 through 11.
        c = CoefficientSequence((1.0, 0.5, 0.25), min_lag=-1)
        panel = _int_panel(3, cols[1] - cols[0], col_offset=cols[0])
        with pytest.raises(NoiseCoverageError, match=re.escape(f"missing {missing}")):
            build_row_process(panel, c, (0, 3), 10)

    def test_identity(self):
        panel = _int_panel(3, 8, col_offset=0)
        out = build_row_process(panel, CoefficientSequence((1.0,)), (0, 3), 7)
        assert np.array_equal(out, panel.values[:, 1:8])

    def test_differencing_kills_constants(self):
        panel = NoisePanel(values=np.full((2, 6), 3.5), row_offset=0, col_offset=0)
        out = build_row_process(panel, CoefficientSequence((1.0, -1.0)), (0, 2), 5)
        assert np.array_equal(out, np.zeros((2, 5)))

    def test_hand_computation(self):
        panel = _int_panel(2, 4, col_offset=0, seed=21)
        out = build_row_process(panel, CoefficientSequence((1.0, 2.0)), (0, 2), 3)
        expect = panel.values[:, 1:4] + 2.0 * panel.values[:, 0:3]
        assert np.array_equal(out, expect)

    def test_shift_equivariance(self):
        # Relabelling the panel's rows by one moves the row process with them.
        c = CoefficientSequence((1.0, 0.5))
        model = TailModel("pareto_symmetric", alpha=1.5)
        panel = sample_noise(model, (-1, 9), (-1, 12), seed=6)
        shifted = NoisePanel(
            values=panel.values, row_offset=panel.row_offset + 1, col_offset=panel.col_offset
        )
        a = build_row_process(panel, c, (0, 6), 10)
        b = build_row_process(shifted, c, (1, 7), 10)
        assert np.array_equal(a, b)


class TestBuildXhat:
    def test_identity_filters(self):
        fs = FilterSpec(c=CoefficientSequence((1.0,)), theta=CoefficientSequence((1.0,)))
        panel = _int_panel(6, 8, row_offset=1, col_offset=1)
        out = build_xhat(panel, fs, 6, 8)
        assert np.array_equal(out, panel.values)

    def test_ma1_row_identity(self):
        # With c = (1), the filtered panel is X[i] + theta * X[i-1] where X is
        # the pure row process.
        theta = 0.5
        fs = FilterSpec(
            c=CoefficientSequence((1.0, 0.25)),
            theta=CoefficientSequence((1.0, theta)),
        )
        model = TailModel("pareto_symmetric", alpha=1.5)
        panel = sample_noise(model, (-1, 7), (0, 10), seed=2)
        xhat = build_xhat(panel, fs, 6, 9)
        x = build_row_process(panel, fs.c, (0, 7), 9)
        expect = x[1:] + theta * x[:-1]
        assert np.allclose(xhat, expect, rtol=1e-13, atol=0.0)

    def test_double_convolution_hand(self):
        panel = _int_panel(3, 3, row_offset=0, col_offset=0, seed=31)
        fs = FilterSpec(c=CoefficientSequence((1.0, 1.0)), theta=CoefficientSequence((1.0, 1.0)))
        out = build_xhat(panel, fs, 2, 2)
        z = panel.values
        expect = np.empty((2, 2))
        for i in (1, 2):
            for t in (1, 2):
                expect[i - 1, t - 1] = (
                    z[i, t] + z[i - 1, t] + z[i, t - 1] + z[i - 1, t - 1]
                )
        assert np.array_equal(out, expect)

    def test_two_stage_equals_direct(self):
        fs = FilterSpec(
            c=CoefficientSequence((1.0, -0.5, 0.2), min_lag=-1),
            theta=CoefficientSequence((0.7, 1.0, 0.3), min_lag=-1),
        )
        model = TailModel("pareto_symmetric", alpha=1.2)
        panel = sample_noise(model, (-2, 10), (-2, 14), seed=8)
        a = build_xhat(panel, fs, 7, 9)
        b = build_xhat_direct(panel, fs, 7, 9)
        scale = np.abs(a).max()
        assert np.abs(a - b).max() <= 1e-12 * scale

    def test_linearity_power_of_two_exact(self):
        fs = FilterSpec(c=CoefficientSequence((1.0, 0.5)), theta=CoefficientSequence((1.0, 0.5)))
        fs2 = FilterSpec(c=CoefficientSequence((2.0, 1.0)), theta=fs.theta)
        model = TailModel("pareto_symmetric", alpha=1.5)
        panel = sample_noise(model, (-1, 8), (-1, 12), seed=4)
        a = build_xhat(panel, fs, 6, 10)
        b = build_xhat(panel, fs2, 6, 10)
        assert np.array_equal(b, 2.0 * a)

    def test_linearity_general_scale(self):
        fs = FilterSpec(c=CoefficientSequence((1.0, 0.5)), theta=CoefficientSequence((1.0, 0.5)))
        fs3 = FilterSpec(c=CoefficientSequence((3.0, 1.5)), theta=fs.theta)
        model = TailModel("pareto_symmetric", alpha=1.5)
        panel = sample_noise(model, (-1, 8), (-1, 12), seed=4)
        a = build_xhat(panel, fs, 6, 10)
        b = build_xhat(panel, fs3, 6, 10)
        # Terms may cancel, so no bound relative to an entry holds.  The exact
        # b is 3 times the exact a, and each panel, two rounded two-term sums,
        # is within gamma_4 (4u to first order, u = 2**-53) of its exact value
        # relative to the sum of its terms' magnitudes; 3.0 * a rounds once
        # more.  So |b - 3a| <= (2 gamma_4 + u) * terms, about 9u * terms.
        terms = build_xhat(NoisePanel(np.abs(panel.values), -1, -1), fs3, 6, 10)
        bound = 10 * 2.0**-53 * terms
        assert np.all(np.abs(b - 3.0 * a) <= bound)
        off = FilterSpec(c=CoefficientSequence((3.0 * (1 + 1e-12), 1.5)), theta=fs.theta)
        assert not np.all(np.abs(build_xhat(panel, off, 6, 10) - 3.0 * a) <= bound)

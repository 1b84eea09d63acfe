"""The two-dimensional linear filter over finite coefficient windows.

The filtered panel is built in two stages: a moving average across time with
window ``c`` within each row, then a moving average across rows with window
``theta``.  ``window_sum`` applies every window in the package, here and in
``T G Tᵀ`` and the windowed diagonal, so each result is an exact finite sum
over the short window in one summation order: ascending lag, from the first
lag's term (the sum from 0.0, but for the sign of a sum of zeros).  Where
the first coefficient is exactly 1.0, the first two terms are added the
other way round, the second's product plus the first lag's values, which
gives the same bits with one pass fewer (but for which of two NaNs a sum of
them returns).
"""

from __future__ import annotations

import numpy as np

from ._config import CoefficientSequence, FilterSpec
from .rv_noise import NoisePanel

__all__ = [
    "CoefficientSequence",
    "FilterSpec",
    "build_row_process",
    "build_xhat",
    "build_xhat_direct",
    "window_sum",
]


def window_sum(
    w: CoefficientSequence, a: np.ndarray, size: int, out: np.ndarray | None = None, scratch: np.ndarray | None = None
) -> np.ndarray:
    """out[i] = sum_k w_k a[w.max_lag - k + i], i < size, along a's first axis:
    the first lag's term, then each later one added from ``scratch``.  ``out``
    and ``scratch`` have shape (size,) + a.shape[1:] and are fresh where None;
    pass transposed views of all three arrays to sum along the last axis.

    A first coefficient of exactly 1.0 with a second lag skips its product:
    the second lag's term goes into ``out`` and the first lag's values are
    added to it, which is the same sum, since 1.0 x is x and a sum of two
    terms does not depend on their order."""
    lagged = [a[w.max_lag - k : w.max_lag - k + size] for k in w.lags]
    terms = list(zip(w.values, lagged))
    if w.values[0] == 1.0 and len(terms) > 1:
        out = np.multiply(*terms[1], out=out)
        out += lagged[0]
        rest = terms[2:]
    else:
        out = np.multiply(*terms[0], out=out)
        rest = terms[1:]
    for v, x in rest:
        out += np.multiply(v, x, out=scratch)
    return out


def build_row_process(
    noise: NoisePanel,
    c: CoefficientSequence,
    row_range: tuple[int, int],
    n: int,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Time-direction moving average: out[i, t] = sum_j c_j Z[i, t-j], t = 1..n.

    ``out`` receives the rows and ``scratch`` holds each lag's term; both
    have the result's shape and are fresh arrays where they are None.
    """
    if out is None:
        out = np.empty((row_range[1] - row_range[0], n))
    z = noise.block(row_range, (1 - c.max_lag, n - c.min_lag + 1))
    window_sum(c, z.T, n, out.T, None if scratch is None else scratch.T)
    return out


def build_xhat(noise: NoisePanel, spec: FilterSpec, p: int, n: int) -> np.ndarray:
    """The two-stage filtered p x n panel for rows 1..p and times 1..n.

    Stage one is ``build_row_process`` over rows 1 - theta.max_lag through
    p - theta.min_lag, stage two applies the row window theta across them;
    the result equals the direct double sum.
    """
    theta = spec.theta
    x = build_row_process(noise, spec.c, (1 - theta.max_lag, p - theta.min_lag + 1), n)
    return window_sum(theta, x, p)


def build_xhat_direct(noise: NoisePanel, spec: FilterSpec, p: int, n: int) -> np.ndarray:
    """Reference double-sum construction of the filtered panel (oracle path)."""
    out = np.zeros((p, n))
    for j, cj in zip(spec.c.lags, spec.c.values):
        for k, tk in zip(spec.theta.lags, spec.theta.values):
            out += cj * tk * noise.block((1 - k, p + 1 - k), (1 - j, n + 1 - j))
    return out

"""The two-dimensional linear filter over finite coefficient windows.

The filtered panel is built in two stages: a moving average across time with
window ``c`` within each row, then a moving average across rows with window
``theta``.  Convolutions are computed directly over the (short) coefficient
windows so results are exact finite sums with a deterministic summation order.
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
]


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
    i0, i1 = row_range
    if out is None:
        out = np.empty((i1 - i0, n))
    if scratch is None:
        scratch = np.empty_like(out)
    out.fill(0.0)
    for j, w in zip(c.lags, c.values):
        out += np.multiply(w, noise.block((i0, i1), (1 - j, n + 1 - j)), out=scratch)
    return out


def build_xhat(noise: NoisePanel, spec: FilterSpec, p: int, n: int) -> np.ndarray:
    """The two-stage filtered p x n panel for rows 1..p and times 1..n.

    Stage one is ``build_row_process`` over rows 1 - theta.max_lag through
    p - theta.min_lag, stage two applies the row window theta across them;
    the result equals the direct double sum.
    """
    theta = spec.theta
    k_hi = theta.max_lag
    x = build_row_process(noise, spec.c, (1 - k_hi, p - theta.min_lag + 1), n)
    out = np.zeros((p, n))
    for k, w in zip(theta.lags, theta.values):
        out += w * x[k_hi - k : k_hi - k + p]
    return out


def build_xhat_direct(noise: NoisePanel, spec: FilterSpec, p: int, n: int) -> np.ndarray:
    """Reference double-sum construction of the filtered panel (oracle path)."""
    out = np.zeros((p, n))
    for j, cj in zip(spec.c.lags, spec.c.values):
        for k, tk in zip(spec.theta.lags, spec.theta.values):
            out += cj * tk * noise.block((1 - k, p + 1 - k), (1 - j, n + 1 - j))
    return out

"""Finite-window coefficient sequences and the two-dimensional linear filter.

The filtered panel is built in two stages: a moving average across rows with
window ``theta``, then a moving average across time with window ``c``.
Convolutions are computed directly over the (short) coefficient windows so
results are exact finite sums with a deterministic summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._config import config_float, config_int, config_known_keys, config_list, config_section
from .rv_noise import NoisePanel

__all__ = [
    "CoefficientSequence",
    "FilterSpec",
    "build_row_process",
    "build_xhat",
    "build_xhat_direct",
    "build_xi",
]


@dataclass(frozen=True)
class CoefficientSequence:
    """A finite real coefficient window; ``values[v]`` sits at lag ``min_lag + v``."""

    values: tuple[float, ...]
    min_lag: int = 0

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("coefficient window is empty")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("coefficient window contains non-finite values")
        if all(v == 0.0 for v in vals):
            raise ValueError("coefficient window must contain a nonzero value")

    @property
    def max_lag(self) -> int:
        return self.min_lag + len(self.values) - 1

    @property
    def lags(self) -> range:
        return range(self.min_lag, self.max_lag + 1)

    @property
    def abs_sum(self) -> float:
        return float(sum(abs(v) for v in self.values))

    @property
    def sq_sum(self) -> float:
        return float(sum(v * v for v in self.values))

    @property
    def max_abs(self) -> float:
        return float(max(abs(v) for v in self.values))

    @classmethod
    def from_dict(cls, d: dict) -> "CoefficientSequence":
        config_known_keys(d, ("min_lag", "values"))
        min_lag = config_int(d.get("min_lag", 0), "min_lag")
        values = tuple(config_float(v, "coefficient value") for v in config_list(d, "values"))
        return cls(values=values, min_lag=min_lag)


@dataclass(frozen=True)
class FilterSpec:
    """The pair of windows for the two-dimensional filter."""

    c: CoefficientSequence
    theta: CoefficientSequence

    @classmethod
    def from_dict(cls, d: dict) -> "FilterSpec":
        # Keys other than c and theta are ignored, unlike in every other
        # section: perfbench's configs still carry a filter.delta.
        return cls(
            c=config_section(d, "c", CoefficientSequence.from_dict),
            theta=config_section(d, "theta", CoefficientSequence.from_dict),
        )


def build_xi(
    noise: NoisePanel,
    theta: CoefficientSequence,
    row_range: tuple[int, int],
    col_range: tuple[int, int],
) -> np.ndarray:
    """Row-direction moving average: out[i, t] = sum_k theta_k Z[i-k, t]."""
    i0, i1 = row_range
    c0, c1 = col_range
    out = np.zeros((i1 - i0, c1 - c0))
    for k, w in zip(theta.lags, theta.values):
        out += w * noise.block((i0 - k, i1 - k), (c0, c1))
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

    Stage one builds the cross-row average xi on the widened time range, stage
    two applies the time window c; the result equals the direct double sum.
    """
    cj_min, cj_max = spec.c.min_lag, spec.c.max_lag
    xi = build_xi(noise, spec.theta, (1, p + 1), (1 - cj_max, n - cj_min + 1))
    out = np.zeros((p, n))
    for j, w in zip(spec.c.lags, spec.c.values):
        start = cj_max - j
        out += w * xi[:, start : start + n]
    return out


def build_xhat_direct(noise: NoisePanel, spec: FilterSpec, p: int, n: int) -> np.ndarray:
    """Reference double-sum construction of the filtered panel (oracle path)."""
    out = np.zeros((p, n))
    for j, cj in zip(spec.c.lags, spec.c.values):
        for k, tk in zip(spec.theta.lags, spec.theta.values):
            out += cj * tk * noise.block((1 - k, p + 1 - k), (1 - j, n + 1 - j))
    return out

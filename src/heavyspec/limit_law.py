"""Closed forms and samplers for the limiting laws of the scaled spectral norm.

The two envelope distributions are Fréchet-type laws driven by a single unit
exponential; the order-statistic limit is the point process of the Poisson
arrival times, weighted by the row window and the squared time window, whose
k largest points are a closed form of the first k arrivals.  One call draws
the limit for a whole array of seeds in a single broadcast pass, with the bits
each seed gives alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linear_filter import FilterSpec
from .rv_noise import index_uniforms

__all__ = [
    "BoundConstants",
    "bound_cdf_lower",
    "bound_cdf_upper",
    "bound_constants",
    "frechet_cdf",
    "frechet_quantile",
    "limit_order_statistics",
]

_GAMMA_TAG = 0x47


@dataclass(frozen=True)
class BoundConstants:
    """Scale constants of the lower and upper envelope laws."""

    lower_scale: float
    upper_scale: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.lower_scale <= self.upper_scale:
            raise ValueError(
                f"need 0 < lower_scale <= upper_scale, got {self.lower_scale}, {self.upper_scale}"
            )
        if not 0.0 < self.alpha < 4.0:
            raise ValueError(f"alpha must lie in (0, 4), got {self.alpha}")


def bound_constants(spec: FilterSpec, alpha: float) -> BoundConstants:
    """lower = max theta_k^2 * sum c_j^2; upper = max|theta| * sum|theta| * sum c_j^2."""
    sum_c2 = spec.c.sq_sum
    lower = spec.theta.max_abs ** 2 * sum_c2
    upper = spec.theta.max_abs * spec.theta.abs_sum * sum_c2
    return BoundConstants(lower_scale=lower, upper_scale=upper, alpha=alpha)


def frechet_cdf(x, scale: float, alpha: float):
    """P(Gamma^(-2/alpha) * scale <= x) = exp(-(x/scale)^(-alpha/2))."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = np.exp(-((x[pos] / scale) ** (-alpha / 2.0)))
    return out if out.ndim else float(out)


def frechet_quantile(u, scale: float, alpha: float):
    """Inverse of frechet_cdf at level u in (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    out = scale * (-np.log(u)) ** (-2.0 / alpha)
    return out if out.ndim else float(out)


def bound_cdf_lower(x, b: BoundConstants):
    """The smaller envelope CDF (built from the upper scale constant)."""
    return frechet_cdf(x, b.upper_scale, b.alpha)


def bound_cdf_upper(x, b: BoundConstants):
    """The larger envelope CDF (built from the lower scale constant)."""
    return frechet_cdf(x, b.lower_scale, b.alpha)


def _exp_increments(seed, k: int) -> np.ndarray:
    """Unit exponential gaps between the first k Poisson arrivals, along the
    last axis, for an int seed or each of a uint64 seed array;
    counter-based, keyed by (seed, index)."""
    u = index_uniforms(seed, np.arange(k), tag=_GAMMA_TAG)
    return -np.log(u)


def limit_order_statistics(spec: FilterSpec, alpha: float, k: int, seed) -> np.ndarray:
    """Draws of the k largest points of the limit point process, in
    decreasing order along the last axis: one draw per seed.

    ``seed`` is an int or a uint64 array of seeds, and the result has shape
    ``np.shape(seed) + (k,)``; each seed's row is the draw it gives alone.

    The points are Gamma_i^(-2/alpha) * theta_l * sum_j c_j^2 over the arrival
    indices i and window lags l.  Gamma_i^(-2/alpha) falls as i grows, so a
    point of an arrival past the k-th at a positive theta_l lies below the k
    points of arrivals 1..k at the same lag, and a point at theta_l <= 0 lies
    below every point at the largest, positive weight.  The k largest points
    therefore come from the first k arrivals, and this draw of them is exact.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    theta = np.asarray(spec.theta.values, dtype=float)
    if float(theta.max()) <= 0.0:
        raise ValueError("order-statistic limit needs at least one positive theta weight")
    gammas = np.cumsum(_exp_increments(seed, k), axis=-1)
    points = (gammas ** (-2.0 / alpha))[..., None] * theta * spec.c.sq_sum
    points = np.sort(points.reshape(np.shape(seed) + (-1,)), axis=-1)
    return points[..., ::-1][..., :k].copy()

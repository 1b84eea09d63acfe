"""Closed forms and samplers for the limiting laws of the scaled spectral norm.

The theorem bounds the law F of ||S|| / a^2 between two Fréchet laws, each
``frechet_cdf`` at one of the filter's two ``envelope_scales``: the law at
``upper_scale`` is the lower envelope CDF and the law at ``lower_scale`` the
upper one, ``frechet_cdf(x, upper_scale) <= F(x) <= frechet_cdf(x,
lower_scale)``.  With one nonzero theta weight the scales are equal and the
envelope is the exact law.  Both laws are driven by a single unit
exponential; the order-statistic limit is the point process of the Poisson
arrival times, weighted by the row window and the squared time window, whose
k largest points are a closed form of the first k arrivals.  One call draws
the limit for a whole array of seeds in a single broadcast pass, with the
bits each seed gives alone.
"""

from __future__ import annotations

import numpy as np

from ._config import FilterSpec
from .rv_noise import index_uniforms

__all__ = ["envelope_scales", "frechet_cdf", "frechet_quantile", "limit_order_statistics"]

_GAMMA_TAG = 0x47


def envelope_scales(spec: FilterSpec) -> tuple[float, float]:
    """The Fréchet scales of the envelope, (lower_scale, upper_scale) =
    (max theta_k^2 * sum c_j^2, max|theta| * sum|theta| * sum c_j^2), which
    ``batch_grid``, by the same arithmetic, requires to be normal floats."""
    sum_c2 = spec.c.sq_sum
    return spec.theta.max_abs ** 2 * sum_c2, spec.theta.max_abs * spec.theta.abs_sum * sum_c2


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

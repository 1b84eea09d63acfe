"""Finite-window coefficient sequences and the two-dimensional linear filter.

The filtered panel is built in two stages: a moving average across rows with
window ``theta``, then a moving average across time with window ``c``.
Convolutions are computed directly over the (short) coefficient windows so
results are exact finite sums with a deterministic summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rv_noise import NoisePanel

__all__ = [
    "CoefficientFamily",
    "CoefficientSequence",
    "FilterSpec",
    "build_row_process",
    "build_xhat",
    "build_xhat_direct",
    "build_xi",
    "delta_norm",
    "geometric_family",
    "polynomial_family",
    "truncate_family",
]


@dataclass(frozen=True)
class CoefficientSequence:
    """A finite real coefficient window; ``values[v]`` sits at lag ``min_lag + v``."""

    values: tuple[float, ...]
    min_lag: int = 0
    name: str = ""

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

    def to_dict(self) -> dict:
        return {"min_lag": self.min_lag, "values": list(self.values)}

    @classmethod
    def from_dict(cls, d: dict) -> "CoefficientSequence":
        return cls(values=tuple(float(v) for v in d["values"]), min_lag=int(d.get("min_lag", 0)))


@dataclass(frozen=True)
class FilterSpec:
    """The pair of windows for the two-dimensional filter plus its delta exponent."""

    c: CoefficientSequence
    theta: CoefficientSequence
    delta: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")

    def to_dict(self) -> dict:
        return {"c": self.c.to_dict(), "theta": self.theta.to_dict(), "delta": self.delta}

    @classmethod
    def from_dict(cls, d: dict) -> "FilterSpec":
        return cls(
            c=CoefficientSequence.from_dict(d["c"]),
            theta=CoefficientSequence.from_dict(d["theta"]),
            delta=float(d.get("delta", 0.9)),
        )


def delta_norm(seq: CoefficientSequence, delta: float) -> float:
    """Sum of |v|^delta over the window."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return float(sum(abs(v) ** delta for v in seq.values))


@dataclass(frozen=True)
class CoefficientFamily:
    """An infinite coefficient family with a computable absolute tail bound.

    ``coef(k)`` gives the coefficient at lag k; ``tail(m)`` bounds
    sum_{|k| > m} |coef(k)| from above.
    """

    coef: Callable[[int], float]
    tail: Callable[[int], float]
    name: str = ""


def geometric_family(ratio: float, name: str = "geometric") -> CoefficientFamily:
    """One-sided family ratio^k for k >= 0; requires |ratio| < 1."""
    if not 0.0 < abs(ratio) < 1.0:
        raise ValueError(f"geometric family needs 0 < |ratio| < 1, got {ratio}")
    r = abs(ratio)

    def coef(k: int) -> float:
        return ratio**k if k >= 0 else 0.0

    def tail(m: int) -> float:
        # Exact: sum_{k > m} r^k = r^(m+1) / (1 - r).
        return r ** (m + 1) / (1.0 - r)

    return CoefficientFamily(coef=coef, tail=tail, name=name)


def polynomial_family(power: float, name: str = "polynomial") -> CoefficientFamily:
    """One-sided family (1 + k)^(-power) for k >= 0; requires power > 1."""
    if not power > 1.0:
        raise ValueError(f"polynomial family needs power > 1, got {power}")

    def coef(k: int) -> float:
        return (1.0 + k) ** (-power) if k >= 0 else 0.0

    def tail(m: int) -> float:
        # Integral test: sum_{k > m} (1+k)^-s <= int_m^inf (1+x)^-s dx.
        return (1.0 + m) ** (1.0 - power) / (power - 1.0)

    return CoefficientFamily(coef=coef, tail=tail, name=name)


_TRUNCATE_CAP = 10**6


def truncate_family(family: CoefficientFamily, epsilon: float = 1e-6) -> CoefficientSequence:
    """Smallest symmetric window whose residual absolute tail sum is < epsilon.

    Zero coefficients at the window edges are trimmed, so one-sided families
    come back one-sided and a single spike is returned unchanged.  The bound
    on the dropped absolute mass is recorded in the sequence name so callers
    can keep it below whatever resolution their scaling makes visible.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    m = 0
    while family.tail(m) >= epsilon:
        m += 1
        if m > _TRUNCATE_CAP:
            raise ValueError(f"family {family.name!r} tail does not fall below {epsilon}")
    lags = list(range(-m, m + 1))
    values = [family.coef(k) for k in lags]
    lo = 0
    hi = len(values)
    while lo < hi - 1 and values[lo] == 0.0:
        lo += 1
    while hi > lo + 1 and values[hi - 1] == 0.0:
        hi -= 1
    label = f"{family.name}(dropped<{family.tail(m):.3g})" if family.name else ""
    return CoefficientSequence(tuple(values[lo:hi]), min_lag=lags[lo], name=label)


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
) -> np.ndarray:
    """Time-direction moving average: out[i, t] = sum_j c_j Z[i, t-j], t = 1..n."""
    i0, i1 = row_range
    out = np.zeros((i1 - i0, n))
    for j, w in zip(c.lags, c.values):
        out += w * noise.block((i0, i1), (1 - j, n + 1 - j))
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

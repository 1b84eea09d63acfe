"""Regularly varying noise: samplers, tail functionals and norming constants.

Sampling is counter-based: every draw is a pure function of the seed and the
logical (row, column) index, so panels generated over different index
rectangles agree wherever they overlap, and disjoint rectangles can be filled
in parallel without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy import stats

__all__ = [
    "FAMILIES",
    "NoiseCoverageError",
    "NoisePanel",
    "TailModel",
    "abs_survival",
    "derive_key",
    "grid_uniforms",
    "index_uniforms",
    "mean_value",
    "norming_constant",
    "sample_noise",
    "second_moment",
    "truncated_second_moment",
]

PARETO_SYMMETRIC = "pareto_symmetric"
PARETO_POSITIVE = "pareto_positive"
PARETO_SKEWED = "pareto_skewed"
STUDENT_T = "student_t"

FAMILIES = (PARETO_SYMMETRIC, PARETO_POSITIVE, PARETO_SKEWED, STUDENT_T)

_PARETO_FAMILIES = frozenset({PARETO_SYMMETRIC, PARETO_POSITIVE, PARETO_SKEWED})


@dataclass(frozen=True)
class TailModel:
    """A regularly varying noise distribution with tail index ``alpha``.

    ``q`` is the right-tail balance P(Z > x)/P(|Z| > x) in the limit; it is
    pinned to 1/2 for the symmetric families, 1 for the positive Pareto, and
    free in [0, 1] for the skewed Pareto.  ``scale`` is the minimum support
    point of |Z| for the Pareto families and the scale factor for student_t.
    """

    family: str
    alpha: float
    q: float = 0.5
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not 0.0 < self.alpha < 4.0:
            raise ValueError(f"alpha must lie in (0, 4), got {self.alpha}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if self.family in (PARETO_SYMMETRIC, STUDENT_T) and self.q != 0.5:
            raise ValueError(f"{self.family} requires q = 1/2, got {self.q}")
        if self.family == PARETO_POSITIVE and self.q != 1.0:
            raise ValueError(f"{self.family} requires q = 1, got {self.q}")

    @property
    def is_pareto(self) -> bool:
        return self.family in _PARETO_FAMILIES

    @classmethod
    def from_dict(cls, d: dict) -> "TailModel":
        return cls(
            family=d["family"],
            alpha=float(d["alpha"]),
            q=float(d.get("q", 0.5)),
            scale=float(d.get("scale", 1.0)),
        )


class NoiseCoverageError(ValueError):
    """Requested logical indices fall outside the sampled panel."""


@dataclass(frozen=True, eq=False)
class NoisePanel:
    """A 2-indexed block of iid noise with explicit logical offsets.

    Entry values[a, b] carries logical index (row_offset + a, col_offset + b).
    Out-of-range logical access raises; it is never silently zero.
    """

    values: np.ndarray
    row_offset: int
    col_offset: int

    @property
    def row_range(self) -> tuple[int, int]:
        return (self.row_offset, self.row_offset + self.values.shape[0])

    @property
    def col_range(self) -> tuple[int, int]:
        return (self.col_offset, self.col_offset + self.values.shape[1])

    def block(self, row_range: tuple[int, int], col_range: tuple[int, int]) -> np.ndarray:
        """View of the logical rectangle ``row_range`` x ``col_range`` (half-open)."""
        r0, r1 = row_range
        c0, c1 = col_range
        if r1 <= r0 or c1 <= c0:
            raise ValueError(f"empty block request rows={row_range} cols={col_range}")
        missing = []
        pr0, pr1 = self.row_range
        pc0, pc1 = self.col_range
        if r0 < pr0:
            missing.append(f"rows [{r0}, {min(r1, pr0)})")
        if r1 > pr1:
            missing.append(f"rows [{max(r0, pr1)}, {r1})")
        if c0 < pc0:
            missing.append(f"cols [{c0}, {min(c1, pc0)})")
        if c1 > pc1:
            missing.append(f"cols [{max(c0, pc1)}, {c1})")
        if missing:
            raise NoiseCoverageError(
                f"noise panel covers rows [{pr0}, {pr1}) x cols [{pc0}, {pc1}); "
                f"missing {', '.join(missing)}"
            )
        return self.values[r0 - pr0 : r1 - pr0, c0 - pc0 : c1 - pc0]


# ---------------------------------------------------------------------------
# Counter-based uniform generation (splitmix64 finalizer chain).

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_LANE_SALT = np.uint64(0xD6E8FEB86659FD93)
_TAG_SALT = np.uint64(0x2545F4914F6CDD1D)

_U64_MASK = (1 << 64) - 1


def _finalize(x: np.ndarray) -> np.ndarray:
    # splitmix64 output function; bijective on uint64 with full avalanche.
    with np.errstate(over="ignore"):
        x = x + _GOLDEN
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


def _encode(idx) -> np.ndarray:
    # Two's-complement encoding keeps negative logical indices injective.
    return np.asarray(idx, dtype=np.int64).astype(np.uint64)


def _stream_head(seed: int, tag: int) -> np.uint64:
    head = _finalize(np.uint64(seed & _U64_MASK))
    if tag:
        with np.errstate(over="ignore"):
            head = _finalize(head ^ (np.uint64(tag) * _TAG_SALT))
    return head


def _to_unit(h: np.ndarray) -> np.ndarray:
    # Strictly inside (0, 1) so inverse-CDF transforms never hit the endpoints.
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _lane(h: np.ndarray, lane: int) -> np.ndarray:
    if lane == 0:
        return h
    with np.errstate(over="ignore"):
        return _finalize(h ^ (np.uint64(lane) * _LANE_SALT))


def index_uniforms(seed: int, idx, tag: int = 0) -> np.ndarray:
    """Uniform(0,1) keyed by (seed, tag, index), one value per index."""
    return _to_unit(_finalize(_stream_head(seed, tag) ^ _encode(idx)))


def derive_key(seed: int, *indices: int) -> int:
    """Chain-hash integer key derivation; distinct index tuples give
    independent streams (collisions only at the 2^-64 level)."""
    h = _finalize(np.uint64(seed & _U64_MASK))
    for ix in indices:
        h = _finalize(h ^ _encode(ix))
    return int(h)


def grid_uniforms(seed: int, rows, cols, lane: int = 0) -> np.ndarray:
    """Uniform(0,1) on the outer grid rows x cols, keyed by (seed, row, col, lane)."""
    hr = _finalize(_stream_head(seed, 0) ^ _encode(rows))
    h = _finalize(hr[:, None] ^ _encode(cols)[None, :])
    return _to_unit(_lane(h, lane))


# ---------------------------------------------------------------------------
# Sampling and analytic tail functionals.


def sample_noise(
    model: TailModel,
    row_range: tuple[int, int],
    col_range: tuple[int, int],
    seed: int,
) -> NoisePanel:
    """Fill the logical rectangle with iid draws from ``model``.

    Entry (i, t) depends only on (seed, i, t): enlarging the rectangle
    extends the panel without reshuffling the overlap.
    """
    r0, r1 = row_range
    c0, c1 = col_range
    if r1 <= r0 or c1 <= c0:
        raise ValueError(f"ranges must be nonempty, got rows={row_range} cols={col_range}")
    rows = np.arange(r0, r1, dtype=np.int64)
    cols = np.arange(c0, c1, dtype=np.int64)
    u = grid_uniforms(seed, rows, cols, lane=0)
    if model.family == STUDENT_T:
        values = model.scale * stats.t.ppf(u, df=model.alpha)
    else:
        magnitude = model.scale * u ** (-1.0 / model.alpha)
        if model.family == PARETO_POSITIVE:
            values = magnitude
        else:
            u_sign = grid_uniforms(seed, rows, cols, lane=1)
            sign = np.where(u_sign < model.q, 1.0, -1.0)
            values = sign * magnitude
    return NoisePanel(values=values, row_offset=r0, col_offset=c0)


def abs_survival(model: TailModel, x) -> np.ndarray | float:
    """P(|Z| > x), exact for every family."""
    x = np.asarray(x, dtype=float)
    if model.is_pareto:
        out = np.where(x <= model.scale, 1.0, (model.scale / np.maximum(x, model.scale)) ** model.alpha)
    else:
        out = 2.0 * stats.t.sf(np.maximum(x, 0.0) / model.scale, df=model.alpha)
        out = np.where(x < 0.0, 1.0, out)
    return out if out.ndim else float(out)


def norming_constant(model: TailModel, m: int) -> float:
    """The 1 - 1/m quantile of |Z|, i.e. the solution of m * P(|Z| > a) = 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if model.is_pareto:
        return model.scale * float(m) ** (1.0 / model.alpha)
    # |Z|/scale has survival 2*sf_t; invert at level 1/m.
    return model.scale * float(stats.t.isf(0.5 / m, df=model.alpha))


def truncated_second_moment(model: TailModel, cutoff: float) -> float:
    """E(Z^2 1{Z^2 <= cutoff^2}) = E(Z^2 1{|Z| <= cutoff})."""
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if model.is_pareto:
        s, a = model.scale, model.alpha
        if cutoff <= s:
            return 0.0
        if a == 2.0:
            return 2.0 * s * s * math.log(cutoff / s)
        return a * s**a * (cutoff ** (2.0 - a) - s ** (2.0 - a)) / (2.0 - a)
    upper = cutoff / model.scale
    val, _ = integrate.quad(
        lambda u: u * u * stats.t.pdf(u, df=model.alpha), 0.0, upper, epsrel=1e-8, limit=200
    )
    return 2.0 * model.scale**2 * val


def second_moment(model: TailModel) -> float:
    """E(Z^2); ``math.inf`` flags an infinite second moment (alpha <= 2)."""
    if model.alpha <= 2.0:
        return math.inf
    # Pareto: alpha*scale^2/(alpha-2).  student_t with df=alpha: same form.
    return model.alpha * model.scale**2 / (model.alpha - 2.0)


def mean_value(model: TailModel) -> float:
    """E(Z) where defined; NaN for alpha <= 1 (no first moment)."""
    if model.alpha <= 1.0:
        return math.nan
    if model.family == STUDENT_T:
        return 0.0
    abs_mean = model.alpha * model.scale / (model.alpha - 1.0)
    return (2.0 * model.q - 1.0) * abs_mean

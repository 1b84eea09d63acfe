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
from scipy import special

from ._config import config_float, config_key, config_known_keys

__all__ = [
    "FAMILIES",
    "NoiseCoverageError",
    "NoisePanel",
    "TailModel",
    "derive_key",
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
        config_known_keys(d, ("family", "alpha", "q", "scale"))
        return cls(
            family=config_key(d, "family"),
            alpha=config_float(config_key(d, "alpha"), "alpha"),
            q=config_float(d.get("q", 0.5), "q"),
            scale=config_float(d.get("scale", 1.0), "scale"),
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
_SIGN_BIT = np.uint64(1 << 63)
_UNIT_SHIFT = np.uint64(11)


def _mix_(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # splitmix64 output function, in place on x; tmp is scratch of x's shape.
    # Bijective on uint64 with full avalanche.
    with np.errstate(over="ignore"):
        x += _GOLDEN
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(x, np.uint64(shift), out=tmp)
            x ^= tmp
            x *= mult
        np.right_shift(x, np.uint64(31), out=tmp)
        x ^= tmp
    return x


def _finalize(x) -> np.ndarray:
    # Copy, then mix; a scalar in gives a scalar out.
    x = np.array(x, dtype=np.uint64)
    return _mix_(x, np.empty_like(x))[()]


def _encode(idx) -> np.ndarray:
    # Two's-complement encoding keeps negative logical indices injective.
    return np.asarray(idx, dtype=np.int64).astype(np.uint64)


def _stream_head(seed, tag: int):
    # The head of each seed's stream: an int seed gives a uint64 scalar, a
    # uint64 seed array an array of its shape.
    head = _finalize(seed & _U64_MASK)
    if tag:
        with np.errstate(over="ignore"):
            head = _finalize(head ^ (np.uint64(tag) * _TAG_SALT))
    return head


def _to_unit(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # The top 53 bits m map to (m + 0.5) * 2**-53, which lies in (0, 1]: never
    # 0, but m = 2**53 - 1 gives exactly 1.0 because 2**53 - 0.5 rounds to
    # even.  Consumes h (shifted in place); writes into out when given.
    h >>= _UNIT_SHIFT
    if out is None:
        u = h.astype(np.float64)
    else:
        u = out
        np.copyto(u, h, casting="unsafe")
    u += 0.5
    u *= 2.0**-53
    return u


def _sign_threshold(q: float) -> int:
    """Least m in [0, 2**53) whose unit value (m + 0.5) * 2**-53 is >= q.

    The unit map is non-decreasing in m, so ``unit(m) < q`` holds exactly when
    ``m < _sign_threshold(q)``; m = 2**53 - 1 maps to 1.0, so q <= 1 has one.
    """
    lo, hi = 0, (1 << 53) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (float(mid) + 0.5) * 2.0**-53 >= q:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _negative_bits(h1: np.ndarray, q: float) -> np.ndarray:
    # Consumes the lane-1 hash h1: its unit value is < q exactly when its top
    # 53 bits m are < T, and the sign bit of (T - 1) - m, wrapping, is set
    # exactly when m >= T.  Returns that sign bit per entry.
    h1 >>= _UNIT_SHIFT
    np.subtract(np.uint64((_sign_threshold(q) - 1) & _U64_MASK), h1, out=h1)
    h1 &= _SIGN_BIT
    return h1


def _grid_hash(seed: int, row_range, col_range, h=None, tmp=None) -> tuple[np.ndarray, np.ndarray]:
    # Lane-0 hash of every (row, col) in the rectangle, keyed by (seed, row, col),
    # written into h, and tmp, a scratch buffer of its shape for further
    # in-place mixing; either is a fresh array where it is None.
    hr = _finalize(_stream_head(seed, 0) ^ _encode(np.arange(*row_range)))
    cols = _encode(np.arange(*col_range))
    if h is None:
        h = np.empty((hr.size, cols.size), np.uint64)
    np.bitwise_xor(hr[:, None], cols[None, :], out=h)
    if tmp is None:
        tmp = np.empty_like(h)
    return _mix_(h, tmp), tmp


def index_uniforms(seed, idx, tag: int = 0) -> np.ndarray:
    """Uniform(0,1] keyed by (seed, tag, index): one value per seed and index.

    ``seed`` is an int or a uint64 array; the result has shape
    ``np.shape(seed) + np.shape(idx)``, and each seed's values are those it
    gives alone."""
    head = _stream_head(seed, tag)
    idx = _encode(idx)
    return _to_unit(_finalize(np.reshape(head, np.shape(head) + (1,) * idx.ndim) ^ idx))


def derive_key(seed: int, *indices):
    """Chain-hash integer key derivation; distinct index tuples give
    independent streams (collisions only at the 2^-64 level).

    Integer indices give an int; index arrays broadcast and give a uint64
    array of keys, each the int its indices give alone."""
    h = _finalize(seed & _U64_MASK)
    for ix in indices:
        h = _finalize(h ^ _encode(ix))
    return int(h) if np.ndim(h) == 0 else h


# ---------------------------------------------------------------------------
# Sampling and analytic tail functionals.


def sample_noise(
    model: TailModel,
    row_range: tuple[int, int],
    col_range: tuple[int, int],
    seed: int,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> NoisePanel:
    """Fill the logical rectangle with iid draws from ``model``.

    Entry (i, t) depends only on (seed, i, t): enlarging the rectangle
    extends the panel without reshuffling the overlap.  The magnitude comes
    from the lane-0 hash of (seed, i, t); the sign of the two-sided Pareto
    families from lane 1, that hash salted and mixed once more.

    ``buffers`` are the hash, scratch, sign and value arrays, each of the
    rectangle's shape, the first three ``uint64`` and the last ``float64``;
    the panel's values are then the last one.  Without them the same steps
    run on fresh arrays.
    """
    r0, r1 = row_range
    c0, c1 = col_range
    if r1 <= r0 or c1 <= c0:
        raise ValueError(f"ranges must be nonempty, got rows={row_range} cols={col_range}")
    h, tmp, sign, u = buffers or (None, None, None, None)
    h, tmp = _grid_hash(seed, row_range, col_range, h, tmp)
    if model.family in (PARETO_SYMMETRIC, PARETO_SKEWED):
        sign = _negative_bits(_mix_(np.bitwise_xor(h, _LANE_SALT, out=sign), tmp), model.q)
    else:
        sign = None
    # Drop the scratch before the float panel is allocated and the hash once
    # it is consumed: at most three fresh panel-sized arrays live at once.
    del tmp
    u = _to_unit(h, u)
    del h
    if model.family == STUDENT_T:
        # The t quantile function that stats.t.ppf calls, so the same bits.
        special.stdtrit(model.alpha, u, out=u)
    else:
        u **= -1.0 / model.alpha
    u *= model.scale
    if sign is not None:
        # Setting the sign bit of a positive magnitude is exactly -1.0 * it.
        bits = u.view(np.uint64)
        bits ^= sign
    return NoisePanel(values=u, row_offset=r0, col_offset=c0)


def norming_constant(model: TailModel, m: int) -> float:
    """The 1 - 1/m quantile of |Z|, i.e. the solution of m * P(|Z| > a) = 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if model.is_pareto:
        return model.scale * float(m) ** (1.0 / model.alpha)
    # |Z|/scale has survival 2*sf_t, so a/scale is minus the t quantile at
    # 1/(2m); abs, not negation, keeps a = +0.0 at m = 1, as stats.t.isf does.
    return model.scale * abs(float(special.stdtrit(model.alpha, 0.5 / m)))


def truncated_second_moment(model: TailModel, cutoff: float) -> float:
    """E(Z^2 1{|Z| <= cutoff}) at alpha = 2, the one tail index where it
    centres S; a closed form for both families."""
    if model.alpha != 2.0:
        raise ValueError(f"truncated second moment is defined at alpha = 2 only, got {model.alpha}")
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    s = model.scale
    if model.is_pareto:
        return 2.0 * s * s * math.log(cutoff / s) if cutoff > s else 0.0
    # The t_2 density is (2 + u^2)^(-3/2), so the integral of u^2 times it
    # over [0, u] is asinh(u/sqrt 2) - u/sqrt(2 + u^2).
    u = cutoff / s
    return 2.0 * s * s * (math.asinh(u / math.sqrt(2.0)) - u / math.sqrt(2.0 + u * u))


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

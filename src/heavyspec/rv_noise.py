"""Regularly varying noise: samplers and tail functionals.

Sampling is counter-based: every draw is a pure function of the seed and the
logical (row, column) index, so panels generated over different index
rectangles agree wherever they overlap, and disjoint rectangles can be filled
in parallel without coordination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._config import TailModel

__all__ = [
    "NoiseCoverageError",
    "NoisePanel",
    "derive_key",
    "index_uniforms",
    "sample_noise",
    "second_moment",
    "truncated_second_moment",
]


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
_TAG_SALT = np.uint64(0x2545F4914F6CDD1D)

_U64_MASK = (1 << 64) - 1
_SIGN_BIT = np.uint64(1 << 63)
_HALF = 1 << 52
_UNIT_SHIFT = np.uint64(11)
_ONE_BITS = np.uint64(0x3FF0000000000000)


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
    u = np.empty(np.shape(h)) if out is None else out
    np.copyto(u, h, casting="unsafe")
    u += 0.5
    u *= 2.0**-53
    return u


@functools.lru_cache(maxsize=64)
def _sign_threshold(q: float) -> int:
    """Least m in [0, 2**53) whose unit value (m + 0.5) * 2**-53 is >= q.

    The unit map is non-decreasing in m, so ``unit(m) < q`` holds exactly when
    ``m < _sign_threshold(q)``; m = 2**53 - 1 maps to 1.0, so q <= 1 has one.
    Cached per q: a trial samples one row block at a time, each with the
    model's q, and the bisection takes 53 steps.
    """
    lo, hi = 0, (1 << 53) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (float(mid) + 0.5) * 2.0**-53 >= q:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _mixture_unit(h: np.ndarray, t: int, sign: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Inverts the two-part mixture on the hash's top 53 bits m (h, shifted in
    # place): m < t gives a positive entry with u = (m + 0.5) / t, m >= t a
    # negative one with u = (m - t + 0.5) / (2**53 - t).  Writes the sign bits
    # into sign: that of (t - 1) - m, wrapping, is set exactly when m >= t.
    if t == _HALF:
        # m >= 2**52 exactly when bit 52 of m, bit 63 of h, is set.  OR-ing
        # the exponent of 1.0, whose field already holds bit 52, gives
        # 1 + k 2**-52 for k = m mod 2**52, and one subtraction, exact by
        # Sterbenz's lemma, leaves (2k + 1) 2**-53 = (k + 0.5) / 2**52.
        np.bitwise_and(h, _SIGN_BIT, out=sign)
        h >>= _UNIT_SHIFT
        np.bitwise_or(h, _ONE_BITS, out=u.view(np.uint64))
        u -= 1.0 - 2.0**-53
        return u
    h >>= _UNIT_SHIFT
    np.subtract(np.uint64((t - 1) & _U64_MASK), h, out=sign)
    sign &= _SIGN_BIT
    flag = u.view(np.uint64)
    h -= np.multiply(np.right_shift(sign, np.uint64(63), out=flag), np.uint64(t), out=flag)
    np.copyto(u, h, casting="unsafe")
    u += 0.5
    # The divisor 2**52 -+ (2**52 - t), with the entry's sign: exact.
    div = np.copysign(1.0, sign.view(np.float64), out=h.view(np.float64))
    div *= float(_HALF - t)
    u /= np.subtract(float(_HALF), div, out=div)
    return u


def _grid_hash(seed: int, row_range, col_range, h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # The hash of every (row, col) in the rectangle, keyed by (seed, row, col),
    # written into h; tmp is scratch of h's shape.
    hr = _finalize(_stream_head(seed, 0) ^ _encode(np.arange(*row_range)))
    np.bitwise_xor(hr[:, None], _encode(np.arange(*col_range))[None, :], out=h)
    return _mix_(h, tmp)


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
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> NoisePanel:
    """Fill the logical rectangle with iid draws from ``model``.

    Entry (i, t) depends only on (seed, i, t): enlarging the rectangle
    extends the panel without reshuffling the overlap.  One hash of
    (seed, i, t) gives the sign and the magnitude, by inversion of the
    two-part mixture: its top 53 bits m are positive below ``T(q)``, negative
    from it on, and each branch maps m to a uniform of its own.  At ``q = 1``
    no sign is drawn.

    ``buffers`` are the hash, sign and value arrays of the rectangle's shape,
    ``uint64``, ``uint64`` and ``float64``; the panel's values are then the
    last one.  Without them the same steps run on fresh arrays.
    """
    r0, r1 = row_range
    c0, c1 = col_range
    if r1 <= r0 or c1 <= c0:
        raise ValueError(f"ranges must be nonempty, got rows={row_range} cols={col_range}")
    shape = (r1 - r0, c1 - c0)
    h, sign, u = buffers or (np.empty(shape, np.uint64), np.empty(shape, np.uint64), np.empty(shape))
    h = _grid_hash(seed, row_range, col_range, h, sign)
    two_sided = model.q < 1.0
    u = _mixture_unit(h, _sign_threshold(model.q), sign, u) if two_sided else _to_unit(h, u)
    u **= -1.0 / model.alpha
    if model.scale != 1.0:
        u *= model.scale
    if two_sided:
        # Setting the sign bit of a positive magnitude is exactly -1.0 * it.
        bits = u.view(np.uint64)
        bits ^= sign
    return NoisePanel(values=u, row_offset=r0, col_offset=c0)


def truncated_second_moment(model: TailModel, cutoff: float) -> float:
    """E(Z^2 1{|Z| <= cutoff}) at alpha = 2, the one tail index where it
    centres S: 2 scale^2 log(cutoff/scale) above the scale, else 0."""
    if model.alpha != 2.0:
        raise ValueError(f"truncated second moment is defined at alpha = 2 only, got {model.alpha}")
    if not cutoff > 0.0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    s = model.scale
    return 2.0 * s * s * math.log(cutoff / s) if cutoff > s else 0.0


def second_moment(model: TailModel) -> float:
    """E(Z^2); ``math.inf`` flags an infinite second moment (alpha <= 2)."""
    if model.alpha <= 2.0:
        return math.inf
    return model.alpha * model.scale**2 / (model.alpha - 2.0)


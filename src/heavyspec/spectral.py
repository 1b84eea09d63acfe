"""Centering algebra and spectral norms.

Every row of the centering matrix H carries the same short theta window, so
H Hᵀ is a symmetric banded Toeplitz matrix, built from the window's
autocorrelation without forming H.  The centered covariance S, the
off-diagonal deviation and the centered diagonal are all built from one Gram
matrix of the time-filtered rows.  Spectral norms of the resulting dense symmetric
matrices come from one ARPACK call (``scipy.sparse.linalg.eigsh``) with a
deterministic start vector; a dense eigensolve is used only as a cross-check
oracle in the tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .linear_filter import CoefficientSequence
from .rv_noise import TailModel, index_uniforms, second_moment, truncated_second_moment

__all__ = [
    "SpectralNormError",
    "centered_covariance",
    "centered_gram_diag",
    "mu_x_alpha",
    "offdiag_deviation",
    "spectral_norm",
]

_SPECTRAL_TAG = 0x51
_ARPACK_TOL = 1e-8
_MAX_RESTARTS = 10_000


class SpectralNormError(RuntimeError):
    """The eigensolver failed to converge within its restart cap."""


def mu_x_alpha(model: TailModel, c: CoefficientSequence, a_np: float) -> float:
    """Centering level: 0 below tail index 2, the second moment truncated at
    a_np at 2, the exact second moment above 2; times sum c_j^2."""
    if not a_np > 0.0:
        raise ValueError(f"a_np must be positive, got {a_np}")
    if model.alpha < 2.0:
        return 0.0
    if model.alpha == 2.0:
        return truncated_second_moment(model, a_np) * c.sq_sum
    return second_moment(model) * c.sq_sum


def centered_covariance(
    gram: np.ndarray,
    theta: CoefficientSequence,
    p: int,
    n: int,
    mu: float,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """S = T G Tᵀ - n * mu * H Hᵀ, symmetric only up to rounding;
    ``spectral_norm`` symmetrizes it.

    G is the Gram matrix of the time-filtered rows 1 - theta.max_lag through
    p - theta.min_lag, and T applies the full theta window across them, so
    T G Tᵀ equals Xhat Xhatᵀ for the filtered p x n panel.  H is the p x 3p
    centering matrix with H[i, j] = theta_{p-(j-i)} for 0 <= j-i <= 2p, so it
    keeps only the theta lags inside [-p, p]; the two differ when a lag lies
    outside.

    ``buffers`` are arrays for T G (p x m), its terms (p x m) and S (p x p,
    returned), m the Gram's order; without them the same steps run on fresh
    arrays.
    """
    g = np.asarray(gram, dtype=float)
    m = p + len(theta.values) - 1
    if g.shape != (m, m):
        raise ValueError(f"gram must be {m} x {m} for p = {p}, got shape {g.shape}")
    if buffers is None:
        buffers = (np.empty((p, m)), np.empty((p, m)), np.empty((p, p)))
    tg, terms, s = buffers
    offsets = [(theta.max_lag - k, w) for k, w in zip(theta.lags, theta.values)]
    tg.fill(0.0)
    for o, w in offsets:
        tg += np.multiply(w, g[o : o + p], out=terms)
    # T G is summed, so the first p columns of terms hold each term of T G Tᵀ.
    s.fill(0.0)
    for o, w in offsets:
        s += np.multiply(w, tg[:, o : o + p], out=terms[:, :p])
    if mu != 0.0:
        # H Hᵀ is the symmetric Toeplitz matrix with r[b] = sum_u w[u] * w[u-b]
        # on diagonals +-b, w the reversed window of the theta lags inside
        # [-p, p], and 0 elsewhere, where subtracting it leaves S's bits as
        # they are.  Summing each r[b] in ascending u fixes the bits of S.
        w = [v for k, v in zip(theta.lags, theta.values) if -p <= k <= p][::-1]
        i = np.arange(p)
        for b in range(min(len(w), p)):
            r = 0.0
            for u in range(b, len(w)):
                r += w[u] * w[u - b]
            v = (n * mu) * r
            s[i[: p - b], i[b:]] -= v
            if b:
                s[i[b:], i[: p - b]] -= v
    return s


def centered_gram_diag(gram: np.ndarray, n: int, mu: float, out: np.ndarray | None = None) -> np.ndarray:
    """The diagonal of the Gram matrix X Xᵀ minus n * mu, into ``out`` (one
    entry per row; a fresh array where it is None)."""
    return np.subtract(np.diagonal(gram), n * mu, out=out)


def offdiag_deviation(
    gram: np.ndarray, a_np: float, buffers: tuple[np.ndarray, np.ndarray] | None = None
) -> float:
    """a_np^-2 times the spectral norm of the Gram matrix X Xᵀ with its
    diagonal zeroed.

    ``buffers`` are two C-contiguous arrays of the Gram's shape: the first
    receives the Gram with its diagonal zeroed, the second is
    ``spectral_norm``'s ``out``.  The Gram itself is never written.
    """
    if not a_np > 0.0:
        raise ValueError(f"a_np must be positive, got {a_np}")
    g = np.asarray(gram, dtype=float)
    zeroed, scaled = buffers or (np.empty_like(g), None)
    np.copyto(zeroed, g)
    np.fill_diagonal(zeroed, 0.0)
    return spectral_norm(zeroed, out=scaled) / (a_np * a_np)


def _max_abs(a: np.ndarray) -> float:
    # The largest absolute entry in two passes that write nothing; NaN when a
    # holds a NaN, inf when it holds an infinity.
    return max(float(a.max()), -float(a.min()))


def spectral_norm(m, out: np.ndarray | None = None) -> float:
    """Largest absolute eigenvalue of a dense symmetric matrix, by ARPACK.

    The matrix must be finite and symmetric to 1e-12 of its largest absolute
    entry; it is solved as (A + Aᵀ) / 2, which keeps an exactly symmetric
    one's bits, pre-scaled by that matrix's largest absolute entry.  The
    scaling makes the result exactly homogeneous under power-of-two scaling
    of the input, and the start vector is counter-based, so the result is
    deterministic.  ARPACK runs at ``_ARPACK_TOL`` with at most
    ``_MAX_RESTARTS`` restarts.

    ``out``, an array of the matrix's shape that shares no memory with it,
    holds A - Aᵀ for the symmetry check and then the symmetrized, pre-scaled
    matrix; it is a fresh array where it is None.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if out is not None and np.shares_memory(a, out):
        raise ValueError("out shares memory with the matrix")
    scale = _max_abs(a)
    if not math.isfinite(scale):
        raise ValueError("matrix contains non-finite entries")
    out = np.subtract(a, a.T, out=out)
    asym = _max_abs(out)
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric: |A - Aᵀ| = {asym:g} vs scale {scale:g}")
    if scale == 0.0:
        return 0.0
    dim = a.shape[0]
    if dim == 1:
        return abs(float(a[0, 0]))
    if asym != 0.0:
        a = np.add(a, a.T, out=out)
        a *= 0.5
        scale = _max_abs(a)
    v0 = index_uniforms(0, np.arange(dim), tag=_SPECTRAL_TAG) - 0.5
    try:
        w = eigsh(
            np.divide(a, scale, out=out), k=1, which="LM", v0=v0, tol=_ARPACK_TOL, maxiter=_MAX_RESTARTS,
            return_eigenvectors=False,
        )
    except ArpackNoConvergence as err:
        raise SpectralNormError(
            f"ARPACK did not converge within {_MAX_RESTARTS} restarts at tolerance {_ARPACK_TOL:g}"
        ) from err
    return scale * abs(float(w[0]))

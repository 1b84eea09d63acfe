"""Centering algebra and spectral norms.

The centering matrix H is banded (every row carries the same short window),
so H Hᵀ and H diag(d) Hᵀ are assembled band by band.  The centered
covariance S and the off-diagonal deviation are both built from one Gram
matrix of the time-filtered rows.  Spectral norms of the resulting dense
symmetric matrices come from one ARPACK call (``scipy.sparse.linalg.eigsh``)
with a deterministic start vector; a dense eigensolve is used only as a
cross-check oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .linear_filter import CoefficientSequence
from .rv_noise import TailModel, index_uniforms, second_moment, truncated_second_moment

__all__ = [
    "BandedH",
    "CenteringSpec",
    "SpectralNormError",
    "SymBanded",
    "build_H",
    "centered_covariance",
    "centered_gram_diag",
    "gram_diag",
    "hdh_matrix",
    "hht_matrix",
    "mu_x_alpha",
    "offdiag_deviation",
    "spectral_norm",
]

_SPECTRAL_TAG = 0x51


class SpectralNormError(RuntimeError):
    """The eigensolver failed to converge within its restart cap."""


@dataclass(frozen=True)
class BandedH:
    """Banded rectangular matrix with one shared row window.

    H[i, i + shift + l] = weights[l]; all other entries are zero.  Every
    row hosts the full window, which the constructor enforces.
    """

    nrows: int
    ncols: int
    shift: int
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.nrows < 1 or self.ncols < 1:
            raise ValueError("H must have positive dimensions")
        if not self.weights:
            raise ValueError("H window is empty")
        if self.shift < 0 or (self.nrows - 1) + self.shift + len(self.weights) - 1 >= self.ncols:
            raise ValueError(
                f"window does not fit: nrows={self.nrows} ncols={self.ncols} "
                f"shift={self.shift} window={len(self.weights)}"
            )

    def dense(self) -> np.ndarray:
        h = np.zeros((self.nrows, self.ncols))
        for l, w in enumerate(self.weights):
            idx = np.arange(self.nrows)
            h[idx, idx + self.shift + l] = w
        return h


def build_H(theta: CoefficientSequence, p: int) -> BandedH:
    """The p x 3p centering matrix with entries theta_{p-(j-i)} for 0 <= j-i <= 2p.

    Lags of theta outside [-p, p] fall outside the indicator and are dropped.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    k_lo = max(theta.min_lag, -p)
    k_hi = min(theta.max_lag, p)
    if k_lo > k_hi:
        # Whole window is outside the indicator; H is structurally zero.
        return BandedH(nrows=p, ncols=3 * p, shift=p, weights=(0.0,))
    vals = theta.values[k_lo - theta.min_lag : k_hi - theta.min_lag + 1]
    return BandedH(nrows=p, ncols=3 * p, shift=p - k_hi, weights=tuple(reversed(vals)))


@dataclass(frozen=True, eq=False)
class SymBanded:
    """Symmetric banded matrix; bands[b, i] = A[i, i+b] for 0 <= b < nbands."""

    dim: int
    bands: np.ndarray

    def __post_init__(self):
        if self.bands.ndim != 2 or self.bands.shape[1] != self.dim:
            raise ValueError(f"bands must have shape (nbands, {self.dim})")

    def dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        nb = self.bands.shape[0]
        for b in range(nb):
            m = self.dim - b
            if m <= 0:
                break
            idx = np.arange(m)
            a[idx, idx + b] = self.bands[b, :m]
            if b > 0:
                a[idx + b, idx] = self.bands[b, :m]
        return a


def hdh_matrix(H: BandedH, d: np.ndarray) -> SymBanded:
    """H diag(d) Hᵀ computed band by band.

    Entry (i, i+b) equals sum_u weights[u] * weights[u-b] * d[i + shift + u].
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (H.ncols,):
        raise ValueError(f"d must have length {H.ncols}, got shape {d.shape}")
    w = H.weights
    L = len(w)
    p = H.nrows
    bands = np.zeros((min(L, p), p))
    for b in range(bands.shape[0]):
        m = p - b
        acc = np.zeros(m)
        for u in range(b, L):
            lo = H.shift + u
            acc += w[u] * w[u - b] * d[lo : lo + m]
        bands[b, :m] = acc
    return SymBanded(dim=p, bands=bands)


def hht_matrix(H: BandedH) -> SymBanded:
    return hdh_matrix(H, np.ones(H.ncols))


@dataclass(frozen=True)
class CenteringSpec:
    """Scalar centering level mu together with the banded H and sample size n."""

    mu: float
    H: BandedH
    n: int


def mu_x_alpha(model: TailModel, c: CoefficientSequence, a_np: float) -> float:
    """Centering level: 0 below tail index 2, truncated second moment at 2 with
    infinite variance, the exact second moment otherwise; times sum c_j^2."""
    if not a_np > 0.0:
        raise ValueError(f"a_np must be positive, got {a_np}")
    if model.alpha < 2.0:
        return 0.0
    ez2 = second_moment(model)
    if model.alpha == 2.0 and math.isinf(ez2):
        return truncated_second_moment(model, a_np) * c.sq_sum
    return ez2 * c.sq_sum


def centered_covariance(
    gram: np.ndarray, theta: CoefficientSequence, centering: CenteringSpec
) -> np.ndarray:
    """S = T G Tᵀ - n * mu * H Hᵀ, symmetrized after assembly.

    G is the Gram matrix of the time-filtered rows 1 - theta.max_lag through
    p - theta.min_lag, and T applies the full theta window across them, so
    T G Tᵀ equals Xhat Xhatᵀ for the filtered p x n panel.  H keeps only the
    theta lags inside [-p, p]; the two differ when a lag lies outside.
    """
    g = np.asarray(gram, dtype=float)
    p = centering.H.nrows
    m = p + len(theta.values) - 1
    if g.shape != (m, m):
        raise ValueError(f"gram must be {m} x {m} for p = {p}, got shape {g.shape}")
    offsets = [(theta.max_lag - k, w) for k, w in zip(theta.lags, theta.values)]
    tg = np.zeros((p, m))
    for o, w in offsets:
        tg += w * g[o : o + p]
    s = np.zeros((p, p))
    for o, w in offsets:
        s += w * tg[:, o : o + p]
    if centering.mu != 0.0:
        s -= (centering.n * centering.mu) * hht_matrix(centering.H).dense()
    asym = float(np.abs(s - s.T).max())
    scale = float(np.abs(s).max())
    if asym > 1e-12 * scale:
        raise ValueError(f"assembled S is asymmetric: |S - Sᵀ| = {asym:g} vs scale {scale:g}")
    return 0.5 * (s + s.T)


def gram_diag(x: np.ndarray) -> np.ndarray:
    """Row sums of squares, the diagonal of X Xᵀ."""
    x = np.asarray(x, dtype=float)
    return (x * x).sum(axis=1)


def centered_gram_diag(x: np.ndarray, mu: float) -> np.ndarray:
    """Row sums of (x^2 - mu): gram_diag(x) - n * mu."""
    x = np.asarray(x, dtype=float)
    return gram_diag(x) - x.shape[1] * mu


def offdiag_deviation(gram: np.ndarray, a_np: float) -> float:
    """a_np^-2 times the spectral norm of the Gram matrix X Xᵀ with its
    diagonal zeroed."""
    if not a_np > 0.0:
        raise ValueError(f"a_np must be positive, got {a_np}")
    g = np.asarray(gram, dtype=float)
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    return spectral_norm(g) / (a_np * a_np)


def spectral_norm(m, rel_tol: float = 1e-8, max_iter: int = 10_000) -> float:
    """Largest absolute eigenvalue of a dense symmetric matrix, by ARPACK.

    The matrix is pre-scaled by its largest absolute entry, which makes the
    result exactly homogeneous under power-of-two scaling of the input, and
    the start vector is counter-based, so the result is deterministic.
    ``rel_tol`` is ARPACK's relative residual tolerance and ``max_iter`` its
    cap on restarts.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    scale = float(np.abs(a).max())
    asym = float(np.abs(a - a.T).max())
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric: |A - Aᵀ| = {asym:g} vs scale {scale:g}")
    if scale == 0.0:
        return 0.0
    dim = a.shape[0]
    if dim == 1:
        return abs(float(a[0, 0]))
    v0 = index_uniforms(0, np.arange(dim), tag=_SPECTRAL_TAG) - 0.5
    try:
        w = eigsh(
            a / scale, k=1, which="LM", v0=v0, tol=rel_tol, maxiter=max_iter,
            return_eigenvectors=False,
        )
    except ArpackNoConvergence as err:
        raise SpectralNormError(
            f"ARPACK did not converge within {max_iter} restarts at tolerance {rel_tol:g}"
        ) from err
    return scale * abs(float(w[0]))

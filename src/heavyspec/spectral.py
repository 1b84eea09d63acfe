"""Centering algebra and spectral norms.

The centered covariance S = T G Tᵀ - n mu H Hᵀ is a linear operator on the
Gram matrix G of the time-filtered rows: S is never formed, and a product
S v costs one product with G plus a few short window sums.  Every row of the
centering matrix H carries the same short theta window, so H Hᵀ is a
symmetric banded Toeplitz matrix whose product with a vector is one window
sum of the window's autocorrelation, without forming H.  The off-diagonal
part is G with its diagonal zeroed for the solve and restored after it, and
the centered diagonal is read off G.

Every entry reads one triangle: each product with G, or with a dense
symmetric matrix, is one BLAS ``dsymv`` on the lower triangle of an
F-ordered array (a C-ordered matrix goes in as its transpose view), so the
operator ARPACK sees is symmetric by construction, and the run path's
one-triangle Gram (``dsyrk``) and a library caller's full one take the same
product.  Both Gram functions take G through one preamble
(``_gram_operand``), which checks it in O(m), from its diagonal alone, and
both leave G as they found it.  Spectral norms come from one ARPACK call
(``scipy.sparse.linalg.eigsh``), which needs only matrix-vector products,
at ``_ARPACK_NCV`` Lanczos vectors per restart cycle, chosen by
measurement, with a counter-based start vector computed once per dimension;
a non-finite operator is refused at its first product, before ARPACK reads
it.  Every norm is raw: ``run_trial`` alone scales by a_np².  A dense
eigensolve is used only as a cross-check oracle in the tests.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from ._config import CoefficientSequence, TailModel
from .linear_filter import window_sum
from .rv_noise import index_uniforms, second_moment, truncated_second_moment

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
# Lanczos vectors ARPACK keeps per restart cycle; eigsh clips it to the
# dimension.  Its default, 20, builds 20 vectors before the first restart
# whether the norm needs them or not.  Both norms of 24 trial Grams at
# p = 400, n = 1000, c = theta = (1, .5), one BLAS thread on a 2-vCPU Xeon
# (OpenBLAS 0.3.31, scipy 1.17.1), 60 rounds alternating the values: ARPACK
# products per trial (||S|| plus the off-diagonal norm), and time as the
# median of each round's ratio to the default's:
#
#   ncv   alpha 1.2         alpha 3
#    6    33.3  0.79        104.1  1.13
#    8    28.1  0.72         87.2  0.99
#   10    29.3  0.74         81.3  0.96
#   12    30.5  0.77         80.2  0.95
#   20    42.8  1            81.1  1
#
# 10 loses in neither regime: 8 ties at alpha 3 on more products than the
# default, 6 loses there, and 12 is slower at alpha 1.2.
_ARPACK_NCV = 10
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


class _SymmetricOperator(LinearOperator):
    """A real symmetric operator: ``product(v)`` returns A v as a fresh array,
    and ``bound`` bounds the absolute entries of A's matrix (0 only where A is
    zero); ``spectral_norm`` pre-scales by the power of two above it."""

    def __init__(self, dim: int, product, bound: float):
        super().__init__(np.dtype(float), (dim, dim))
        self.product = product
        self.bound = bound

    def _matvec(self, v):
        return self.product(np.ravel(v))


def _max_abs(a: np.ndarray) -> float:
    # The largest absolute entry in two passes that write nothing; NaN when a
    # holds a NaN, inf when it holds an infinity.
    return max(float(a.max()), -float(a.min()))


def _finite_max_abs(a: np.ndarray) -> float:
    """The largest absolute entry of A; refuses a non-finite A."""
    scale = _max_abs(a)
    if not math.isfinite(scale):
        raise ValueError("matrix contains non-finite entries")
    return scale


def _lower(a: np.ndarray) -> np.ndarray:
    # A as an F-ordered array whose lower triangle dsymv reads: A itself,
    # the transpose view of a C-ordered A (A's upper triangle, so A must be
    # symmetric), or an F-ordered copy of a strided one.
    if a.flags.f_contiguous:
        return a
    return a.T if a.flags.c_contiguous else np.asfortranarray(a)


def _symv(lower: np.ndarray):
    # v -> A v from the lower triangle of the F-ordered array ``lower``, into
    # a fresh array.
    return functools.partial(dsymv, 1.0, lower, lower=1)


def _gram_operand(gram: np.ndarray, m: int | None = None) -> tuple[np.ndarray, float]:
    """The array the products read (``_lower``) and max |diag G|, which bounds
    every entry of a Gram G = X Xᵀ, since |G_ij| <= √(G_ii G_jj).  Refuses a
    G that is not square (m x m where m is given) and a non-finite diagonal,
    as every Gram of an X with a non-finite entry has."""
    g = np.asarray(gram, dtype=float)
    if m is None and (g.ndim != 2 or g.shape[0] != g.shape[1]):
        raise ValueError(f"expected a square matrix, got shape {g.shape}")
    if m is not None and g.shape != (m, m):
        raise ValueError(f"gram must be {m} x {m}, got shape {g.shape}")
    return _lower(g), _finite_max_abs(np.diagonal(g))


def centered_covariance(gram: np.ndarray, theta: CoefficientSequence, p: int, n: int, mu: float) -> LinearOperator:
    """S = T G Tᵀ - n * mu * H Hᵀ as a symmetric p x p operator on the Gram
    matrix G; ``S @ np.eye(p)`` forms it.  G is m x m, m = p + L - 1 for a
    window of length L, and is checked and bounded by ``_gram_operand``.
    Products read only the lower triangle of an F-ordered G (the upper one
    of a C-ordered G), so the other triangle may be unset.

    G is the Gram matrix of the time-filtered rows 1 - theta.max_lag through
    p - theta.min_lag, and T applies the full theta window across them, so
    T G Tᵀ equals Xhat Xhatᵀ for the filtered p x n panel.  H is the p x 3p
    centering matrix with H[i, j] = theta_{p-(j-i)} for 0 <= j-i <= 2p, so it
    keeps only the theta lags inside [-p, p]; the two differ when a lag lies
    outside.

    A product S v pads v by L - 1 zeros at both ends, L the window's length,
    and takes three window sums over it: Tᵀ v with the reversed window, T of
    the Gram product (``dsymv``), and H Hᵀ v with the window's
    autocorrelation.  G is never written.
    """
    m = p + len(theta.values) - 1
    lower, g_max = _gram_operand(gram, m)
    pad = len(theta.values) - 1
    reversed_theta = CoefficientSequence(theta.values[::-1], min_lag=-theta.max_lag)
    # H Hᵀ is the symmetric Toeplitz matrix with r[b] = sum_u w[u] * w[u-b]
    # on diagonals +-b, w the reversed window of the theta lags inside
    # [-p, p], summed in ascending u; lags of r beyond w's length are 0.
    w = [v for k, v in zip(theta.lags, theta.values) if -p <= k <= p][::-1]
    r = [0.0] * (pad + 1)
    for b in range(len(w)):
        for u in range(b, len(w)):
            r[b] += w[u] * w[u - b]
    band = [(n * mu) * v for v in r]
    hht = CoefficientSequence((*band[:0:-1], *band), min_lag=-pad) if any(band) else None
    # Entries of T G Tᵀ are at most (sum |theta|)^2 max|G|, and of the band
    # n |mu| r[0]. The bound is inf where max|G| nears the largest float.
    abs_sum = theta.abs_sum
    bound = abs_sum * abs_sum * g_max + abs(n * mu) * r[0]

    padded, t_v, gram_v = np.zeros(p + 2 * pad), np.empty(m), np.empty(m)
    scratch_m, scratch_p, hht_v = np.empty(m), np.empty(p), np.empty(p)

    def product(v):
        padded[pad : pad + p] = v
        g_v = dsymv(1.0, lower, window_sum(reversed_theta, padded, m, t_v, scratch_m), y=gram_v, overwrite_y=1, lower=1)
        s_v = window_sum(theta, g_v, p, None, scratch_p)
        if hht is not None:
            s_v -= window_sum(hht, padded, p, hht_v, scratch_p)
        return s_v

    return _SymmetricOperator(p, product, bound)


def centered_gram_diag(gram: np.ndarray, n: int, mu: float, out: np.ndarray | None = None) -> np.ndarray:
    """The diagonal of the Gram matrix X Xᵀ minus n * mu, into ``out`` (one
    entry per row; a fresh array where it is None)."""
    return np.subtract(np.diagonal(gram), n * mu, out=out)


def offdiag_deviation(gram: np.ndarray) -> float:
    """The spectral norm of the Gram matrix X Xᵀ with its diagonal zeroed,
    raw, as ``spectral_norm`` returns ||S||.

    G is checked and bounded by ``_gram_operand``.  As in
    ``centered_covariance``, products read one triangle of G, so the other
    may be unset.  The diagonal of the array the products read is saved,
    zeroed for the solve and put back before this returns or raises, so G
    is left as it was and no m x m copy is made: a product G v - diag(G) v
    would lose the off-diagonal sums, which heavy tails make far smaller
    than the diagonal, to the rounding of the diagonal terms.  G must be
    writable, and no other thread may read it meanwhile.
    """
    lower, bound = _gram_operand(gram)
    diagonal = np.diagonal(lower).copy()
    np.fill_diagonal(lower, 0.0)
    try:
        return spectral_norm(_SymmetricOperator(len(lower), _symv(lower), bound))
    finally:
        np.fill_diagonal(lower, diagonal)


def _prescale_exponent(bound: float) -> int:
    # The least e with bound < 2**e, clipped to [-1021, 1022] so that 2**e
    # and 2**-e are normal floats; an infinite bound takes 1022.
    e = math.frexp(bound)[1] if bound < math.inf else 1022
    return min(max(e, -1021), 1022)


@functools.lru_cache(maxsize=16)
def _start_vector(dim: int) -> np.ndarray:
    # The counter-based start vector of a dim-dimensional norm, read-only:
    # it depends on dim alone, and eigsh copies it.
    v0 = index_uniforms(0, np.arange(dim), tag=_SPECTRAL_TAG) - 0.5
    v0.flags.writeable = False
    return v0


def spectral_norm(m) -> float:
    """Largest absolute eigenvalue of a symmetric operator from
    ``centered_covariance`` or ``offdiag_deviation``, or of a dense symmetric
    matrix, by ARPACK.

    A dense matrix must be finite and symmetric to 1e-12 of its largest
    absolute entry, which is its bound.  Past that gate it is solved, as the
    Gram operators are, from one triangle (``_lower``) with ``dsymv``, so an
    A symmetric only to rounding is solved as the symmetric matrix of that
    triangle, and an exactly symmetric one as itself.
    Either operator is solved as 2**-e A for the least power of two 2**e
    above the bound on A's entries, applied to each vector before its
    product with a matrix, so that no product overflows and the result is
    exactly homogeneous under power-of-two scaling of the input.  The start
    vector is counter-based, so the result is deterministic.  The image of
    the first product is checked once, so a non-finite operator is refused
    with ``matrix contains non-finite entries`` before ARPACK reads it.
    ARPACK runs at ``_ARPACK_TOL`` with ``_ARPACK_NCV`` Lanczos vectors and
    at most ``_MAX_RESTARTS`` restarts.
    """
    if isinstance(m, _SymmetricOperator):
        op = m
    else:
        a = np.asarray(m, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        scale = _finite_max_abs(a)
        asym = _max_abs(a - a.T)
        if asym > 1e-12 * scale:
            raise ValueError(f"matrix is not symmetric: |A - Aᵀ| = {asym:g} vs scale {scale:g}")
        op = _SymmetricOperator(len(a), _symv(_lower(a)), scale)
    if op.bound == 0.0:
        return 0.0
    e = _prescale_exponent(op.bound)
    down, up = math.ldexp(1.0, -e), math.ldexp(1.0, e)
    dim = op.shape[0]
    if dim == 1:
        # abs: max(-0.0, 0.0) is -0.0.
        return abs(_finite_max_abs(op.product(np.array([down])))) * up
    v0 = _start_vector(dim)
    first = []

    def product(v):
        # ARPACK's first product is of v0 / |v0|, which has no zero entry, so
        # its image shows any non-finite entry of the operator.
        image = op.product(v * down)
        if not first:
            first.append(_finite_max_abs(image))
        return image

    scaled = LinearOperator(op.shape, matvec=product, dtype=float)
    try:
        w = eigsh(
            scaled, k=1, which="LM", v0=v0, ncv=_ARPACK_NCV, tol=_ARPACK_TOL, maxiter=_MAX_RESTARTS,
            return_eigenvectors=False,
        )
    except ArpackNoConvergence as err:
        raise SpectralNormError(
            f"ARPACK did not converge within {_MAX_RESTARTS} restarts at tolerance {_ARPACK_TOL:g}"
        ) from err
    except ArpackError:
        # ARPACK stops where the start vector maps to zero; v0 has no zero
        # entry, so that is the zero operator, such as a diagonal Gram's
        # off-diagonal part.  Any other stop, or one before the first
        # product, is ARPACK's own failure.
        if first != [0.0]:
            raise
        return 0.0
    return abs(float(w[0])) * up

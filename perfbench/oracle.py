"""Independent dense reference for a fixed sample of trials.

For each sampled replicate the noise panel is drawn again and the record is
rebuilt without the package's fast path: the filtered panel through
``build_xhat_direct``, a dense ``S = Xhat Xhatᵀ - n mu H Hᵀ`` with ``H Hᵀ``
formed from the autocorrelation of theta, and ``numpy.linalg.eigvalsh`` for
both ``||S||`` and the off-diagonal norm (never ``spectral_norm``).  The
norming constant, the centering level and the windowed top-k are computed
here from their closed forms.  Every stored scalar must agree to ``REL_TOL``,
the Lanczos tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from heavyspec.experiment import ExperimentConfig, TrialRecord, derive_seed
from heavyspec.linear_filter import build_xhat_direct
from heavyspec.rv_noise import sample_noise

REL_TOL = 1e-8


@dataclass(frozen=True)
class Mismatch:
    replicate: int
    field: str
    got: float
    want: float

    def __str__(self) -> str:
        return f"replicate {self.replicate}: {self.field} = {self.got!r}, reference {self.want!r}"


def sample_replicates(replicates: int) -> list[int]:
    """The fixed oracle sample: first, middle and last replicate."""
    return sorted({0, replicates // 2, replicates - 1})


def _pareto_constants(config: ExperimentConfig, p: int, n: int) -> tuple[float, float]:
    """Norming constant a_np and centering level mu of a Pareto model."""
    model = config.model
    if not model.is_pareto or model.alpha == 2.0:
        raise ValueError("the reference covers Pareto noise with alpha != 2 only")
    a_np = model.scale * float(n * p) ** (1.0 / model.alpha)
    if model.alpha < 2.0:
        return a_np, 0.0
    second_moment = model.alpha * model.scale**2 / (model.alpha - 2.0)
    return a_np, second_moment * sum(v * v for v in config.filter.c.values)


def reference(config: ExperimentConfig, n: int, seed: int) -> dict:
    """Every stored scalar of one trial, recomputed densely."""
    fspec = config.filter
    theta, c = fspec.theta, fspec.c
    rule = config.rule
    p = max(1, int(round(rule.const * float(n) ** rule.beta)))
    if rule.p_max is not None:
        p = min(p, rule.p_max)
    k_lo, k_hi = theta.min_lag, theta.max_lag
    rows = (1 - k_hi, p - k_lo + 1)
    noise = sample_noise(config.model, rows, (1 - c.max_lag, n - c.min_lag + 1), seed)
    a_np, mu = _pareto_constants(config, p, n)
    a2 = a_np * a_np

    xhat = build_xhat_direct(noise, fspec, p, n)
    hht = np.zeros((p, p))
    for k1, w1 in zip(theta.lags, theta.values):
        for k2, w2 in zip(theta.lags, theta.values):
            hht += w1 * w2 * np.eye(p, k=k2 - k1)
    s = xhat @ xhat.T - n * mu * hht
    scaled_norm = float(np.abs(np.linalg.eigvalsh(0.5 * (s + s.T))).max()) / a2

    x_rows = np.zeros((rows[1] - rows[0], n))
    for j, w in zip(c.lags, c.values):
        x_rows += w * noise.block(rows, (1 - j, n + 1 - j))
    g = x_rows @ x_rows.T
    g = 0.5 * (g + g.T)
    np.fill_diagonal(g, 0.0)
    offdiag_dev = float(np.abs(np.linalg.eigvalsh(g)).max()) / a2

    d_tilde = (x_rows * x_rows).sum(axis=1) - n * mu
    window = np.zeros(p)
    for k, w in zip(theta.lags, theta.values):
        window += w * d_tilde[k_hi - k : k_hi - k + p]
    top = np.sort(window / a2)[::-1][: config.top_k]
    return {"p": p, "a_np": a_np, "scaled_norm": scaled_norm, "offdiag_dev": offdiag_dev, "top": top}


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want), scale)


def check(config: ExperimentConfig, records: list[TrialRecord]) -> list[Mismatch]:
    """Compare the sampled replicates at the largest n with the reference.

    A sampled replicate that is absent from ``records`` is a mismatch too.
    """
    n = max(config.n_values)
    by_replicate = {r.replicate: r for r in records if r.n == n}
    out = []
    for replicate in sample_replicates(config.replicates):
        record = by_replicate.get(replicate)
        if record is None:
            out.append(Mismatch(replicate, "record", float("nan"), float("nan")))
            continue
        if record.seed != derive_seed(config.seed, n, replicate):
            out.append(Mismatch(replicate, "seed", record.seed, derive_seed(config.seed, n, replicate)))
            continue
        ref = reference(config, n, record.seed)
        if record.p != ref["p"]:
            out.append(Mismatch(replicate, "p", record.p, ref["p"]))
            continue
        for field in ("a_np", "scaled_norm", "offdiag_dev"):
            got = getattr(record, field)
            if not _close(got, ref[field], 0.0):
                out.append(Mismatch(replicate, field, got, ref[field]))
        top_scale = float(np.abs(ref["top"]).max())
        for rank, (got, want) in enumerate(zip(record.top_diag, ref["top"]), start=1):
            if not _close(got, float(want), top_scale):
                out.append(Mismatch(replicate, f"top{rank}", got, float(want)))
    return out

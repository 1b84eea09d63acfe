"""The experiment config and the paper's admissibility hypotheses.

Each config dataclass converts and checks its own fields, so an object built
directly or changed with ``dataclasses.replace`` passes the checks of one
read from JSON through ``config_object``: a value of the wrong kind, a
missing key or an unknown one is refused with a ``ValueError`` that names
it, which the CLI reports in one line. This module imports the standard
library alone: ``validate`` draws nothing, so the ``validate`` command loads
neither numpy nor scipy. The numeric modules re-export the names they share with it.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
from dataclasses import MISSING, dataclass, field, fields

__all__ = [
    "CHECKS",
    "FAMILIES",
    "CoefficientSequence",
    "DimensionRule",
    "EnsembleSpec",
    "EnsembleTemplate",
    "ExperimentConfig",
    "FilterSpec",
    "TailModel",
    "ValidationError",
    "ValidationItem",
    "ValidationReport",
    "batch_grid",
    "beta_limit",
    "config_float",
    "config_int",
    "config_known_keys",
    "config_list",
    "config_object",
    "config_section",
    "load_config",
    "mean_value",
    "norming_constant",
    "validate",
]


def _key_path(path: str, key: str) -> str:
    """``key`` named from the top: ``path.key``, or ``key`` itself at the top."""
    return f"{path}.{key}" if path else key


def config_known_keys(d: dict, known, path: str = "") -> None:
    """Refuses every key of ``d`` outside ``known``, so that a misspelled
    optional key is not read as absent; ``path`` is where ``d`` sits in the
    config ("" at the top), and each key is named from the top through it,
    such as ``filter.theta.minlag`` under ``filter.theta``."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        paths = [_key_path(path, key) for key in unknown]
        known = [_key_path(path, key) for key in sorted(known)]
        raise ValueError(f"unknown config keys {paths}; known: {known}")


def config_object(cls, d: dict, path: str = ""):
    """``cls(**d)``; refuses a key that names no field of ``cls`` and a
    missing field that has no default, each named from the top through
    ``path``, where ``d`` sits in the config ("" at the top)."""
    config_known_keys(d, [f.name for f in fields(cls)], path)
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in d:
            raise ValueError(f"config lacks required key {_key_path(path, f.name)!r}")
    return cls(**d)


def config_section(d: dict, key: str, from_dict, path: str = ""):
    """``from_dict(d[key], path.key)``; refuses a missing ``key`` and a
    section that is not a JSON object. ``path`` is where ``d`` sits in the
    config ("" at the top), and ``from_dict`` names the section's keys
    through the path it is passed."""
    key_path = _key_path(path, key)
    if key not in d:
        raise ValueError(f"config lacks required key {key_path!r}")
    section = d[key]
    if not isinstance(section, dict):
        raise ValueError(f"{key} must be a JSON object, got {section!r}")
    return from_dict(section, key_path)


def config_list(value, name: str) -> list:
    """``value`` as a list; refuses a number, which iterating would fail on,
    a string or a mapping, which it would read by character or by key, and a
    set, which it would read in hash order."""
    try:
        if not isinstance(value, (str, bytes, dict, set, frozenset)):
            return list(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be a list, got {value!r}")


def config_int(value, name: str) -> int:
    """A config count as an int: an int, a numpy integer or an integral
    real of another kind, such as 2.0 or numpy's float32 2.0; refuses
    booleans and anything else."""
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral) and float(value).is_integer():
            return int(value)
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def config_float(value, name: str) -> float:
    """A config real as a float: a ``numbers.Real``, which numpy's integers
    and floats are; refuses booleans, numpy's too, strings and other
    non-numbers, which ``float()`` would read as reals."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)

PARETO_SYMMETRIC = "pareto_symmetric"
PARETO_POSITIVE = "pareto_positive"
PARETO_SKEWED = "pareto_skewed"

FAMILIES = (PARETO_SYMMETRIC, PARETO_POSITIVE, PARETO_SKEWED)


@dataclass(frozen=True)
class TailModel:
    """Pareto noise with tail index ``alpha``: |Z| = scale * U^(-1/alpha),
    positive with probability ``q`` and negative otherwise.

    The family only pins ``q``: to 1/2 for the symmetric Pareto, to 1 for the
    positive one, and not at all for the skewed one, whose ``q`` is free in
    [0, 1] and 1/2 when not given.  ``scale`` is the minimum support point of |Z|.
    """

    family: str
    alpha: float
    q: float | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.q is None:
            object.__setattr__(self, "q", 1.0 if self.family == PARETO_POSITIVE else 0.5)
        for name in ("alpha", "q", "scale"):
            object.__setattr__(self, name, config_float(getattr(self, name), name))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not 0.0 < self.alpha < 4.0:
            raise ValueError(f"alpha must lie in (0, 4), got {self.alpha}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if self.family == PARETO_SYMMETRIC and self.q != 0.5:
            raise ValueError(f"{self.family} requires q = 1/2, got {self.q}")
        if self.family == PARETO_POSITIVE and self.q != 1.0:
            raise ValueError(f"{self.family} requires q = 1, got {self.q}")

    @property
    def is_pareto(self) -> bool:
        # Every family is a Pareto tail; kept for perfbench's oracle, which reads it.
        return True

    from_dict = classmethod(config_object)


def norming_constant(model: TailModel, m: int) -> float:
    """The 1 - 1/m quantile of |Z|, i.e. the solution of m * P(|Z| > a) = 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return model.scale * float(m) ** (1.0 / model.alpha)


def mean_value(model: TailModel) -> float:
    """E(Z) where defined; NaN for alpha <= 1 (no first moment)."""
    if model.alpha <= 1.0:
        return math.nan
    abs_mean = model.alpha * model.scale / (model.alpha - 1.0)
    return (2.0 * model.q - 1.0) * abs_mean


# Lags, n and p lie strictly inside (-2**62, 2**62), so that every noise row
# and column index and its exclusive end lie in int64.
_INDEX_BOUND = 2**62


@dataclass(frozen=True)
class CoefficientSequence:
    """A finite real coefficient window; ``values[v]`` sits at lag ``min_lag + v``."""

    values: tuple[float, ...]
    min_lag: int = 0

    def __post_init__(self):
        vals = tuple(config_float(v, "coefficient value") for v in config_list(self.values, "values"))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "min_lag", config_int(self.min_lag, "min_lag"))
        if not vals:
            raise ValueError("coefficient window is empty")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("coefficient window contains non-finite values")
        if all(v == 0.0 for v in vals):
            raise ValueError("coefficient window must contain a nonzero value")
        if not (-_INDEX_BOUND < self.min_lag and self.max_lag < _INDEX_BOUND):
            lags = f"{self.min_lag} through {self.max_lag}"
            raise ValueError(f"min_lag must keep every lag inside (-2**62, 2**62), got lags {lags}")

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

    from_dict = classmethod(config_object)


@dataclass(frozen=True)
class FilterSpec:
    """The pair of windows for the two-dimensional filter."""

    c: CoefficientSequence
    theta: CoefficientSequence

    @classmethod
    def from_dict(cls, d: dict, path: str = "") -> "FilterSpec":
        # Keys other than c and theta are ignored, unlike in every other
        # section: perfbench's configs still carry a filter.delta.
        return cls(
            c=config_section(d, "c", CoefficientSequence.from_dict, path),
            theta=config_section(d, "theta", CoefficientSequence.from_dict, path),
        )


@dataclass(frozen=True)
class EnsembleSpec:
    """Everything needed to draw one replicate."""

    model: TailModel
    filter: FilterSpec
    p: int
    n: int
    seed: int

    def __post_init__(self):
        if self.p < 1 or self.n < 1:
            raise ValueError(f"p and n must be >= 1, got p={self.p}, n={self.n}")


@dataclass(frozen=True)
class EnsembleTemplate:
    """The per-batch part of an ensemble spec: noise model plus filter."""

    model: TailModel
    filter: FilterSpec

    def spec(self, p: int, n: int, seed: int) -> EnsembleSpec:
        return EnsembleSpec(model=self.model, filter=self.filter, p=p, n=n, seed=seed)


@dataclass(frozen=True)
class DimensionRule:
    """Row growth rule p = round(const * n^beta), optionally capped."""

    beta: float
    const: float = 1.0
    p_max: int | None = None

    def __post_init__(self):
        for name in ("beta", "const"):
            object.__setattr__(self, name, config_float(getattr(self, name), name))
        object.__setattr__(self, "p_max", None if self.p_max is None else config_int(self.p_max, "p_max"))
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.const > 0.0:
            raise ValueError(f"const must be positive, got {self.const}")
        if self.p_max is not None and self.p_max < 1:
            raise ValueError(f"p_max must be >= 1, got {self.p_max}")

    def p_for(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        try:
            p = max(1, int(round(self.const * float(n) ** self.beta)))
        except OverflowError:
            # const * n^beta, or n^beta alone, exceeds the largest float: p is
            # p_max wherever the logarithms put the product above it.
            if self.p_max is None or math.log(self.const) + self.beta * math.log(n) < math.log(self.p_max):
                product = f"computing {self.const:g} * n^{self.beta:g}"
                raise ValueError(f"dimension_rule overflows at n={n}: {product} exceeds the largest float") from None
            return self.p_max
        if self.p_max is not None:
            p = min(p, self.p_max)
        return p

    from_dict = classmethod(config_object)


def beta_limit(alpha: float) -> float:
    """Largest admissible growth exponent for p = O(n^beta) at tail index alpha."""
    if not 0.0 < alpha < 4.0:
        raise ValueError(f"alpha must lie in (0, 4), got {alpha}")
    if alpha <= 1.0:
        return math.inf
    if alpha < 2.0:
        return max((2.0 - alpha) / (alpha - 1.0), 0.5)
    if alpha < 3.0:
        return max((4.0 - alpha) / (4.0 * (alpha - 1.0)), 1.0 / 3.0)
    return (4.0 - alpha) / (3.0 * alpha - 4.0)


@dataclass(frozen=True)
class ValidationItem:
    name: str
    passed: bool
    margin: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    items: tuple[ValidationItem, ...]

    @property
    def ok(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        out = []
        for it in self.items:
            status = "pass" if it.passed else "FAIL"
            out.append(f"{status:4s}  {it.name:16s} margin={it.margin:+.6g}  {it.detail}")
        return out


class ValidationError(ValueError):
    def __init__(self, report: ValidationReport):
        super().__init__("ensemble spec violates admissibility:\n" + "\n".join(report.lines()))
        self.report = report


def validate(model: TailModel, rule: DimensionRule) -> ValidationReport:
    """Check every admissibility hypothesis; each item reports its margin.

    The hypotheses constrain only the noise and the growth rule, never one
    n, p or seed. The tail index range (0, 4) is not an item: ``TailModel``
    refuses any other alpha."""
    alpha = model.alpha
    if alpha > 5.0 / 3.0:
        mean = mean_value(model)
        detail = f"E(Z)={mean:g} (required zero for alpha in (5/3, 4))"
        # 0.0 - |mean| rather than -|mean|, so that a zero mean reads +0.
        zero_mean = ValidationItem("zero_mean", mean == 0.0, 0.0 - abs(mean), detail)
    else:
        zero_mean = ValidationItem("zero_mean", True, math.inf, "not required for alpha <= 5/3")
    limit = beta_limit(alpha)
    detail = f"beta={rule.beta} < beta_limit({alpha})={limit:g}"
    beta_admissible = ValidationItem("beta_admissible", rule.beta < limit, limit - rule.beta, detail)
    return ValidationReport(items=(zero_mean, beta_admissible))


# Slack on _gram_bound for the rounding of its pow and products.
_GRAM_BOUND_SLACK = 1.0 + 2.0**-40


def _gram_bound(template: EnsembleTemplate, n: int, p: int) -> float:
    """m n (sum|c| sum|theta| scale 2^(54/alpha))^2, m = p + len(theta) - 1,
    with a little slack; inf where it exceeds the largest float.

    The unit map's least uniform is 2**-54, so |Z| <= scale 2^(54/alpha).
    Then n (sum|c| |Z|max)^2 bounds every entry of the Gram G of the
    filtered rows, (sum|theta|)^2 times that every entry of T G Tᵀ, and m
    times an entry bound the norm of an m x m or smaller matrix: this bounds
    G, |S| and the off-diagonal norm."""
    c, theta, model = template.filter.c, template.filter.theta, template.model
    try:
        z_max = model.scale * 2.0 ** (54.0 / model.alpha)
    except OverflowError:
        return math.inf
    entry = c.abs_sum * theta.abs_sum * z_max
    return float(p + len(theta.values) - 1) * float(n) * entry * entry * _GRAM_BOUND_SLACK


def batch_grid(
    template: EnsembleTemplate, rule: DimensionRule, n_values, replicates: int, top_k: int
) -> list[tuple[int, int]]:
    """The (n, p) grid of a batch; refuses an empty n grid, an n given twice,
    fewer than one replicate, an n below 1, an n or p of 2**62 or more,
    whose noise indices would leave int64, n * p = 1, where the norming
    constant a_np (the 1 - 1/(np) quantile of |Z|) is the 0 quantile, the
    bottom of the support rather than a tail level, an a_np whose square,
    which scales every statistic, is not a positive normal float, a Gram
    matrix that can overflow (``_gram_bound``), and a ``top_k`` outside
    ``[1, p]`` at any n, as each record holds exactly ``top_k`` ranks of the
    p windowed diagonals."""
    model = template.model
    if not n_values:
        raise ValueError("n_values must be nonempty")
    repeated = sorted({n for n in n_values if n_values.count(n) > 1})
    if repeated:
        raise ValueError(f"n_values repeats {repeated}; each n must appear once")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    grid = []
    for n in n_values:
        p = rule.p_for(n)
        if max(n, p) >= _INDEX_BOUND:
            detail = f"n_values entry {n} gives p={p}; n and p must be below 2**62"
            raise ValueError(f"{detail}, so noise indices fit in int64")
        if n * p == 1:
            raise ValueError(f"n * p must be at least 2, got n={n} and p={p}: a_np is the 1 - 1/(np) quantile of |Z|")
        try:
            a_np = norming_constant(model, n * p)
        except OverflowError:
            a_np = math.inf
        if not sys.float_info.min <= a_np * a_np < math.inf:
            detail = f"scale={model.scale:g} and alpha={model.alpha:g} give a_np^2 = {a_np * a_np:g} at n={n}, p={p}"
            raise ValueError(f"{detail}, not a positive normal float")
        bound = _gram_bound(template, n, p)
        if not bound < math.inf:
            detail = f"scale={model.scale:g} and alpha={model.alpha:g} bound |S| by {bound:g} at n={n}, p={p}"
            raise ValueError(f"{detail}: a Gram product can overflow")
        if not 1 <= top_k <= p:
            raise ValueError(f"top_k must lie in [1, p], got top_k={top_k} with p={p} at n={n}")
        grid.append((n, p))
    return grid

# Every check, by its key in the config's "checks" and in checks.json, with the
# name of its function in heavyspec.experiment. run_checks looks each function
# up there when it runs, so a wrapper set on that module attribute (perfbench's
# tracer) sees the call.
CHECKS = {
    "envelope": "envelope_check",
    "ks": "ks_check",
    "order_stats": "order_stat_check",
    "offdiag": "offdiag_trend_check",
}

_CONFIG_KEYS = ("model", "filter", "dimension_rule", "n_values", "replicates", "seed", "checks", "top_k")


@dataclass(frozen=True)
class ExperimentConfig:
    model: TailModel
    filter: FilterSpec
    rule: DimensionRule
    n_values: tuple[int, ...]
    replicates: int
    seed: int
    checks: dict = field(default_factory=dict)
    top_k: int = 3

    def __post_init__(self):
        n_values = tuple(config_int(n, "n_values entry") for n in config_list(self.n_values, "n_values"))
        object.__setattr__(self, "n_values", n_values)
        for name in ("replicates", "seed", "top_k"):
            object.__setattr__(self, name, config_int(getattr(self, name), name))
        if not isinstance(self.checks, dict) or not all(isinstance(v, bool) for v in self.checks.values()):
            raise ValueError(f"checks must map check names to true or false, got {self.checks!r}")
        unknown = sorted(set(self.checks) - set(CHECKS))
        if unknown:
            raise ValueError(f"unknown checks {unknown}; known: {sorted(CHECKS)}")
        object.__setattr__(self, "checks", {**dict.fromkeys(CHECKS, True), **self.checks})

    @property
    def template(self) -> EnsembleTemplate:
        return EnsembleTemplate(model=self.model, filter=self.filter)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config a JSON object describes; refuses any key it does not know."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        config_known_keys(d, _CONFIG_KEYS)
        sections = {"model": TailModel, "filter": FilterSpec, "dimension_rule": DimensionRule}
        d = {**d, **{key: config_section(d, key, kind.from_dict) for key, kind in sections.items()}}
        d["rule"] = d.pop("dimension_rule")
        return config_object(cls, d)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; refuses a key given twice, which
    ``json`` would otherwise read as its last value."""
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise ValueError(f"config object repeats keys {repeated}; each key must appear once")
    return dict(pairs)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh, object_pairs_hook=_unique_keys))

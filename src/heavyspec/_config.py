"""The experiment config and the paper's admissibility hypotheses.

Readers for the values of a JSON config refuse a value of the wrong kind, a
missing key or an unknown one with a ``ValueError`` that names it, so that
the CLI reports it in one line. This module imports the standard library
alone: ``validate`` draws nothing, so the ``validate`` command loads neither
numpy nor scipy. The numeric modules re-export the names they share with it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

__all__ = [
    "CHECKS",
    "FAMILIES",
    "CoefficientSequence",
    "DimensionRule",
    "EnsembleSpec",
    "EnsembleTemplate",
    "ExperimentConfig",
    "FilterSpec",
    "MissingConfigKey",
    "TailModel",
    "UnknownConfigKeys",
    "ValidationError",
    "ValidationItem",
    "ValidationReport",
    "batch_grid",
    "beta_limit",
    "config_float",
    "config_int",
    "config_key",
    "config_known_keys",
    "config_list",
    "config_section",
    "load_config",
    "mean_value",
    "norming_constant",
    "validate",
]


class MissingConfigKey(ValueError):
    """A config object lacks a required key; ``path`` names it from the top,
    such as ``filter.c``."""

    def __init__(self, path: str):
        super().__init__(f"config lacks required key {path!r}")
        self.path = path


class UnknownConfigKeys(ValueError):
    """A config object holds keys its reader does not know; ``paths`` name
    them, and ``known`` the keys it reads, from the top, such as
    ``dimension_rule.pmax`` and ``dimension_rule.p_max``."""

    def __init__(self, paths: list[str], known: list[str]):
        super().__init__(f"unknown config keys {paths}; known: {known}")
        self.paths = paths
        self.known = known


def config_known_keys(d: dict, known) -> None:
    """Refuses every key of ``d`` outside ``known``, by name, so that a
    misspelled optional key is not read as absent."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise UnknownConfigKeys(unknown, sorted(known))


def config_key(d: dict, key: str):
    """``d[key]``; refuses a missing key by name."""
    if key not in d:
        raise MissingConfigKey(key)
    return d[key]


def config_section(d: dict, key: str, from_dict):
    """``from_dict(d[key])``; refuses a section that is not a JSON object, and
    names a key missing or unknown inside the section by its path through
    ``key``."""
    section = config_key(d, key)
    if not isinstance(section, dict):
        raise ValueError(f"{key} must be a JSON object, got {section!r}")
    try:
        return from_dict(section)
    except MissingConfigKey as err:
        raise MissingConfigKey(f"{key}.{err.path}") from None
    except UnknownConfigKeys as err:
        raise UnknownConfigKeys([f"{key}.{p}" for p in err.paths], [f"{key}.{k}" for k in err.known]) from None


def config_list(d: dict, key: str) -> list:
    """``d[key]``; refuses a missing key by name, and a value that is not a
    JSON array, such as a number or a string, which iterating would fail on
    or read character by character."""
    value = config_key(d, key)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def config_int(value, name: str) -> int:
    """A config count as an int; refuses booleans and non-integral numbers."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def config_float(value, name: str) -> float:
    """A config real as a float; refuses booleans, strings and other
    non-numbers, which ``float()`` would read as reals."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
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
    [0, 1].  ``scale`` is the minimum support point of |Z|.
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

    @classmethod
    def from_dict(cls, d: dict) -> "TailModel":
        config_known_keys(d, ("family", "alpha", "q", "scale"))
        return cls(
            family=config_key(d, "family"),
            alpha=config_float(config_key(d, "alpha"), "alpha"),
            q=config_float(d.get("q", 0.5), "q"),
            scale=config_float(d.get("scale", 1.0), "scale"),
        )


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
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
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

    @classmethod
    def from_dict(cls, d: dict) -> "CoefficientSequence":
        config_known_keys(d, ("min_lag", "values"))
        min_lag = config_int(d.get("min_lag", 0), "min_lag")
        values = tuple(config_float(v, "coefficient value") for v in config_list(d, "values"))
        return cls(values=values, min_lag=min_lag)


@dataclass(frozen=True)
class FilterSpec:
    """The pair of windows for the two-dimensional filter."""

    c: CoefficientSequence
    theta: CoefficientSequence

    @classmethod
    def from_dict(cls, d: dict) -> "FilterSpec":
        # Keys other than c and theta are ignored, unlike in every other
        # section: perfbench's configs still carry a filter.delta.
        return cls(
            c=config_section(d, "c", CoefficientSequence.from_dict),
            theta=config_section(d, "theta", CoefficientSequence.from_dict),
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

    @classmethod
    def from_dict(cls, d: dict) -> "DimensionRule":
        config_known_keys(d, ("beta", "const", "p_max"))
        p_max = d.get("p_max")
        return cls(
            beta=config_float(config_key(d, "beta"), "beta"),
            const=config_float(d.get("const", 1.0), "const"),
            p_max=None if p_max is None else config_int(p_max, "p_max"),
        )


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


def batch_grid(model: TailModel, rule: DimensionRule, n_values, replicates: int, top_k: int) -> list[tuple[int, int]]:
    """The (n, p) grid of a batch; refuses an empty n grid, an n given twice,
    fewer than one replicate, an n below 1, an n or p of 2**62 or more,
    whose noise indices would leave int64, n * p = 1, where the norming
    constant a_np (the 1 - 1/(np) quantile of |Z|) is the 0 quantile, the
    bottom of the support rather than a tail level, an a_np whose square,
    which scales every statistic, is not a positive normal float, and a
    ``top_k`` outside ``[1, p]`` at any n, as each record holds exactly
    ``top_k`` ranks of the p windowed diagonals."""
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
    checks: dict = field(default_factory=lambda: dict.fromkeys(CHECKS, True))
    top_k: int = 3

    @property
    def template(self) -> EnsembleTemplate:
        return EnsembleTemplate(model=self.model, filter=self.filter)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config a JSON object describes; refuses any key it does not know."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        config_known_keys(d, _CONFIG_KEYS)
        flags = d.get("checks", {})
        if not isinstance(flags, dict) or not all(isinstance(v, bool) for v in flags.values()):
            raise ValueError(f"checks must map check names to true or false, got {flags!r}")
        unknown = sorted(set(flags) - set(CHECKS))
        if unknown:
            raise ValueError(f"unknown checks {unknown}; known: {sorted(CHECKS)}")
        checks = {**dict.fromkeys(CHECKS, True), **flags}
        return cls(
            model=config_section(d, "model", TailModel.from_dict),
            filter=config_section(d, "filter", FilterSpec.from_dict),
            rule=config_section(d, "dimension_rule", DimensionRule.from_dict),
            n_values=tuple(config_int(n, "n_values entry") for n in config_list(d, "n_values")),
            replicates=config_int(config_key(d, "replicates"), "replicates"),
            seed=config_int(config_key(d, "seed"), "seed"),
            checks=checks,
            top_k=config_int(d.get("top_k", 3), "top_k"),
        )


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))

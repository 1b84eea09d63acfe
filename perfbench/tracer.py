"""In-memory span tracing of heavyspec's run path, from outside the package.

The tracer wraps the module attributes that the run path resolves at call
time, such as ``heavyspec.experiment.sample_noise`` (called by ``run_trial``)
and ``heavyspec.spectral.spectral_norm`` (called by ``offdiag_deviation``).
Nothing in the package changes; uninstalling restores the originals.

A span is ``[name, start, end, parent, trial, work]``: ``parent`` indexes
the enclosing span in the same list (-1 for none), ``trial`` is
``(n, replicate, index of the enclosing run_batch span)`` for spans recorded
inside a trial and None outside trials, and
``work`` is a count taken from the arguments or result (noise entries drawn,
Gram flops, report bytes; 0 when the span has none).  Times come from
``time.perf_counter``, which is system-wide on Linux, so spans from pool
workers share the parent's time line.

Trials may run in pool workers.  Each traced trial returns its spans inside
a ``TracedRecord``; the ``run_batch`` wrapper moves them under its own span
and hands back plain ``TrialRecord``s, so checks and reports see exactly what
an untraced run produces.  Workers get the wrappers by inheritance under
``fork`` and from a pool initializer under ``spawn`` or ``forkserver``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

import heavyspec.experiment as experiment
import heavyspec.spectral as spectral
from heavyspec.experiment import TrialRecord

_MARK = "_perfbench_traced"


@dataclass(frozen=True)
class TracedRecord(TrialRecord):
    """A trial record carrying the spans recorded while it ran."""

    spans: tuple = ()


def _plain(record: TrialRecord) -> TrialRecord:
    return TrialRecord(**{f.name: getattr(record, f.name) for f in fields(TrialRecord)})


def _noise_entries(args, kwargs, result) -> float:
    values = result.values
    return float(values.shape[0] * values.shape[1])


def _gram_flops(args, kwargs, result) -> float:
    # Computed from the argument shape: a dense X Xᵀ costs 2 m^2 n flops.
    m, n = np.shape(args[0])
    return 2.0 * m * m * n


def _report_bytes(args, kwargs, result) -> float:
    return float(sum(os.path.getsize(path) for path in result.values()))


class Tracer:
    """Records spans of the calls made through the attributes it wraps."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trial = None
        self._saved: list[tuple] = []

    def call(self, name, fn, args, kwargs, work=None):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._trial, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            span[5] = work(args, kwargs, result)
        return result

    def _wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        setattr(traced, _MARK, True)
        return traced

    def _wrap_trial_job(self, fn):
        @functools.wraps(fn)
        def traced_job(job):
            spec, replicate, _ = job
            outer = self.spans, self._stack, self._trial
            self.spans, self._stack, self._trial = [], [], (spec.n, replicate)
            try:
                record = fn(job)
                spans = tuple(tuple(s) for s in self.spans)
            finally:
                self.spans, self._stack, self._trial = outer
            return TracedRecord(**{f.name: getattr(record, f.name) for f in fields(record)}, spans=spans)

        setattr(traced_job, _MARK, True)
        return traced_job

    def _wrap_run_batch(self, fn):
        @functools.wraps(fn)
        def traced_batch(*args, **kwargs):
            first = len(self.spans)
            batch = self.call("experiment.run_batch", fn, args, kwargs)
            records = []
            for record in batch.records:
                if isinstance(record, TracedRecord):
                    base = len(self.spans)
                    for name, start, end, parent, trial, work in record.spans:
                        self.spans.append(
                            [name, start, end, first if parent < 0 else base + parent, (*trial, first), work]
                        )
                records.append(_plain(record))
            return replace(batch, records=tuple(records))

        return traced_batch

    def _pool_factory(self, cls):
        def make_pool(*args, initializer=None, initargs=(), **kwargs):
            return cls(*args, initializer=_init_worker, initargs=(initializer, initargs), **kwargs)

        return make_pool

    def _trial_patches(self):
        e = experiment
        return [
            (e, "sample_noise", self._wrap("rv_noise.sample_noise", e.sample_noise, _noise_entries)),
            (e, "build_row_process", self._wrap("linear_filter.build_row_process", e.build_row_process)),
            (e, "build_xhat", self._wrap("linear_filter.build_xhat", e.build_xhat)),
            (e, "centered_covariance", self._wrap("spectral.centered_covariance", e.centered_covariance, _gram_flops)),
            (e, "spectral_norm", self._wrap("spectral.spectral_norm", e.spectral_norm)),
            (spectral, "spectral_norm", self._wrap("spectral.spectral_norm", spectral.spectral_norm)),
            (e, "offdiag_deviation", self._wrap("spectral.offdiag_deviation", e.offdiag_deviation, _gram_flops)),
            (e, "centered_gram_diag", self._wrap("spectral.centered_gram_diag", e.centered_gram_diag)),
            (e, "run_trial", self._wrap("experiment.run_trial", e.run_trial)),
            (e, "_trial_job", self._wrap_trial_job(e._trial_job)),
        ]

    def _batch_patches(self):
        e = experiment
        patches = [
            (e, "run_batch", self._wrap_run_batch(e.run_batch)),
            (e, "ProcessPoolExecutor", self._pool_factory(e.ProcessPoolExecutor)),
            (e, "validate", self._wrap("experiment.validate", e.validate)),
            (e, "run_checks", self._wrap("experiment.run_checks", e.run_checks)),
            (e, "limit_order_statistics", self._wrap("limit_law.limit_order_statistics", e.limit_order_statistics)),
            (e, "emit_report", self._wrap("experiment.emit_report", e.emit_report, _report_bytes)),
        ]
        for name in ("envelope_check", "ks_check", "order_stat_check", "offdiag_trend_check"):
            patches.append((e, name, self._wrap(f"experiment.{name}", getattr(e, name))))
        return patches

    def _apply(self, patches):
        saved = []
        for module, attr, wrapper in patches:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        self._saved.extend(saved)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the run path for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._apply(self._trial_patches() + self._batch_patches())
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()


def _init_worker(initializer, initargs):
    """Pool initializer: wrap the trial path in workers started without fork."""
    if not getattr(experiment._trial_job, _MARK, False):
        tracer = Tracer()
        tracer._apply(tracer._trial_patches())
    if initializer is not None:
        initializer(*initargs)


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer metrics.


def tail_level(count: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 at least)."""
    if count <= 0:
        return 50
    return max(50, min(99, int(100.0 * (1.0 - 10.0 / count))))


def _union_length(intervals) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def span_table(spans) -> list[dict]:
    """Per span: name, parent name, duration and self time (seconds).

    Self time is the duration minus the part of it that child spans cover;
    children of a pooled ``run_batch`` overlap, hence the interval union.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    table = []
    for i, (name, start, end, parent, trial, work) in enumerate(spans):
        dur = end - start
        kids = children.get(i, ())
        table.append(
            {
                "name": name,
                "parent": spans[parent][0] if parent >= 0 else None,
                "parent_id": parent,
                "trial": trial,
                "dur": dur,
                "self": dur - _union_length(kids),
                "work": work,
            }
        )
    return table


# Per-trial stage metrics: (metric, span name, parent span name or None, field).
TRIAL_STAGES = (
    ("rv_noise.sample_noise.ms", "rv_noise.sample_noise", None, "dur"),
    ("linear_filter.build_row_process.ms", "linear_filter.build_row_process", None, "dur"),
    ("linear_filter.build_xhat.ms", "linear_filter.build_xhat", None, "dur"),
    ("spectral.centered_covariance.ms", "spectral.centered_covariance", None, "dur"),
    ("spectral.spectral_norm_S.ms", "spectral.spectral_norm", "experiment.run_trial", "dur"),
    ("spectral.offdiag_deviation.self_ms", "spectral.offdiag_deviation", None, "self"),
    ("spectral.offdiag_deviation.norm_ms", "spectral.spectral_norm", "spectral.offdiag_deviation", "dur"),
    ("spectral.centered_gram_diag.ms", "spectral.centered_gram_diag", None, "dur"),
    ("experiment.run_trial.ms", "experiment.run_trial", None, "dur"),
    ("experiment.run_trial.self_ms", "experiment.run_trial", None, "self"),
)

# Per-call metrics outside trials: (metric, span name, scale, unit).
CALL_STAGES = (
    ("experiment.validate.ms", "experiment.validate", 1e3, "ms"),
    ("experiment.run_checks.s", "experiment.run_checks", 1.0, "s"),
    ("experiment.envelope_check.ms", "experiment.envelope_check", 1e3, "ms"),
    ("experiment.order_stat_check.ms", "experiment.order_stat_check", 1e3, "ms"),
    ("limit_law.limit_order_statistics.ms", "limit_law.limit_order_statistics", 1e3, "ms"),
    ("experiment.emit_report.ms", "experiment.emit_report", 1e3, "ms"),
    ("cli.validate.ms", "cli.validate", 1e3, "ms"),
)


def layer_metrics(spans, workers: int) -> tuple[dict, dict]:
    """Reduce spans to the per-layer metrics (value, unit) and the tail
    percentile used for each ``*_tail`` metric."""
    table = span_table(spans)
    metrics: dict[str, tuple[float, str]] = {}
    tails: dict[str, int] = {}

    per_trial: dict = {}
    for row in table:
        if row["trial"] is not None:
            per_trial.setdefault(row["trial"], []).append(row)
    trials = list(per_trial.values())
    for metric, name, parent, field in TRIAL_STAGES:
        values = np.array(
            [
                sum(r[field] for r in rows if r["name"] == name and (parent is None or r["parent"] == parent))
                for rows in trials
            ]
        ) * 1e3
        level = tail_level(values.size)
        metrics[metric] = (float(np.percentile(values, 50)), "ms")
        metrics[metric + "_tail"] = (float(np.percentile(values, level)), "ms")
        tails[metric + "_tail"] = level

    noise = [r for r in table if r["name"] == "rv_noise.sample_noise"]
    metrics["rv_noise.sample_noise.mentries_per_s"] = (
        sum(r["work"] for r in noise) / sum(r["dur"] for r in noise) / 1e6,
        "Mentries/s",
    )
    gram = ("spectral.centered_covariance", "spectral.offdiag_deviation")
    metrics["spectral.gram_gflop_per_trial"] = (
        float(np.median([sum(r["work"] for r in rows if r["name"] in gram) for rows in trials])) / 1e9,
        "GFLOP",
    )
    metrics["spectral.spectral_norm.calls_per_trial"] = (
        float(np.median([sum(r["name"] == "spectral.spectral_norm" for r in rows) for rows in trials])),
        "count",
    )

    efficiency = []
    for i, row in enumerate(table):
        if row["name"] == "experiment.run_batch":
            busy = sum(r["dur"] for r in table if r["name"] == "experiment.run_trial" and r["parent_id"] == i)
            efficiency.append(busy / (workers * row["dur"]))
    metrics["experiment.run_batch.pool_efficiency"] = (float(np.median(efficiency)), "fraction")

    for metric, name, scale, unit in CALL_STAGES:
        durations = [r["dur"] for r in table if r["name"] == name]
        metrics[metric] = (float(np.median(durations)) * scale, unit)
    checks = sum(r["name"] == "experiment.run_checks" for r in table)
    draws = sum(r["name"] == "limit_law.limit_order_statistics" for r in table)
    metrics["limit_law.limit_order_statistics.calls"] = (draws / checks, "count")
    reports = [r["work"] for r in table if r["name"] == "experiment.emit_report"]
    metrics["experiment.emit_report.bytes"] = (float(np.median(reports)), "B")
    return metrics, tails


def self_time_lines(spans) -> list[str]:
    """Total and self time per (span, parent) pair, largest first."""
    totals: dict = {}
    for row in span_table(spans):
        key = (row["name"], row["parent"])
        count, dur, self_s = totals.get(key, (0, 0.0, 0.0))
        totals[key] = (count + 1, dur + row["dur"], self_s + row["self"])
    out = ["self time: span <- parent: calls, total s, self s"]
    for (name, parent), (count, dur, self_s) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        out.append(f"  {name} <- {parent}: {count}, {dur:.4f}, {self_s:.4f}")
    return out

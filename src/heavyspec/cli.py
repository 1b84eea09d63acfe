"""Command line interface: validate, run, check, report.

``validate`` needs only the config layer; ``run``, ``check`` and ``report``
import the numeric modules, so numpy and scipy load only for commands that
draw.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from ._config import CHECKS, ExperimentConfig, batch_grid, load_config, validate

__all__ = ["main"]


def _add_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """The flags the command reads: validate writes nothing and reads no
    seed, and only run has a pool."""
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    if command != "validate":
        parser.add_argument("--out", default="out", help="output directory")
        parser.add_argument("--seed", type=int, default=None, help="override base seed")
    if command == "run":
        parser.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    parser.add_argument("--alpha", type=float, default=None, help="override tail index")
    parser.add_argument("--n", type=int, default=None, help="override n grid with a single n")
    parser.add_argument("--replicates", type=int, default=None, help="override replicate count")


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if args.alpha is not None:
        updates["model"] = dataclasses.replace(config.model, alpha=args.alpha)
    if args.n is not None:
        updates["n_values"] = (args.n,)
    if args.replicates is not None:
        updates["replicates"] = args.replicates
    return dataclasses.replace(config, **updates) if updates else config


def _load_batch(config: ExperimentConfig, out_dir: str):
    """The batch stored in out_dir/trials.csv; raises when it does not match
    the config."""
    from .experiment import batch_from_records, read_trials_csv

    return batch_from_records(config, read_trials_csv(os.path.join(out_dir, "trials.csv")))


def _cmd_validate(args) -> int:
    config = _load(args)
    grid = batch_grid(config.template, config.rule, config.n_values, config.replicates, config.top_k)
    report = validate(config.model, config.rule)
    for n, p in grid:
        print(f"n={n} p={p}")
    for line in report.lines():
        print("  " + line)
    print("admissible" if report.ok else "NOT admissible")
    return 0 if report.ok else 1


def _cmd_run(args) -> int:
    from .experiment import emit_report, run_batch, run_checks

    config = _load(args)
    batch = run_batch(
        config.template,
        config.rule,
        config.n_values,
        config.replicates,
        config.seed,
        workers=args.workers,
        top_k=config.top_k,
    )
    checks = run_checks(batch, config)
    paths = emit_report(batch, checks, args.out)
    print(f"wrote {paths['trials']}")
    print(f"wrote {paths['checks']}")
    print(f"overall: {'pass' if checks['overall_passed'] else 'FAIL'}")
    return 0 if checks["overall_passed"] else 2


def _cmd_check(args) -> int:
    from .experiment import run_checks, write_checks

    config = _load(args)
    batch = _load_batch(config, args.out)
    checks = run_checks(batch, config)
    print(f"wrote {write_checks(checks, args.out)}")
    print(f"overall: {'pass' if checks['overall_passed'] else 'FAIL'}")
    return 0 if checks["overall_passed"] else 2


def _cmd_report(args) -> int:
    """Summarise the stored batch and judge it under the config; writes nothing."""
    import numpy as np

    from .experiment import check_status, run_checks

    config = _load(args)
    batch = _load_batch(config, args.out)
    print(f"model: {config.model.family} alpha={config.model.alpha} scale={config.model.scale}")
    print(f"filter: c={list(config.filter.c.values)} theta={list(config.filter.theta.values)}")
    print(f"{'n':>6} {'p':>5} {'count':>6} {'median scaled_norm':>20} {'median offdiag':>15}")
    for n in sorted(batch.n_values):
        norms = batch.scaled_norms(n)
        sn = float(np.median(norms))
        od = float(np.median(batch.offdiag_devs(n)))
        print(f"{n:>6} {batch.records_at(n)[0].p:>5} {norms.size:>6} {sn:>20.6g} {od:>15.6g}")
    checks = run_checks(batch, config)
    print("checks:")
    for name in CHECKS:
        print(f"  {name:12s} {check_status(checks[name])}")
    print(f"overall: {'pass' if checks['overall_passed'] else 'FAIL'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heavyspec",
        description="Monte Carlo harness for spectral norms of heavy-tailed filtered panels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("validate", _cmd_validate),
        ("run", _cmd_run),
        ("check", _cmd_check),
        ("report", _cmd_report),
    ):
        p = sub.add_parser(name)
        _add_flags(p, name)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:  # ValueError includes ValidationError
        path = getattr(err, "filename", None)
        print(f"{path}: {err.strerror}" if path else str(err), file=sys.stderr)
        return 1
    except RuntimeError as err:
        # Only the commands that draw raise a solver failure, and they have
        # loaded the solver already; validate loads no numeric module.
        from .spectral import SpectralNormError

        if not isinstance(err, SpectralNormError):
            raise
        print(err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command line entry points.

converge run   --config cfg.json [--full] [--out-dir DIR] [--threads K]
converge eigen --config cfg.json [--out-dir DIR] [--threads K]
converge fit   --csv results.csv    (the summary's fit, from a run's CSV)

Exit codes: 0 success, 2 config error, 3 eigensolver convergence abort.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentAborted,
    ExperimentConfig,
    eigen_convergence_experiment,
    fit_or_none,
    run_convergence_experiment,
    summarize,
    write_csv,
    write_plot_data,
    write_summary,
)
from .spectral import ConvergenceFailure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3

# the large schedule offered behind --full: 10 log-spaced n in 2^10..2^14
# (harness.log_spaced_grid(1024, 16384, 10)), 100 trials
FULL_GRID = (1024, 1393, 1896, 2580, 3511, 4778, 6502, 8848, 12040, 16384)
FULL_TRIALS = 100

# subcommand -> (experiment, help)
EXPERIMENTS = {
    "run": (run_convergence_experiment, "discrete-vs-continuum convergence experiment"),
    "eigen": (eigen_convergence_experiment, "eigen-convergence experiment"),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="converge")
    sub = p.add_subparsers(dest="command", required=True)

    for name, (_, help_text) in EXPERIMENTS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True)
        if name == "run":
            cmd.add_argument("--full", action="store_true", help="large n grid and trial count")
        cmd.add_argument("--out-dir", default=".")
        cmd.add_argument("--threads", type=int, default=None)

    fit = sub.add_parser("fit", help="log-log fit of an existing results CSV")
    fit.add_argument("--csv", required=True)
    return p


def _cmd_experiment(args) -> int:
    experiment, _ = EXPERIMENTS[args.command]
    cfg = ExperimentConfig.from_json(args.config)
    if getattr(args, "full", False):
        cfg = dataclasses.replace(cfg, n_grid=FULL_GRID, trials=FULL_TRIALS)
    out = Path(args.out_dir)
    try:  # before the run, so an unusable directory costs no cell
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out-dir {out}: {exc}") from exc
    result = experiment(cfg, threads=args.threads)
    tag = f"{args.command}_{cfg.content_hash()}"
    write_csv(result, out / f"{tag}.csv")
    write_summary(result, out / f"{tag}.json")
    write_plot_data(result, out / f"{tag}.dat")
    print(json.dumps(result.summary_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_fit(args) -> int:
    """The summary's fit, from a run's CSV: the same per-n means and fit."""
    try:
        with open(args.csv, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in ("n", "error") if c not in (reader.fieldnames or ())]
            records = [] if missing else [
                {"n": int(row["n"]), "error": float(row["error"])} for row in reader if row["error"]
            ]  # an empty error is a failed trial
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {args.csv}: {exc}") from exc
    if missing:
        raise ConfigError(f"{args.csv} has no {' and no '.join(map(repr, missing))} column")
    if not all(math.isfinite(r["error"]) for r in records):
        raise ConfigError(f"{args.csv}: log-log fit requires finite errors")
    fit = fit_or_none(summarize(records, ("error",)), "error")
    if fit is None:
        raise ConfigError(f"{args.csv}: need at least 3 n with a positive mean error for a fit")
    print(json.dumps(fit, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = _cmd_fit if args.command == "fit" else _cmd_experiment
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExperimentAborted as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ConvergenceFailure as exc:
        # only the calibration solve raises this far; a cell's failure is recorded
        worst = float(exc.residuals.max()) if exc.residuals.size else float("nan")
        print(f"convergence failure: {exc}; max residual {worst:.3e}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry points.

converge run   --config cfg.json [--full] [--out-dir DIR] [--threads K]
converge eigen --config cfg.json [--out-dir DIR] [--threads K]
converge fit   --csv results.csv

Exit codes: 0 success, 2 config error, 3 eigensolver convergence abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentAborted,
    ExperimentConfig,
    eigen_convergence_experiment,
    loglog_fit,
    run_convergence_experiment,
    write_csv,
    write_plot_data,
    write_summary,
)
from .spectral import ConvergenceFailure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3

# the large schedule offered behind --full: 2^10..2^14, 100 trials
FULL_GRID = {"start": 1024, "stop": 16384, "count": 10}
FULL_TRIALS = 100

# subcommand -> (experiment, the summary key its plot data shows, help)
EXPERIMENTS = {
    "run": (run_convergence_experiment, "error", "discrete-vs-continuum convergence experiment"),
    "eigen": (eigen_convergence_experiment, "lambda_error", "eigen-convergence experiment"),
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="converge")
    sub = p.add_subparsers(dest="command", required=True)

    for name, (_, _, help_text) in EXPERIMENTS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True)
        if name == "run":
            cmd.add_argument("--full", action="store_true", help="large n grid and trial count")
        cmd.add_argument("--out-dir", default=".")
        cmd.add_argument("--threads", type=int, default=None)

    fit = sub.add_parser("fit", help="log-log fit of an existing results CSV")
    fit.add_argument("--csv", required=True)
    return p


def _load_config(path: str, full: bool = False) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(path)
    if full:
        raw = cfg.canonical_dict()
        raw["n_grid"] = FULL_GRID
        raw["trials"] = FULL_TRIALS
        cfg = ExperimentConfig.from_dict(raw)
    return cfg


def _emit(result, out_dir: str, prefix: str, plot_key: str):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{prefix}_{result.config.content_hash()}"
    write_csv(result, out / f"{tag}.csv")
    write_summary(result, out / f"{tag}.json")
    write_plot_data(result, out / f"{tag}.dat", key=plot_key)
    print(json.dumps(result.summary_dict(), indent=2, sort_keys=True))


def _cmd_experiment(args) -> int:
    experiment, plot_key, _ = EXPERIMENTS[args.command]
    cfg = _load_config(args.config, getattr(args, "full", False))
    result = experiment(cfg, threads=args.threads)
    _emit(result, args.out_dir, args.command, plot_key)
    return EXIT_OK


def _cmd_fit(args) -> int:
    rows = []
    try:
        with open(args.csv, newline="") as fh:
            for row in csv.DictReader(fh):
                if row.get("error"):
                    rows.append((int(row["n"]), float(row["error"])))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    by_n: dict[int, list[float]] = {}
    for n, e in rows:
        by_n.setdefault(n, []).append(e)
    means = sorted((n, sum(v) / len(v)) for n, v in by_n.items())
    try:
        slope, intercept, r2 = loglog_fit(means)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps({"slope": slope, "intercept": intercept, "r2": r2}, indent=2))
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

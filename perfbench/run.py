#!/usr/bin/env python3
"""Benchmark of the `converge` CLI, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Every invocation of the program is `converge.cli.main` in a fresh child
process (`child.py`), loaded from this checkout's `src/`, with the BLAS pools
pinned to one thread and `CONVERGE_THREADS` set to the processor count.

`--trace 0` runs the workload once to warm up, then repeats it, untraced,
for about `--seconds` (at least three times) and reports the end-to-end
medians of the repeats. `--trace 1` warms up likewise, runs the workload
untraced on one worker, then untraced, traced, traced and untraced with the
workload's worker count: the first traced invocation gives the per-layer
numbers, all four the tracing overhead. Both modes then recompute the
smallest-n cell with the dense eigensolver.

Output checks, any of which marks the invocation failed:
  * the CLI exits 0 and writes its CSV and summary;
  * CSV and summary are byte-identical across every invocation of the run,
    traced and one-worker ones included;
  * the exact counts (kernel sweeps, quadrature grids) of the two traced
    invocations are equal;
  * for a seed in `reference.json`, per-trial values match the stored ones
    within a tolerance tied to the program's EIGEN_TOL; a stored seed whose
    config has changed since is a failure too, until `make_reference.py`
    is run again;
  * the smallest-n cell recomputed with `smallest_eigenpairs(method="dense")`
    matches the CSV within the same tolerance.

The last line of output is one JSON object: `correct`, `attempted` and
`failed` count CLI invocations, and `metrics` holds the end-to-end metrics
(`--trace 0`) or the per-layer ones (`--trace 1`). A run whose checks fail
still prints it and exits 1. A record of each run, spans included, is kept
under `.bench_out/`. `--workload all` runs every workload in turn and prints
each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import EXACT_COUNTS, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
RUN_LIMIT_S = 150  # no invocation outlives this, so a run ends within 180 s
MIN_REPEATS = 3
# per-trial values may move by this many EIGEN_TOL (relative to max(1, |value|))
# before a check fails; dense eigh against Lanczos differs by ~1e-14
VALUE_TOL_FACTOR = 100.0


@dataclass
class Invocation:
    label: str
    exit_code: int | None
    result: dict = field(default_factory=dict)
    csv: bytes = b""
    summary: bytes = b""
    problems: list[str] = field(default_factory=list)

    def rows(self) -> dict:
        """(n, trial, seed) -> per-trial values, None for a failed trial."""
        reader = csv.reader(io.StringIO(self.csv.decode()))
        next(reader, None)
        return {
            (int(r[0]), int(r[1]), int(r[2])): [float(v) if v else None for v in r[3:]]
            for r in reader
        }

    def trials(self) -> tuple[int, int]:
        """(attempted, failed) trials, from the CSV and the summary."""
        return len(self.rows()), json.loads(self.summary)["failures"]

    def counts(self) -> dict:
        """The exact counts of a traced invocation."""
        metrics = layer_metrics(self.result["spans"], self.result["failures"], 1)
        return {name: metrics[name] for name in EXACT_COUNTS}


def value_tol(inv: Invocation) -> float:
    return VALUE_TOL_FACTOR * inv.result["env"]["eigen_tol"]


def compare_rows(got: dict, want: dict, tol: float, what: str) -> list[str]:
    if got.keys() != want.keys():
        return [f"{what}: cells differ ({sorted(set(got) ^ set(want))[:4]})"]
    problems = []
    for cell, expected in want.items():
        for g, w in zip(got[cell], expected):
            if (g is None) != (w is None) or (w is not None and abs(g - w) > tol * max(1.0, abs(w))):
                problems.append(f"{what}: cell {cell} value {g} != {w} (tol {tol:g})")
    return problems


def check_identical(base: Invocation, others) -> None:
    for inv in others:
        if not inv.problems and (inv.csv != base.csv or inv.summary != base.summary):
            inv.problems.append(f"{inv.label}: CSV or summary bytes differ from {base.label}")


class Bench:
    """One workload at one seed: writes its config and runs invocations of the CLI."""

    def __init__(self, workload: Workload, seed: int, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.config = workload.config(ROOT, seed, tiny)
        self.dir = OUT / f"{workload.name}-seed{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_path = self._write_config("config.json", self.config)
        self.invocations: list[Invocation] = []
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def _write_config(self, name: str, cfg: dict) -> Path:
        path = self.dir / name
        path.write_text(json.dumps(cfg, indent=2))
        return path

    def invoke(self, label: str, workers: int | None = None, trace=False, dense_n=None, config=None) -> Invocation:
        out = self.dir / label
        out.mkdir()
        result = self.dir / f"{label}-result.json"
        config = config or self.config_path
        argv = [self.workload.command, "--config", str(config), "--out-dir", str(out)]
        if workers:
            argv += ["--threads", str(workers)]
        spec = {
            "src": str(ROOT / "src"),
            "argv": argv,
            "config": str(config),
            "trace": trace,
            "dense_n": dense_n,
            "result": str(result),
        }
        spec_path = self.dir / f"{label}-spec.json"
        spec_path.write_text(json.dumps(spec))
        inv = Invocation(label, None)
        self.invocations.append(inv)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=max(self.deadline - time.monotonic(), 0.0),
            )
        except subprocess.TimeoutExpired:
            inv.problems.append(f"{label}: stopped at the run's {RUN_LIMIT_S} s limit")
            return inv
        inv.exit_code = proc.returncode
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            inv.problems.append(f"{label}: exit code {proc.returncode}: {' | '.join(tail)}")
        try:
            inv.result = json.loads(result.read_text())
            (inv.csv,) = [p.read_bytes() for p in out.glob("*.csv")]
            (inv.summary,) = [p.read_bytes() for p in out.glob("*.json")]
        except (OSError, ValueError) as exc:
            inv.problems.append(f"{label}: missing output ({exc})")
        return inv

    # -- checks ---------------------------------------------------------------

    def config_sha256(self) -> str:
        return hashlib.sha256(json.dumps(self.config, sort_keys=True).encode()).hexdigest()

    def check_reference(self, base: Invocation, reference: dict) -> str:
        """Compare with the stored reference for this workload and seed; returns what was done."""
        want = reference.get(self.workload.name, {}).get(str(self.seed))
        if want is None:
            return "no reference for this seed"
        if want["config_sha256"] != self.config_sha256():
            base.problems.append("reference: config changed since it was stored; run make_reference.py")
            return "config changed"
        if base.problems:
            return "not checked"
        rows = {tuple(r[:3]): r[3:] for r in want["rows"]}
        base.problems += compare_rows(base.rows(), rows, value_tol(base), "reference")
        return "checked"

    def check_dense(self, base: Invocation) -> None:
        """Recompute the smallest-n cell with the dense eigensolver and compare."""
        n_min = min(n for n, _, _ in base.rows())
        cfg = dict(self.config, n_grid=[n_min])
        dense = self.invoke("dense", dense_n=n_min, config=self._write_config("dense.json", cfg))
        if dense.problems or base.problems:
            return
        want = {cell: v for cell, v in base.rows().items() if cell[0] == n_min}
        dense.problems += compare_rows(dense.rows(), want, value_tol(base), "dense recompute")

    # -- runs -----------------------------------------------------------------

    def measure(self, seconds: float) -> list[Invocation]:
        """Untraced repeats for about `seconds` (at least MIN_REPEATS) after an untimed warm-up."""
        # a run's first invocation is slower (memory first touched), so it is left out
        self.invoke("warm-up")
        deadline = time.monotonic() + seconds
        runs: list[Invocation] = []
        last = 0.0
        # start no repeat that the previous one says would end past the deadline
        while len(runs) < MIN_REPEATS or time.monotonic() + last <= deadline:
            start = time.monotonic()
            runs.append(self.invoke(f"untraced-{len(runs)}"))
            last = time.monotonic() - start
        return runs

    def finish(self, base: Invocation) -> str:
        """Run every output check; returns what the reference check did."""
        check_identical(base, [i for i in self.invocations if i is not base])
        status = self.check_reference(base, json.loads(REFERENCE.read_text()))
        self.check_dense(base)
        return status

    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.problems)

    def problems(self) -> list[str]:
        return [p for inv in self.invocations for p in inv.problems]


def end_to_end(runs: list[Invocation]) -> tuple[dict, int]:
    """Medians over the untraced invocations that completed; and their count."""
    ok = [r for r in runs if not r.problems]
    if not ok:
        return {}, 0
    attempted = failed = 0
    for r in ok:
        a, f = r.trials()
        attempted, failed = attempted + a, failed + f
    res = [r.result for r in ok]
    attempted_per_run = attempted / len(ok)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in res),
        "setup_s": statistics.median(r["setup_s"] for r in res),
        "trials_per_s": statistics.median(attempted_per_run / (r["wall_s"] - r["setup_s"]) for r in res),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in res),
        "trials_ok_frac": (attempted - failed) / attempted,
    }
    return values, len(ok)


def per_layer(untraced: list[Invocation], traced: list[Invocation], workers: int) -> dict:
    """Layer numbers of the first traced invocation, and the tracing overhead."""
    if any(inv.problems for inv in untraced + traced):
        return {}
    values = layer_metrics(traced[0].result["spans"], traced[0].result["failures"], workers)
    wall = [statistics.mean(inv.result["wall_s"] for inv in invs) for invs in (traced, untraced)]
    values["trace.overhead_s"] = wall[0] - wall[1]
    return values


def check_counts_repeat(first: Invocation, second: Invocation) -> None:
    if not (first.problems or second.problems) and first.counts() != second.counts():
        second.problems.append(f"exact counts {second.counts()} differ from {first.label}'s {first.counts()}")


def provenance(root: Path) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, tiny=False) -> dict:
    """One benchmark run; returns the record that is printed and kept."""
    bench = Bench(workload, seed, tiny)
    workers = len(os.sched_getaffinity(0))
    traced = [None]
    try:
        if trace:
            # Warm up as Bench.measure does. Of two back-to-back invocations the
            # first tends to be slower, so the order untraced, traced, traced,
            # untraced cancels that out of the overhead.
            base = bench.invoke("warm-up")
            bench.invoke("one-worker", workers=1)
            untraced = [bench.invoke("untraced-0")]
            traced = [bench.invoke(f"traced-{i}", trace=True) for i in range(2)]
            untraced.append(bench.invoke("untraced-1"))
            check_counts_repeat(*traced)
            reference = bench.finish(base)
            metrics, samples = per_layer(untraced, traced, workers), len(traced)
        else:
            runs = bench.measure(seconds)
            base = bench.invocations[0]
            reference = bench.finish(base)
            metrics, samples = end_to_end(runs)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "samples": samples,
        "env": {**next((i.result["env"] for i in bench.invocations if i.result), {}), **provenance(ROOT)},
        "invocations": [
            {"label": i.label, "exit_code": i.exit_code, "problems": i.problems}
            | {k: i.result.get(k) for k in ("wall_s", "setup_s", "peak_rss_mib")}
            for i in bench.invocations
        ],
        "metrics": metrics,
        "attempted": len(bench.invocations),
        "failed": bench.failed(),
        "problems": bench.problems(),
        "reference": reference,
        "spans": traced[0].result.get("spans") if traced[0] else None,
        "failures": traced[0].result.get("failures") if traced[0] else None,
    }


def metric_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(record: dict, units: dict) -> None:
    print("env " + json.dumps(record["env"], sort_keys=True))
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        value = record["metrics"].get(name)
        print(f"{record['workload']:<14} {name:<38} {value!s:>22} {unit:<6} (n={record['samples']})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    needed = [ROOT / "src" / "converge" / "cli.py", ROOT / "BENCHMARK.json"]
    needed += dict.fromkeys(ROOT / "scripts" / "configs" / w.pinned for w in WORKLOADS.values())
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a converge checkout, missing {missing}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    units = metric_units(trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    OUT.mkdir(exist_ok=True)
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, trace)
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
        report(record, units)
        records.append(record)
    if any(set(units) - set(r["metrics"]) for r in records):
        print("error: a metric could not be measured", file=sys.stderr)
        return 1
    correct = not any(r["failed"] for r in records)
    if args.workload != "all":
        (record,) = records
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": {n: {"value": record["metrics"][n], "unit": u} for n, u in units.items()},
                }
            )
        )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the public functions of each `converge` module, recorded from outside.

`Tracer.install` replaces every module attribute that refers to a traced
function (so names imported with `from ... import` are caught too) and
`LaplacianOperator.matvec` on the class. Spans stay in memory, with one
parent stack per thread, and are written out when the program ends.

A trial is identified by its derived seed: the harness passes it as the
`seed` argument of `sample_uniform`, so every span a thread opens after that
call belongs to the trial, until the thread samples again. The harness's
calibration sample uses a seed outside the trial set and so belongs to none.

This module imports neither numpy nor `converge`, so the benchmark's parent
process can use `layer_metrics` without loading the program.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

# (layer, module the function is looked up in, attribute); trial layers first
TRIAL_LAYERS = (
    ("manifolds.sample_uniform", "manifolds", "sample_uniform"),
    ("manifolds.evaluate_signal", "manifolds", "evaluate_signal"),
    ("manifolds.quadrature_nodes", "manifolds", "quadrature_nodes"),
    ("graph.build_laplacian", "graph", "build_laplacian"),
    ("spectral.smallest_eigenpairs", "spectral", "smallest_eigenpairs"),
    ("spectral.align", "spectral", "project_eigenfunctions"),
    ("spectral.align", "spectral", "align_to_continuum"),
    ("spectral.align", "spectral", "eigen_errors"),
    ("network.forward_discrete", "network", "forward_discrete"),
    ("network.forward_continuum", "network", "forward_continuum"),
    ("network.mnn_error", "network", "mnn_error"),
)
RUN_LAYERS = (
    ("harness.resolve_calibration", "harness", "resolve_calibration"),
    ("cli.write", "cli", "write_csv"),
    ("cli.write", "cli", "write_summary"),
    ("cli.write", "cli", "write_plot_data"),
)
MATVEC = "graph.matvec"
SAMPLE = "manifolds.sample_uniform"
EIGEN = "spectral.smallest_eigenpairs"
TRIAL_NAMES = {layer for layer, _, _ in TRIAL_LAYERS} | {MATVEC}
# counts that must repeat exactly for the same config and seed
EXACT_COUNTS = ("graph.matvec.calls", "manifolds.quadrature_nodes.calls")

# span tuple fields
ID, PARENT, NAME, START, END, TRIAL, SIZE = range(7)


def rebind(modules, old, new) -> None:
    """Point every attribute of `modules` that is `old` at `new`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


class Tracer:
    """In-memory span recorder. Spans are (id, parent, name, start, end, trial, size)."""

    def __init__(self, trial_seeds, failure_type=()):
        self.trial_seeds = frozenset(trial_seeds)
        self.failure_type = failure_type
        self.spans: list[tuple] = []
        self.failures: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, size_of=None):
        local = self._local
        in_trial = name in TRIAL_NAMES

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if name == SAMPLE:
                seed = kwargs["seed"] if "seed" in kwargs else args[2]
                local.trial = seed if seed in self.trial_seeds else None
            trial = getattr(local, "trial", None) if in_trial else None
            span = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except self.failure_type as exc:
                if name == EIGEN:
                    self._record_failure(exc, trial, args, kwargs)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                size = size_of(args) if size_of else None
                self.spans.append((span, parent, name, start, end, trial, size))

        traced.__wrapped__ = fn
        return traced

    def _record_failure(self, exc, trial, args, kwargs):
        residuals = getattr(exc, "residuals", None)
        self.failures.append(
            {
                "trial": trial,
                "n": args[0].n,
                "K": kwargs.get("K", args[1] if len(args) > 1 else None),
                "message": str(exc),
                "max_residual": float(residuals.max()) if residuals is not None and residuals.size else None,
            }
        )

    def install(self, modules: dict) -> None:
        """Wrap the traced functions of the `converge` modules given by short name."""
        everywhere = list(modules.values())
        for layer, home, attr in TRIAL_LAYERS + RUN_LAYERS:
            old = getattr(modules[home], attr)
            rebind(everywhere, old, self.wrap(layer, old))
        op = modules["graph"].LaplacianOperator
        op.matvec = self.wrap(MATVEC, op.matvec, size_of=lambda args: args[0].n)


def trial_windows(spans) -> dict:
    """Trial seed -> (first start, last end) over the spans attributed to it."""
    windows: dict = {}
    for s in spans:
        if s[TRIAL] is None:
            continue
        lo, hi = windows.get(s[TRIAL], (s[START], s[END]))
        windows[s[TRIAL]] = (min(lo, s[START]), max(hi, s[END]))
    return windows


def layer_metrics(spans, failures, workers: int) -> dict:
    """Per-layer numbers for one traced invocation.

    Seconds are per trial (summed over the trial's spans, divided by the
    trial count) except `harness.resolve_calibration.s` and `cli.write.s`,
    which are once per invocation. Counts are totals per invocation,
    calibration included. `graph.bytes_per_sweep` is computed from n, not
    measured: a dense sweep reads 8 n^2 bytes of kernel, and an on-the-fly
    sweep evaluates the same n^2 entries.
    """
    windows = trial_windows(spans)
    trials = max(len(windows), 1)
    child_time: dict = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    in_trials: dict = defaultdict(float)
    totals: dict = defaultdict(float)
    counts: dict = defaultdict(int)
    eigen_self = 0.0
    sweep_bytes = 0
    for s in spans:
        duration = s[END] - s[START]
        totals[s[NAME]] += duration
        counts[s[NAME]] += 1
        if s[TRIAL] is not None:
            in_trials[s[NAME]] += duration
            if s[NAME] == EIGEN:
                eigen_self += duration - child_time[s[ID]]
        if s[NAME] == MATVEC:
            sweep_bytes += 8 * s[SIZE] ** 2
    trial_total = sum(hi - lo for lo, hi in windows.values())
    if windows:
        phase = max(hi for _, hi in windows.values()) - min(lo for lo, _ in windows.values())
    else:
        phase = 0.0
    residuals = [f["max_residual"] for f in failures if f["max_residual"] is not None]
    metrics = {
        f"{layer}.s": in_trials[layer] / trials
        for layer in (
            SAMPLE,
            "manifolds.evaluate_signal",
            "graph.build_laplacian",
            MATVEC,
            EIGEN,
            "spectral.align",
            "network.forward_discrete",
            "network.forward_continuum",
            "network.mnn_error",
        )
    }
    metrics.update(
        {
            "manifolds.quadrature_nodes.calls": counts["manifolds.quadrature_nodes"],
            "graph.matvec.calls": counts[MATVEC],
            "graph.bytes_per_sweep": sweep_bytes / counts[MATVEC] if counts[MATVEC] else 0.0,
            "spectral.smallest_eigenpairs.self_s": eigen_self / trials,
            "spectral.failures": len(failures),
            "spectral.failure_max_residual": max(residuals, default=0.0),
            "harness.resolve_calibration.s": totals["harness.resolve_calibration"],
            "harness.trial.s": trial_total / trials,
            "harness.busy_frac": trial_total / (workers * phase) if phase > 0 else 0.0,
            "cli.write.s": totals["cli.write"],
        }
    )
    return metrics


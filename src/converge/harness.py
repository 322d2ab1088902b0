"""Configuration-driven convergence experiments with deterministic seeding.

Both experiments run every (n, trial) cell through one pipeline: sample the
manifold, build the calibrated kernel graph, compute the lowest eigenpairs,
measure. The rate experiment measures the G_n error between the discrete and
the continuum network; the eigen experiment measures eigenvalue and aligned
eigenvector errors. Each fits log-log lines to the per-n means. Work that
does not depend on the sample runs once per experiment, beside the
calibration solve: the rate experiment's continuum hidden layers are the
worker pool's first task, and the cells read them from its future.

Determinism contract: per-trial seeds are derived by hashing
(master seed, n, trial), trials are aggregated in a fixed order regardless
of thread count, and all file output uses explicit float formatting, so two
runs of the same config produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import graph, manifolds, network, spectral
from .filters import filter_from_config
from .manifolds import BandlimitedSignal, ManifoldModel
from .network import NetworkSpec

EIGEN_TOL = 1e-8
MAX_FAILURE_FRACTION = 0.10
THREADS_ENV_VAR = "CONVERGE_THREADS"
MEMORY_FRACTION = 0.5  # of the available memory, for the cells running at once
PROC, CGROUP = Path("/proc"), Path("/sys/fs/cgroup")  # read by available_memory


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


class ExperimentAborted(RuntimeError):
    """Raised when too many trials fail to converge."""


def default_thread_count() -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return int(env)  # below 1 is refused where the workers start
        except ValueError as exc:
            raise ConfigError(f"bad {THREADS_ENV_VAR} value: {env!r}") from exc
    if hasattr(os, "sched_getaffinity"):
        # the cores this process may run on, which a container can limit
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


def available_memory() -> int | None:
    """Bytes this process may allocate: MemAvailable, which counts reclaimable
    page cache, capped by every cgroup memory limit on the process's path.
    None where /proc/meminfo cannot be read (not Linux): then nothing is capped."""
    try:
        meminfo = dict(line.split(":", 1) for line in (PROC / "meminfo").read_text().splitlines())
        available = int(meminfo["MemAvailable"].split()[0]) << 10
    except (OSError, KeyError, ValueError):
        return None
    try:
        groups = [line.split(":", 2) for line in (PROC / "self/cgroup").read_text().splitlines()]
    except OSError:  # a kernel without cgroups
        groups = []
    limits = {"": ("", "memory.max"), "memory": ("memory", "memory.limit_in_bytes")}  # v2, v1
    for _, controllers, path in groups:
        if controllers not in limits:
            continue
        mount, name = limits[controllers]
        top = CGROUP / mount
        leaf = top / path.lstrip("/")
        for group in [leaf, *leaf.parents]:  # the process's group up to the mount
            try:
                available = min(available, int((group / name).read_text()))
            except (OSError, ValueError):  # no such file, or "max"
                pass
            if group == top:
                break
    return available


def derive_seed(master: int, n: int, trial: int) -> int:
    """Stable 63-bit per-trial seed from (master, n, trial)."""
    digest = hashlib.sha256(f"{master}:{n}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def log_spaced_grid(start: int, stop: int, count: int) -> list[int]:
    """count log-spaced integers in [start, stop], deduplicated, increasing."""
    if not (2 <= count and 2 <= start < stop):
        raise ConfigError("need start < stop and count >= 2")
    raw = np.exp(np.linspace(math.log(start), math.log(stop), count))
    grid = sorted({int(round(v)) for v in raw})
    return grid


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: manifold, signal, network, graph scheme, and schedule."""

    manifold: str
    signal_coefficients: tuple[float, ...]
    network_raw: dict  # as given in the config, kept for hashing
    scheme_tag: str
    bandwidth_constant: float
    n_grid: tuple[int, ...]
    trials: int
    seed: int
    truncation: int | str | None = None  # int, "full", or None (signal width)
    eigen_index: int = 1

    def __post_init__(self):
        if self.manifold not in ("circle", "sphere2"):
            raise ConfigError(f"unknown manifold: {self.manifold!r}")
        if self.scheme_tag not in ("heat", "gaussian"):
            raise ConfigError(f"unknown graph scheme: {self.scheme_tag!r}")
        if self.bandwidth_constant <= 0:
            raise ConfigError("bandwidth_constant must be positive")
        if list(self.n_grid) != sorted(set(self.n_grid)) or len(self.n_grid) < 1:
            raise ConfigError("n_grid must be strictly increasing and nonempty")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.eigen_index < 0:
            raise ConfigError("eigen_index must be >= 0")
        if self.truncation is not None and self.truncation != "full":
            if not isinstance(self.truncation, int) or self.truncation < 1:
                raise ConfigError("truncation must be a positive integer or 'full'")

    @property
    def manifold_model(self) -> ManifoldModel:
        return ManifoldModel(self.manifold)

    @property
    def signal(self) -> BandlimitedSignal:
        return BandlimitedSignal(np.array(self.signal_coefficients))

    def build_network(self) -> NetworkSpec:
        raw = self.network_raw
        widths = tuple(int(w) for w in raw["widths"])
        banks = tuple(
            tuple(tuple(filter_from_config(f) for f in row) for row in bank)
            for bank in raw["filters"]
        )
        return NetworkSpec(
            widths=widths,
            filters=banks,
            nonlinearity=raw.get("nonlinearity", "abs"),
        )

    def mode_count(self, n: int) -> int:
        """Discrete eigenpairs per trial at point count n: never below the signal width."""
        if self.truncation == "full":
            return n
        return max(self.truncation or 0, len(self.signal_coefficients))

    def canonical_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "signal": {"coefficients": list(self.signal_coefficients)},
            "network": self.network_raw,
            "graph": {
                "scheme": self.scheme_tag,
                "bandwidth_constant": self.bandwidth_constant,
            },
            "truncation": self.truncation,
            "eigen_index": self.eigen_index,
            "n_grid": list(self.n_grid),
            "trials": self.trials,
            "seed": self.seed,
        }

    def content_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        raw = dict(raw)

        def take(d: dict, key: str, default=None, required=False):
            if required and key not in d:
                raise ConfigError(f"missing required config key: {key!r}")
            return d.pop(key, default)

        manifold = take(raw, "manifold", required=True)
        signal = dict(take(raw, "signal", default={}) or {})
        coeffs = signal.pop("coefficients", None)
        if signal:
            raise ConfigError(f"unknown signal keys: {sorted(signal)}")
        if coeffs is None:
            # default: unit coefficients on modes 1..9
            coeffs = [0.0] + [1.0] * 9
        network = take(raw, "network", required=True)
        if not isinstance(network, dict) or "widths" not in network or "filters" not in network:
            raise ConfigError("network config needs 'widths' and 'filters'")
        unknown_net = set(network) - {"widths", "filters", "nonlinearity"}
        if unknown_net:
            raise ConfigError(f"unknown network keys: {sorted(unknown_net)}")
        g = dict(take(raw, "graph", default={}) or {})
        scheme_tag = g.pop("scheme", "gaussian")
        bandwidth_constant = float(g.pop("bandwidth_constant", 1.0))
        if g:
            raise ConfigError(f"unknown graph keys: {sorted(g)}")
        ngrid_raw = take(raw, "n_grid", required=True)
        if isinstance(ngrid_raw, dict):
            unknown = set(ngrid_raw) - {"start", "stop", "count"}
            if unknown:
                raise ConfigError(f"unknown n_grid keys: {sorted(unknown)}")
            n_grid = log_spaced_grid(
                int(ngrid_raw["start"]), int(ngrid_raw["stop"]), int(ngrid_raw["count"])
            )
        else:
            n_grid = [int(v) for v in ngrid_raw]
        trials = int(take(raw, "trials", default=20))
        seed = int(take(raw, "seed", default=0))
        truncation = take(raw, "truncation")
        eigen_index = int(take(raw, "eigen_index", default=1))
        if raw:
            raise ConfigError(f"unknown config keys: {sorted(raw)}")
        return ExperimentConfig(
            manifold=manifold,
            signal_coefficients=tuple(float(c) for c in coeffs),
            network_raw=network,
            scheme_tag=scheme_tag,
            bandwidth_constant=bandwidth_constant,
            n_grid=tuple(n_grid),
            trials=trials,
            seed=seed,
            truncation=truncation if truncation in (None, "full") else int(truncation),
            eigen_index=eigen_index,
        )

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return ExperimentConfig.from_dict(raw)


def loglog_fit(points) -> tuple[float, float, float]:
    """Least-squares line on (ln n, ln error); returns (slope, intercept, R^2)."""
    pts = [(float(n), float(e)) for n, e in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a fit")
    if any(e <= 0 for _, e in pts):
        raise ValueError("log-log fit requires positive errors")
    x = np.log([n for n, _ in pts])
    y = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def resolve_calibration(config: ExperimentConfig, check_n: int = 2048) -> dict:
    """Gate the analytic calibration constant against the eigenvalue oracle.

    Measures the first nonzero eigenvalue of the calibrated Laplacian on the
    experiment's manifold at a moderate n. If it is within 20% of the
    continuum value the analytic constant is kept; otherwise the constant is
    rescaled empirically by the measured ratio, and one line on stderr says
    so. The chosen path is recorded in the experiment metadata.
    """
    m = config.manifold_model
    target = 1.0 if m.kind == "circle" else 2.0
    scheme = graph.calibrated_scheme(config.scheme_tag, m, check_n, config.bandwidth_constant)
    analytic = scheme.calibration
    cloud = manifolds.sample_uniform(m, check_n, derive_seed(config.seed, check_n, 10**6))
    op = graph.build_laplacian(cloud, scheme)
    try:
        eig = spectral.smallest_eigenpairs(op, K=2, tol=EIGEN_TOL, seed=config.seed)
    except spectral.ConvergenceFailure as exc:
        raise spectral.ConvergenceFailure(
            f"calibration solve (n = {check_n}, K = 2): {exc}", exc.residuals
        ) from exc
    measured = float(eig.eigenvalues[1])
    info = {
        "analytic_constant": analytic,
        "check_n": check_n,
        "measured_lambda1": measured,
        "target_lambda1": target,
    }
    if measured > 0 and abs(measured - target) <= 0.20 * target:
        info.update(path="analytic", constant=analytic)
    else:
        info.update(path="empirical", constant=analytic * target / measured)
        print(
            f"calibration: measured lambda_1 {measured:.6g} misses target {target:g} "
            "by more than 20%; rescaling the constant empirically",
            file=sys.stderr,
        )
    return info


@dataclass
class ExperimentResult:
    """Per-trial records plus per-n summaries and the fitted rate."""

    config: ExperimentConfig
    records: list[dict] = field(default_factory=list)
    per_n: list[dict] = field(default_factory=list)
    fit: dict | None = None
    metadata: dict = field(default_factory=dict)

    def summary_dict(self) -> dict:
        return {
            "config_hash": self.config.content_hash(),
            "per_n": self.per_n,
            "fit": self.fit,
            "calibration": self.metadata.get("calibration"),
            "failures": self.metadata.get("failures", 0),
        }


def _summarize(config, records, error_keys):
    per_n = []
    for n in config.n_grid:
        ok = [r for r in records if r["n"] == n and not r.get("failed")]
        entry = {"n": n, "trials_ok": len(ok)}
        for key in error_keys:
            vals = np.array([r[key] for r in ok]) if ok else np.array([])
            entry[f"mean_{key}"] = float(vals.mean()) if len(vals) else None
            entry[f"std_{key}"] = float(vals.std(ddof=0)) if len(vals) else None
        per_n.append(entry)
    return per_n


def _fit_or_none(per_n, key):
    pts = [
        (e["n"], e[f"mean_{key}"])
        for e in per_n
        if e[f"mean_{key}"] is not None and e[f"mean_{key}"] > 0
    ]
    if len(pts) < 3:
        return None
    slope, intercept, r2 = loglog_fit(pts)
    return {"slope": slope, "intercept": intercept, "r2": r2}


def _run_cells(
    config, threads, keys, mode_count, measure, setup=lambda: None
) -> ExperimentResult:
    """Run every (n, trial) cell and summarize per n.

    setup() is the experiment's sample-independent work. With more than one
    worker it is the pool's first task, run beside the calibration solve on
    the calling thread; with one worker the order is calibration, setup,
    cells. Cells start once the calibration constant is known. A cell records
    measure(cloud, eig, setup()) on its lowest mode_count(n) eigenpairs,
    waiting for setup() if it is still running, or None for each of `keys`
    and `failed: True` if the solve fails. A failed calibration solve raises
    ConvergenceFailure and runs no cell. More than MAX_FAILURE_FRACTION failed
    cells abort the run. Cells start largest n first, so no worker is left
    with a big cell while the others idle, and the records come back in grid
    order.

    The workers are capped at MEMORY_FRACTION of available_memory() over
    spectral.peak_bytes of the largest cell, and never below one; the count
    never changes a result. A thread count below 1, or a cell larger than all
    of the available memory, raises ConfigError before calibration.
    """
    start = time.perf_counter()
    m = config.manifold_model
    workers = default_thread_count() if threads is None else threads
    if workers < 1:
        raise ConfigError(f"need at least 1 thread, got {workers}")
    available = available_memory()
    largest = max(spectral.peak_bytes(n, mode_count(n)) for n in config.n_grid)
    if available is not None and largest > available:
        raise ConfigError(f"a {largest >> 20} MiB cell exceeds {available >> 20} MiB of available memory")
    fit = workers if available is None else max(1, int(MEMORY_FRACTION * available) // largest)
    if fit < workers:
        workers = fit
        msg = f"available memory {available >> 20} MiB, {largest >> 20} MiB a cell: {workers} workers"
        print(msg, file=sys.stderr)

    def cell(n, trial, seed):
        record = {"n": n, "trial": trial, "seed": seed}
        try:
            cloud = manifolds.sample_uniform(m, n, seed)
            scheme = graph.calibrated_scheme(config.scheme_tag, m, n, config.bandwidth_constant)
            op = graph.build_laplacian(cloud, replace(scheme, calibration=calibration["constant"]))
            eig = spectral.smallest_eigenpairs(op, K=mode_count(n), tol=EIGEN_TOL, seed=seed)
            del op  # frees the kernel before measure, which may be long
            record.update(measure(cloud, eig, prepared.result()))
        except spectral.ConvergenceFailure:
            record.update(dict.fromkeys(keys), failed=True)
        return record

    cells = [
        (n, trial, derive_seed(config.seed, n, trial))
        for n in config.n_grid
        for trial in range(config.trials)
    ]
    largest_first = sorted(cells, key=lambda c: -c[0])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        beside = workers > 1  # a worker builds the setup while this thread calibrates
        prepared = pool.submit(setup) if beside else None
        calibration = resolve_calibration(config)
        if not beside:
            prepared = pool.submit(setup)  # one worker: calibration, setup, cells
        done = dict(zip(largest_first, pool.map(lambda c: cell(*c), largest_first)))
    records = [done[c] for c in cells]
    failures = sum(1 for r in records if r.get("failed"))
    if failures > MAX_FAILURE_FRACTION * len(cells):
        raise ExperimentAborted(
            f"{failures}/{len(cells)} trials failed eigensolver convergence"
        )
    return ExperimentResult(
        config=config,
        records=records,
        per_n=_summarize(config, records, keys),
        metadata={
            "calibration": calibration,
            "failures": failures,
            "workers": workers,
            "wall_clock_seconds": round(time.perf_counter() - start, 3),
        },
    )


def run_convergence_experiment(
    config: ExperimentConfig, threads: int | None = None
) -> ExperimentResult:
    """The discrete-vs-continuum error experiment with a log-log rate fit."""
    m = config.manifold_model
    net = config.build_network()
    sig = config.signal
    if net.widths[0] != 1:
        raise ConfigError("convergence experiment expects a single input feature")
    pairs = manifolds.continuum_eigenpairs(m, sig.bandwidth + 1)
    coeffs = sig.coefficients[None, :]

    def hidden_layers():
        # sample-independent: built once, beside the calibration solve
        return network.continuum_hidden_layers(net, m, pairs, coeffs)

    def measure(cloud, eig, hidden):
        tail, tail_coeffs, _ = hidden
        x0 = manifolds.evaluate_signal(sig, m, cloud)[None, :]
        disc = network.forward_discrete(net, eig, x0)
        cont = network.forward_continuum(tail, m, pairs, tail_coeffs, cloud)
        return {"error": network.mnn_error(disc, cont)}

    result = _run_cells(
        config, threads, ("error",), config.mode_count, measure, setup=hidden_layers
    )
    result.fit = _fit_or_none(result.per_n, "error")
    return result


def eigen_convergence_experiment(
    config: ExperimentConfig, threads: int | None = None
) -> ExperimentResult:
    """Eigenvalue / aligned-eigenvector error versus n, with rate fits."""
    m = config.manifold_model
    idx = config.eigen_index
    # pairs through the end of idx's multiplicity cluster, which ends before
    # index 2 idx + 2 on both manifolds; a cut cluster would make the
    # Procrustes alignment pick an arbitrary slice of a near-degenerate space
    pairs = manifolds.continuum_eigenpairs(m, 2 * idx + 2)
    pairs = [p for p in pairs if p.multiplicity_group <= pairs[idx].multiplicity_group]
    groups = spectral.multiplicity_groups([p.eigenvalue for p in pairs])

    def measure(cloud, eig, _):
        projected = spectral.project_eigenfunctions(pairs, cloud)
        aligned = spectral.align_to_continuum(eig, projected, groups)
        lam_err, vec_err = spectral.eigen_errors(aligned, pairs, projected)
        return {"lambda_error": float(lam_err[idx]), "vector_error": float(vec_err[idx])}

    keys = ("lambda_error", "vector_error")
    result = _run_cells(config, threads, keys, lambda n: len(pairs), measure)
    result.fit = {key: _fit_or_none(result.per_n, key) for key in keys}
    return result


def _fmt(v) -> str:
    return "" if v is None else f"{v:.17g}"


def write_csv(result: ExperimentResult, path) -> None:
    """Trial records; columns depend on the experiment kind."""
    keys = [k for k in ("error", "lambda_error", "vector_error") if k in result.records[0]]
    lines = ["n,trial,seed," + ",".join(keys)]
    for r in result.records:
        lines.append(
            f"{r['n']},{r['trial']},{r['seed']}," + ",".join(_fmt(r[k]) for k in keys)
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary(result: ExperimentResult, path) -> None:
    Path(path).write_text(
        json.dumps(result.summary_dict(), indent=2, sort_keys=True) + "\n"
    )


def write_plot_data(result: ExperimentResult, path, key: str = "error") -> None:
    """Gnuplot-friendly columns: n, mean error, fitted value (if any)."""
    fit = result.fit
    if fit is not None and "slope" not in fit:
        fit = fit.get(key)
    lines = ["# n mean_error fitted"]
    for e in result.per_n:
        mean = e.get(f"mean_{key}")
        if mean is None:
            continue
        fitted = (
            math.exp(fit["intercept"]) * e["n"] ** fit["slope"] if fit else float("nan")
        )
        lines.append(f"{e['n']} {_fmt(mean)} {_fmt(fitted)}")
    Path(path).write_text("\n".join(lines) + "\n")

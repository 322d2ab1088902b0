"""Configuration-driven convergence experiments with deterministic seeding.

Both experiments run every (n, trial) cell through one pipeline: sample the
manifold, build the calibrated kernel graph, compute the lowest eigenpairs,
measure. A cell's measure evaluates the continuum basis P_n phi_0..phi_{K-1}
at its points once and reads everything continuum from it. The rate
experiment measures the G_n error between the discrete and the continuum
network; the eigen experiment measures eigenvalue and aligned eigenvector
errors. Each fits log-log lines to the per-n means. The worker
pool runs the calibration gate first, which refuses the run on a miss, and
then the work that does not depend on the sample, once per experiment: the
rate experiment's `continuum_network`, the eigen experiment's continuum
eigenvalues and levels, which the cells read from its future.

A config is checked once, type and range, by `ExperimentConfig.from_dict`,
which also parses its network; `_run_cells` checks before calibration only
what depends on the experiment: n against its mode count K, and memory (the
rate experiment checks its setup's quadrature basis, too). A
cell takes K modes on both sides: the signal's width for `run`, the end of
`eigen_index`'s level for `eigen`. An experiment's measured keys are
`ExperimentResult.keys`, the CSV columns after n, trial and seed, and
`summarize` is the one path from records to per-n means, for the summary and
`converge fit` alike.

Determinism contract: per-trial seeds are derived by hashing
(master seed, n, trial), trials are aggregated in a fixed order regardless
of thread count, and all file output uses explicit float formatting, so two
runs of the same config produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import graph, manifolds, network, spectral
from .filters import filter_from_config, finite_number
from .manifolds import Manifold
from .network import NetworkSpec

EIGEN_TOL = 1e-8
CALIBRATION_N = 2048  # points in the sample that gates the calibration constant
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


def integer(key: str, value, least: int | None = None) -> int:
    """A JSON integer only (int() would truncate 2.7, "3" and true), at least `least`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value


def real(key: str, value) -> float:
    """A finite JSON number, as a float (`filters.finite_number`)."""
    try:
        return finite_number(key, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: manifold, signal, network, graph bandwidth, and schedule.
    `from_dict` checks every value; the constructor takes them as given."""

    manifold: str
    signal_coefficients: tuple[float, ...]
    network_raw: dict  # as given in the config, kept for hashing
    network: NetworkSpec = field(compare=False)  # parsed from network_raw
    bandwidth_constant: float
    n_grid: tuple[int, ...]
    trials: int
    seed: int
    eigen_index: int = 1

    @property
    def manifold_model(self) -> Manifold:
        return manifolds.MODELS[self.manifold]

    def canonical_dict(self) -> dict:
        return {
            "manifold": self.manifold,
            "signal": {"coefficients": list(self.signal_coefficients)},
            "network": self.network_raw,
            "graph": {
                "scheme": "gaussian",  # the only scheme; kept so config hashes do not move
                "bandwidth_constant": self.bandwidth_constant,
            },
            "truncation": None,  # K is the signal's width; kept so config hashes do not move
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
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
        raw = dict(raw)

        def take(d: dict, key: str, default=None, required=False):
            if required and key not in d:
                raise ConfigError(f"missing required config key: {key!r}")
            return d.pop(key, default)

        def section(key: str) -> dict:
            value = take(raw, key, default={}) or {}
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be an object, got {value!r}")
            return dict(value)

        manifold = take(raw, "manifold", required=True)
        if not isinstance(manifold, str) or manifold not in manifolds.MODELS:
            raise ConfigError(f"unknown manifold: {manifold!r}")
        signal = section("signal")
        coeffs = signal.pop("coefficients", None)
        if signal:
            raise ConfigError(f"unknown signal keys: {sorted(signal)}")
        if coeffs is None:
            # default: unit coefficients on modes 1..9
            coeffs = [0.0] + [1.0] * 9
        elif not isinstance(coeffs, list) or not coeffs:
            raise ConfigError(f"signal coefficients must be a nonempty list, got {coeffs!r}")
        network = take(raw, "network", required=True)
        if not isinstance(network, dict) or "widths" not in network or "filters" not in network:
            raise ConfigError("network config needs 'widths' and 'filters'")
        unknown_net = set(network) - {"widths", "filters", "nonlinearity"}
        if unknown_net:
            raise ConfigError(f"unknown network keys: {sorted(unknown_net)}")
        try:
            spec = NetworkSpec(
                widths=tuple(integer("a network width", w) for w in network["widths"]),
                filters=tuple(
                    tuple(tuple(filter_from_config(f) for f in row) for row in bank)
                    for bank in network["filters"]
                ),
                nonlinearity=network.get("nonlinearity", "abs"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad network: {exc}") from exc
        g = section("graph")
        scheme = g.pop("scheme", "gaussian")
        bandwidth_constant = real("bandwidth_constant", g.pop("bandwidth_constant", 1.0))
        if scheme == "heat":
            raise ConfigError(
                "graph scheme 'heat' at bandwidth_constant c is 'gaussian' at 4c: use "
                f'"scheme": "gaussian", "bandwidth_constant": {4 * bandwidth_constant!r}'
            )
        if scheme != "gaussian":
            raise ConfigError(f"unknown graph scheme: {scheme!r}")
        if g:
            raise ConfigError(f"unknown graph keys: {sorted(g)}")
        if bandwidth_constant <= 0:
            raise ConfigError("bandwidth_constant must be positive")
        ngrid_raw = take(raw, "n_grid", required=True)
        if isinstance(ngrid_raw, dict):
            keys = ("start", "stop", "count")
            if sorted(ngrid_raw) != sorted(keys):
                raise ConfigError(f"an n_grid range needs exactly {keys}, got {sorted(ngrid_raw)}")
            n_grid = log_spaced_grid(*(integer(f"n_grid {k}", ngrid_raw[k]) for k in keys))
        elif isinstance(ngrid_raw, list):
            n_grid = [integer("an n_grid entry", v) for v in ngrid_raw]
        else:
            raise ConfigError("n_grid must be a list or a {start, stop, count} range")
        if not n_grid or n_grid != sorted(set(n_grid)):
            raise ConfigError("n_grid must be strictly increasing and nonempty")
        trials = integer("trials", take(raw, "trials", default=20), least=1)
        seed = integer("seed", take(raw, "seed", default=0), least=0)
        eigen_index = integer("eigen_index", take(raw, "eigen_index", default=1), least=0)
        if raw:
            raise ConfigError(f"unknown config keys: {sorted(raw)}")
        return ExperimentConfig(
            manifold=manifold,
            signal_coefficients=tuple(real("a signal coefficient", c) for c in coeffs),
            network_raw=network,
            network=spec,
            bandwidth_constant=bandwidth_constant,
            n_grid=tuple(n_grid),
            trials=trials,
            seed=seed,
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
    if not all(0 < e < math.inf for _, e in pts):
        raise ValueError("log-log fit requires positive finite errors")
    x = np.log([n for n, _ in pts])
    y = np.log([e for _, e in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def resolve_calibration(config: ExperimentConfig) -> dict:
    """Gate the analytic calibration constant against the eigenvalue oracle.

    Measures the first nonzero eigenvalue of the graph Laplacian on the
    experiment's manifold at n = CALIBRATION_N, K = 2. More than 20% off the
    continuum value, it raises ConfigError with both values, the bandwidth
    constant and the analytic constant: a miss refuses the run. A solve that
    does not converge raises ConvergenceFailure. Returns what the gate saw.
    """
    m = config.manifold_model
    target = m.eigenvalue(1)
    analytic = graph.calibration_constant(m)
    n = CALIBRATION_N
    cloud = manifolds.sample_uniform(m, n, derive_seed(config.seed, n, 10**6))
    op = graph.build_laplacian(cloud, m, config.bandwidth_constant)
    try:
        eig = spectral.smallest_eigenpairs(op, K=2, tol=EIGEN_TOL, seed=config.seed)
    except spectral.ConvergenceFailure as exc:
        raise spectral.ConvergenceFailure(
            f"calibration solve (n = {n}, K = 2): {exc}", exc.residuals
        ) from exc
    measured = float(eig.eigenvalues[1])
    if not abs(measured - target) <= 0.20 * target:
        raise ConfigError(
            f"calibration: measured lambda_1 {measured:.6g} misses target {target:g} by more "
            f"than 20% at bandwidth_constant {config.bandwidth_constant:g} and analytic "
            f"constant {analytic:.6g}"
        )
    return {
        "analytic_constant": analytic,
        "check_n": n,
        "measured_lambda1": measured,
        "target_lambda1": target,
    }


@dataclass
class ExperimentResult:
    """Per-trial records plus per-n summaries and the fitted rate."""

    config: ExperimentConfig
    keys: tuple[str, ...]  # measured per record: the CSV columns after n, trial, seed
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


def summarize(records, keys) -> list[dict]:
    """Per n, in record order: the trials that did not fail, and the mean and
    std of each key over them (None where every trial failed)."""
    per_n = []
    for n in dict.fromkeys(r["n"] for r in records):
        ok = [r for r in records if r["n"] == n and not r.get("failed")]
        entry = {"n": n, "trials_ok": len(ok)}
        for key in keys:
            vals = np.array([r[key] for r in ok])
            entry[f"mean_{key}"] = float(vals.mean()) if ok else None
            entry[f"std_{key}"] = float(vals.std(ddof=0)) if ok else None
        per_n.append(entry)
    return per_n


def fit_or_none(per_n, key) -> dict | None:
    """The log-log fit of key's positive per-n means, or None below 3 of them."""
    pts = [
        (e["n"], e[f"mean_{key}"])
        for e in per_n
        if e[f"mean_{key}"] is not None and e[f"mean_{key}"] > 0
    ]
    if len(pts) < 3:
        return None
    slope, intercept, r2 = loglog_fit(pts)
    return {"slope": slope, "intercept": intercept, "r2": r2}


def cell_bytes(config: ExperimentConfig, n: int, K: int) -> int:
    """Peak bytes of one cell at n points and K modes: its kernel, stored as
    `graph.kernel_bytes` says, plus its solve, `spectral.peak_bytes`."""
    kernel = graph.kernel_bytes(config.manifold_model, n, config.bandwidth_constant)
    return kernel + spectral.peak_bytes(n, K)


def _run_cells(config, threads, keys, K, measure, setup) -> ExperimentResult:
    """Run every (n, trial) cell and summarize per n.

    The pool's first task is the calibration gate, resolve_calibration, and
    its second is setup(), the experiment's sample-independent work: one
    worker runs calibration, setup, cells in that order, and more than one
    run the setup while the gate solves. No cell starts before the gate
    returns. A cell records measure(cloud, eig, setup()) on its lowest K
    eigenpairs, waiting for setup() if it is still running, or None for each
    of `keys` and `failed: True` if the solve fails. A gate miss
    (ConfigError) or a failed calibration solve (ConvergenceFailure)
    propagates and runs no cell, nor with one worker the setup. More than
    MAX_FAILURE_FRACTION failed cells abort the run. Cells start largest n
    first, so no worker is left with a big cell while the others idle, and
    the records come back in grid order.

    The workers are capped at MEMORY_FRACTION of available_memory() over
    cell_bytes of the largest cell, and never below one; the count
    never changes a result. A thread count below 1, an n below 2 or below K,
    or a cell larger than all of the available memory, raises ConfigError
    before calibration and before setup.
    """
    start = time.perf_counter()
    m = config.manifold_model
    workers = default_thread_count() if threads is None else threads
    if workers < 1:
        raise ConfigError(f"need at least 1 thread, got {workers}")
    for n in config.n_grid:
        if n < max(2, K):
            raise ConfigError(f"n_grid entry {n} is below 2 or the {K} modes a cell takes")
    available = available_memory()
    largest = max(cell_bytes(config, n, K) for n in config.n_grid)
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
            op = graph.build_laplacian(cloud, m, config.bandwidth_constant)
            eig = spectral.smallest_eigenpairs(op, K=K, tol=EIGEN_TOL, seed=seed)
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
        gate = pool.submit(resolve_calibration, config)
        # with one worker the gate has run by now, and a refused run builds nothing
        prepared = pool.submit(lambda: None if gate.done() and gate.exception() else setup())
        calibration = gate.result()
        done = dict(zip(largest_first, pool.map(lambda c: cell(*c), largest_first)))
    records = [done[c] for c in cells]
    failures = sum(1 for r in records if r.get("failed"))
    if failures > MAX_FAILURE_FRACTION * len(cells):
        raise ExperimentAborted(
            f"{failures}/{len(cells)} trials failed eigensolver convergence"
        )
    return ExperimentResult(
        config=config,
        keys=keys,
        records=records,
        per_n=summarize(records, keys),
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
    net = config.network
    if net.widths[0] != 1:
        raise ConfigError("convergence experiment expects a single input feature")
    coeffs = np.array(config.signal_coefficients)
    K = len(coeffs)  # both sides keep the signal's modes; zero coefficients add more
    available, grid = available_memory(), network.continuum_bytes(net, m, K)
    if available is not None and grid > available:  # the cells' rule, for the setup
        raise ConfigError(
            f"a {grid >> 20} MiB quadrature basis exceeds {available >> 20} MiB of available memory"
        )

    def continuum():
        # sample-independent: built once, while the calibration gate solves
        return network.continuum_network(net, m, coeffs[None, :])

    def measure(cloud, eig, cont):
        basis = manifolds.eigenbasis(m, cloud, K)  # P_n phi_i, shared by both sides
        x0 = manifolds.evaluate_signal(coeffs, basis)[None, :]
        disc = network.forward_discrete(net, eig, x0)
        return {"error": network.mnn_error(disc, network.forward_continuum(net, cont, basis))}

    result = _run_cells(config, threads, ("error",), K, measure, continuum)
    result.fit = fit_or_none(result.per_n, "error")
    return result


def eigen_convergence_experiment(
    config: ExperimentConfig, threads: int | None = None
) -> ExperimentResult:
    """Eigenvalue / aligned-eigenvector error versus n, with rate fits."""
    m = config.manifold_model
    idx = config.eigen_index
    # modes through the end of idx's level: a cut level would make the
    # Procrustes alignment pick an arbitrary slice of a near-degenerate space
    K = m.level_end(idx)

    def levels():
        # after _run_cells has checked K against the grid and memory
        return m.eigenvalues(K), [list(g) for _, g in itertools.groupby(range(K), m.level)]

    def measure(cloud, eig, prepared):
        lam, groups = prepared
        projected = spectral.project_eigenfunctions(m, cloud, K)
        aligned = spectral.align_to_continuum(eig, projected, groups)
        lam_err, vec_err = spectral.eigen_errors(aligned, lam, projected)
        return {"lambda_error": float(lam_err[idx]), "vector_error": float(vec_err[idx])}

    keys = ("lambda_error", "vector_error")
    result = _run_cells(config, threads, keys, K, measure, levels)
    result.fit = {key: fit_or_none(result.per_n, key) for key in keys}
    return result


def _fmt(v) -> str:
    return "" if v is None else f"{v:.17g}"


def write_csv(result: ExperimentResult, path) -> None:
    """Trial records: n, trial, seed and the experiment's measured keys."""
    lines = ["n,trial,seed," + ",".join(result.keys)]
    for r in result.records:
        lines.append(
            f"{r['n']},{r['trial']},{r['seed']}," + ",".join(_fmt(r[k]) for k in result.keys)
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary(result: ExperimentResult, path) -> None:
    Path(path).write_text(
        json.dumps(result.summary_dict(), indent=2, sort_keys=True) + "\n"
    )


def write_plot_data(result: ExperimentResult, path) -> None:
    """Gnuplot-friendly columns: n, the mean of the first key, fitted value (if any)."""
    key = result.keys[0]
    fit = result.fit
    if fit is not None and "slope" not in fit:
        fit = fit.get(key)
    lines = [f"# n mean_{key} fitted"]
    for e in result.per_n:
        mean = e.get(f"mean_{key}")
        if mean is None:
            continue
        fitted = (
            math.exp(fit["intercept"]) * e["n"] ** fit["slope"] if fit else float("nan")
        )
        lines.append(f"{e['n']} {_fmt(mean)} {_fmt(fitted)}")
    Path(path).write_text("\n".join(lines) + "\n")

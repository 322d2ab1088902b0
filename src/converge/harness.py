"""Configuration-driven convergence experiments with deterministic seeding.

A run samples point clouds at a grid of sizes n, builds the kernel graph,
computes the leading eigenpairs, pushes the bandlimited signal through both
the discrete and the continuum network, records the G_n error per trial, and
fits a log-log line to the per-n mean errors.

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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import graph, manifolds, spectral
from .filters import filter_from_config
from .manifolds import BandlimitedSignal, ManifoldModel
from .network import NetworkSpec, forward_continuum, forward_discrete, mnn_error

EIGEN_TOL = 1e-8
MAX_FAILURE_FRACTION = 0.10
THREADS_ENV_VAR = "CONVERGE_THREADS"


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration content."""


class ExperimentAborted(RuntimeError):
    """Raised when too many trials fail to converge."""


def default_thread_count() -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"bad {THREADS_ENV_VAR} value: {env!r}") from exc
    return min(8, os.cpu_count() or 1)


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
        """Discrete truncation at point count n: defaults to signal width."""
        if self.truncation == "full":
            return n
        return self.truncation or len(self.signal_coefficients)

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
    rescaled empirically by the measured ratio. The chosen path is recorded
    in the experiment metadata.
    """
    m = config.manifold_model
    target = 1.0 if m.kind == "circle" else 2.0
    analytic = graph.calibration_constant(config.scheme_tag, m.intrinsic_dim, m.volume)
    t = graph.scale_parameter(check_n, m.intrinsic_dim, config.bandwidth_constant)
    scheme = graph.KernelScheme(config.scheme_tag, m.intrinsic_dim, t, analytic)
    cloud = manifolds.sample_uniform(m, check_n, derive_seed(config.seed, check_n, 10**6))
    op = graph.build_laplacian(cloud, scheme)
    eig = spectral.smallest_eigenpairs(op, K=2, tol=EIGEN_TOL, seed=config.seed)
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


def _run_trials(config, worker, threads):
    """Run (n, trial) cells, deterministically ordered; abort on failures."""
    cells = [
        (n, trial, derive_seed(config.seed, n, trial))
        for n in config.n_grid
        for trial in range(config.trials)
    ]
    threads = threads or default_thread_count()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda c: worker(*c), cells))
    else:
        results = [worker(*c) for c in cells]
    failures = sum(1 for r in results if r.get("failed"))
    if failures > MAX_FAILURE_FRACTION * len(cells):
        raise ExperimentAborted(
            f"{failures}/{len(cells)} trials failed eigensolver convergence"
        )
    return results, failures


def run_convergence_experiment(
    config: ExperimentConfig, threads: int | None = None
) -> ExperimentResult:
    """The discrete-vs-continuum error experiment with a log-log rate fit."""
    start = time.perf_counter()
    m = config.manifold_model
    net = config.build_network()
    sig = config.signal
    if net.widths[0] != 1:
        raise ConfigError("convergence experiment expects a single input feature")
    calibration = resolve_calibration(config)
    constant = calibration["constant"]
    pairs = manifolds.continuum_eigenpairs(m, sig.bandwidth + 1)
    coeffs = np.zeros((1, sig.bandwidth + 1))
    coeffs[0] = sig.coefficients

    def worker(n, trial, seed):
        try:
            cloud = manifolds.sample_uniform(m, n, seed)
            t = graph.scale_parameter(n, m.intrinsic_dim, config.bandwidth_constant)
            scheme = graph.KernelScheme(config.scheme_tag, m.intrinsic_dim, t, constant)
            op = graph.build_laplacian(cloud, scheme)
            K = max(config.mode_count(n), sig.bandwidth + 1) if config.truncation != "full" else n
            eig = spectral.smallest_eigenpairs(op, K=K, tol=EIGEN_TOL, seed=seed)
            x0 = manifolds.evaluate_signal(sig, m, cloud)[None, :]
            disc = forward_discrete(net, eig, x0)
            cont = forward_continuum(net, m, pairs, coeffs, cloud)
            err = mnn_error(disc, cont)
            return {"n": n, "trial": trial, "seed": seed, "error": err}
        except spectral.ConvergenceFailure:
            return {"n": n, "trial": trial, "seed": seed, "error": None, "failed": True}

    records, failures = _run_trials(config, worker, threads)
    per_n = _summarize(config, records, ["error"])
    result = ExperimentResult(config=config, records=records, per_n=per_n)
    result.fit = _fit_or_none(per_n, "error")
    result.metadata = {
        "calibration": calibration,
        "failures": failures,
        "wall_clock_seconds": round(time.perf_counter() - start, 3),
    }
    return result


def eigen_convergence_experiment(
    config: ExperimentConfig, threads: int | None = None
) -> ExperimentResult:
    """Eigenvalue / aligned-eigenvector error versus n, with rate fits."""
    start = time.perf_counter()
    m = config.manifold_model
    idx = config.eigen_index
    K = idx + 2  # cover the tracked index plus the tail of its cluster
    pairs = manifolds.continuum_eigenpairs(m, K)
    calibration = resolve_calibration(config)
    constant = calibration["constant"]
    groups = spectral.multiplicity_groups([p.eigenvalue for p in pairs])

    def worker(n, trial, seed):
        try:
            cloud = manifolds.sample_uniform(m, n, seed)
            t = graph.scale_parameter(n, m.intrinsic_dim, config.bandwidth_constant)
            scheme = graph.KernelScheme(config.scheme_tag, m.intrinsic_dim, t, constant)
            op = graph.build_laplacian(cloud, scheme)
            eig = spectral.smallest_eigenpairs(op, K=K, tol=EIGEN_TOL, seed=seed)
            projected = spectral.project_eigenfunctions(pairs, cloud)
            aligned = spectral.align_to_continuum(eig, projected, groups)
            lam_err, vec_err = spectral.eigen_errors(aligned, pairs, cloud)
            return {
                "n": n,
                "trial": trial,
                "seed": seed,
                "lambda_error": float(lam_err[idx]),
                "vector_error": float(vec_err[idx]),
            }
        except spectral.ConvergenceFailure:
            return {
                "n": n,
                "trial": trial,
                "seed": seed,
                "lambda_error": None,
                "vector_error": None,
                "failed": True,
            }

    records, failures = _run_trials(config, worker, threads)
    per_n = _summarize(config, records, ["lambda_error", "vector_error"])
    result = ExperimentResult(config=config, records=records, per_n=per_n)
    result.fit = {
        "lambda_error": _fit_or_none(per_n, "lambda_error"),
        "vector_error": _fit_or_none(per_n, "vector_error"),
    }
    result.metadata = {
        "calibration": calibration,
        "failures": failures,
        "wall_clock_seconds": round(time.perf_counter() - start, 3),
    }
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

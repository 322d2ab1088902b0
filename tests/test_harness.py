import json
import math
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from converge import graph, harness, manifolds, network, spectral
from converge.cli import FULL_GRID, main
from converge.filters import SpectralFilter
from converge.harness import (
    ConfigError,
    ExperimentAborted,
    ExperimentConfig,
    ExperimentResult,
    derive_seed,
    eigen_convergence_experiment,
    log_spaced_grid,
    loglog_fit,
    run_convergence_experiment,
    write_csv,
    write_plot_data,
    write_summary,
)

TINY_CONFIG = {
    "manifold": "circle",
    "signal": {"coefficients": [0.0, 1.0, 1.0]},
    "network": {
        "widths": [1, 1],
        "filters": [[[{"family": "exponential"}]]],
        "nonlinearity": "abs",
    },
    "graph": {"scheme": "gaussian", "bandwidth_constant": 1.0},
    "n_grid": [128, 256],
    "trials": 2,
    "seed": 7,
}
TWO_LAYER_CONFIG = dict(
    TINY_CONFIG,
    network={
        "widths": [1, 1, 1],
        "filters": [[[{"family": "exponential"}]], [[{"family": "exponential"}]]],
        "nonlinearity": "abs",
    },
)
WIDE_CONFIG = dict(
    TINY_CONFIG,
    network={
        "widths": [1, 2, 1],
        "filters": [
            [[{"family": "exponential"}], [{"family": "tent", "center": 2.0}]],
            [[{"family": "exponential"}, {"family": "polynomial", "coefficients": [0.5, -0.1]}]],
        ],
        "nonlinearity": "relu",
    },
)
SPHERE_EIGEN_CONFIG = dict(
    TINY_CONFIG, manifold="sphere2", graph={"scheme": "gaussian", "bandwidth_constant": 2.0}
)
CALIBRATION_KEYS = {"analytic_constant", "check_n", "measured_lambda1", "target_lambda1"}
EXPERIMENTS = {
    "run": (run_convergence_experiment, ("error",)),
    "eigen": (eigen_convergence_experiment, ("lambda_error", "vector_error")),
}


def test_loglog_fit_exact_power_law():
    pts = [(n, n**-0.5) for n in (10, 100, 1000, 10000)]
    slope, intercept, r2 = loglog_fit(pts)
    assert slope == pytest.approx(-0.5, abs=1e-10)
    assert intercept == pytest.approx(0.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_loglog_fit_constant():
    slope, _, _ = loglog_fit([(n, 3.0) for n in (10, 100, 1000)])
    assert slope == pytest.approx(0.0, abs=1e-10)


def test_loglog_fit_noisy_power_law():
    rng = np.random.default_rng(0)
    ns = np.logspace(2, 5, 10)
    pts = [(n, 3 * n**-0.76 * (1 + rng.uniform(-0.05, 0.05))) for n in ns]
    slope, _, _ = loglog_fit(pts)
    assert slope == pytest.approx(-0.76, abs=0.08)


def test_loglog_fit_validation():
    with pytest.raises(ValueError):
        loglog_fit([(10, 1.0), (20, 2.0)])
    with pytest.raises(ValueError):
        loglog_fit([(10, 1.0), (20, 0.0), (30, 2.0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            loglog_fit([(10, 1.0), (20, bad), (30, 2.0)])


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 128, 0) == derive_seed(1, 128, 0)
    seeds = {derive_seed(1, n, t) for n in (128, 256) for t in range(10)}
    assert len(seeds) == 20


def test_log_spaced_grid():
    grid = log_spaced_grid(1024, 16384, 10)
    assert grid[0] == 1024 and grid[-1] == 16384
    assert grid == sorted(set(grid))
    with pytest.raises(ConfigError):
        log_spaced_grid(100, 50, 5)


def test_config_rejects_unknown_keys():
    bad = dict(TINY_CONFIG, turbo=True)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)
    bad = dict(TINY_CONFIG, graph={"scheme": "gaussian", "cutoff": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)


def test_config_requires_core_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"manifold": "circle"})
    # an empty list is not an object missing its keys
    with pytest.raises(ConfigError, match=r"must be a JSON object, got \[\]"):
        ExperimentConfig.from_dict([])


def test_config_defaults():
    cfg = ExperimentConfig.from_dict(
        {
            "manifold": "sphere2",
            "network": TINY_CONFIG["network"],
            "n_grid": {"start": 1024, "stop": 8192, "count": 8},
        }
    )
    # default signal: unit coefficients on modes 1..9
    assert cfg.signal_coefficients == (0.0,) + (1.0,) * 9
    assert cfg.trials == 20
    assert len(cfg.n_grid) == 8
    assert cfg.canonical_dict()["graph"] == {"scheme": "gaussian", "bandwidth_constant": 1.0}


def test_config_hash_changes_with_content():
    a = ExperimentConfig.from_dict(TINY_CONFIG)
    b = ExperimentConfig.from_dict(dict(TINY_CONFIG, seed=8))
    assert a.content_hash() != b.content_hash()
    assert a.content_hash() == ExperimentConfig.from_dict(TINY_CONFIG).content_hash()
    assert a == ExperimentConfig.from_dict(TINY_CONFIG)  # the parsed network follows network_raw


@pytest.fixture(scope="module")
def tiny_result():
    return run_convergence_experiment(ExperimentConfig.from_dict(TINY_CONFIG), threads=1)


def test_run_record_count(tiny_result):
    assert len(tiny_result.records) == 4  # |n_grid| * trials
    assert all(not r.get("failed") for r in tiny_result.records)
    for e in tiny_result.per_n:
        assert e["mean_error"] >= 0
        assert math.isfinite(e["std_error"])


@pytest.fixture(scope="module")
def two_layer_runs():
    """threads -> (result, calls to the quadrature grid) for a 2-layer network.

    The hidden layers are built once, beside the calibration solve, and every
    trial reads them from the same future. Four threads on a shortened switch
    interval make the trials ask for them while they may still be building.
    """
    runs = {}
    nodes = network.quadrature_nodes
    interval = sys.getswitchinterval()
    for threads in (1, 2, 4):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return nodes(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(network, "quadrature_nodes", counted)
            sys.setswitchinterval(1e-6)
            try:
                res = run_convergence_experiment(
                    ExperimentConfig.from_dict(TWO_LAYER_CONFIG), threads=threads
                )
            finally:
                sys.setswitchinterval(interval)
        runs[threads] = (res, len(calls))
    return runs


def test_run_determinism(tiny_result, two_layer_runs, tmp_path):
    again = run_convergence_experiment(ExperimentConfig.from_dict(TINY_CONFIG), threads=2)
    pairs = [(tiny_result, again)]
    pairs += [(two_layer_runs[1][0], two_layer_runs[t][0]) for t in (2, 4)]
    wide_cfg = ExperimentConfig.from_dict(WIDE_CONFIG)
    pairs += [tuple(run_convergence_experiment(wide_cfg, threads=t) for t in (1, 2))]
    eigen_cfg = ExperimentConfig.from_dict(SPHERE_EIGEN_CONFIG)
    eigen = {t: eigen_convergence_experiment(eigen_cfg, threads=t) for t in (1, 2, 4)}
    pairs += [(eigen[1], eigen[t]) for t in (2, 4)]
    for a, b in pairs:
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, p1)
        write_csv(b, p2)
        assert p1.read_bytes() == p2.read_bytes()
        s1, s2 = tmp_path / "a.json", tmp_path / "b.json"
        write_summary(a, s1)
        write_summary(b, s2)
        # wall clock stays in metadata only, so summaries are byte-identical
        assert s1.read_bytes() == s2.read_bytes()


def test_cells_start_largest_n_first(monkeypatch, tiny_result, tmp_path):
    # the costliest cells start first, and the records keep grid order
    cfg = ExperimentConfig.from_dict(TINY_CONFIG)
    calibration_seed = derive_seed(cfg.seed, 2048, 10**6)
    sample = harness.manifolds.sample_uniform
    started = []

    def recorded(m, n, seed):
        if seed != calibration_seed:
            started.append(n)
        return sample(m, n, seed)

    monkeypatch.setattr(harness.manifolds, "sample_uniform", recorded)
    res = run_convergence_experiment(cfg, threads=1)
    assert started == [256, 256, 128, 128]
    assert [(r["n"], r["trial"]) for r in res.records] == [(128, 0), (128, 1), (256, 0), (256, 1)]
    write_csv(res, tmp_path / "a.csv")
    write_csv(tiny_result, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_hidden_layers_computed_once_per_run(two_layer_runs):
    # 4 trials, but the sample-independent hidden layers are built once
    assert {t: calls for t, (_, calls) in two_layer_runs.items()} == {1: 1, 2: 1, 4: 1}
    for res, _ in two_layer_runs.values():
        assert all(r["error"] > 0 for r in res.records)


def test_hidden_layers_built_beside_calibration(two_layer_runs, monkeypatch, tmp_path):
    # a calibration solve that waits for the hidden-layer pass finishes only
    # if the pass runs beside it, not inside the first trial's measure
    built = threading.Event()
    continuum = network.continuum_network
    calibrate = harness.resolve_calibration

    def hidden_then_signal(*args, **kwargs):
        out = continuum(*args, **kwargs)
        built.set()
        return out

    def calibrate_after_hidden(config, **kwargs):
        if not built.wait(timeout=10.0):
            pytest.fail("the continuum network did not start beside the calibration solve")
        return calibrate(config, **kwargs)

    monkeypatch.setattr(network, "continuum_network", hidden_then_signal)
    monkeypatch.setattr(harness, "resolve_calibration", calibrate_after_hidden)
    res = run_convergence_experiment(ExperimentConfig.from_dict(TWO_LAYER_CONFIG), threads=2)
    write_csv(res, tmp_path / "a.csv")
    write_csv(two_layer_runs[1][0], tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_filter_banks_evaluated_once_per_run_and_layer(monkeypatch):
    # the continuum network evaluates both banks once per run; each cell
    # evaluates them once more in its discrete pass: 2 + 2C for C cells
    evaluate, calls = SpectralFilter.evaluate, []

    def counted(self, lam):
        calls.append(1)
        return evaluate(self, lam)

    monkeypatch.setattr(SpectralFilter, "evaluate", counted)
    cfg = ExperimentConfig.from_dict(TWO_LAYER_CONFIG)
    res = run_convergence_experiment(cfg, threads=2)
    cells = len(res.records)
    assert cells == len(cfg.n_grid) * cfg.trials == 4
    assert len(calls) == 2 + 2 * cells


def test_no_cell_starts_before_the_gate_returns(monkeypatch):
    # two workers: the setup runs beside the gate, but a cell waits for it,
    # however long the gate takes after its solve
    cfg = ExperimentConfig.from_dict(TWO_LAYER_CONFIG)
    calibration_seed = derive_seed(cfg.seed, 2048, 10**6)
    calibrate, sample = harness.resolve_calibration, harness.manifolds.sample_uniform
    order = []

    def slow_calibration(config):
        out = calibrate(config)
        time.sleep(0.2)
        order.append("calibration")
        return out

    def sampled(m, n, seed):
        if seed != calibration_seed:
            order.append("cell")
        return sample(m, n, seed)

    monkeypatch.setattr(harness, "resolve_calibration", slow_calibration)
    monkeypatch.setattr(harness.manifolds, "sample_uniform", sampled)
    result = run_convergence_experiment(cfg, threads=2)
    assert result.metadata["workers"] == 2
    assert order == ["calibration"] + ["cell"] * 4


def test_one_worker_runs_calibration_setup_cells_in_order(monkeypatch):
    cfg = ExperimentConfig.from_dict(TWO_LAYER_CONFIG)
    calibration_seed = derive_seed(cfg.seed, 2048, 10**6)
    nodes, calibrate = network.quadrature_nodes, harness.resolve_calibration
    sample = harness.manifolds.sample_uniform
    order = []  # the hidden-layer pass is the only caller of the quadrature grid

    def logged(name, fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            order.append(name)
            return out

        return call

    def sampled(m, n, seed):
        if seed != calibration_seed:
            order.append("cell")
        return sample(m, n, seed)

    monkeypatch.setattr(network, "quadrature_nodes", logged("setup", nodes))
    monkeypatch.setattr(harness, "resolve_calibration", logged("calibration", calibrate))
    monkeypatch.setattr(harness.manifolds, "sample_uniform", sampled)
    run_convergence_experiment(cfg, threads=1)
    assert order == ["calibration", "setup"] + ["cell"] * 4


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_calibration_failure_is_not_a_failed_cell(name, monkeypatch, tmp_path, capsys):
    # the K = 2 calibration solve fails: exit 3, one stderr line, no CSV
    solve = spectral.smallest_eigenpairs

    def fail_calibration(op, K, *args, **kwargs):
        if K == 2:
            raise spectral.ConvergenceFailure("forced", np.array([3e-5, 4e-4]))
        return solve(op, K, *args, **kwargs)

    monkeypatch.setattr(spectral, "smallest_eigenpairs", fail_calibration)
    experiment, _ = EXPERIMENTS[name]
    with pytest.raises(spectral.ConvergenceFailure, match="calibration solve"):
        experiment(ExperimentConfig.from_dict(TINY_CONFIG), threads=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    capsys.readouterr()
    code = main([name, "--config", str(cfg_path), "--out-dir", str(tmp_path), "--threads", "2"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "calibration solve" in err[0] and "max residual 4.000e-04" in err[0]
    assert not list(tmp_path.glob("*.csv"))


def test_memory_cap_limits_the_workers(monkeypatch, tmp_path):
    # a budget for two of the largest cells: four threads hold at most two
    # operators at once, and the result does not depend on it
    cfg = ExperimentConfig.from_dict(dict(TINY_CONFIG, trials=4))
    largest = max(harness.cell_bytes(cfg, n, len(cfg.signal_coefficients)) for n in cfg.n_grid)
    monkeypatch.setattr(harness, "available_memory", lambda: int(2 * largest / harness.MEMORY_FRACTION))
    build = graph.build_laplacian
    lock = threading.Lock()
    live, most = [0], [0]

    def released():
        with lock:
            live[0] -= 1

    def counted(*args):
        op = build(*args)
        if op.n in cfg.n_grid:  # not the calibration solve's operator
            with lock:
                live[0] += 1
                most[0] = max(most[0], live[0])
            weakref.finalize(op, released)
            time.sleep(0.05)  # long enough for every free worker to start a cell
        return op

    monkeypatch.setattr(graph, "build_laplacian", counted)
    runs = {t: run_convergence_experiment(cfg, threads=t) for t in (4, 1)}
    assert most[0] == 2 and live[0] == 0
    assert runs[4].metadata["workers"] == 2 and runs[1].metadata["workers"] == 1
    for write, name in ((write_csv, "csv"), (write_summary, "json")):
        for t, res in runs.items():
            write(res, tmp_path / f"{t}.{name}")
        assert (tmp_path / f"4.{name}").read_bytes() == (tmp_path / f"1.{name}").read_bytes()


def test_memory_cap_reads_the_kernel_storage(monkeypatch):
    # a circle cell at n = 16384 holds 75 modes of zonal factors, not a 4 GiB
    # dense kernel build, and runs under 600 MiB; a sphere cell at n = 1024 is dense
    cfg = ExperimentConfig.from_dict(
        dict(TINY_CONFIG, graph={"scheme": "gaussian", "bandwidth_constant": 2.0}, n_grid=[16384], trials=1)
    )
    K = cfg.manifold_model.level_end(cfg.eigen_index)
    assert harness.cell_bytes(cfg, 16384, K) == 8 * 16384 * 75 + spectral.peak_bytes(16384, K)
    monkeypatch.setattr(harness, "available_memory", lambda: 600 << 20)
    result = eigen_convergence_experiment(cfg, threads=2)
    assert result.metadata["failures"] == 0 and result.metadata["workers"] == 2
    sphere = ExperimentConfig.from_json(PINNED / "sphere_rate.json")
    assert harness.cell_bytes(sphere, 1024, 10) == 16 * 1024 * 1024 + spectral.peak_bytes(1024, 10)


def _refuse_calibration(monkeypatch):
    """Make a run that reaches the calibration solve fail loudly; return its call log."""
    calls = []

    def refused(config, **kwargs):
        calls.append(config)
        raise RuntimeError("calibration reached")

    monkeypatch.setattr(harness, "resolve_calibration", refused)
    return calls


def test_cell_over_the_available_memory_is_a_config_error(monkeypatch, tmp_path, capsys):
    # a 200-coefficient signal at n = 512 is counted at its kernel, a Krylov
    # basis of all 512 steps and 200 Ritz vectors; the same grid at the tiny
    # signal's 3 modes is counted at a basis of 120 steps
    raw = dict(TINY_CONFIG, n_grid=[256, 512], signal={"coefficients": [0.0, 1.0, 1.0] + [0.0] * 197})
    wide = ExperimentConfig.from_dict(raw)
    available = harness.cell_bytes(wide, 512, 200) - 1
    assert harness.cell_bytes(wide, 512, 3) < harness.MEMORY_FRACTION * available
    monkeypatch.setattr(harness, "available_memory", lambda: available)
    calls = _refuse_calibration(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "available memory" in err[0]
    assert not calls and not list(tmp_path.glob("*.csv"))
    # the same grid at 3 modes fits and goes on to calibrate
    narrow = ExperimentConfig.from_dict(dict(raw, signal=TINY_CONFIG["signal"]))
    with pytest.raises(RuntimeError, match="calibration reached"):
        run_convergence_experiment(narrow, threads=1)
    assert calls == [narrow]


def test_unusable_out_dir_is_a_config_error_before_the_run(tmp_path, monkeypatch, capsys):
    # a directory under a file cannot be made: refused before calibration,
    # not after every cell has run
    calls = _refuse_calibration(monkeypatch)
    (tmp_path / "file").write_text("")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    for command in EXPERIMENTS:
        argv = [command, "--config", str(cfg_path), "--out-dir", str(tmp_path / "file" / "sub")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot create --out-dir ")
    assert not calls


def test_unwritable_artifact_is_a_config_error(tmp_path, capsys):
    # a directory where the CSV goes fails the write after the run: one
    # config error line, not a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    (tmp_path / f"run_{ExperimentConfig.from_dict(TINY_CONFIG).content_hash()}.csv").mkdir()
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: cannot write to --out-dir ")


def test_setup_basis_over_the_available_memory_is_a_config_error(monkeypatch, tmp_path, capsys):
    # a two-layer run builds an 8 * quadrature_size * K byte basis on the
    # quadrature grid in its setup, far above its cells' footprint: more than
    # all of the available memory is refused before calibration
    cfg = ExperimentConfig.from_dict(TWO_LAYER_CONFIG)
    m, K = cfg.manifold_model, len(cfg.signal_coefficients)
    grid = 8 * m.quadrature_size * K
    available = grid - 1
    assert harness.cell_bytes(cfg, max(cfg.n_grid), K) < harness.MEMORY_FRACTION * available
    monkeypatch.setattr(harness, "available_memory", lambda: available)
    calls = _refuse_calibration(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TWO_LAYER_CONFIG))
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert f"{grid >> 20} MiB quadrature basis" in err[0]
    assert f"{available >> 20} MiB of available memory" in err[0]
    assert not calls and not list(tmp_path.glob("*.csv"))
    assert network.continuum_bytes(cfg.network, m, K) == grid
    # a one-layer network builds no grid: the same memory goes on to calibrate
    tiny = ExperimentConfig.from_dict(TINY_CONFIG)
    assert network.continuum_bytes(tiny.network, m, K) == 0
    with pytest.raises(RuntimeError, match="calibration reached"):
        run_convergence_experiment(tiny, threads=1)
    assert calls == [tiny]


def test_no_harness_solve_takes_the_dense_path(monkeypatch):
    # the oracle is for a caller that names it: the calibration gate and
    # every cell, the n = 128 ones included, solve with Lanczos
    dense, calls = graph.LaplacianOperator.dense_matrix, []
    monkeypatch.setattr(
        graph.LaplacianOperator, "dense_matrix", lambda self: calls.append(self.n) or dense(self)
    )
    cfg = ExperimentConfig.from_dict(TINY_CONFIG)
    for experiment, _ in EXPERIMENTS.values():
        assert experiment(cfg, threads=2).metadata["failures"] == 0
    assert calls == []


def test_cell_over_the_worker_share_runs_alone(monkeypatch, capsys):
    # the fraction sizes concurrency only: a cell that fits the whole of the
    # available memory runs, on one worker
    cfg = ExperimentConfig.from_dict(TINY_CONFIG)
    largest = max(harness.cell_bytes(cfg, n, len(cfg.signal_coefficients)) for n in cfg.n_grid)
    monkeypatch.setattr(harness, "available_memory", lambda: largest + 1)
    result = run_convergence_experiment(cfg, threads=4)
    assert result.metadata["workers"] == 1 and result.metadata["failures"] == 0
    assert "1 workers" in capsys.readouterr().err


def test_memory_cap_counts_the_setup_basis(monkeypatch, tmp_path):
    # half the memory holds two of the largest cells but not the two-layer
    # setup's quadrature basis beside them: one worker, which finishes the
    # setup before any cell; the one-layer run, with no basis, keeps two
    two = ExperimentConfig.from_dict(TWO_LAYER_CONFIG)
    m, K = two.manifold_model, len(two.signal_coefficients)
    largest = max(harness.cell_bytes(two, n, K) for n in two.n_grid)
    grid = network.continuum_bytes(two.network, m, K)
    available = int((grid + largest) / harness.MEMORY_FRACTION)
    assert 2 * largest < harness.MEMORY_FRACTION * available < grid + 2 * largest
    assert grid < available  # not refused
    uncapped = run_convergence_experiment(two, threads=2)
    assert uncapped.metadata["workers"] == 2
    monkeypatch.setattr(harness, "available_memory", lambda: available)
    capped = run_convergence_experiment(two, threads=2)
    assert capped.metadata["workers"] == 1 and capped.metadata["failures"] == 0
    for t, res in (("capped", capped), ("uncapped", uncapped)):
        write_csv(res, tmp_path / f"{t}.csv")
    assert (tmp_path / "capped.csv").read_bytes() == (tmp_path / "uncapped.csv").read_bytes()
    tiny = ExperimentConfig.from_dict(TINY_CONFIG)
    assert max(harness.cell_bytes(tiny, n, K) for n in tiny.n_grid) == largest
    assert run_convergence_experiment(tiny, threads=2).metadata["workers"] == 2


def test_both_sides_keep_the_signal_width(monkeypatch):
    # zero coefficients take more modes, on the discrete and the continuum side alike
    run_cells, seen = harness._run_cells, []

    def spied(config, threads, keys, K, measure, setup, setup_bytes):
        def spy(cloud, eig, cont):
            seen.append((eig.count, cont.coefficients.shape[1]))
            return measure(cloud, eig, cont)

        return run_cells(config, threads, keys, K, spy, setup, setup_bytes)

    monkeypatch.setattr(harness, "_run_cells", spied)
    padded = {"coefficients": TINY_CONFIG["signal"]["coefficients"] + [0.0] * 13}
    cfg = ExperimentConfig.from_dict(dict(TWO_LAYER_CONFIG, signal=padded))
    result = run_convergence_experiment(cfg, threads=2)
    assert result.metadata["failures"] == 0
    assert seen == [(16, 16)] * len(cfg.n_grid) * cfg.trials


def test_one_basis_evaluation_per_cell(monkeypatch):
    # a cell's measure evaluates the continuum eigenfunctions at its points once,
    # for the signal and the continuum output alike; the setup once on its
    # quadrature grid; and a build once, at its r factor modes, where it stores
    # zonal factors, and not at all where it stores the dense kernel
    basis, measured, built = manifolds.eigenbasis, [], []

    def counted(calls):
        def evaluate(manifold, x, count):
            calls.append((x.shape[0], count))
            return basis(manifold, x, count)

        return evaluate

    for module in (graph, harness, manifolds, network, spectral):
        for attr, value in list(vars(module).items()):
            if value is basis:
                monkeypatch.setattr(module, attr, counted(built if module is graph else measured))
    cfg = ExperimentConfig.from_dict(dict(TWO_LAYER_CONFIG, n_grid=[100, 256]))  # a dense cell at n = 100
    m, c, K = cfg.manifold_model, cfg.bandwidth_constant, len(cfg.signal_coefficients)
    result = run_convergence_experiment(cfg, threads=2)
    assert result.metadata["failures"] == 0
    grid = m.quadrature_size
    cells = [n for n in cfg.n_grid for _ in range(cfg.trials)]
    assert sorted(measured) == sorted([(n, K) for n in cells] + [(grid, K)])
    ranks = {}
    for n in cells + [harness.CALIBRATION_N]:
        weights = graph.zonal_weights(m, n, graph.scale_parameter(n, m.intrinsic_dim, c))
        ranks[n] = None if weights is None else len(weights)
    assert None in ranks.values() and any(ranks.values())  # both storages are built
    factored = [(n, ranks[n]) for n in cells + [harness.CALIBRATION_N] if ranks[n]]
    assert sorted(built) == sorted(factored)


def test_refused_run_builds_no_setup_at_one_worker(monkeypatch, tmp_path, capsys):
    # one worker runs the gate before the setup, so a refused run builds no
    # continuum network before it exits 2
    constant, continuum, built = graph.calibration_constant, network.continuum_network, []

    def counted(*args, **kwargs):
        built.append(1)
        return continuum(*args, **kwargs)

    monkeypatch.setattr(graph, "calibration_constant", lambda *args: 2.0 * constant(*args))
    monkeypatch.setattr(network, "continuum_network", counted)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TWO_LAYER_CONFIG))
    argv = ["run", "--config", str(cfg_path), "--out-dir", str(tmp_path), "--threads", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: calibration: ")
    assert built == [] and not list(tmp_path.glob("*.csv"))


def test_eigen_modes_checked_before_they_are_built(monkeypatch, tmp_path, capsys):
    # 10^7 modes exceed every n: refused before any eigenvalue is computed
    calls, built = _refuse_calibration(monkeypatch), []
    eigenvalues = manifolds.Manifold.eigenvalues

    def counted(self, count):
        built.append(count)
        return eigenvalues(self, count)

    monkeypatch.setattr(manifolds.Manifold, "eigenvalues", counted)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TINY_CONFIG, eigen_index=10**7)))
    assert main(["eigen", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "10000001 modes a cell takes" in err[0]
    assert not built and not calls and not list(tmp_path.glob("*.csv"))


def _fake_system(root, meminfo_kib, cgroup_lines, limits):
    """A /proc and a /sys/fs/cgroup under root; limits maps a group file to its text."""
    free, available = meminfo_kib
    proc = root / "proc"
    (proc / "self").mkdir(parents=True)
    (proc / "meminfo").write_text(
        f"MemTotal:       8222320 kB\nMemFree:        {free} kB\nMemAvailable:   {available} kB\n"
    )
    (proc / "self" / "cgroup").write_text("".join(f"{line}\n" for line in cgroup_lines))
    for name, text in limits.items():
        (root / "cgroup" / name).parent.mkdir(parents=True, exist_ok=True)
        (root / "cgroup" / name).write_text(text)
    return proc, root / "cgroup"


GIB = 1 << 30
V1_LINES = ["4:memory:/jobs/one", "3:cpuset:/jobs", "0::/"]


@pytest.mark.parametrize(
    "cgroup_lines, limits, expected",
    [
        # no limit set: MemAvailable (4 GiB), not MemFree (400 MiB)
        (V1_LINES, {"memory/memory.limit_in_bytes": "9223372036854771712\n", "memory.max": "max\n"}, 4 * GIB),
        # a cgroup v1 limit on an ancestor of the process's group
        (V1_LINES, {"memory/jobs/memory.limit_in_bytes": f"{3 * GIB}\n",
                    "memory/jobs/one/memory.limit_in_bytes": "9223372036854771712\n"}, 3 * GIB),
        # a cgroup v2 limit on the process's group
        (["0::/app"], {"app/memory.max": f"{2 * GIB}\n", "memory.max": "max\n"}, 2 * GIB),
        # a limit outside the process's path is not its own
        (["0::/app"], {"other/memory.max": f"{GIB}\n"}, 4 * GIB),
    ],
)
def test_available_memory_counts_page_cache_and_cgroup_limits(
    cgroup_lines, limits, expected, monkeypatch, tmp_path
):
    proc, cgroup = _fake_system(tmp_path, (409600, 4194304), cgroup_lines, limits)
    monkeypatch.setattr(harness, "PROC", proc)
    monkeypatch.setattr(harness, "CGROUP", cgroup)
    assert harness.available_memory() == expected


def test_low_free_memory_does_not_refuse_a_large_cell(monkeypatch, tmp_path):
    # 400 MiB free, 4 GiB available once page cache is reclaimed: a pinned
    # n = 8192 Lanczos cell fits and the run goes on to calibrate
    proc, cgroup = _fake_system(tmp_path, (409600, 4194304), ["0::/"], {})
    monkeypatch.setattr(harness, "PROC", proc)
    monkeypatch.setattr(harness, "CGROUP", cgroup)
    calls = _refuse_calibration(monkeypatch)
    cfg = ExperimentConfig.from_dict(dict(TINY_CONFIG, n_grid=[8192], trials=1))
    with pytest.raises(RuntimeError, match="calibration reached"):
        run_convergence_experiment(cfg, threads=2)
    assert calls == [cfg]


def test_run_without_a_memory_reading_is_uncapped(monkeypatch, tmp_path):
    # where /proc cannot be read (not Linux) the requested workers all run
    monkeypatch.setattr(harness, "PROC", tmp_path / "missing")
    assert harness.available_memory() is None
    result = run_convergence_experiment(ExperimentConfig.from_dict(TINY_CONFIG), threads=2)
    assert result.metadata["workers"] == 2 and result.metadata["failures"] == 0


@pytest.mark.parametrize("source", ["option", "env"])
@pytest.mark.parametrize("threads", ["-1", "0"])
def test_threads_below_one_is_a_config_error(threads, source, monkeypatch, tmp_path, capsys):
    calls = _refuse_calibration(monkeypatch)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    argv = ["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]
    if source == "option":
        argv += ["--threads", threads]
    else:
        monkeypatch.setenv(harness.THREADS_ENV_VAR, threads)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: need at least 1 thread, got {threads}"]
    assert not calls and not list(tmp_path.glob("*.csv"))


def test_csv_schema(tiny_result, tmp_path):
    path = tmp_path / "out.csv"
    write_csv(tiny_result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,trial,seed,error"
    assert len(lines) == 5


def test_csv_columns_are_the_result_keys(tmp_path):
    # every measured key is a column, in the result's order, and no other
    keys = ("error", "error_mc", "error_graph")
    records = [
        {"n": 128, "trial": 0, "seed": 5, "error": 0.5, "error_mc": 0.25, "error_graph": 0.125, "x": 1},
        {"n": 128, "trial": 1, "seed": 6, **dict.fromkeys(keys), "failed": True},
    ]
    cfg = ExperimentConfig.from_dict(TINY_CONFIG)
    path = tmp_path / "out.csv"
    write_csv(ExperimentResult(config=cfg, keys=keys, records=records), path)
    assert path.read_text() == "n,trial,seed,error,error_mc,error_graph\n128,0,5,0.5,0.25,0.125\n128,1,6,,,\n"


def test_summary_schema(tiny_result, tmp_path):
    path = tmp_path / "out.json"
    write_summary(tiny_result, path)
    summary = json.loads(path.read_text())
    assert set(summary) >= {"config_hash", "per_n", "fit", "calibration"}
    calibration = summary["calibration"]
    assert set(calibration) == CALIBRATION_KEYS
    assert calibration["measured_lambda1"] == pytest.approx(calibration["target_lambda1"], rel=0.20)


def test_plot_data(tiny_result, tmp_path):
    path = tmp_path / "out.dat"
    write_plot_data(tiny_result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# n mean_error fitted"
    assert len(lines) == 3
    # the header names the column plotted: the eigen experiment's first key
    eigen = eigen_convergence_experiment(ExperimentConfig.from_dict(TINY_CONFIG), threads=1)
    write_plot_data(eigen, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# n mean_lambda_error fitted"
    assert len(lines) == 3


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_failure_abort(name, monkeypatch):
    def always_fail(*args, **kwargs):
        raise spectral.ConvergenceFailure("forced", np.array([1.0]))

    monkeypatch.setattr(
        harness, "resolve_calibration", lambda cfg, **kw: dict.fromkeys(CALIBRATION_KEYS, 1.0)
    )
    monkeypatch.setattr(harness.spectral, "smallest_eigenpairs", always_fail)
    experiment, _ = EXPERIMENTS[name]
    with pytest.raises(ExperimentAborted):
        experiment(ExperimentConfig.from_dict(TINY_CONFIG), threads=1)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_failed_cell_below_abort_threshold(name, monkeypatch, tmp_path):
    # 1 failed cell of 12 is under MAX_FAILURE_FRACTION: recorded, not fatal
    experiment, keys = EXPERIMENTS[name]
    cfg = ExperimentConfig.from_dict(dict(TINY_CONFIG, trials=6))
    bad_seed = derive_seed(cfg.seed, 256, 3)
    solve = spectral.smallest_eigenpairs

    def fail_one_trial(op, *args, seed, **kwargs):
        if seed == bad_seed:
            raise spectral.ConvergenceFailure("forced", np.array([1.0]))
        return solve(op, *args, seed=seed, **kwargs)

    monkeypatch.setattr(spectral, "smallest_eigenpairs", fail_one_trial)
    res = experiment(cfg, threads=2)
    failed = [r for r in res.records if r.get("failed")]
    expected = {"n": 256, "trial": 3, "seed": bad_seed, **dict.fromkeys(keys), "failed": True}
    assert failed == [expected]
    assert [e["trials_ok"] for e in res.per_n] == [6, 5]
    assert res.summary_dict()["failures"] == 1
    path = tmp_path / "out.csv"
    write_csv(res, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 13
    assert f"256,3,{bad_seed}," + "," * (len(keys) - 1) in lines


PINNED = Path(__file__).resolve().parent.parent / "scripts" / "configs"


@pytest.mark.parametrize(
    "name,measured,target", [("sphere_rate.json", 1.885, 2.0), ("circle_eigen.json", 0.984, 1.0)]
)
def test_pinned_configs_take_analytic_calibration(name, measured, target, capsys):
    cfg = ExperimentConfig.from_json(PINNED / name)
    info = harness.resolve_calibration(cfg)
    assert set(info) == CALIBRATION_KEYS
    assert info["analytic_constant"] == graph.calibration_constant(cfg.manifold_model)
    assert info["check_n"] == harness.CALIBRATION_N
    assert info["measured_lambda1"] == pytest.approx(measured, abs=5e-4)
    assert info["measured_lambda1"] == pytest.approx(target, rel=0.20)
    assert info["target_lambda1"] == target
    assert capsys.readouterr().err == ""


def _calibration_miss(monkeypatch, raw, tmp_path, capsys):
    """Run `raw` through `converge run`, which must refuse it at the gate before
    any trial samples; return (the gate's measured lambda_1, its stderr line)."""
    solve, sample = spectral.smallest_eigenpairs, harness.manifolds.sample_uniform
    measured, seeds = [], []

    def solved(op, K, *args, **kwargs):
        eig = solve(op, K, *args, **kwargs)
        measured.append(float(eig.eigenvalues[1]))
        return eig

    def sampled(m, n, seed):
        seeds.append(seed)
        return sample(m, n, seed)

    monkeypatch.setattr(spectral, "smallest_eigenpairs", solved)
    monkeypatch.setattr(harness.manifolds, "sample_uniform", sampled)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    capsys.readouterr()
    argv = ["run", "--config", str(cfg_path), "--out-dir", str(tmp_path), "--threads", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: calibration: ")
    assert not list(tmp_path.glob("*.csv"))
    assert seeds == [derive_seed(raw["seed"], harness.CALIBRATION_N, 10**6)]  # no trial sampled
    (lam,) = measured
    return lam, err[0]


def test_doubled_calibration_constant_exits_2(monkeypatch, tmp_path, capsys):
    # doubling the analytic constant doubles lambda_1: 20% off, so refused
    constant = graph.calibration_constant
    monkeypatch.setattr(graph, "calibration_constant", lambda *args: 2.0 * constant(*args))
    lam, err = _calibration_miss(monkeypatch, TINY_CONFIG, tmp_path, capsys)
    assert lam > 1.2
    assert f"measured lambda_1 {lam:.6g} misses target 1 " in err
    assert "bandwidth_constant 1 " in err and f"analytic constant {2.0 * constant(manifolds.Circle()):.6g}" in err


def test_oversmoothed_sphere_exits_2_before_any_cell(monkeypatch, tmp_path, capsys):
    # sphere_rate.json at c = 16 reads lambda_1 of about 0.99 against 2
    raw = json.loads((PINNED / "sphere_rate.json").read_text())
    raw.update(graph={"scheme": "gaussian", "bandwidth_constant": 16.0}, n_grid=[128, 256], trials=1)
    lam, err = _calibration_miss(monkeypatch, raw, tmp_path, capsys)
    assert lam < 1.6
    assert f"measured lambda_1 {lam:.6g} misses target 2 " in err and "bandwidth_constant 16 " in err


def test_eigen_experiment_smoke():
    cfg = ExperimentConfig.from_dict(
        {
            "manifold": "circle",
            "network": TINY_CONFIG["network"],
            "n_grid": [128, 256],
            "trials": 2,
            "seed": 3,
            "eigen_index": 1,
        }
    )
    res = eigen_convergence_experiment(cfg, threads=1)
    assert len(res.records) == 4
    for r in res.records:
        assert r["lambda_error"] >= 0
        assert r["vector_error"] >= 0


def test_sphere_eigen_experiment_aligns_whole_cluster():
    # eigen_index 1 sits in the l = 1 triplet: all three harmonics must enter
    # the alignment, or it rotates onto an arbitrary slice of the triplet
    cfg = ExperimentConfig.from_dict(
        {
            "manifold": "sphere2",
            "network": TINY_CONFIG["network"],
            "graph": {"scheme": "gaussian", "bandwidth_constant": 2.0},
            "n_grid": [256, 512, 1024],
            "trials": 2,
            "seed": 1,
            "eigen_index": 1,
        }
    )
    res = eigen_convergence_experiment(cfg, threads=1)
    assert max(r["vector_error"] for r in res.records) <= 0.5
    assert res.per_n[-1]["mean_vector_error"] <= 0.15


def test_fit_prints_the_summary_fit(monkeypatch, tmp_path, capsys):
    # 20-trial means whose fit moves in the last bits between sum/len and
    # np.mean: `fit` on the run's CSV prints the summary's fit exactly
    errors = iter(np.random.default_rng(3).lognormal(-2.0, 0.5, size=60))
    monkeypatch.setattr(network, "mnn_error", lambda disc, cont: float(next(errors)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, n_grid=[128, 160, 200], trials=20)))
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path), "--threads", "1"]) == 0
    (csv_path,), (summary_path,) = tmp_path.glob("run_*.csv"), tmp_path.glob("run_*.json")
    fit = json.loads(summary_path.read_text())["fit"]
    capsys.readouterr()
    assert main(["fit", "--csv", str(csv_path)]) == 0
    assert json.loads(capsys.readouterr().out) == fit
    by_n = {}
    for line in csv_path.read_text().splitlines()[1:]:
        n, _, _, error = line.split(",")
        by_n.setdefault(int(n), []).append(float(error))
    sum_len = loglog_fit([(n, sum(v) / len(v)) for n, v in by_n.items()])
    assert sum_len != (fit["slope"], fit["intercept"], fit["r2"])


def test_cli_run_and_fit(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    code = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path), "--threads", "1"])
    assert code == 0
    csvs = list(tmp_path.glob("run_*.csv"))
    assert len(csvs) == 1
    assert list(tmp_path.glob("run_*.json")) and list(tmp_path.glob("run_*.dat"))
    capsys.readouterr()
    code = main(["fit", "--csv", str(csvs[0])])
    assert code == 2  # only 2 grid points: not enough for a fit
    code = main(["eigen", "--config", str(cfg_path), "--out-dir", str(tmp_path), "--threads", "1"])
    assert code == 0
    assert list(tmp_path.glob("eigen_*.csv"))


def _network(widths, *families):
    return {"widths": widths, "filters": [[[{"family": f}] for f in families]]}


def _filter(spec):
    """TINY_CONFIG's one-filter network with the filter `spec`."""
    return dict(TINY_CONFIG["network"], filters=[[[spec]]])


@pytest.mark.parametrize(
    "command, content",
    [
        ("run", dict(TINY_CONFIG, trials="x")),
        ("run", dict(TINY_CONFIG, graph={"bandwidth_constant": "x"})),
        ("run", dict(TINY_CONFIG, truncation=16)),  # not a config key: K is the signal width
        ("run", dict(TINY_CONFIG, n_grid={"start": 200})),
        ("run", dict(TINY_CONFIG, network=_network([1, 1], "wavelet"))),
        ("run", dict(TINY_CONFIG, network=_network([1, 2], "exponential"))),  # incomplete bank
        ("eigen", dict(TINY_CONFIG, manifold="torus")),
        ("eigen", dict(TINY_CONFIG, manifold=["circle"])),
        ("run", dict(TINY_CONFIG, graph=5)),
        ("run", dict(TINY_CONFIG, signal={"coefficients": 5})),
        ("fit", "trial,seed,error\n0,1,0.5\n"),  # no n column
        ("fit", "n,trial,seed,error\n128,0,1,abc\n"),
        ("run", dict(TINY_CONFIG, trials=2.7)),
        ("run", dict(TINY_CONFIG, trials="3")),
        ("run", dict(TINY_CONFIG, seed=True)),
        ("eigen", dict(TINY_CONFIG, eigen_index=1.5)),
        ("run", dict(TINY_CONFIG, truncation=3.0)),
        ("run", dict(TINY_CONFIG, n_grid=[128.9, 256])),
        ("run", dict(TINY_CONFIG, n_grid={"start": 128, "stop": 256.0, "count": 3})),
        ("run", dict(TINY_CONFIG, graph={"bandwidth_constant": math.nan})),
        ("run", dict(TINY_CONFIG, graph={"bandwidth_constant": math.inf})),
        ("run", dict(TINY_CONFIG, graph={"bandwidth_constant": True})),
        ("run", dict(TINY_CONFIG, graph={"bandwidth_constant": "2"})),
        ("run", dict(TINY_CONFIG, signal={"coefficients": [0.0, math.nan, 1.0]})),
        ("run", dict(TINY_CONFIG, signal={"coefficients": [0.0, -math.inf, 1.0]})),
        ("run", dict(TINY_CONFIG, signal={"coefficients": [0.0, True, 1.0]})),
        ("run", dict(TINY_CONFIG, graph={"scheme": "heat", "bandwidth_constant": 1.0})),
        ("run", dict(TINY_CONFIG, graph={"scheme": "knn"})),
        ("fit", "n,trial,seed,error\n128,0,1,0.5\n256,0,1,nan\n512,0,1,0.2\n"),
        ("fit", "n,trial,seed,error\n128,0,1,0.5\n256,0,1,inf\n512,0,1,0.2\n"),
        ("run", dict(TINY_CONFIG, network=dict(TINY_CONFIG["network"], widths=[1.9, 1]))),
        ("run", dict(TINY_CONFIG, network=_network([1, True], "exponential"))),
        ("run", dict(TINY_CONFIG, network=_filter({"family": "tent", "center": math.nan}))),
        ("run", dict(TINY_CONFIG, network=_filter({"family": "tent", "center": "3"}))),
        ("run", dict(TINY_CONFIG, network=_filter({"family": "constant", "value": math.inf}))),
        ("run", dict(TINY_CONFIG, network=_filter({"family": "constant", "value": False}))),
        ("run", dict(TINY_CONFIG, network=_filter({"family": "polynomial", "coefficients": "12"}))),
        ("run", dict(TINY_CONFIG, network=_filter({"family": "polynomial", "coefficients": [0, math.nan]}))),
        ("run", dict(TINY_CONFIG, network=_filter({"family": "polynomial", "coefficients": [0, 0, 0, 0, 1]}))),
        ("run", dict(TINY_CONFIG, signal={"coefficients": []})),
        ("run", dict(TINY_CONFIG, seed=-1)),
        ("run", dict(TINY_CONFIG, n_grid=[1, 300, 400])),
        ("run", dict(TINY_CONFIG, signal={"coefficients": [0.0] + [1.0] * 9}, n_grid=[8, 300, 400])),
        ("run", dict(TINY_CONFIG, n_grid=[-5, 300, 400])),
        ("run", dict(TINY_CONFIG, truncation="full", n_grid=[1, 300, 400])),
        ("eigen", dict(TINY_CONFIG, n_grid=[1, 300, 400])),
        ("eigen", dict(TINY_CONFIG, n_grid=[2, 300, 400])),  # eigen_index 1 takes 3 modes
        ("run", dict(TINY_CONFIG, trials=0)),
        ("eigen", dict(TINY_CONFIG, eigen_index=-1)),
        ("run", dict(TINY_CONFIG, truncation=0)),
        ("run", dict(TINY_CONFIG, graph={"bandwidth_constant": 0})),
        ("run", dict(TINY_CONFIG, n_grid=[256, 128])),
        ("run", dict(TINY_CONFIG, n_grid=[])),
        ("run", [1, 2]),
        ("run", "abc"),
        ("run", 5),
        ("eigen", None),
        ("run", []),
    ],
    ids=[
        "trials", "bandwidth", "truncation", "n_grid", "family", "bank",
        "manifold", "manifold-list", "graph-scalar", "coefficients-scalar", "no-n", "error-nan",
        "trials-fraction", "trials-string", "seed-bool", "eigen-index-fraction", "truncation-float",
        "n_grid-fraction", "n_grid-range-float", "bandwidth-nan", "bandwidth-inf", "bandwidth-bool",
        "bandwidth-string", "coefficient-nan", "coefficient-inf", "coefficient-bool", "scheme-heat",
        "scheme-unknown", "fit-nan", "fit-inf", "width-fraction", "width-bool", "tent-nan",
        "tent-string", "constant-inf", "constant-bool", "polynomial-string", "polynomial-nan",
        "polynomial-degree", "coefficients-empty", "seed-negative", "n_grid-one",
        "n_grid-below-modes", "n_grid-negative", "n_grid-one-full", "eigen-n_grid-one",
        "eigen-n_grid-below-modes", "trials-zero", "eigen-index-negative", "truncation-zero",
        "bandwidth-zero", "n_grid-unsorted", "n_grid-empty", "config-list", "config-string",
        "config-number", "config-null", "config-empty-list",
    ],
)
def test_bad_values_are_config_errors(command, content, monkeypatch, tmp_path, capsys):
    calls = _refuse_calibration(monkeypatch)
    if command == "fit":
        path = tmp_path / "results.csv"
        path.write_text(content)
        argv = ["fit", "--csv", str(path)]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(content))
        argv = [command, "--config", str(path), "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert not calls and not list(tmp_path.glob("*_*.csv"))


def test_fit_names_the_missing_column(tmp_path, capsys):
    path = tmp_path / "eigen.csv"
    path.write_text("n,trial,seed,lambda_error,vector_error\n128,0,1,0.5,0.4\n")
    assert main(["fit", "--csv", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {path} has no 'error' column\n"
    path.write_text("trial,seed\n0,1\n")
    assert main(["fit", "--csv", str(path)]) == 2
    assert "has no 'n' and no 'error' column" in capsys.readouterr().err


def test_heat_scheme_names_its_gaussian_equivalent(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    heat = {"scheme": "heat", "bandwidth_constant": 0.5}
    path.write_text(json.dumps(dict(TINY_CONFIG, graph=heat)))
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert '"scheme": "gaussian", "bandwidth_constant": 2.0' in err


FULL_DIGESTS = {"sphere_rate.json": "a7ac2817b45c1f69", "circle_eigen.json": "783895ae9d262514"}


@pytest.mark.parametrize(
    "name,digest",
    [
        ("sphere_rate.json", "8d3de3b3083c685a"),
        ("circle_eigen.json", "f596313f6370b960"),
        ("sphere_top.json", "fff4a4ea4dd1e4a1"),
    ],
)
def test_pinned_config_hashes(name, digest, monkeypatch):
    # the hash names the artifacts: an absent scheme, or an integer
    # bandwidth constant, must not rename them
    raw = json.loads((PINNED / name).read_text())
    assert ExperimentConfig.from_dict(raw).content_hash() == digest
    del raw["graph"]["scheme"]
    assert ExperimentConfig.from_dict(raw).content_hash() == digest
    raw["graph"]["bandwidth_constant"] = int(raw["graph"]["bandwidth_constant"])
    assert ExperimentConfig.from_dict(raw).content_hash() == digest
    if name in FULL_DIGESTS:
        # the config `run --full` hands to the experiment
        monkeypatch.setattr(harness, "available_memory", lambda: None)
        calls = _refuse_calibration(monkeypatch)
        with pytest.raises(RuntimeError, match="calibration reached"):
            main(["run", "--full", "--config", str(PINNED / name), "--threads", "1"])
        assert [cfg.content_hash() for cfg in calls] == [FULL_DIGESTS[name]]


def test_sphere_top_is_the_top_of_the_full_grid():
    # CI and the README read sphere_top.json as sphere_rate.json at the two
    # largest --full sizes, one trial each
    rate = json.loads((PINNED / "sphere_rate.json").read_text())
    top = json.loads((PINNED / "sphere_top.json").read_text())
    assert top == dict(rate, n_grid=list(FULL_GRID[-2:]), trials=1)


def test_cli_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY_CONFIG, bogus=1)))
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

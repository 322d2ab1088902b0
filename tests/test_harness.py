import json
import math
import sys

import numpy as np
import pytest

from converge import harness, network, spectral
from converge.cli import main
from converge.harness import (
    ConfigError,
    ExperimentAborted,
    ExperimentConfig,
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
    assert cfg.scheme_tag == "gaussian"


def test_config_hash_changes_with_content():
    a = ExperimentConfig.from_dict(TINY_CONFIG)
    b = ExperimentConfig.from_dict(dict(TINY_CONFIG, seed=8))
    assert a.content_hash() != b.content_hash()
    assert a.content_hash() == ExperimentConfig.from_dict(TINY_CONFIG).content_hash()


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

    Four threads on a shortened switch interval make every trial race for
    the hidden layers at once.
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


def test_hidden_layers_computed_once_per_run(two_layer_runs):
    # 4 trials, but the sample-independent hidden layers are built once
    assert {t: calls for t, (_, calls) in two_layer_runs.items()} == {1: 1, 2: 1, 4: 1}
    for res, _ in two_layer_runs.values():
        assert all(r["error"] > 0 for r in res.records)


@pytest.mark.parametrize("truncation, expected", [(None, 10), (4, 10), (20, 20), ("full", 300)])
def test_mode_count(truncation, expected):
    # default signal: 10 modes, a floor on the truncation
    raw = {k: v for k, v in TINY_CONFIG.items() if k != "signal"}
    cfg = ExperimentConfig.from_dict(dict(raw, truncation=truncation))
    assert cfg.mode_count(300) == expected


def test_csv_schema(tiny_result, tmp_path):
    path = tmp_path / "out.csv"
    write_csv(tiny_result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,trial,seed,error"
    assert len(lines) == 5


def test_summary_schema(tiny_result, tmp_path):
    path = tmp_path / "out.json"
    write_summary(tiny_result, path)
    summary = json.loads(path.read_text())
    assert set(summary) >= {"config_hash", "per_n", "fit", "calibration"}
    assert summary["calibration"]["path"] in ("analytic", "empirical")


def test_plot_data(tiny_result, tmp_path):
    path = tmp_path / "out.dat"
    write_plot_data(tiny_result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 3


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_failure_abort(name, monkeypatch):
    def always_fail(*args, **kwargs):
        raise spectral.ConvergenceFailure("forced", np.array([1.0]))

    monkeypatch.setattr(
        harness, "resolve_calibration", lambda cfg, **kw: {"path": "analytic", "constant": 1.0}
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


def test_cli_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY_CONFIG, bogus=1)))
    assert main(["run", "--config", str(bad)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

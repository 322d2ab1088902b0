"""End-to-end acceptance criteria.

One test per criterion; each prints a single PASS/FAIL verdict line that
bypasses pytest capture, so the per-criterion outcome is visible in plain
`pytest -v` output. The heavyweight sphere run is shared by criteria 1, 2,
and 9 through a session fixture and executed twice in total (the second run
feeds the byte-identity check).
"""

import json
import math
import sys

import numpy as np
import pytest
import scipy.linalg

from converge import manifolds
from converge.bounds import error_recurrence, filter_count_factor, hoeffding_bound
from converge.filters import exponential_filter
from converge.graph import build_laplacian
from converge.harness import (
    ExperimentConfig,
    run_convergence_experiment,
    eigen_convergence_experiment,
    write_csv,
    write_summary,
)
from converge.network import (
    NONLINEARITIES,
    NetworkSpec,
    forward_discrete,
)
from converge.spectral import EigenSystem, gn_norm, smallest_eigenpairs

from test_spectral import hoeffding_violation_rate, multiplicity_groups

pytestmark = pytest.mark.acceptance

RATE_CONFIG = {
    "manifold": "sphere2",
    "signal": {"coefficients": [0.0] + [1.0] * 9},
    "network": {
        "widths": [1, 1],
        "filters": [[[{"family": "exponential"}]]],
        "nonlinearity": "abs",
    },
    "graph": {"scheme": "gaussian", "bandwidth_constant": 2.0},
    "n_grid": {"start": 1024, "stop": 8192, "count": 8},
    "trials": 20,
    "seed": 7,
}

EIGEN_CONFIG = {
    "manifold": "circle",
    "network": RATE_CONFIG["network"],
    "graph": {"scheme": "gaussian", "bandwidth_constant": 2.0},
    "n_grid": [512, 1024, 2048, 4096, 8192],
    "trials": 20,
    "seed": 2023,
    "eigen_index": 1,
}


_CAPMAN = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion-{num}: {description}"
    if detail:
        line += f" [{detail}]"
    # bypass pytest capture so the verdict shows in plain `pytest -v` output
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print("\n" + line, flush=True)
    else:
        print(line, file=sys.stderr, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def rate_run():
    return run_convergence_experiment(ExperimentConfig.from_dict(RATE_CONFIG))


def test_criterion_1_rate_window(rate_run):
    slope = rate_run.fit["slope"]
    wall = rate_run.metadata["wall_clock_seconds"]
    ok = -0.95 <= slope <= -0.45 and slope < -0.25 and wall <= 30 * 60
    _verdict(
        1,
        "sphere convergence slope in [-0.95, -0.45] and below -0.25",
        ok,
        f"slope={slope:.3f}, r2={rate_run.fit['r2']:.3f}, wall={wall:.0f}s",
    )


def test_criterion_2_monotone_means(rate_run):
    means = [e["mean_error"] for e in rate_run.per_n]
    ses = [e["std_error"] / math.sqrt(e["trials_ok"]) for e in rate_run.per_n]
    inversions = [
        (means[i + 1] - means[i], ses[i + 1])
        for i in range(len(means) - 1)
        if means[i + 1] > means[i]
    ]
    ok = len(inversions) == 0 or (
        len(inversions) == 1 and inversions[0][0] <= inversions[0][1]
    )
    _verdict(
        2,
        "per-n mean errors monotone nonincreasing (one inversion within 1 SE allowed)",
        ok,
        f"{len(inversions)} inversion(s)",
    )


def test_criterion_3_eigen_convergence():
    res = eigen_convergence_experiment(ExperimentConfig.from_dict(EIGEN_CONFIG))
    lam_slope = res.fit["lambda_error"]["slope"]
    vec_slope = res.fit["vector_error"]["slope"]
    lam_means = [e["mean_lambda_error"] for e in res.per_n]
    vec_means = [e["mean_vector_error"] for e in res.per_n]
    wall = res.metadata["wall_clock_seconds"]
    ok = (
        lam_slope <= -0.15
        and vec_slope < 0
        and lam_means[-1] < lam_means[0]
        and vec_means[-1] < vec_means[0]
        and wall <= 10 * 60
    )
    _verdict(
        3,
        "circle eigenvalue/eigenvector errors decrease, lambda slope <= -0.15",
        ok,
        f"lambda slope={lam_slope:.3f}, vector slope={vec_slope:.3f}, wall={wall:.0f}s",
    )


def test_criterion_4_lanczos_vs_dense():
    ok = True
    details = []
    # c = 4 is the operator of the heat-kernel scheme at c = 1
    for c in (4.0, 1.0):
        m = manifolds.Sphere2()
        cloud = manifolds.sample_uniform(m, 256, seed=4)
        op = build_laplacian(cloud, m, c)
        lanczos = smallest_eigenpairs(op, K=10, tol=1e-9, method="lanczos")
        dense_lam, dense_vec = scipy.linalg.eigh(op.dense_matrix())
        lam_err = float(
            np.abs(lanczos.eigenvalues - np.maximum(dense_lam[:10], 0)).max()
        )
        worst_angle = 0.0
        for g in multiplicity_groups(lanczos.eigenvalues):
            qa, _ = np.linalg.qr(lanczos.eigenvectors[:, g])
            qb, _ = np.linalg.qr(dense_vec[:, g])
            s = np.linalg.svd(qa.T @ qb, compute_uv=False)
            worst_angle = max(worst_angle, math.acos(min(1.0, s.min())))
        ok = ok and lam_err <= 1e-8 and worst_angle <= 1e-6
        details.append(f"c={c:g}: dlam={lam_err:.1e}, angle={worst_angle:.1e}")
    _verdict(4, "Lanczos matches dense eigh (n=256, K=10, c = 1 and 4)", ok, "; ".join(details))


def test_criterion_5_exact_identity():
    # all n modes: the signal padded with zero coefficients to width n
    signal = [0.5, 1.0, -1.0, 0.25]
    results = [
        run_convergence_experiment(
            ExperimentConfig.from_dict(
                {
                    "manifold": "circle",
                    "signal": {"coefficients": signal + [0.0] * (n - len(signal))},
                    "network": {
                        "widths": [1, 1],
                        "filters": [[[{"family": "identity"}]]],
                        "nonlinearity": "identity",
                    },
                    "n_grid": [n],
                    "trials": 5,
                    "seed": 11,
                }
            )
        )
        for n in (64, 128)
    ]
    worst = max(r["error"] for res in results for r in res.records)
    skipped = all(res.fit is None for res in results)
    ok = worst <= 1e-7 and skipped
    _verdict(
        5,
        "identity filter + identity nonlinearity reproduces the signal exactly",
        ok,
        f"max error={worst:.2e}, fit skipped={skipped}",
    )


def test_criterion_6_structural_invariants():
    rng = np.random.default_rng(0)
    ok = True

    # symmetry / PSD / zero row sum on 20 random operators
    for i in range(20):
        m = manifolds.Circle() if i % 2 else manifolds.Sphere2()
        c = 4.0 if i % 3 == 0 else 1.0  # 4: the heat-kernel scheme's operator at 1
        n = int(rng.integers(50, 200))
        cloud = manifolds.sample_uniform(m, n, seed=1000 + i)
        L = build_laplacian(cloud, m, c).dense_matrix()
        ok = ok and np.abs(L - L.T).max() <= 1e-10
        ok = ok and np.abs(L @ np.ones(n)).max() <= 1e-8 * np.abs(L).max()
        ok = ok and scipy.linalg.eigvalsh(L).min() >= -1e-8

    # non-amplification of a sup<=1 filter on 50 random signals
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 128, seed=5)
    op = build_laplacian(cloud, m, 1.0)
    full = smallest_eigenpairs(op, K=128, method="dense")
    h = exponential_filter()
    filtered = NetworkSpec((1, 1), (((h,),),), "identity")
    for _ in range(50):
        x = rng.standard_normal(128)
        ok = ok and gn_norm(forward_discrete(filtered, full, x)[0]) <= gn_norm(x) + 1e-10

    # sign-flip basis invariance of the forward pass
    net = NetworkSpec((1, 1), (((h,),),), "abs")
    x = rng.standard_normal((1, 128))
    base = forward_discrete(net, full, x)
    signs = np.where(rng.random(128) < 0.5, -1.0, 1.0)
    flipped = EigenSystem(full.eigenvalues, full.eigenvectors * signs)
    ok = ok and np.abs(forward_discrete(net, flipped, x) - base).max() <= 1e-10

    # nonlinearity non-expansiveness on 1000 random pairs
    pairs = rng.uniform(-100, 100, size=(1000, 2))
    for sigma in NONLINEARITIES.values():
        ok = ok and all(
            abs(sigma(a) - sigma(b)) <= abs(a - b) + 1e-12 for a, b in pairs
        )

    _verdict(6, "structural invariants (symmetry/PSD/row sums, non-amplification, "
                "sign-flip invariance, non-expansiveness)", ok)


def test_criterion_7_bound_calculators():
    ok = filter_count_factor((2, 2, 2), "theorem") == 12

    rng = np.random.default_rng(3)
    for _ in range(100):
        depth = int(rng.integers(1, 6))
        factors = tuple(int(rng.integers(1, 5)) for _ in range(depth))
        delta = float(rng.uniform(0, 5))
        eps = error_recurrence(delta, 0.0, factors)
        for level in range(1, depth + 1):
            closed = delta * filter_count_factor(factors[:level] + (1,), "appendix")
            if not math.isclose(eps[level - 1], closed, rel_tol=1e-12, abs_tol=1e-12):
                ok = False

    hb = hoeffding_bound(4096, 1.0)
    ok = ok and abs(hb - 0.19119) <= 1e-4
    _verdict(7, "bound calculators match closed forms", ok, f"hoeffding(4096,1)={hb:.5f}")


def test_criterion_8_hoeffding_violation_rate():
    m = manifolds.Circle()
    phi1 = lambda x: manifolds.eigenbasis(m, x, 2)[:, 1]
    rate = hoeffding_violation_rate(phi1, phi1, m, n=4096, trials=200, seed=5)
    ok = rate <= 0.01
    _verdict(8, "empirical Hoeffding violation rate <= 1%", ok, f"rate={rate:.3f}")


def test_criterion_9_byte_determinism(rate_run, tmp_path):
    again = run_convergence_experiment(ExperimentConfig.from_dict(RATE_CONFIG), threads=2)
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    a_sum, b_sum = tmp_path / "a.json", tmp_path / "b.json"
    write_csv(rate_run, a_csv)
    write_csv(again, b_csv)
    write_summary(rate_run, a_sum)
    write_summary(again, b_sum)
    ok = a_csv.read_bytes() == b_csv.read_bytes() and a_sum.read_bytes() == b_sum.read_bytes()
    _verdict(9, "two runs of the rate experiment are byte-identical", ok)

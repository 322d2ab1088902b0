import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from converge import graph, manifolds, spectral
from converge.bounds import hoeffding_bound
from converge.graph import build_laplacian
from converge.spectral import (
    ConvergenceFailure,
    align_to_continuum,
    eigen_errors,
    gn_norm,
    project_eigenfunctions,
    smallest_eigenpairs,
)


def multiplicity_groups(eigenvalues, rel_gap=1e-3):
    """Group indices of (near-)repeated eigenvalues, such as Lanczos returns.

    Consecutive eigenvalues join a group when their gap is below
    rel_gap * max(1, lambda).
    """
    groups = []
    for i, lam in enumerate(eigenvalues):
        if groups and lam - eigenvalues[groups[-1][-1]] < rel_gap * max(1.0, lam):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _operator(manifold, n, seed, c=1.0):
    cloud = manifolds.sample_uniform(manifold, n, seed)
    return cloud, build_laplacian(cloud, manifold, c)


def test_gn_inner_product():
    assert gn_norm(np.full(10, 2.0)) == pytest.approx(2.0)


def test_eigensystem_invariants():
    _, op = _operator(manifolds.Circle(), 300, seed=1)
    eig = smallest_eigenpairs(op, K=7, tol=1e-9, method="lanczos")
    V = eig.eigenvectors
    gram = (V.T @ V) / eig.n
    assert np.abs(np.diag(gram) - 1).max() < 1e-10
    assert np.abs(gram - np.eye(7)).max() < 1e-8
    assert np.all(np.diff(eig.eigenvalues) >= 0)
    for i in range(7):
        res = gn_norm(op.matvec(V[:, i]) - eig.eigenvalues[i] * V[:, i])
        assert res <= 1e-9 * max(eig.eigenvalues[-1], 1.0)


def test_validation():
    _, op = _operator(manifolds.Circle(), 64, seed=1)
    with pytest.raises(ValueError):
        smallest_eigenpairs(op, K=0)
    with pytest.raises(ValueError):
        smallest_eigenpairs(op, K=65)
    with pytest.raises(ValueError):
        smallest_eigenpairs(op, K=3, tol=-1.0)
    for method in ("qr", "auto"):
        with pytest.raises(ValueError, match="unknown method"):
            smallest_eigenpairs(op, K=3, method=method)


def _subspace_angle(A, B):
    # largest principal angle between column spans (orthonormalized)
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return math.acos(min(1.0, s.min()))


# ids of the two schemes there once were: the heat-kernel operator at c = 1 is the gaussian one at 4
@pytest.mark.parametrize("c", [4.0, 1.0], ids=["heat", "gaussian"])
def test_lanczos_matches_dense_oracle(c):
    cloud, op = _operator(manifolds.Sphere2(), 256, seed=4, c=c)
    lanczos = smallest_eigenpairs(op, K=10, tol=1e-9, method="lanczos")
    dense_lam, dense_vec = scipy.linalg.eigh(op.dense_matrix())
    assert np.allclose(lanczos.eigenvalues, np.maximum(dense_lam[:10], 0), atol=1e-8)
    for g in multiplicity_groups(lanczos.eigenvalues):
        angle = _subspace_angle(lanczos.eigenvectors[:, g], dense_vec[:, g])
        assert angle < 1e-6


def test_lanczos_exhausted_krylov_space(monkeypatch):
    # at n = 24 the step cap 40 K exceeds n: Lanczos runs until the Krylov
    # space is the whole space, then the residual gate decides on the sweeps
    # already taken
    _, op = _operator(manifolds.Sphere2(), 24, seed=4)
    matvec, calls = op.matvec, []
    monkeypatch.setattr(op, "matvec", lambda x: calls.append(1) or matvec(x))
    lanczos = smallest_eigenpairs(op, K=5, method="lanczos")
    assert len(calls) == 24  # 24 Lanczos steps; the residual gate adds no sweep
    dense_lam, dense_vec = scipy.linalg.eigh(op.dense_matrix())
    assert np.abs(lanczos.eigenvalues - np.maximum(dense_lam[:5], 0)).max() <= 1e-8
    for g in multiplicity_groups(lanczos.eigenvalues):
        assert _subspace_angle(lanczos.eigenvectors[:, g], dense_vec[:, g]) <= 1e-6
    # coincident points: the start vector spans a 2-dimensional Krylov space
    m = manifolds.Circle()
    pts = np.tile([1.0, 0.0], (6, 1))
    op = build_laplacian(pts, m, 1.0)
    with pytest.raises(ConvergenceFailure, match="exhausted at m=2"):
        smallest_eigenpairs(op, K=3, method="lanczos")


# the K = 2 sphere solve takes 44 steps from a 12-column basis, so it
# crosses two doublings (12 -> 24 -> 48 columns)
@pytest.mark.parametrize(
    "manifold,K", [(manifolds.Sphere2(), 10), (manifolds.Circle(), 3), (manifolds.Sphere2(), 2)]
)
def test_lanczos_reuses_its_sweeps_for_the_gate(manifold, K):
    # L (Q S) assembled from the reorthogonalization coefficients and the last
    # remainder equals sweeping Q S anew
    _, op = _operator(manifold, 2048, seed=9)
    theta, V, LV = spectral._lanczos(op, K, tol=1e-8, seed=9)
    swept = np.column_stack([op.matvec(V[:, j]) for j in range(K)])
    assert np.abs(LV - swept).max() <= 1e-12 * np.abs(swept).max()


def test_gate_rejects_vectors_that_miss_their_sweeps(monkeypatch):
    # the gate must read the returned vectors, not only the stored sweeps
    _, op = _operator(manifolds.Sphere2(), 1024, seed=9)
    lanczos = spectral._lanczos

    def perturbed(*args, **kwargs):
        theta, V, LV = lanczos(*args, **kwargs)
        noise = np.random.default_rng(0).standard_normal(V.shape)
        return theta, V + 1e-5 * noise, LV

    monkeypatch.setattr(spectral, "_lanczos", perturbed)
    with pytest.raises(ConvergenceFailure):
        smallest_eigenpairs(op, K=10, tol=1e-8, seed=9, method="lanczos")


def _first_converged_step(op, K, tol, seed):
    """The first Lanczos step at which every Ritz estimate meets the stop rule."""
    n = op.n
    Q = [spectral._start_vector(n, seed)]
    alphas, betas = [], []
    for m in range(1, n + 1):
        r = op.matvec(Q[-1])
        alphas.append(np.dot(Q[-1], r))
        B = np.column_stack(Q)
        r -= B @ (B.T @ r)
        r -= B @ (B.T @ r)
        beta = np.linalg.norm(r)
        if m >= K:
            theta, S = scipy.linalg.eigh_tridiagonal(
                np.array(alphas), np.array(betas), select="i", select_range=(0, K - 1)
            )
            if np.all(np.abs(beta * S[-1]) <= 0.1 * tol * max(theta[-1], 1.0)):
                return m
        betas.append(beta)
        Q.append(r / beta)


@pytest.mark.parametrize(
    "manifold,K,n", [(manifolds.Sphere2(), 10, 1024), (manifolds.Circle(), 3, 2048)]
)
def test_lanczos_stops_near_the_converged_step(monkeypatch, manifold, K, n):
    _, op = _operator(manifold, n, seed=3)
    first = _first_converged_step(op, K, tol=1e-8, seed=3)
    # the fixed schedule: a check at max(2K, 8), then every max(K, 4) steps,
    # and one block sweep for the residual gate
    fixed = max(2 * K, 8)
    while fixed < first:
        fixed += max(K, 4)
    matvec, calls = op.matvec, []
    monkeypatch.setattr(op, "matvec", lambda x: calls.append(1) or matvec(x))
    smallest_eigenpairs(op, K=K, tol=1e-8, seed=3, method="lanczos")
    assert first <= len(calls) <= first + 2
    assert len(calls) <= fixed + 1


def test_peak_bytes_bounds_a_large_integer_truncation():
    # at K of n / 3 and more the Krylov basis takes all n steps and outgrows
    # the kernel; the solve's own allocations fit peak_bytes, the solver's share
    for n, K in [(600, 199), (300, 150), (600, 300)]:
        _, op = _operator(manifolds.Sphere2(), n, seed=3)
        tracemalloc.start()
        try:
            smallest_eigenpairs(op, K=K, tol=1e-8, seed=1)
            solve = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 8 * n * n < solve <= spectral.peak_bytes(n, K), (n, K)  # past the stored dense kernel


def test_a_solve_allocates_for_its_steps_not_the_cap():
    # a K = 10 sphere solve stops after about 55 of its 400 capped steps: it
    # holds less than one cap-sized basis, and no more than peak_bytes
    n, K = 4096, 10
    _, op = _operator(manifolds.Sphere2(), n, seed=3)
    tracemalloc.start()
    try:
        smallest_eigenpairs(op, K=K, tol=1e-8, seed=1)
        solve = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solve < 8 * n * min(spectral.LANCZOS_STEPS * K, n)
    assert solve <= spectral.peak_bytes(n, K)


# (model, n, c) whose kernels are stored as zonal factors
ZONAL = {"circle": (manifolds.Circle(), 512, 2.0), "sphere2": (manifolds.Sphere2(), 1500, 8.0)}


@pytest.mark.parametrize("case", ZONAL.values(), ids=ZONAL.keys())
def test_zonal_factors_solve_like_the_dense_kernel(monkeypatch, case):
    # the same points stored as the dense kernel, the reference storage
    m, n, c = case
    p, factored = _operator(m, n, seed=6, c=c)
    with monkeypatch.context() as mp:
        mp.setattr(graph, "zonal_weights", lambda *args: None)
        dense = build_laplacian(p, m, c)
    assert factored._kernel is None and dense._factors is None
    sweeps = {}
    for name, op in (("factored", factored), ("dense", dense)):
        calls, matvec = [], op.matvec
        monkeypatch.setattr(op, "matvec", lambda x, calls=calls, matvec=matvec: calls.append(1) or matvec(x))
        eig = smallest_eigenpairs(op, K=10, tol=1e-8, seed=3)
        sweeps[name] = (len(calls), eig.eigenvalues)
    assert sweeps["factored"][0] == sweeps["dense"][0]
    assert np.abs(sweeps["factored"][1] - sweeps["dense"][1]).max() <= 1e-12


def test_circle_first_eigenvalue_near_one():
    _, op = _operator(manifolds.Circle(), 4096, seed=2)
    eig = smallest_eigenpairs(op, K=2, tol=1e-8)
    assert 0.9 <= eig.eigenvalues[1] <= 1.1


def test_convergence_failure_reports_residuals():
    _, op = _operator(manifolds.Circle(), 512, seed=3)
    with pytest.raises(ConvergenceFailure):
        # absurdly tight tolerance cannot be met within the iteration cap
        smallest_eigenpairs(op, K=40, tol=1e-300, method="lanczos")


def test_multiplicity_groups():
    assert multiplicity_groups([0.0, 2.0, 2.0000001, 2.0000002, 6.0]) == [
        [0],
        [1, 2, 3],
        [4],
    ]
    assert multiplicity_groups([0.0, 1.0, 4.0]) == [[0], [1], [2]]


def test_alignment_sign_flip():
    _, op = _operator(manifolds.Circle(), 200, seed=6)
    eig = smallest_eigenpairs(op, K=1, tol=1e-8)
    target = np.ones((200, 1))
    flipped = spectral.EigenSystem(eig.eigenvalues, -np.abs(eig.eigenvectors))
    aligned = align_to_continuum(flipped, target, [[0]])
    assert np.dot(aligned.eigenvectors[:, 0], target[:, 0]) >= 0
    # already aligned: unchanged
    again = align_to_continuum(aligned, target, [[0]])
    assert np.array_equal(again.eigenvectors, aligned.eigenvectors)


def test_alignment_validation():
    _, op = _operator(manifolds.Circle(), 100, seed=6)
    eig = smallest_eigenpairs(op, K=2, tol=1e-8)
    with pytest.raises(ValueError):  # one column for two eigenvectors
        align_to_continuum(eig, np.ones((100, 1)), [[0]])
    with pytest.raises(ValueError):  # groups that miss mode 1
        align_to_continuum(eig, np.ones((100, 2)), [[0]])
    with pytest.raises(ValueError):  # 50 points for 100
        align_to_continuum(eig, np.ones((50, 2)), [[0, 1]])


@pytest.fixture(scope="module")
def sphere_triplet():
    m = manifolds.Sphere2()
    cloud, op = _operator(m, 4096, seed=12)
    eig = smallest_eigenpairs(op, K=4, tol=1e-8)
    lam = m.eigenvalues(4)
    projected = project_eigenfunctions(m, cloud, 4)
    groups = multiplicity_groups(lam)
    return cloud, eig, lam, projected, groups


def test_procrustes_beats_random_rotations(sphere_triplet):
    cloud, eig, lam, projected, groups = sphere_triplet
    aligned = align_to_continuum(eig, projected, groups)
    g = groups[1]  # the l=1 triplet
    P = projected[:, g]

    def group_error(vectors):
        return sum(gn_norm(P[:, k] - vectors[:, i]) ** 2 for k, i in enumerate(g))

    best = group_error(aligned.eigenvectors)
    assert best <= group_error(eig.eigenvectors) + 1e-12
    rng = np.random.default_rng(0)
    Q = eig.eigenvectors[:, g]
    for _ in range(100):
        R = scipy.linalg.qr(rng.standard_normal((3, 3)))[0]
        rotated = eig.eigenvectors.copy()
        rotated[:, g] = Q @ R
        assert best <= group_error(rotated) + 1e-12


def test_alignment_preserves_eigenvalues_and_span(sphere_triplet):
    _, eig, lam, projected, groups = sphere_triplet
    aligned = align_to_continuum(eig, projected, groups)
    assert np.array_equal(aligned.eigenvalues, eig.eigenvalues)
    for g in groups:
        before = eig.eigenvectors[:, g]
        after = aligned.eigenvectors[:, g]
        # same span: Gram matrices of the G_n inner products agree
        assert np.allclose(
            (before.T @ before) / eig.n, (after.T @ after) / eig.n, atol=1e-10
        )
        assert _subspace_angle(before, after) < 1e-6


def test_eigen_errors_constant_mode(sphere_triplet):
    cloud, eig, lam, projected, groups = sphere_triplet
    aligned = align_to_continuum(eig, projected, groups)
    lam_err, vec_err = eigen_errors(aligned, lam, projected)
    assert lam_err[0] <= 1e-6
    assert vec_err[0] <= 1e-6


def test_eigen_error_decreases_with_n():
    # 2/7 rate oracle predicts a ratio of about 0.67 between n=1024 and 4096
    m = manifolds.Circle()
    lam = m.eigenvalues(3)
    groups = multiplicity_groups(lam)

    def mean_errors(n, trials=10):
        lam_tot, vec_tot = 0.0, 0.0
        for trial in range(trials):
            cloud, op = _operator(m, n, seed=100 + trial)
            eig = smallest_eigenpairs(op, K=3, tol=1e-8)
            projected = project_eigenfunctions(m, cloud, 3)
            aligned = align_to_continuum(eig, projected, groups)
            lam_err, vec_err = eigen_errors(aligned, lam, projected)
            lam_tot += lam_err[1]
            vec_tot += vec_err[1]
        return lam_tot / trials, vec_tot / trials

    lam_small, vec_small = mean_errors(1024)
    lam_big, vec_big = mean_errors(4096)
    assert lam_big < lam_small
    assert vec_big / vec_small <= 0.9


def hoeffding_violation_rate(f, g, manifold, n, trials, seed):
    """Share of trials whose Monte Carlo inner product misses the bound.

    The deviation |<P_n f, P_n g>_{G_n} - <f, g>_{L2}| of each trial's sample
    is compared against sqrt(18 ln n / n) * sup|fg|; sup and the L2 inner
    product are taken on the manifold's quadrature grid.
    """
    grid, w = manifolds.quadrature_nodes(manifold, 0, manifold.quadrature_size)
    fg = f(grid) * g(grid)
    exact = float(np.sum(w * fg))
    bound = hoeffding_bound(n, float(np.max(np.abs(fg))))
    violations = 0
    for trial in range(trials):
        cloud = manifolds.sample_uniform(manifold, n, seed + trial)
        violations += abs(float(np.dot(f(cloud), g(cloud))) / n - exact) > bound
    return violations / trials


def test_hoeffding_constant_function():
    one = lambda x: np.ones(x.shape[0])
    rate = hoeffding_violation_rate(one, one, manifolds.Circle(), n=256, trials=20, seed=0)
    assert rate == 0.0


def test_hoeffding_bound_value():
    assert math.sqrt(18 * math.log(4096) / 4096) == pytest.approx(0.19119, abs=1e-4)


def test_hoeffding_violation_rate_small():
    m = manifolds.Circle()
    phi1 = lambda x: manifolds.eigenbasis(m, x, 2)[:, 1]
    rate = hoeffding_violation_rate(phi1, phi1, m, n=4096, trials=200, seed=5)
    assert rate <= 0.01

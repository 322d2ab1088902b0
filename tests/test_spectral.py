import math

import numpy as np
import pytest
import scipy.linalg

from converge import graph, manifolds, spectral
from converge.graph import build_laplacian, calibrated_scheme
from converge.spectral import (
    ConvergenceFailure,
    align_to_continuum,
    eigen_errors,
    gn_inner,
    gn_norm,
    hoeffding_check,
    multiplicity_groups,
    project_eigenfunctions,
    smallest_eigenpairs,
)


def _operator(manifold, n, seed, tag="gaussian"):
    cloud = manifolds.sample_uniform(manifold, n, seed)
    return cloud, build_laplacian(cloud, calibrated_scheme(tag, manifold, n))


def test_gn_inner_product():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert gn_inner(x, x) == pytest.approx(30 / 4)
    assert gn_norm(np.full(10, 2.0)) == pytest.approx(2.0)


def test_eigensystem_invariants():
    _, op = _operator(manifolds.circle(), 300, seed=1)
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
    _, op = _operator(manifolds.circle(), 64, seed=1)
    with pytest.raises(ValueError):
        smallest_eigenpairs(op, K=0)
    with pytest.raises(ValueError):
        smallest_eigenpairs(op, K=65)
    with pytest.raises(ValueError):
        smallest_eigenpairs(op, K=3, tol=-1.0)
    with pytest.raises(ValueError):
        smallest_eigenpairs(op, K=3, method="qr")


def _subspace_angle(A, B):
    # largest principal angle between column spans (orthonormalized)
    qa, _ = np.linalg.qr(A)
    qb, _ = np.linalg.qr(B)
    s = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return math.acos(min(1.0, s.min()))


@pytest.mark.parametrize("tag", ["heat", "gaussian"])
def test_lanczos_matches_dense_oracle(tag):
    cloud, op = _operator(manifolds.sphere2(), 256, seed=4, tag=tag)
    lanczos = smallest_eigenpairs(op, K=10, tol=1e-9, method="lanczos")
    dense_lam, dense_vec = scipy.linalg.eigh(op.dense_matrix())
    assert np.allclose(lanczos.eigenvalues, np.maximum(dense_lam[:10], 0), atol=1e-8)
    for g in multiplicity_groups(lanczos.eigenvalues):
        angle = _subspace_angle(lanczos.eigenvectors[:, g], dense_vec[:, g])
        assert angle < 1e-6


def test_lanczos_exhausted_krylov_space(monkeypatch):
    # "auto" sends n <= 128 to dense, so only an explicit method reaches this:
    # Lanczos runs until the Krylov space is the whole space, then the
    # residual gate decides
    _, op = _operator(manifolds.sphere2(), 24, seed=4)
    matvec, calls = op.matvec, []
    monkeypatch.setattr(op, "matvec", lambda x: calls.append(1) or matvec(x))
    lanczos = smallest_eigenpairs(op, K=5, method="lanczos")
    assert len(calls) == 24 + 1  # 24 Lanczos steps, then the residual block
    dense_lam, dense_vec = scipy.linalg.eigh(op.dense_matrix())
    assert np.abs(lanczos.eigenvalues - np.maximum(dense_lam[:5], 0)).max() <= 1e-8
    for g in multiplicity_groups(lanczos.eigenvalues):
        assert _subspace_angle(lanczos.eigenvectors[:, g], dense_vec[:, g]) <= 1e-6
    # coincident points: the start vector spans a 2-dimensional Krylov space
    m = manifolds.circle()
    pts = manifolds.PointCloud(np.tile([1.0, 0.0], (6, 1)), m)
    op = build_laplacian(pts, calibrated_scheme("gaussian", m, 6))
    with pytest.raises(ConvergenceFailure, match="exhausted at m=2"):
        smallest_eigenpairs(op, K=3, method="lanczos")


def test_circle_first_eigenvalue_near_one():
    _, op = _operator(manifolds.circle(), 4096, seed=2)
    eig = smallest_eigenpairs(op, K=2, tol=1e-8)
    assert 0.9 <= eig.eigenvalues[1] <= 1.1


def test_convergence_failure_reports_residuals():
    _, op = _operator(manifolds.circle(), 512, seed=3)
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
    _, op = _operator(manifolds.circle(), 200, seed=6)
    eig = smallest_eigenpairs(op, K=1, tol=1e-8)
    target = [np.ones(200)]
    flipped = eig.with_vectors(-np.abs(eig.eigenvectors))
    aligned = align_to_continuum(flipped, target, [[0]])
    assert gn_inner(aligned.eigenvectors[:, 0], target[0]) >= 0
    # already aligned: unchanged
    again = align_to_continuum(aligned, target, [[0]])
    assert np.array_equal(again.eigenvectors, aligned.eigenvectors)


def test_alignment_validation():
    _, op = _operator(manifolds.circle(), 100, seed=6)
    eig = smallest_eigenpairs(op, K=2, tol=1e-8)
    with pytest.raises(ValueError):
        align_to_continuum(eig, [np.ones(100)], [[0]])
    with pytest.raises(ValueError):
        align_to_continuum(eig, [np.ones(100)] * 2, [[0]])
    with pytest.raises(ValueError):
        align_to_continuum(eig, [np.ones(50)] * 2, [[0, 1]])


@pytest.fixture(scope="module")
def sphere_triplet():
    m = manifolds.sphere2()
    cloud, op = _operator(m, 4096, seed=12)
    eig = smallest_eigenpairs(op, K=4, tol=1e-8)
    pairs = manifolds.continuum_eigenpairs(m, 4)
    projected = project_eigenfunctions(pairs, cloud)
    groups = multiplicity_groups([p.eigenvalue for p in pairs])
    return cloud, eig, pairs, projected, groups


def test_procrustes_beats_random_rotations(sphere_triplet):
    cloud, eig, pairs, projected, groups = sphere_triplet
    aligned = align_to_continuum(eig, projected, groups)
    g = groups[1]  # the l=1 triplet
    P = np.column_stack([projected[i] for i in g])

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
    _, eig, pairs, projected, groups = sphere_triplet
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
    cloud, eig, pairs, projected, groups = sphere_triplet
    aligned = align_to_continuum(eig, projected, groups)
    lam_err, vec_err = eigen_errors(aligned, pairs, cloud)
    assert lam_err[0] <= 1e-6
    assert vec_err[0] <= 1e-6


def test_eigen_error_decreases_with_n():
    # 2/7 rate oracle predicts a ratio of about 0.67 between n=1024 and 4096
    m = manifolds.circle()
    pairs = manifolds.continuum_eigenpairs(m, 3)
    groups = multiplicity_groups([p.eigenvalue for p in pairs])

    def mean_errors(n, trials=10):
        lam_tot, vec_tot = 0.0, 0.0
        for trial in range(trials):
            cloud, op = _operator(m, n, seed=100 + trial)
            eig = smallest_eigenpairs(op, K=3, tol=1e-8)
            aligned = align_to_continuum(
                eig, project_eigenfunctions(pairs, cloud), groups
            )
            lam_err, vec_err = eigen_errors(aligned, pairs, cloud)
            lam_tot += lam_err[1]
            vec_tot += vec_err[1]
        return lam_tot / trials, vec_tot / trials

    lam_small, vec_small = mean_errors(1024)
    lam_big, vec_big = mean_errors(4096)
    assert lam_big < lam_small
    assert vec_big / vec_small <= 0.9


def test_hoeffding_constant_function():
    one = lambda x: np.ones(x.shape[0])
    rate = hoeffding_check(one, one, manifolds.circle(), n=256, trials=20, seed=0)
    assert rate == 0.0


def test_hoeffding_bound_value():
    assert math.sqrt(18 * math.log(4096) / 4096) == pytest.approx(0.19119, abs=1e-4)


def test_hoeffding_violation_rate_small():
    m = manifolds.circle()
    phi1 = manifolds.continuum_eigenpairs(m, 2)[1].evaluate
    rate = hoeffding_check(phi1, phi1, m, n=4096, trials=200, seed=5)
    assert rate <= 0.01

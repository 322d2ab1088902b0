import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas

from converge import graph, manifolds, spectral
from converge.graph import build_laplacian, calibration_constant, scale_parameter

# bandwidth constants under the ids of the two schemes there once were: the
# heat-kernel operator at c = 1 is the gaussian one at 4 (test_heat_scheme_is_gaussian_at_4c)
SCHEME_C = {"gaussian": 1.0, "heat": 4.0}


def _operator(points, manifold, c=1.0):
    return build_laplacian(points, manifold, c)


def test_scale_parameter_exact_values():
    assert scale_parameter(1024, 2, 1.0) == pytest.approx(2 ** (-2.5), rel=1e-14)
    assert scale_parameter(128, 1, 1.0) == pytest.approx(0.25, rel=1e-14)
    assert scale_parameter(4096, 2, 2.0) == pytest.approx(0.25, rel=1e-14)


def test_scale_parameter_validation():
    with pytest.raises(ValueError):
        scale_parameter(1, 2, 1.0)
    with pytest.raises(ValueError):
        scale_parameter(100, 2, 0.0)


def test_gaussian_kernel_weight():
    # a_ij = t^{-d/2} exp(-r^2/t) at d=2, t=0.25, r=0.5 -> 4 e^{-1}
    z = 1.0 - 0.25 / 2.0  # two points on the unit sphere at r^2 = 0.25
    pts = np.array([[0.0, 0.0, 1.0], [math.sqrt(1.0 - z * z), 0.0, z]])
    t = 0.25
    op = graph.LaplacianOperator(pts, 2, t, 2 * t)  # outer scale 1
    a = -op.dense_matrix()[0, 1]
    assert a == pytest.approx(4 * math.exp(-1), rel=1e-12)
    assert a == pytest.approx(1.471518, abs=1e-6)


def test_heat_prefactor_at_reference_bandwidth():
    # at 4 pi t = 1 the full heat weight prefactor is 4 pi / n; the heat
    # operator at t with calibration 1 is the gaussian one at 4t with 4 / pi
    m, n = manifolds.Sphere2(), 10
    p = manifolds.sample_uniform(m, n, seed=2)
    L = graph.LaplacianOperator(p, 2, 4 / (4 * math.pi), 4 / math.pi).dense_matrix()
    r2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(-L[off], 4 * math.pi / n * np.exp(-math.pi * r2[off]), rtol=1e-12, atol=0)


def test_calibration_constants():
    # 4 vol / pi^{d/2}; the analytic value is gated by the circle and sphere
    # eigenvalue oracles in test_calibration_empirical_circle and the harness
    circle = 8 * math.pi / math.sqrt(math.pi)
    assert calibration_constant(manifolds.Circle()) == pytest.approx(circle)
    assert calibration_constant(manifolds.Sphere2()) == pytest.approx(16.0)


def test_build_validation():
    m = manifolds.Circle()
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        build_laplacian(pts, m, -1.0)
    with pytest.raises(ValueError):
        build_laplacian(np.array([[np.nan, 0.0], [0.0, 1.0]]), m, 0.1)
    with pytest.raises(ValueError):
        build_laplacian(pts[:1], m, 0.1)


@pytest.mark.parametrize("m", manifolds.MODELS.values(), ids=manifolds.MODELS.keys())
def test_heat_scheme_is_gaussian_at_4c(m):
    # the heat-kernel Laplacian at c, written out: weights
    # (vol / n) exp(-r^2 / 4t) / (t (4 pi t)^{d/2}) off the diagonal
    n, d = 300, m.intrinsic_dim
    p = manifolds.sample_uniform(m, n, seed=9)
    r2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
    for c in (0.3, 1.0, 2.0):
        t = scale_parameter(n, d, c)
        w = m.volume / n * np.exp(-r2 / (4 * t)) / (t * (4 * math.pi * t) ** (d / 2))
        np.fill_diagonal(w, 0.0)
        heat = np.diag(w.sum(axis=1)) - w
        got = _operator(p, m, 4 * c).dense_matrix()
        assert np.linalg.norm(got - heat) <= 1e-12 * np.linalg.norm(heat)


@pytest.fixture(params=list(SCHEME_C.values()), ids=list(SCHEME_C))
def small_operator(request):
    cloud = manifolds.sample_uniform(manifolds.Circle(), 64, seed=5)
    return _operator(cloud, manifolds.Circle(), request.param)


def test_annihilates_constants(small_operator):
    ones = np.ones(small_operator.n)
    out = small_operator.matvec(ones)
    assert np.abs(out).max() < 1e-10 * small_operator.degree_bound()


def test_symmetry_and_psd(small_operator):
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(small_operator.n)
        y = rng.standard_normal(small_operator.n)
        lx, ly = small_operator.matvec(x), small_operator.matvec(y)
        assert np.dot(lx, y) == pytest.approx(np.dot(x, ly), rel=1e-10, abs=1e-10)
        assert np.dot(x, lx) >= -1e-12 * np.dot(x, x)


def test_matvec_length_check(small_operator):
    with pytest.raises(ValueError):
        small_operator.matvec(np.ones(small_operator.n + 1))


def test_matvec_against_hand_computed_3x3():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    t = 0.5
    op = graph.LaplacianOperator(pts, 1, t, 2.0)
    # hand-built kernel: a_ij = t^{-1/2} exp(-|xi-xj|^2 / t)
    a = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                r2 = float(np.sum((pts[i] - pts[j]) ** 2))
                a[i, j] = t ** -0.5 * math.exp(-r2 / t)
    L = 2.0 / (3 * t) * (np.diag(a.sum(axis=1)) - a)
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(op.matvec(e1), L @ e1, rtol=1e-12, atol=1e-12)
    assert np.allclose(op.dense_matrix(), L, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("c", list(SCHEME_C.values()), ids=list(SCHEME_C))
def test_kernel_matches_pairwise_reference_across_tiles(monkeypatch, c):
    monkeypatch.setattr(graph, "TILE_ROWS", 64)
    m = manifolds.Sphere2()
    n = 300  # five row tiles, the last one ragged
    p = manifolds.sample_uniform(m, n, seed=8)
    op = _operator(p, m, c)
    # kernel t^{-d/2} exp(-r^2/t) from all n^2 pairwise distances
    t = scale_parameter(n, 2, c)
    r2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
    k = np.exp(-r2 / t) / t
    np.fill_diagonal(k, 0.0)
    # a row is written up to the end of its tile's diagonal block, the ragged
    # last tile's included, and the rest of the upper triangle stays zero
    ends = np.minimum((np.arange(n) // 64 + 1) * 64, n)
    written = np.arange(n)[None, :] < ends[:, None]
    assert not op._kernel[~written].any()
    assert np.allclose(op._kernel[written], k[written], rtol=1e-10, atol=1e-12 * k.max())
    want = calibration_constant(m) / (n * t) * (np.diag(k.sum(axis=1)) - k)
    L = op.dense_matrix()
    assert np.array_equal(L, L.T)
    assert np.abs(L.sum(axis=1)).max() < 1e-10 * op.degree_bound()
    assert np.allclose(L, want, rtol=1e-10, atol=1e-12 * np.abs(want).max())
    # a vector and a strided column of a C-order block
    rng = np.random.default_rng(1)
    X = rng.standard_normal((n, 4))
    assert not X[:, 1].flags.c_contiguous
    for x in (rng.standard_normal(n), X[:, 1]):
        got = op.matvec(x)
        assert got.shape == x.shape
        assert np.allclose(got, want @ x, rtol=1e-10, atol=1e-12 * np.abs(want @ x).max())


def test_symmetric_sweep_matches_scipy_blas():
    # the GIL-free sweep is the same BLAS routine as scipy.linalg.blas, bit for bit
    n = 300
    rng = np.random.default_rng(4)
    lower = np.tril(rng.standard_normal((n, n)))
    Q = rng.standard_normal((n, 7))  # C-order: a column is a strided view
    assert not Q[:, 2].flags.c_contiguous
    for x in (rng.standard_normal(n), Q[:, 2]):
        got = graph.symmetric_sweep(lower, x)
        assert got.shape == (n,)
        assert np.array_equal(got, blas.dsymv(1.0, lower.T, x, lower=0))
        sym = np.tril(lower, -1) + np.tril(lower).T
        assert np.allclose(got, sym @ x, rtol=1e-12, atol=1e-12 * np.abs(sym @ x).max())
    x = Q[:, 0]
    with pytest.raises(ValueError):
        graph.symmetric_sweep(np.asfortranarray(lower), x)
    with pytest.raises(ValueError):
        graph.symmetric_sweep(lower, x[:-1])
    with pytest.raises(ValueError):  # a block is swept one vector at a time
        graph.symmetric_sweep(lower, Q)


def test_symmetric_sweep_concurrent_threads():
    # the sweep runs without the GIL: more threads than cores, one shared kernel
    n = 400
    rng = np.random.default_rng(6)
    lower = np.tril(rng.standard_normal((n, n)))
    xs = [rng.standard_normal(n) for _ in range(32)]
    serial = [graph.symmetric_sweep(lower, x) for x in xs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        futures = [pool.submit(graph.symmetric_sweep, lower, x) for x in xs for _ in range(4)]
        got = [f.result(timeout=60) for f in futures]
    assert all(np.array_equal(g, serial[i // 4]) for i, g in enumerate(got))


def test_smallest_eigenvalue_zero_with_constant_vector(small_operator):
    eig = spectral.smallest_eigenpairs(small_operator, K=2, tol=1e-8)
    assert eig.eigenvalues[0] == pytest.approx(0.0, abs=1e-9)
    v0 = eig.eigenvectors[:, 0]
    assert np.abs(np.abs(v0) - 1.0).max() < 1e-6


@pytest.mark.slow
def test_calibration_empirical_circle():
    # first nonzero eigenvalue of the calibrated gaussian Laplacian on the
    # circle approaches 1 (= lambda of cos theta)
    m = manifolds.Circle()
    n = 8192
    cloud = manifolds.sample_uniform(m, n, seed=17)
    op = _operator(cloud, m)
    eig = spectral.smallest_eigenpairs(op, K=2, tol=1e-8)
    assert eig.eigenvalues[1] == pytest.approx(1.0, rel=0.10)


@pytest.mark.slow
def test_scheme_agreement_on_circle():
    # the analytic constant holds across bandwidths: c and 4c, the heat
    # scheme's operator at c, give the same low spectrum
    m = manifolds.Circle()
    n = 8192
    cloud = manifolds.sample_uniform(m, n, seed=21)
    lam = {}
    for c in (1.0, 4.0):
        op = _operator(cloud, m, c)
        lam[c] = spectral.smallest_eigenpairs(op, K=5, tol=1e-8).eigenvalues
    for a, b in zip(lam[4.0][1:], lam[1.0][1:]):
        assert a == pytest.approx(b, rel=0.15)


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(2, 10**6),
    d=st.integers(1, 2),
    c=st.floats(0.1, 10, allow_nan=False),
)
def test_scale_parameter_formula(n, d, c):
    assert scale_parameter(n, d, c) == pytest.approx(c * n ** (-2 / (d + 6)), rel=1e-12)

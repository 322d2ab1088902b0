import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from converge import graph, manifolds, spectral
from converge.graph import build_laplacian, calibration_constant, scale_parameter
from converge.harness import EIGEN_TOL

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
    a = graph.gaussian_kernel(pts, 2, 0.25)[0, 1]
    assert a == pytest.approx(4 * math.exp(-1), rel=1e-12)
    assert a == pytest.approx(1.471518, abs=1e-6)


def test_heat_prefactor_at_reference_bandwidth():
    # at 4 pi t = 1 the full heat weight prefactor is 4 pi / n; the heat
    # operator at t with calibration 1 is the gaussian one at 4t with 4 / pi,
    # whose outer scale (4 / pi) / (n 4t) is 4 / n
    m, n = manifolds.Sphere2(), 10
    p = manifolds.sample_uniform(m, n, seed=2)
    w = 4 / n * graph.gaussian_kernel(p, 2, 1 / math.pi)
    r2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(w[off], 4 * math.pi / n * np.exp(-math.pi * r2[off]), rtol=1e-12, atol=0)


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
    m, pts = manifolds.Circle(), np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    c = 0.5 * 3 ** (2 / 7)  # t = c 3^(-2/7), about 0.5
    op = build_laplacian(pts, m, c)
    t = scale_parameter(3, 1, c)
    # hand-built kernel: a_ij = t^{-1/2} exp(-|xi-xj|^2 / t)
    a = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            if i != j:
                r2 = float(np.sum((pts[i] - pts[j]) ** 2))
                a[i, j] = t ** -0.5 * math.exp(-r2 / t)
    L = calibration_constant(m) / (3 * t) * (np.diag(a.sum(axis=1)) - a)
    e1 = np.array([1.0, 0.0, 0.0])
    assert np.allclose(op.matvec(e1), L @ e1, rtol=1e-12, atol=1e-12)
    assert np.allclose(op.dense_matrix(), L, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("c", list(SCHEME_C.values()), ids=list(SCHEME_C))
def test_dense_kernel_matches_pairwise_reference(monkeypatch, c):
    m = manifolds.Sphere2()
    n = 300
    p = manifolds.sample_uniform(m, n, seed=8)
    t = scale_parameter(n, 2, c)
    monkeypatch.setattr(graph, "zonal_weights", lambda *args: None)  # at c = 4 the sphere takes factors
    op = _operator(p, m, c)
    assert op._factors is None
    # kernel t^{-d/2} exp(-r^2/t) from all n^2 pairwise distances
    r2 = np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1)
    k = np.exp(-r2 / t) / t
    np.fill_diagonal(k, 0.0)
    assert np.allclose(op._kernel, k, rtol=1e-10, atol=1e-12 * k.max())
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


@pytest.mark.parametrize(
    "m, n, dense",
    [(manifolds.Sphere2(), 360, True), (manifolds.Circle(), 400, False), (manifolds.Sphere2(), 1024, False)],
    ids=["dense", "factored", "factored-sphere"],
)
def test_matvec_concurrent_threads(m, n, dense):
    # sweeps release the GIL: more threads than cores, one shared operator,
    # each thread with working rows of its own
    op = _operator(manifolds.sample_uniform(m, n, seed=6), m, 2.0)
    assert (op._kernel is not None) == dense
    rng = np.random.default_rng(6)
    xs = [rng.standard_normal(n) for _ in range(32)]
    serial = [op.matvec(x) for x in xs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as it goes
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(op.matvec, x) for x in xs for _ in range(4)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
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


# (model, n, c) stored as zonal factors: the circle at the pinned c, the
# sphere at a wide bandwidth, where its expansion is short at small n, and at
# a narrow one (65 levels)
FACTORED = {
    "circle": (manifolds.Circle(), 512, 2.0),
    "sphere2": (manifolds.Sphere2(), 1500, 8.0),
    "sphere2-narrow": (manifolds.Sphere2(), 2048, 0.25),
}


def _pairwise_kernel(p, t, peak):
    r2 = sum((p[:, None, i] - p[None, :, i]) ** 2 for i in range(p.shape[1]))
    return peak * np.exp(-r2 / t)


@pytest.mark.parametrize("case", FACTORED.values(), ids=FACTORED.keys())
def test_zonal_factors_match_the_pairwise_kernel(case):
    m, n, c = case
    p = manifolds.sample_uniform(m, n, seed=4)
    op = _operator(p, m, c)
    assert op._kernel is None and op._factors is not None
    t, d = scale_parameter(n, m.intrinsic_dim, c), m.intrinsic_dim
    peak, scale = t ** (-d / 2), calibration_constant(m) / (n * t)
    k = _pairwise_kernel(p, t, peak)  # self-weights included, as the factors keep them
    # the stored kernel, read through the sweep column by column
    a = np.array([op._factored_sweep(e) for e in np.eye(n)]).T
    assert np.abs(a - k).max() <= 1e-13 * peak
    # the degrees are A 1 less the self-weight, and L annihilates constants
    assert np.allclose(op._degrees - np.diag(a), k.sum(axis=1) - peak, rtol=1e-13, atol=0)
    assert np.abs(op.matvec(np.ones(n))).max() <= 1e-12 * op.degree_bound()
    L = scale * (np.diag(op._degrees) - a)
    want = scale * (np.diag(k.sum(axis=1)) - k)
    assert np.allclose(L, want, rtol=0, atol=1e-12 * np.abs(want).max())
    assert np.allclose(op.dense_matrix(), want, rtol=0, atol=1e-12 * np.abs(want).max())
    x = np.random.default_rng(2).standard_normal(n)
    assert np.allclose(op.matvec(x), L @ x, rtol=0, atol=1e-12 * np.abs(L @ x).max())
    with pytest.raises(ValueError):
        op.matvec(np.ones(n + 1))


@pytest.mark.parametrize("m", manifolds.MODELS.values(), ids=manifolds.MODELS.keys())
def test_the_oracle_reads_none_of_the_stored_factors(m):
    # a fault in the stored factors moves the sweep, and so Lanczos, but not
    # the oracle, which is the pairwise kernel at the points
    n, c, d = 512, 2.0, m.intrinsic_dim
    p = manifolds.sample_uniform(m, n, seed=4)
    op = _operator(p, m, c)
    _, trig, cores = op._factors
    if trig is None:
        cores *= 1.01  # the circle's weights
    else:
        cores[0][0] *= 1.01  # the sphere's order-0 core
    op._degrees = op._factored_sweep(np.ones(n))
    t = scale_parameter(n, d, c)
    k = graph.gaussian_kernel(p, d, t)
    reference = calibration_constant(m) / (n * t) * (np.diag(k.sum(axis=1)) - k)
    assert np.array_equal(op.dense_matrix(), reference)
    dense = spectral.smallest_eigenpairs(op, K=10, tol=EIGEN_TOL, method="dense").eigenvalues
    lanczos = spectral.smallest_eigenpairs(op, K=10, tol=EIGEN_TOL).eigenvalues
    assert np.abs(dense - lanczos).max() > 100 * EIGEN_TOL


def test_separable_sweep_matches_the_sum_over_modes():
    # the sphere's Fourier factors sweep the kernel sum_i w_i phi_i(x) phi_i(y)
    # over its eigenbasis rows, for a vector and a strided column alike
    m, n, c = FACTORED["sphere2"]
    p = manifolds.sample_uniform(m, n, seed=4)
    op = _operator(p, m, c)
    t = scale_parameter(n, 2, c)
    weights = t**-1.0 * graph.zonal_weights(m, n, t)
    phi = manifolds.eigenbasis(m, p, len(weights)).T
    rng = np.random.default_rng(5)
    for x in (rng.standard_normal(n), rng.standard_normal((n, 3))[:, 1]):
        want = np.dot(phi.T, weights * np.dot(phi, x))
        assert np.allclose(op._factored_sweep(x), want, rtol=0, atol=1e-13 * np.abs(want).max())
    assert np.allclose(op._degrees, np.dot(phi.T, weights * phi.sum(axis=1)), rtol=1e-13, atol=0)


# (model, n, factor modes or None for the dense kernel) at c = 2: each model
# switches where twice its factor rows first fall below n
STORAGE = [
    ("sphere2", 360, None),
    ("sphere2", 361, 576),
    ("sphere2", 1459, 729),
    ("sphere2", 4522, 900),
    ("circle", 86, None),
    ("circle", 87, 43),
    ("circle", 512, 51),
    ("circle", 16384, 75),
]


@pytest.mark.parametrize("name, n, rank", STORAGE)
def test_storage_choice_at_the_pinned_bandwidth(name, n, rank):
    m = manifolds.MODELS[name]
    weights = graph.zonal_weights(m, n, scale_parameter(n, m.intrinsic_dim, 2.0))
    assert (None if weights is None else len(weights)) == rank
    want = 16 * n * n if rank is None else 8 * n * m.factor_rows(rank, n)
    assert graph.kernel_bytes(m, n, 2.0) == want
    assert rank is None or 2 * m.factor_rows(rank, n) < n


@pytest.mark.parametrize(
    "name, n, dense",
    [
        ("sphere2", 300, True),
        ("sphere2", 360, True),
        ("sphere2", 361, False),
        ("sphere2", 937, False),
        ("sphere2", 1855, False),
        ("sphere2", 4522, False),
        ("circle", 100, False),
        ("circle", 4096, False),
    ],
)
def test_build_peak_is_kernel_bytes(name, n, dense):
    # kernel_bytes is the build's own peak, to within 32 vectors of n; a first
    # build makes what every build at its size shares (the sphere's
    # theta-coefficients, once per L), and the second is traced
    m = manifolds.MODELS[name]
    p = manifolds.sample_uniform(m, n, seed=3)
    build_laplacian(p, m, 2.0)
    tracemalloc.start()
    try:
        op = build_laplacian(p, m, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (op._kernel is not None) == dense
    assert graph.kernel_bytes(m, n, 2.0) <= peak <= graph.kernel_bytes(m, n, 2.0) + 32 * 8 * n


@pytest.mark.parametrize("m", manifolds.MODELS.values(), ids=manifolds.MODELS.keys())
@pytest.mark.parametrize("n", [512, 4522, 16384])
@pytest.mark.parametrize("c", [0.5, 2.0, 8.0])
def test_kept_levels_leave_a_tail_below_2_to_the_minus_53(m, n, c):
    t = scale_parameter(n, m.intrinsic_dim, c)
    weights = graph.zonal_weights(m, n, t)
    if weights is None:
        return
    sizes, mu = m.kernel_levels(2.0 / t, 400)
    ends = np.cumsum(sizes)
    kept = int(np.searchsorted(ends, len(weights))) + 1
    assert ends[kept - 1] == len(weights)  # whole levels only
    assert np.array_equal(weights, np.repeat(mu[:kept], sizes[:kept]))
    assert np.sum(sizes[kept:] * mu[kept:]) < graph.TAIL
    assert abs(np.sum(sizes[:kept] * mu[:kept]) - 1.0) < 1e-13  # the whole sum is the peak


@pytest.mark.parametrize("m", manifolds.MODELS.values(), ids=manifolds.MODELS.keys())
def test_a_level_that_underflows_still_verifies_the_tail(m):
    # at z = 2 / t = 1e-60 each level is about z / 2k of the one before, so
    # the first batch's last levels underflow to 0.0: the tail past level 0
    # is still verified, its bound past the batch 0, not inf or nan
    t = 2e60
    sizes, mu = m.kernel_levels(2.0 / t, 8)
    assert mu[-1] == 0.0 and mu[5] > 0.0 and mu[0] == 1.0
    assert np.array_equal(graph.zonal_weights(m, 4096, t), [1.0])


def test_unverified_tail_falls_back_to_the_dense_kernel(monkeypatch):
    # levels that decay too slowly for their computed ratios to bound the rest
    m, n = manifolds.Circle(), 4096
    t = scale_parameter(n, 1, 2.0)
    assert graph.zonal_weights(m, n, t) is not None
    calls = []

    def slow(z, count):
        calls.append(count)
        k = np.arange(count)
        return np.minimum(2 * k + 1, 2), 1.0 / (k + 1.0) ** 2

    monkeypatch.setattr(manifolds.Circle, "kernel_levels", staticmethod(slow))
    assert graph.zonal_weights(m, n, t) is None
    # doubling batches, stopped at the first whose 2 count - 1 modes fill n / 2
    assert calls == [8 << i for i in range(len(calls))]
    assert 2 * calls[-2] - 1 < n / 2 <= 2 * calls[-1] - 1
    p = manifolds.sample_uniform(m, n, seed=1)
    op = _operator(p, m, 2.0)
    assert op._factors is None and op._kernel is not None


def test_points_off_the_unit_sphere_use_the_dense_kernel():
    m, n, c = FACTORED["circle"]
    p = manifolds.sample_uniform(m, n, seed=4)
    assert _operator(p * (1.0 + 1e-13), m, c)._factors is not None
    assert _operator(p * (1.0 + 1e-9), m, c)._factors is None


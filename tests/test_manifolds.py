import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, lpmv

from converge import manifolds
from converge.manifolds import (
    BandlimitedSignal,
    ManifoldModel,
    circle,
    continuum_eigenpairs,
    eigenbasis,
    evaluate_signal,
    quadrature_nodes,
    sample_uniform,
    sphere2,
)


def test_manifold_metadata():
    c, s = circle(), sphere2()
    assert (c.intrinsic_dim, c.ambient_dim, c.volume) == (1, 2, 2 * math.pi)
    assert (s.intrinsic_dim, s.ambient_dim, s.volume) == (2, 3, 4 * math.pi)
    assert c.intrinsic_dim < c.ambient_dim
    with pytest.raises(ValueError):
        ManifoldModel("torus")


def test_sample_unit_norm():
    pc = sample_uniform(sphere2(), 4, seed=7)
    assert pc.points.shape == (4, 3)
    assert np.allclose(np.linalg.norm(pc.points, axis=1), 1.0, atol=1e-12)
    pc = sample_uniform(circle(), 3, seed=0)
    assert pc.points.shape == (3, 2)
    assert np.allclose(np.linalg.norm(pc.points, axis=1), 1.0, atol=1e-12)


def test_sample_rejects_zero():
    with pytest.raises(ValueError):
        sample_uniform(circle(), 0, seed=1)


def test_sample_determinism():
    a = sample_uniform(sphere2(), 100, seed=123)
    b = sample_uniform(sphere2(), 100, seed=123)
    assert np.array_equal(a.points, b.points)
    c = sample_uniform(sphere2(), 100, seed=124)
    assert not np.array_equal(a.points, c.points)


def test_sphere_sampling_symmetry():
    # Monte Carlo oracle: E[z] = 0 by symmetry, sd of mean ~ 1/sqrt(3n)
    pc = sample_uniform(sphere2(), 10**5, seed=1)
    assert abs(pc.points[:, 2].mean()) < 0.01


def test_circle_eigenvalues():
    pairs = continuum_eigenpairs(circle(), 7)
    assert [p.eigenvalue for p in pairs] == [0, 1, 1, 4, 4, 9, 9]


def test_sphere_eigenvalues():
    pairs = continuum_eigenpairs(sphere2(), 9)
    assert [p.eigenvalue for p in pairs] == [0, 2, 2, 2, 6, 6, 6, 6, 6]


def test_constant_mode():
    for m in (circle(), sphere2()):
        p0 = continuum_eigenpairs(m, 1)[0]
        x = sample_uniform(m, 50, seed=2).points
        assert p0.eigenvalue == 0.0
        assert np.allclose(p0.evaluate(x), 1.0)


@pytest.mark.parametrize("m", [circle(), sphere2()], ids=["circle", "sphere2"])
def test_orthonormality(m):
    pairs = continuum_eigenpairs(m, 16)
    grid, w = quadrature_nodes(m)
    V = np.column_stack([p.evaluate(grid) for p in pairs])
    gram = (V * w[:, None]).T @ V
    assert np.abs(gram - np.eye(16)).max() < 1e-6


def test_sphere_gram_100k_nodes():
    pairs = continuum_eigenpairs(sphere2(), 9)
    grid, w = quadrature_nodes(sphere2(), 10**5)
    V = np.column_stack([p.evaluate(grid) for p in pairs])
    gram = (V * w[:, None]).T @ V
    assert np.abs(gram - np.eye(9)).max() < 1e-3


def _sphere_point(theta, phi):
    return np.array(
        [[math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]]
    )


def test_sphere_harmonics_satisfy_eigen_equation():
    # independent oracle: apply the sphere Laplacian by central differences
    # in (theta, phi) and compare with -l(l+1) * phi_i
    pairs = continuum_eigenpairs(sphere2(), 9)
    h = 1e-4
    rng = np.random.default_rng(11)
    for pair in pairs[1:]:
        for _ in range(3):
            theta = rng.uniform(0.6, math.pi - 0.6)
            phi = rng.uniform(0.0, 2 * math.pi)

            def f(th, ph, ev=pair.evaluate):
                return float(ev(_sphere_point(th, ph))[0])

            ftt = (f(theta + h, phi) - 2 * f(theta, phi) + f(theta - h, phi)) / h**2
            ft = (f(theta + h, phi) - f(theta - h, phi)) / (2 * h)
            fpp = (f(theta, phi + h) - 2 * f(theta, phi) + f(theta, phi - h)) / h**2
            lap = ftt + ft / math.tan(theta) + fpp / math.sin(theta) ** 2
            assert lap == pytest.approx(-pair.eigenvalue * f(theta, phi), abs=1e-3)


def test_circle_harmonics_satisfy_eigen_equation():
    pairs = continuum_eigenpairs(circle(), 5)
    h = 1e-5
    for pair in pairs[1:]:
        for theta in (0.3, 2.0, 5.1):
            def f(th, ev=pair.evaluate):
                return float(ev(np.array([[math.cos(th), math.sin(th)]]))[0])

            second = (f(theta + h) - 2 * f(theta) + f(theta - h)) / h**2
            assert second == pytest.approx(-pair.eigenvalue * f(theta), abs=1e-4)


@pytest.mark.parametrize("m", [circle(), sphere2()], ids=["circle", "sphere2"])
def test_sup_norm_growth(m):
    # ||phi_i||_inf <= C (i+1)^{1/2} for a fitted C: the fitted growth
    # exponent of sup|phi_i| in (i+1) must not exceed 1/2
    pairs = continuum_eigenpairs(m, 16)
    grid, _ = quadrature_nodes(m, 50_000)
    sups = np.array([np.abs(p.evaluate(grid)).max() for p in pairs])
    slope = np.polyfit(np.log(np.arange(1, 17)), np.log(sups), 1)[0]
    assert slope <= 0.5 + 1e-6


@settings(deadline=None, max_examples=20)
@given(
    alpha=st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=10),
    kind=st.sampled_from(["circle", "sphere2"]),
)
def test_parseval(alpha, kind):
    m = ManifoldModel(kind)
    sig = BandlimitedSignal(np.array(alpha))
    grid, w = quadrature_nodes(m, 60_000)
    quad = float(np.sum(w * evaluate_signal(sig, m, grid) ** 2))
    assert quad == pytest.approx(sig.squared_l2_norm(), abs=1e-4)


def test_evaluate_signal_constant_mode():
    m = sphere2()
    pc = sample_uniform(m, 20, seed=3)
    sig = BandlimitedSignal(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(evaluate_signal(sig, m, pc), 1.0)


def test_evaluate_signal_zero():
    m = circle()
    pc = sample_uniform(m, 20, seed=3)
    sig = BandlimitedSignal(np.zeros(4))
    assert np.array_equal(evaluate_signal(sig, m, pc), np.zeros(20))


def test_evaluate_signal_mode_norm_concentrates():
    # G_n norm of P_n phi_1 concentrates around 1 at the Hoeffding scale
    m = sphere2()
    n = 4096
    pc = sample_uniform(m, n, seed=9)
    sig = BandlimitedSignal(np.array([0.0, 1.0]))
    vals = evaluate_signal(sig, m, pc)
    sq_norm = float(np.dot(vals, vals)) / n
    assert abs(sq_norm - 1.0) <= 3 * math.sqrt(18 * math.log(n) / n)


def _lpmv_harmonic(l, m, x):
    """Oracle: one real harmonic from scipy's lpmv, which carries the Condon-Shortley sign."""
    am = abs(m)
    norm = math.exp(0.5 * (math.log(2 * l + 1) + gammaln(l - am + 1) - gammaln(l + am + 1)))
    p = norm * lpmv(am, l, np.clip(x[:, 2], -1.0, 1.0))
    if m == 0:
        return p
    phi = np.arctan2(x[:, 1], x[:, 0])
    return math.sqrt(2.0) * p * (np.cos(am * phi) if m > 0 else np.sin(am * phi))


def _basis_test_points(m):
    x = sample_uniform(m, 300, seed=21).points
    angles = np.linspace(0.0, 2.0 * math.pi, 13)
    if m.kind == "circle":
        return np.vstack([x, np.column_stack([np.cos(angles), np.sin(angles)])])
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    equator = np.column_stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)])
    return np.vstack([x, poles, equator])


def test_sphere_basis_matches_lpmv_oracle():
    # every mode with l <= 15, in m = -l..l order, at random points, both
    # poles and the equator
    x = _basis_test_points(sphere2())
    basis = eigenbasis(sphere2(), x, 256)
    oracle = np.column_stack([_lpmv_harmonic(l, m, x) for l in range(16) for m in range(-l, l + 1)])
    assert basis.shape == (x.shape[0], 256)
    assert np.abs(basis - oracle).max() <= 1e-12


def test_circle_basis_columns():
    x = _basis_test_points(circle())
    theta = np.arctan2(x[:, 1], x[:, 0])
    basis = eigenbasis(circle(), x, 9)
    assert np.array_equal(basis[:, 0], np.ones(x.shape[0]))
    for k in range(1, 5):
        assert np.abs(basis[:, 2 * k - 1] - math.sqrt(2.0) * np.cos(k * theta)).max() <= 1e-14
        assert np.abs(basis[:, 2 * k] - math.sqrt(2.0) * np.sin(k * theta)).max() <= 1e-14


@pytest.mark.parametrize("m", [circle(), sphere2()], ids=["circle", "sphere2"])
def test_single_mode_is_its_basis_column(m):
    # one code path: a pair's values are its column, whatever the count
    x = _basis_test_points(m)
    basis = eigenbasis(m, x, 40)
    for pair in continuum_eigenpairs(m, 40):
        assert np.array_equal(pair.evaluate(x), basis[:, pair.index])
    for count in (1, 2, 5, 10, 17):
        assert np.array_equal(eigenbasis(m, x, count), basis[:, :count])

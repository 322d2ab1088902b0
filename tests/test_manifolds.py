import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, ive, lpmv

from converge import manifolds
from converge.manifolds import (
    MODELS,
    Circle,
    Sphere2,
    eigenbasis,
    evaluate_signal,
    quadrature_nodes,
    sample_uniform,
)

# every registered model meets the contract tests below
REGISTERED = pytest.mark.parametrize("m", list(MODELS.values()), ids=list(MODELS))


def test_manifold_metadata():
    c, s = Circle(), Sphere2()
    assert (c.intrinsic_dim, c.ambient_dim, c.volume) == (1, 2, 2 * math.pi)
    assert (s.intrinsic_dim, s.ambient_dim, s.volume) == (2, 3, 4 * math.pi)
    assert c.intrinsic_dim < c.ambient_dim
    assert MODELS == {"circle": Circle(), "sphere2": Sphere2()}


def test_sample_unit_norm():
    for m in MODELS.values():
        for n, seed in ((4, 7), (3, 0)):
            x = sample_uniform(m, n, seed=seed)
            assert x.shape == (n, m.ambient_dim)
            assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)


def test_sample_rejects_zero():
    with pytest.raises(ValueError):
        sample_uniform(Circle(), 0, seed=1)


def test_sample_determinism():
    a = sample_uniform(Sphere2(), 100, seed=123)
    b = sample_uniform(Sphere2(), 100, seed=123)
    assert np.array_equal(a, b)
    c = sample_uniform(Sphere2(), 100, seed=124)
    assert not np.array_equal(a, c)


def test_sphere_sampling_symmetry():
    # Monte Carlo oracle: E[z] = 0 by symmetry, sd of mean ~ 1/sqrt(3n)
    x = sample_uniform(Sphere2(), 10**5, seed=1)
    assert abs(x[:, 2].mean()) < 0.01


def test_circle_eigenvalues():
    m = Circle()
    assert m.eigenvalues(7).tolist() == [0, 1, 1, 4, 4, 9, 9]
    assert [m.level(i) for i in range(7)] == [0, 1, 1, 2, 2, 3, 3]


def test_sphere_eigenvalues():
    m = Sphere2()
    assert m.eigenvalues(9).tolist() == [0, 2, 2, 2, 6, 6, 6, 6, 6]
    assert [m.level(i) for i in range(9)] == [0, 1, 1, 1, 2, 2, 2, 2, 2]


@REGISTERED
def test_level_end_closes_the_level(m):
    # the eigen experiment takes modes through the end of eigen_index's level
    for idx in range(25):
        end = m.level_end(idx)
        assert end > idx
        assert all(m.level(i) == m.level(idx) for i in range(idx, end))
        assert m.level(end) > m.level(idx)
        assert m.eigenvalue(end) > m.eigenvalue(end - 1)


def test_constant_mode():
    for m in MODELS.values():
        x = sample_uniform(m, 50, seed=2)
        assert m.eigenvalue(0) == 0.0
        assert np.allclose(eigenbasis(m, x, 1)[:, 0], 1.0)


@REGISTERED
def test_quadrature_weights_sum_to_one(m):
    grid, w = quadrature_nodes(m, 0, m.quadrature_size)
    assert grid.shape == (m.quadrature_size, m.ambient_dim)
    assert math.isclose(w.sum(), 1.0, rel_tol=1e-12)
    for count in (m.quadrature_size, 1000):
        grid = m.grid(count, 0, count)
        assert grid.shape == (count, m.ambient_dim)
        assert np.allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-12)


@REGISTERED
@pytest.mark.parametrize("chunk", [1 << 13, 5000])
def test_quadrature_chunks_are_the_grid_to_the_bit(m, chunk):
    # a node's coordinates depend on its index alone
    grid, w = quadrature_nodes(m, 0, m.quadrature_size)
    size = m.quadrature_size
    parts = [quadrature_nodes(m, start, min(start + chunk, size)) for start in range(0, size, chunk)]
    assert np.array_equal(np.concatenate([p for p, _ in parts]), grid)
    assert np.array_equal(np.concatenate([q for _, q in parts]), w)
    assert np.array_equal(quadrature_nodes(m, 7, 7)[0], grid[7:7])
    for start, stop in ((-1, 5), (6, 5), (0, size + 1)):
        with pytest.raises(ValueError):
            quadrature_nodes(m, start, stop)


@REGISTERED
def test_orthonormality(m):
    grid, w = quadrature_nodes(m, 0, m.quadrature_size)
    V = eigenbasis(m, grid, 16)
    gram = (V * w[:, None]).T @ V
    assert np.abs(gram - np.eye(16)).max() < 1e-6


def test_sphere_gram_100k_nodes():
    grid, w = Sphere2().grid(10**5, 0, 10**5), np.full(10**5, 1.0 / 10**5)
    V = eigenbasis(Sphere2(), grid, 9)
    gram = (V * w[:, None]).T @ V
    assert np.abs(gram - np.eye(9)).max() < 1e-3


def _sphere_point(theta, phi):
    return np.array(
        [[math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]]
    )


def test_sphere_harmonics_satisfy_eigen_equation():
    # independent oracle: apply the sphere Laplacian by central differences
    # in (theta, phi) and compare with -l(l+1) * phi_i
    m = Sphere2()
    h = 1e-4
    rng = np.random.default_rng(11)
    for i in range(1, 9):
        for _ in range(3):
            theta = rng.uniform(0.6, math.pi - 0.6)
            phi = rng.uniform(0.0, 2 * math.pi)

            def f(th, ph, i=i):
                return float(eigenbasis(m, _sphere_point(th, ph), 9)[0, i])

            ftt = (f(theta + h, phi) - 2 * f(theta, phi) + f(theta - h, phi)) / h**2
            ft = (f(theta + h, phi) - f(theta - h, phi)) / (2 * h)
            fpp = (f(theta, phi + h) - 2 * f(theta, phi) + f(theta, phi - h)) / h**2
            lap = ftt + ft / math.tan(theta) + fpp / math.sin(theta) ** 2
            assert lap == pytest.approx(-m.eigenvalue(i) * f(theta, phi), abs=1e-3)


def test_circle_harmonics_satisfy_eigen_equation():
    m = Circle()
    h = 1e-5
    for i in range(1, 5):
        for theta in (0.3, 2.0, 5.1):
            def f(th, i=i):
                return float(eigenbasis(m, np.array([[math.cos(th), math.sin(th)]]), 5)[0, i])

            second = (f(theta + h) - 2 * f(theta) + f(theta - h)) / h**2
            assert second == pytest.approx(-m.eigenvalue(i) * f(theta), abs=1e-4)


@REGISTERED
def test_sup_norm_growth(m):
    # ||phi_i||_inf <= C (i+1)^{1/2} for a fitted C: the fitted growth
    # exponent of sup|phi_i| in (i+1) must not exceed 1/2
    grid = m.grid(50_000, 0, 50_000)
    sups = np.abs(eigenbasis(m, grid, 16)).max(axis=0)
    slope = np.polyfit(np.log(np.arange(1, 17)), np.log(sups), 1)[0]
    assert slope <= 0.5 + 1e-6


@settings(deadline=None, max_examples=20)
@given(
    alpha=st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=10),
    m=st.sampled_from(list(MODELS.values())),
)
def test_parseval(alpha, m):
    sig = np.array(alpha)
    grid, w = m.grid(60_000, 0, 60_000), np.full(60_000, 1.0 / 60_000)
    quad = float(np.sum(w * evaluate_signal(sig, eigenbasis(m, grid, len(sig))) ** 2))
    assert quad == pytest.approx(np.dot(alpha, alpha), abs=1e-4)


def test_evaluate_signal_constant_mode():
    m = Sphere2()
    x = sample_uniform(m, 20, seed=3)
    sig = np.array([1.0, 0.0, 0.0])
    assert np.allclose(evaluate_signal(sig, eigenbasis(m, x, 3)), 1.0)


def test_evaluate_signal_zero():
    m = Circle()
    x = sample_uniform(m, 20, seed=3)
    sig = np.zeros(4)
    assert np.array_equal(evaluate_signal(sig, eigenbasis(m, x, 4)), np.zeros(20))


def test_evaluate_signal_mode_norm_concentrates():
    # G_n norm of P_n phi_1 concentrates around 1 at the Hoeffding scale
    m = Sphere2()
    n = 4096
    x = sample_uniform(m, n, seed=9)
    sig = np.array([0.0, 1.0])
    vals = evaluate_signal(sig, eigenbasis(m, x, 2))
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
    x = sample_uniform(m, 300, seed=21)
    angles = np.linspace(0.0, 2.0 * math.pi, 13)
    if isinstance(m, Circle):
        return np.vstack([x, np.column_stack([np.cos(angles), np.sin(angles)])])
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    equator = np.column_stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)])
    return np.vstack([x, poles, equator])


def test_sphere_basis_matches_lpmv_oracle():
    # every mode with l <= 15, in m = -l..l order, at random points, both
    # poles and the equator
    x = _basis_test_points(Sphere2())
    basis = eigenbasis(Sphere2(), x, 256)
    oracle = np.column_stack([_lpmv_harmonic(l, m, x) for l in range(16) for m in range(-l, l + 1)])
    assert basis.shape == (x.shape[0], 256)
    assert np.abs(basis - oracle).max() <= 1e-12


def _mp_pbar(l, m, theta):
    """Oracle: Pbar_l^m(cos theta) in mpmath, from the terminating series
    P_l^m(t) = (-1)^m (l+m)! / ((l-m)! m! 2^m) (1-t^2)^(m/2) 2F1(m-l, l+m+1; m+1; (1-t)/2),
    taken at |t| and reflected, P_l^m(-t) = (-1)^(l+m) P_l^m(t), so its
    argument is small at both poles (`mpmath.legenp` fails to converge on
    the smallest of these values)."""
    with mpmath.workdps(50):
        t, u = mpmath.cos(mpmath.mpf(theta)), mpmath.sin(mpmath.mpf(theta))
        scale = mpmath.sqrt((2 * l + 1) * mpmath.factorial(l + m) / mpmath.factorial(l - m))
        series = mpmath.hyp2f1(m - l, l + m + 1, m + 1, (1 - abs(t)) / 2)
        sign = (-1) ** m * ((-1) ** (l + m) if t < 0 else 1)
        return float(sign * scale / (mpmath.factorial(m) * 2**m) * u**m * series)


def test_legendre_orders_near_the_poles_match_mpmath():
    # sin theta must be hypot(x_1, x_2), the rounding of the point's own sine:
    # sqrt(1 - cos^2 theta) misses by 7.0e-11 at theta = 1e-4, l = 80, m = 1
    thetas = [1e-4, 3e-3, math.pi - 3e-3]
    x = np.array([[math.sin(t), 0.0, math.cos(t)] for t in thetas])
    tables = list(Sphere2().legendre_orders(x, 100))
    for l, m in [(80, 1), (100, 3), (60, 20), (100, 0)]:
        for j, theta in enumerate(thetas):
            want = _mp_pbar(l, m, theta)
            got = tables[m][l - m, j] / (math.sqrt(2.0) if m else 1.0)
            assert abs(got - want) <= 2e-13 * max(1.0, abs(want)), (l, m, theta, got, want)


def _ive_levels(m, z, count):
    """Oracle: the levels of `kernel_levels` from scipy's exponentially scaled I_v."""
    k = np.arange(count)
    if isinstance(m, Circle):
        return ive(k, z)
    return ive(k + 0.5, z) * math.sqrt(math.pi / (2.0 * z))


@REGISTERED
@pytest.mark.parametrize("z", [0.01, 0.5, 2.7, 9.5, 30.0, 128.0, 500.0])
def test_kernel_levels_match_scipy_ive(m, z):
    # the backward recurrence to 1e-12 of every level above 1e-300, and the
    # levels weighted by their sizes sum to the peak weight, e^{-z} e^z = 1,
    # which graph.zonal_weights reads as the whole sum its tail is cut from
    for count in (1, 8, 100, 256):
        sizes, mu = m.kernel_levels(z, count)
        want = _ive_levels(m, z, count)
        ends = [0]
        for _ in range(count):
            ends.append(m.level_end(ends[-1]))
        assert np.cumsum(sizes).tolist() == ends[1:]  # level l's modes
        above = want > 1e-300
        assert np.all(np.abs(mu[above] - want[above]) <= 1e-12 * want[above]), count
        assert np.all(mu[~above] <= 1e-300) and np.all(mu >= 0.0)
    assert abs(np.sum(sizes * mu) - 1.0) <= 1e-15


def test_circle_basis_columns():
    x = _basis_test_points(Circle())
    theta = np.arctan2(x[:, 1], x[:, 0])
    basis = eigenbasis(Circle(), x, 9)
    assert np.array_equal(basis[:, 0], np.ones(x.shape[0]))
    for k in range(1, 5):
        assert np.abs(basis[:, 2 * k - 1] - math.sqrt(2.0) * np.cos(k * theta)).max() <= 1e-14
        assert np.abs(basis[:, 2 * k] - math.sqrt(2.0) * np.sin(k * theta)).max() <= 1e-14


def test_circle_basis_matches_arctan2_through_mode_128():
    # the angle-addition recurrence against the direct cos/sin of the arctan2
    # angle, every k <= 128; each form carries about k eps of error
    x = np.vstack([sample_uniform(Circle(), 20000, seed=22), _basis_test_points(Circle())])
    theta = np.arctan2(x[:, 1], x[:, 0])
    basis = eigenbasis(Circle(), x, 257)
    for k in range(1, 129):
        assert np.abs(basis[:, 2 * k - 1] - math.sqrt(2.0) * np.cos(k * theta)).max() <= 2e-13
        assert np.abs(basis[:, 2 * k] - math.sqrt(2.0) * np.sin(k * theta)).max() <= 2e-13


def test_circle_basis_ignores_the_radius():
    # the angle is read from (x, y) / r: halving is exact, and tripling moves
    # mode k by the rounding of 3x, about k eps
    x = _basis_test_points(Circle())
    basis = eigenbasis(Circle(), x, 9)
    assert np.array_equal(eigenbasis(Circle(), 0.5 * x, 9), basis)
    assert np.abs(eigenbasis(Circle(), 3.0 * x, 9) - basis).max() <= 2e-15


def test_circle_basis_at_the_origin_takes_angle_zero():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = eigenbasis(Circle(), np.zeros((1, 2)), 9)
    root2 = math.sqrt(2.0)
    assert np.array_equal(basis[0], [1.0, root2, 0.0, root2, 0.0, root2, 0.0, root2, 0.0])


@REGISTERED
def test_single_mode_is_its_basis_column(m):
    # one code path: mode i's values are column i, whatever the count
    x = _basis_test_points(m)
    basis = eigenbasis(m, x, 40)
    for i in range(40):
        assert np.array_equal(eigenbasis(m, x, i + 1)[:, i], basis[:, i])
    for count in (1, 2, 5, 10, 17):
        assert np.array_equal(eigenbasis(m, x, count), basis[:, :count])


@pytest.mark.parametrize("top", [12, 13])
def test_sphere_basis_rows_are_its_factor_rows_times_the_azimuthal_terms(top):
    # one recurrence: every mode of the sphere's separable factors, its
    # theta-coefficients over the stored cos/sin(k theta) rows times its
    # cos/sin(m phi) trig row, is its eigenbasis row, poles included, and each
    # order's core is its weighted coefficient Gram matrix
    m, count = manifolds.Sphere2(), (top + 1) ** 2
    x = np.vstack([manifolds.sample_uniform(m, 500, seed=12), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    n, basis = len(x), manifolds.eigenbasis(m, x, count).T
    level = np.random.default_rng(12).uniform(0.5, 1.0, top + 1)
    rows, trig, (even, odd) = m.zonal_factors(x, np.repeat(level, 2 * np.arange(top + 1) + 1))
    assert rows.shape == (2 * top + 1, n) and trig.shape == (2 * top + 2, n)
    assert even.shape == (top // 2 + 1, top + 1, top + 1) and odd.shape == ((top + 1) // 2, top, top)
    assert len(rows) + 2 * len(trig) + -(-(even.size + odd.size) // n) == m.factor_rows(count, n)  # trig and working rows
    for order, a in enumerate(manifolds.legendre_fourier(top)):
        parity = order % 2
        theta_rows = rows[top + 1 :] if parity else rows[: top + 1]
        j = order if not parity else 2 * len(even) + order - 1  # its cos row; the sin row follows
        core = (odd if parity else even)[order // 2]
        assert np.allclose(core, np.dot(a.T * level[order:], a), rtol=1e-14, atol=1e-14)
        if order == 0:
            assert np.array_equal(trig[0], np.ones(n)) and not trig[1].any()
        for l, table_row in zip(range(order, top + 1), np.dot(a, theta_rows)):
            centre = l * l + l  # mode (l, m) sits at centre + m
            assert np.allclose(basis[centre + order], table_row * trig[j], rtol=0, atol=1e-13)
            if order:
                assert np.allclose(basis[centre - order], table_row * trig[j + 1], rtol=0, atol=1e-13)
    with pytest.raises(ValueError):
        m.zonal_factors(x, np.ones(count + 1))  # whole levels only


@pytest.mark.parametrize("top", [31, 100])
def test_legendre_fourier_reproduces_the_legendre_rows(top):
    # every row of legendre_orders, order m, is its coefficients over
    # cos(k theta) (even m) or sin(k theta) (odd m), k <= top, to 1e-13 of the
    # row's largest value. cos theta carries 26 bits, so the points' sin theta,
    # sqrt(1 - cos^2 theta), is exact to rounding, and cos/sin(k theta) are
    # taken in long double
    m = manifolds.Sphere2()
    t = np.round(np.random.default_rng(top).uniform(-1.0, 1.0, 2000) * 2**26) / 2**26
    t = np.concatenate([t, [1.0, -1.0, 1.0 - 2.0**-26]])
    theta = np.arccos(t.astype(np.longdouble))
    k = np.arange(top + 1, dtype=np.longdouble)[:, None]
    cos_k, sin_k = np.cos(k * theta).astype(float), np.sin(k[1:] * theta).astype(float)
    x = np.column_stack([np.sqrt(1.0 - t * t), np.zeros_like(t), t])
    coefficients = manifolds.legendre_fourier(top)
    assert len(coefficients) == top + 1
    for order, (table, a) in enumerate(zip(m.legendre_orders(x, top), coefficients)):
        assert a.shape == (top + 1 - order, top + 1 - order % 2) and not a.flags.writeable
        got = np.dot(a, sin_k if order % 2 else cos_k)
        assert np.all(np.abs(got - table).max(axis=1) <= 1e-13 * np.abs(table).max(axis=1)), order
    assert manifolds.legendre_fourier(top) is coefficients  # computed once for each top

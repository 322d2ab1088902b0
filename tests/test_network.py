import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from converge import manifolds, network
from converge.filters import constant_filter, exponential_filter, polynomial_filter, tent_filter
from converge.graph import build_laplacian
from converge.network import (
    NONLINEARITIES,
    NetworkSpec,
    _apply_bank,
    continuum_bytes,
    continuum_network,
    forward_continuum,
    forward_discrete,
    mnn_error,
)
from converge.spectral import EigenSystem, eigen_errors, gn_norm, smallest_eigenpairs


def single_filter_network(h, nonlinearity):
    """One layer, one input feature, one output feature."""
    return NetworkSpec((1, 1), (((h,),),), nonlinearity)


def filter_apply(h, eig, x):
    """h(L_n) x on the eigensystem's modes: a one-filter identity network."""
    return forward_discrete(single_filter_network(h, "identity"), eig, x)[0]


def run_continuum(net, manifold, coeffs, points):
    cont = continuum_network(net, manifold, coeffs)
    return forward_continuum(net, cont, manifolds.eigenbasis(manifold, points, coeffs.shape[1]))


@pytest.fixture(scope="module")
def circle_system():
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 128, seed=1)
    op = build_laplacian(cloud, m, 1.0)
    full = smallest_eigenpairs(op, K=128, tol=1e-7, method="dense")
    return m, cloud, full


def test_network_spec_validation():
    h = exponential_filter()
    with pytest.raises(ValueError):
        NetworkSpec(widths=(1,), filters=(), nonlinearity="abs")
    with pytest.raises(ValueError):
        NetworkSpec(widths=(1, 2), filters=(((h,),),), nonlinearity="abs")
    with pytest.raises(ValueError):
        NetworkSpec(widths=(1, 1), filters=(((h,),),), nonlinearity="tanh")
    net = NetworkSpec(widths=(1, 2), filters=(((h,), (h,)),), nonlinearity="abs")
    assert net.depth == 1


def test_filter_identity_full_spectrum(circle_system):
    _, _, full = circle_system
    x = np.random.default_rng(0).standard_normal(128)
    out = filter_apply(constant_filter(1.0), full, x)
    assert np.allclose(out, x, atol=1e-8)


def test_filter_on_eigenvector(circle_system):
    _, _, full = circle_system
    h = exponential_filter()
    phi2 = full.eigenvectors[:, 2]
    out = filter_apply(h, full, phi2)
    assert np.allclose(out, h.evaluate(full.eigenvalues)[2] * phi2, atol=1e-8)


def test_filter_truncation_is_projection(circle_system):
    _, _, full = circle_system
    trunc = EigenSystem(full.eigenvalues[:5], full.eigenvectors[:, :5])
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(128)
        out = filter_apply(constant_filter(1.0), trunc, x)
        assert gn_norm(out) <= gn_norm(x) + 1e-12


def test_filter_size_mismatch(circle_system):
    _, _, full = circle_system
    with pytest.raises(ValueError):
        filter_apply(constant_filter(1.0), full, np.ones(64))


def test_forward_multi_feature_matches_per_filter_sum(circle_system):
    # x_l^p = sigma(sum_q V h_pq(Lambda) V^T x_q / n), one filter at a time
    _, _, full = circle_system
    V, lam, n = full.eigenvectors[:, :20], full.eigenvalues[:20], full.n
    trunc = EigenSystem(lam, V)
    hs = [exponential_filter(), tent_filter(2.0), polynomial_filter([0.5, -0.2, 0.01])]
    filters = (
        ((hs[0],), (hs[1],)),
        ((hs[1], hs[2]), (hs[2], hs[0])),
    )
    net = NetworkSpec(widths=(1, 2, 2), filters=filters, nonlinearity="relu")
    x = np.random.default_rng(8).standard_normal((1, n))
    ref = x
    for bank in filters:
        ref = np.stack(
            [
                np.maximum(sum(V @ (h.evaluate(lam) * (V.T @ xq)) / n for h, xq in zip(row, ref)), 0)
                for row in bank
            ]
        )
    out = forward_discrete(net, trunc, x)
    assert out.shape == (2, n)
    assert np.allclose(out, ref, rtol=0, atol=1e-12)


def test_forward_zero_input(circle_system):
    _, _, full = circle_system
    for sigma in ("abs", "relu"):
        net = single_filter_network(exponential_filter(), sigma)
        out = forward_discrete(net, full, np.zeros((1, 128)))
        assert np.array_equal(out, np.zeros((1, 128)))


def test_forward_identity_network(circle_system):
    _, _, full = circle_system
    net = single_filter_network(constant_filter(1.0), "identity")
    x = np.random.default_rng(1).standard_normal((1, 128))
    out = forward_discrete(net, full, x)
    assert np.allclose(out, x, atol=1e-8)


def test_forward_contraction(circle_system):
    _, _, full = circle_system
    net = single_filter_network(exponential_filter(), "abs")
    x = np.random.default_rng(2).standard_normal((1, 128))
    out = forward_discrete(net, full, x)
    assert gn_norm(out[0]) <= gn_norm(x[0]) + 1e-10


def test_nonamplification_parseval(circle_system):
    _, _, full = circle_system
    rng = np.random.default_rng(4)
    for h in (exponential_filter(), constant_filter(1.0), tent_filter(3.0)):
        for _ in range(50):
            x = rng.standard_normal(128)
            out = filter_apply(h, full, x)
            assert gn_norm(out) <= gn_norm(x) + 1e-10


def test_sign_flip_invariance(circle_system):
    _, _, full = circle_system
    net = single_filter_network(exponential_filter(), "abs")
    x = np.random.default_rng(5).standard_normal((1, 128))
    base = forward_discrete(net, full, x)
    rng = np.random.default_rng(6)
    signs = np.where(rng.random(128) < 0.5, -1.0, 1.0)
    flipped = EigenSystem(full.eigenvalues, full.eigenvectors * signs)
    out = forward_discrete(net, flipped, x)
    assert np.allclose(out, base, atol=1e-10)


def test_nonexpansive_propagation(circle_system):
    _, _, full = circle_system
    h = exponential_filter()
    net = NetworkSpec(
        widths=(1, 2, 1),
        filters=(((h,), (h,)), ((h, h),)),
        nonlinearity="abs",
    )
    rng = np.random.default_rng(7)
    factor = 2 * 1  # prod of layer widths F_1 * F_2
    for _ in range(10):
        x = rng.standard_normal((1, 128))
        y = rng.standard_normal((1, 128))
        dx = forward_discrete(net, full, x) - forward_discrete(net, full, y)
        assert gn_norm(dx[0]) <= factor * gn_norm((x - y)[0]) + 1e-10


@settings(deadline=None, max_examples=200)
@given(
    a=st.floats(-50, 50, allow_nan=False),
    b=st.floats(-50, 50, allow_nan=False),
    name=st.sampled_from(["abs", "relu", "identity"]),
)
def test_nonlinearities_nonexpansive(a, b, name):
    sigma = NONLINEARITIES[name]
    assert abs(sigma(a) - sigma(b)) <= abs(a - b) + 1e-12


def test_continuum_single_layer_closed_form():
    m = manifolds.Sphere2()
    cloud = manifolds.sample_uniform(m, 500, seed=9)
    net = single_filter_network(exponential_filter(), "abs")
    coeffs = np.array([[0.0, 1.0]])  # f = phi_1, lambda_1 = 2
    out = run_continuum(net, m, coeffs, cloud)
    expected = np.abs(math.exp(-2.0) * manifolds.eigenbasis(m, cloud, 2)[:, 1])
    assert np.allclose(out[0], expected, atol=1e-12)


def test_continuum_identity_network():
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 200, seed=10)
    h = constant_filter(1.0)
    net = NetworkSpec(
        widths=(1, 1, 1), filters=(((h,),), ((h,),)), nonlinearity="identity"
    )
    coeffs = np.array([[0.5, -1.0, 2.0, 0.0]])
    out = run_continuum(net, m, coeffs, cloud)
    basis = manifolds.eigenbasis(m, cloud, 4)
    assert np.allclose(out[0], manifolds.evaluate_signal(coeffs[0], basis), atol=1e-10)


def test_continuum_zero_input():
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 50, seed=11)
    net = single_filter_network(exponential_filter(), "abs")
    out = run_continuum(net, m, np.zeros((1, 3)), cloud)
    assert np.array_equal(out, np.zeros((1, 50)))


def _at_width(call, width):
    """call on 3 modes of the circle, with a basis or eigenvalues of `width` modes."""
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 50, seed=11)
    basis = manifolds.eigenbasis(m, cloud, width)
    if call == "forward_continuum":
        net = single_filter_network(exponential_filter(), "abs")
        return forward_continuum(net, continuum_network(net, m, np.zeros((1, 3))), basis)
    if call == "evaluate_signal":
        return manifolds.evaluate_signal(np.zeros(3), basis)
    eig = EigenSystem(m.eigenvalues(3), manifolds.eigenbasis(m, cloud, 3))
    return eigen_errors(eig, m.eigenvalues(width), eig.eigenvectors)


@pytest.mark.parametrize("width", [2, 5])
@pytest.mark.parametrize("call", ["forward_continuum", "evaluate_signal", "eigen_errors"])
def test_another_mode_width_is_a_shape_error(call, width):
    # K is the coefficients' (or the eigensystem's) width: an array of modes
    # of another width is refused, not cut to fit
    assert _at_width(call, 3) is not None
    with pytest.raises(ValueError):
        _at_width(call, width)


def test_continuum_single_layer_matches_quadrature_bruteforce():
    # brute-force oracle for the spectral convolution: recover the filtered
    # coefficients by quadrature inner products, then evaluate
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 300, seed=12)
    lam = m.eigenvalues(5)
    h = exponential_filter()
    net = single_filter_network(h, "abs")
    alpha = np.array([0.3, 1.0, -0.5, 0.2, 0.7])
    out = run_continuum(net, m, alpha[None, :], cloud)

    grid, w = manifolds.quadrature_nodes(m, 0, m.quadrature_size)
    on_grid, at_cloud = manifolds.eigenbasis(m, grid, 5), manifolds.eigenbasis(m, cloud, 5)
    f_grid = sum(a * on_grid[:, i] for i, a in enumerate(alpha))
    filtered = np.zeros(len(cloud))
    for i in range(5):
        coeff = float(np.sum(w * f_grid * on_grid[:, i]))
        filtered += h.evaluate(lam)[i] * coeff * at_cloud[:, i]
    assert np.allclose(out[0], np.abs(filtered), atol=1e-6)


def test_continuum_two_layer_reexpansion():
    # hidden abs layer forces quadrature re-expansion; compare against an
    # explicit grid computation of the second layer
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 150, seed=13)
    k_cont = 33
    lam = m.eigenvalues(k_cont)
    h = exponential_filter()
    net = NetworkSpec(widths=(1, 1, 1), filters=(((h,),), ((h,),)), nonlinearity="abs")
    alpha = np.zeros(k_cont)
    alpha[1] = 1.0
    cont = continuum_network(net, m, alpha[None, :])
    at_cloud = manifolds.eigenbasis(m, cloud, k_cont)
    out = forward_continuum(net, cont, at_cloud)
    # |cos| has a 1/k^2 coefficient tail; 33 modes leave a small residual
    assert cont.quadrature_residuals and max(cont.quadrature_residuals) < 0.05

    grid, w = manifolds.quadrature_nodes(m, 0, m.quadrature_size)
    on_grid = manifolds.eigenbasis(m, grid, k_cont)
    mid = np.abs(math.exp(-1.0) * on_grid[:, 1])
    final = np.zeros(len(cloud))
    for i in range(k_cont):
        coeff = float(np.sum(w * mid * on_grid[:, i]))
        final += h.evaluate(lam)[i] * coeff * at_cloud[:, i]
    assert np.allclose(out[0], np.abs(final), atol=1e-4)


@pytest.mark.parametrize(
    "manifold, widths, nonlinearity",
    [(manifolds.Sphere2(), (1, 1, 1), "abs"), (manifolds.Circle(), (1, 2, 2, 1), "relu")],
)
def test_continuum_hidden_layers_split(manifold, widths, nonlinearity):
    # the sample-independent part holds one diagnostic per hidden feature and
    # the last layer's filtered coefficients, one row per output feature
    cloud = manifolds.sample_uniform(manifold, 200, seed=14)
    bank = [exponential_filter(), tent_filter(2.0), constant_filter(1.0)]
    filters = tuple(
        tuple(tuple(bank[(l + p + q) % 3] for q in range(w_in)) for p in range(w_out))
        for l, (w_in, w_out) in enumerate(zip(widths, widths[1:]))
    )
    net = NetworkSpec(widths=widths, filters=filters, nonlinearity=nonlinearity)
    coeffs = np.random.default_rng(15).normal(size=(1, 10))
    cont = continuum_network(net, manifold, coeffs)
    hidden = sum(widths[1:-1])
    assert len(cont.quadrature_residuals) == hidden
    assert len(cont.feature_l2_norms) == len(cont.feature_sup_norms) == hidden
    assert cont.coefficients.shape == (widths[-1], 10)
    basis = manifolds.eigenbasis(manifold, cloud, 10)
    assert forward_continuum(net, cont, basis).shape == (widths[-1], 200)


def _mixed_network(widths, nonlinearity):
    bank = [exponential_filter(), polynomial_filter([0.5, -0.1]), constant_filter(1.0)]
    filters = tuple(
        tuple(tuple(bank[(l + p + q) % 3] for q in range(w_in)) for p in range(w_out))
        for l, (w_in, w_out) in enumerate(zip(widths, widths[1:]))
    )
    return NetworkSpec(widths=widths, filters=filters, nonlinearity=nonlinearity)


def _one_shot(net, manifold, coeffs):
    """The continuum network on the whole quadrature grid's basis at once:
    residuals straight from the grid values, no Gram matrix."""
    eigenvalues = manifold.eigenvalues(coeffs.shape[1])
    grid, w = manifolds.quadrature_nodes(manifold, 0, manifold.quadrature_size)
    basis = manifolds.eigenbasis(manifold, grid, coeffs.shape[1])
    residuals, l2_norms, sup_norms = [], [], []
    for bank in net.filters[:-1]:
        filtered = _apply_bank(bank, eigenvalues, coeffs)
        values = net.sigma(filtered @ basis.T)
        if net.nonlinearity == "identity":
            coeffs = filtered
            l2_norms += [np.linalg.norm(c) for c in coeffs]
        else:
            coeffs = (values * w) @ basis
            for g, r in zip(values, coeffs @ basis.T):
                residuals.append(np.sqrt(np.sum(w * (g - r) ** 2)))
                l2_norms.append(np.sqrt(np.sum(w * g**2)))
        sup_norms += [np.max(np.abs(g)) for g in values]
    return _apply_bank(net.filters[-1], eigenvalues, coeffs), residuals, l2_norms, sup_norms


@pytest.mark.parametrize("widths", [(1, 1, 1), (1, 2, 2, 1)])
@pytest.mark.parametrize("nonlinearity", ["abs", "relu", "identity"])
@pytest.mark.parametrize("manifold", manifolds.MODELS.values(), ids=manifolds.MODELS.keys())
def test_streamed_pass_matches_the_one_shot_grid(manifold, nonlinearity, widths):
    net = _mixed_network(widths, nonlinearity)
    coeffs = np.random.default_rng(15).normal(size=(1, 10))
    coeffs[0, 0] = 0.0  # a signed input: sigma is not the identity on it
    cont = continuum_network(net, manifold, coeffs)
    last, residuals, l2_norms, sup_norms = _one_shot(net, manifold, coeffs)
    assert np.abs(cont.coefficients - last).max() <= 1e-13 * np.abs(last).max()
    assert len(cont.quadrature_residuals) == len(residuals)
    assert np.allclose(cont.quadrature_residuals, residuals, rtol=0, atol=1e-10)
    assert np.allclose(cont.feature_l2_norms, l2_norms, rtol=1e-13, atol=0)
    assert np.allclose(cont.feature_sup_norms, sup_norms, rtol=1e-13, atol=0)


def test_residual_of_a_layer_sigma_leaves_bandlimited():
    # abs of a positive feature is the feature: the residual is the grid's own
    # quadrature error, resolved below the sqrt(eps) of a residual taken about 0
    m = manifolds.Sphere2()
    net = _mixed_network((1, 1, 1), "abs")
    coeffs = np.array([[3.0, 0.5, -0.4, 0.2, 0.0, 0.1, 0.0, 0.3, -0.2, 0.1]])
    cont = continuum_network(net, m, coeffs)
    _, residuals, _, _ = _one_shot(net, m, coeffs)
    assert 1e-12 < residuals[0] < 1e-6
    assert abs(cont.quadrature_residuals[0] - residuals[0]) <= 1e-3 * residuals[0]


@pytest.mark.parametrize("k", [10, 64])
@pytest.mark.parametrize("widths", [(1, 1, 1), (1, 2, 2, 1)])
@pytest.mark.parametrize("manifold", manifolds.MODELS.values(), ids=manifolds.MODELS.keys())
def test_setup_peak_is_continuum_bytes(manifold, widths, k):
    # continuum_bytes is the streamed passes' own peak, to within 32 rows of a
    # chunk, and does not grow with the grid
    net = _mixed_network(widths, "abs")
    coeffs = np.random.default_rng(16).normal(size=(1, k))
    continuum_network(net, manifold, coeffs)
    tracemalloc.start()
    try:
        continuum_network(net, manifold, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = continuum_bytes(net, k)
    assert bound - 32 * 8 * network.QUADRATURE_CHUNK <= peak <= bound
    assert bound < 8 * manifold.quadrature_size * k
    assert continuum_bytes(_mixed_network((1, 1), "abs"), k) == 0


def test_mnn_error_contract():
    a = np.ones((1, 100))
    assert mnn_error(a, a) == 0.0
    b = a + 0.5
    assert mnn_error(b, a) == pytest.approx(0.5)
    two_a = np.vstack([np.zeros(100), np.zeros(100)])
    two_b = np.vstack([np.full(100, 0.3), np.full(100, 0.4)])
    assert mnn_error(two_a, two_b) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        mnn_error(np.ones((1, 10)), np.ones((2, 10)))

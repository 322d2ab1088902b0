import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from converge import manifolds
from converge.filters import constant_filter, exponential_filter, polynomial_filter, tent_filter
from converge.graph import build_laplacian
from converge.network import (
    NONLINEARITIES,
    NetworkSpec,
    continuum_network,
    forward_continuum,
    forward_discrete,
    mnn_error,
)
from converge.spectral import EigenSystem, gn_norm, smallest_eigenpairs


def single_filter_network(h, nonlinearity):
    """One layer, one input feature, one output feature."""
    return NetworkSpec((1, 1), (((h,),),), nonlinearity)


def filter_apply(h, eig, x):
    """h(L_n) x on the eigensystem's modes: a one-filter identity network."""
    return forward_discrete(single_filter_network(h, "identity"), eig, x)[0]


def run_continuum(net, manifold, lam, coeffs, points):
    cont = continuum_network(net, manifold, lam, coeffs)
    return forward_continuum(net, cont, manifolds.eigenbasis(manifold, points, len(lam)))


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
    for h in (exponential_filter(), constant_filter(1.0), tent_filter()):
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
    lam = m.eigenvalues(2)
    net = single_filter_network(exponential_filter(), "abs")
    coeffs = np.array([[0.0, 1.0]])  # f = phi_1, lambda_1 = 2
    out = run_continuum(net, m, lam, coeffs, cloud)
    expected = np.abs(math.exp(-2.0) * manifolds.eigenbasis(m, cloud, 2)[:, 1])
    assert np.allclose(out[0], expected, atol=1e-12)


def test_continuum_identity_network():
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 200, seed=10)
    lam = m.eigenvalues(4)
    h = constant_filter(1.0)
    net = NetworkSpec(
        widths=(1, 1, 1), filters=(((h,),), ((h,),)), nonlinearity="identity"
    )
    coeffs = np.array([[0.5, -1.0, 2.0, 0.0]])
    out = run_continuum(net, m, lam, coeffs, cloud)
    basis = manifolds.eigenbasis(m, cloud, 4)
    assert np.allclose(out[0], manifolds.evaluate_signal(coeffs[0], basis), atol=1e-10)


def test_continuum_zero_input():
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 50, seed=11)
    lam = m.eigenvalues(3)
    net = single_filter_network(exponential_filter(), "abs")
    out = run_continuum(net, m, lam, np.zeros((1, 3)), cloud)
    assert np.array_equal(out, np.zeros((1, 50)))


def test_continuum_bandwidth_check():
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 50, seed=11)
    lam = m.eigenvalues(3)
    net = single_filter_network(exponential_filter(), "abs")
    with pytest.raises(ValueError):
        run_continuum(net, m, lam, np.zeros((1, 5)), cloud)


def test_continuum_single_layer_matches_quadrature_bruteforce():
    # brute-force oracle for the spectral convolution: recover the filtered
    # coefficients by quadrature inner products, then evaluate
    m = manifolds.Circle()
    cloud = manifolds.sample_uniform(m, 300, seed=12)
    lam = m.eigenvalues(5)
    h = exponential_filter()
    net = single_filter_network(h, "abs")
    alpha = np.array([0.3, 1.0, -0.5, 0.2, 0.7])
    out = run_continuum(net, m, lam, alpha[None, :], cloud)

    grid, w = manifolds.quadrature_nodes(m)
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
    cont = continuum_network(net, m, lam, alpha[None, :])
    at_cloud = manifolds.eigenbasis(m, cloud, k_cont)
    out = forward_continuum(net, cont, at_cloud)
    # |cos| has a 1/k^2 coefficient tail; 33 modes leave a small residual
    assert cont.quadrature_residuals and max(cont.quadrature_residuals) < 0.05

    grid, w = manifolds.quadrature_nodes(m)
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
    lam = manifold.eigenvalues(10)
    bank = [exponential_filter(), tent_filter(2.0), constant_filter(1.0)]
    filters = tuple(
        tuple(tuple(bank[(l + p + q) % 3] for q in range(w_in)) for p in range(w_out))
        for l, (w_in, w_out) in enumerate(zip(widths, widths[1:]))
    )
    net = NetworkSpec(widths=widths, filters=filters, nonlinearity=nonlinearity)
    coeffs = np.random.default_rng(15).normal(size=(1, 10))
    cont = continuum_network(net, manifold, lam, coeffs)
    hidden = sum(widths[1:-1])
    assert len(cont.quadrature_residuals) == hidden
    assert len(cont.feature_l2_norms) == len(cont.feature_sup_norms) == hidden
    assert cont.coefficients.shape == (widths[-1], 10)
    basis = manifolds.eigenbasis(manifold, cloud, 10)
    assert forward_continuum(net, cont, basis).shape == (widths[-1], 200)


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

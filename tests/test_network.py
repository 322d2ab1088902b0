import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from converge import manifolds
from converge.filters import exponential_filter, identity_filter, tent_filter
from converge.graph import build_laplacian, calibrated_scheme
from converge.network import (
    NONLINEARITIES,
    ContinuumOutput,
    NetworkSpec,
    continuum_hidden_layers,
    filter_apply_discrete,
    forward_continuum,
    forward_discrete,
    mnn_error,
    single_filter_network,
)
from converge.spectral import gn_norm, smallest_eigenpairs


@pytest.fixture(scope="module")
def circle_system():
    m = manifolds.circle()
    cloud = manifolds.sample_uniform(m, 128, seed=1)
    op = build_laplacian(cloud, calibrated_scheme("gaussian", m, 128))
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
    out = filter_apply_discrete(identity_filter(), full, x)
    assert np.allclose(out, x, atol=1e-8)


def test_filter_on_eigenvector(circle_system):
    _, _, full = circle_system
    h = exponential_filter()
    phi2 = full.eigenvectors[:, 2]
    out = filter_apply_discrete(h, full, phi2)
    assert np.allclose(out, h.evaluate(full.eigenvalues[2]) * phi2, atol=1e-8)


def test_filter_truncation_is_projection(circle_system):
    _, _, full = circle_system
    from converge.spectral import EigenSystem

    trunc = EigenSystem(full.eigenvalues[:5], full.eigenvectors[:, :5])
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(128)
        out = filter_apply_discrete(identity_filter(), trunc, x)
        assert gn_norm(out) <= gn_norm(x) + 1e-12


def test_filter_size_mismatch(circle_system):
    _, _, full = circle_system
    with pytest.raises(ValueError):
        filter_apply_discrete(identity_filter(), full, np.ones(64))


def test_forward_zero_input(circle_system):
    _, _, full = circle_system
    for sigma in ("abs", "relu"):
        net = single_filter_network(exponential_filter(), sigma)
        out = forward_discrete(net, full, np.zeros((1, 128)))
        assert np.array_equal(out, np.zeros((1, 128)))


def test_forward_identity_network(circle_system):
    _, _, full = circle_system
    net = single_filter_network(identity_filter(), "identity")
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
    for h in (exponential_filter(), identity_filter(), tent_filter()):
        for _ in range(50):
            x = rng.standard_normal(128)
            out = filter_apply_discrete(h, full, x)
            assert gn_norm(out) <= gn_norm(x) + 1e-10


def test_sign_flip_invariance(circle_system):
    _, _, full = circle_system
    from converge.spectral import EigenSystem

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
    m = manifolds.sphere2()
    cloud = manifolds.sample_uniform(m, 500, seed=9)
    pairs = manifolds.continuum_eigenpairs(m, 2)
    net = single_filter_network(exponential_filter(), "abs")
    coeffs = np.array([[0.0, 1.0]])  # f = phi_1, lambda_1 = 2
    out = forward_continuum(net, m, pairs, coeffs, cloud)
    expected = np.abs(math.exp(-2.0) * pairs[1].evaluate(cloud.points))
    assert np.allclose(out.values[0], expected, atol=1e-12)


def test_continuum_identity_network():
    m = manifolds.circle()
    cloud = manifolds.sample_uniform(m, 200, seed=10)
    pairs = manifolds.continuum_eigenpairs(m, 4)
    h = identity_filter()
    net = NetworkSpec(
        widths=(1, 1, 1), filters=(((h,),), ((h,),)), nonlinearity="identity"
    )
    coeffs = np.array([[0.5, -1.0, 2.0, 0.0]])
    sig = manifolds.BandlimitedSignal(coeffs[0])
    out = forward_continuum(net, m, pairs, coeffs, cloud)
    assert np.allclose(out.values[0], manifolds.evaluate_signal(sig, m, cloud), atol=1e-10)


def test_continuum_zero_input():
    m = manifolds.circle()
    cloud = manifolds.sample_uniform(m, 50, seed=11)
    pairs = manifolds.continuum_eigenpairs(m, 3)
    net = single_filter_network(exponential_filter(), "abs")
    out = forward_continuum(net, m, pairs, np.zeros((1, 3)), cloud)
    assert np.array_equal(out.values, np.zeros((1, 50)))


def test_continuum_bandwidth_check():
    m = manifolds.circle()
    cloud = manifolds.sample_uniform(m, 50, seed=11)
    pairs = manifolds.continuum_eigenpairs(m, 3)
    net = single_filter_network(exponential_filter(), "abs")
    with pytest.raises(ValueError):
        forward_continuum(net, m, pairs, np.zeros((1, 5)), cloud)


def test_continuum_single_layer_matches_quadrature_bruteforce():
    # brute-force oracle for the spectral convolution: recover the filtered
    # coefficients by quadrature inner products, then evaluate
    m = manifolds.circle()
    cloud = manifolds.sample_uniform(m, 300, seed=12)
    pairs = manifolds.continuum_eigenpairs(m, 5)
    h = exponential_filter()
    net = single_filter_network(h, "abs")
    alpha = np.array([0.3, 1.0, -0.5, 0.2, 0.7])
    out = forward_continuum(net, m, pairs, alpha[None, :], cloud)

    grid, w = manifolds.quadrature_nodes(m)
    f_grid = sum(a * p.evaluate(grid) for a, p in zip(alpha, pairs))
    filtered = np.zeros(cloud.n)
    for p in pairs:
        coeff = float(np.sum(w * f_grid * p.evaluate(grid)))
        filtered += h.evaluate(p.eigenvalue) * coeff * p.evaluate(cloud.points)
    assert np.allclose(out.values[0], np.abs(filtered), atol=1e-6)


def test_continuum_two_layer_reexpansion():
    # hidden abs layer forces quadrature re-expansion; compare against an
    # explicit grid computation of the second layer
    m = manifolds.circle()
    cloud = manifolds.sample_uniform(m, 150, seed=13)
    k_cont = 33
    pairs = manifolds.continuum_eigenpairs(m, k_cont)
    h = exponential_filter()
    net = NetworkSpec(widths=(1, 1, 1), filters=(((h,),), ((h,),)), nonlinearity="abs")
    alpha = np.zeros(k_cont)
    alpha[1] = 1.0
    out = forward_continuum(net, m, pairs, alpha[None, :], cloud, reexpansion_modes=k_cont)
    # |cos| has a 1/k^2 coefficient tail; 33 modes leave a small residual
    assert out.quadrature_residuals and max(out.quadrature_residuals) < 0.05

    grid, w = manifolds.quadrature_nodes(m)
    mid = np.abs(math.exp(-1.0) * pairs[1].evaluate(grid))
    final = np.zeros(cloud.n)
    for p in pairs:
        coeff = float(np.sum(w * mid * p.evaluate(grid)))
        final += h.evaluate(p.eigenvalue) * coeff * p.evaluate(cloud.points)
    assert np.allclose(out.values[0], np.abs(final), atol=1e-4)


@pytest.mark.parametrize(
    "manifold, widths, nonlinearity",
    [(manifolds.sphere2(), (1, 1, 1), "abs"), (manifolds.circle(), (1, 2, 2, 1), "relu")],
)
def test_continuum_hidden_layers_split(manifold, widths, nonlinearity):
    # hidden layers once, then the one-layer tail at the points, must equal
    # the whole network at the points, bit for bit
    cloud = manifolds.sample_uniform(manifold, 200, seed=14)
    pairs = manifolds.continuum_eigenpairs(manifold, 10)
    bank = [exponential_filter(), tent_filter(2.0), identity_filter()]
    filters = tuple(
        tuple(tuple(bank[(l + p + q) % 3] for q in range(w_in)) for p in range(w_out))
        for l, (w_in, w_out) in enumerate(zip(widths, widths[1:]))
    )
    net = NetworkSpec(widths=widths, filters=filters, nonlinearity=nonlinearity)
    coeffs = np.random.default_rng(15).normal(size=(1, 10))
    whole = forward_continuum(net, manifold, pairs, coeffs, cloud)
    tail, tail_coeffs, hidden = continuum_hidden_layers(net, manifold, pairs, coeffs)
    assert tail.depth == 1 and tail.widths == widths[-2:]
    assert hidden.values is None
    split = forward_continuum(tail, manifold, pairs, tail_coeffs, cloud)
    assert np.array_equal(split.values, whole.values)
    assert hidden.quadrature_residuals == whole.quadrature_residuals
    assert len(hidden.quadrature_residuals) == sum(widths[1:-1])
    assert hidden.feature_l2_norms + split.feature_l2_norms == whole.feature_l2_norms
    assert hidden.feature_sup_norms + split.feature_sup_norms == whole.feature_sup_norms


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
    assert mnn_error(a, ContinuumOutput(values=a.copy())) == 0.0

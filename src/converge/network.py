"""Manifold neural network forward passes, discrete and continuum.

A layer is one step on both sides: project each input feature to spectral
coefficients, apply the filter bank diagonally (`_apply_bank`), synthesize,
apply sigma. The discrete pass runs on a graph-Laplacian EigenSystem; the
continuum pass on the manifold model's closed-form eigenbasis and eigenvalues
(`manifolds.Manifold.eigenvalues`), exact for bandlimited inputs through the
first nonlinearity. Everything continuum up to the last nonlinearity needs no
sample points: `continuum_network` computes it once per experiment (the
harness runs it while the calibration gate solves), its hidden layers
re-expanded onto a truncated eigenbasis by quadrature, and
`forward_continuum` synthesizes its last coefficients at the eigenbasis of
the sample points and applies sigma. The two passes are compared by summing
per-feature G_n norms of the difference at the sample points.

The quadrature grid is never held whole: each hidden layer is one pass over
it in chunks of QUADRATURE_CHUNK nodes, which accumulates the projection,
the squares and the sup chunk by chunk (`_quadrature_pass`), and the first
pass the grid's Gram matrix, from which the residual follows. So the
setup's peak, `continuum_bytes`, is a few rows of the chunk per mode and
feature, whatever the grid's size.

Truncation contract: both sides keep K modes at every layer, K the signal's
width (10 modes on `sphere_rate.json`; a config lists zero coefficients to
take more). The discrete side projects onto the eigensystem's K modes, after
every nonlinearity too; the continuum side takes K from its coefficients and
re-expands each hidden layer onto the manifold's first K modes, dropping what
its quadrature residual measures. No array of modes is cut to fit another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import SpectralFilter
from .manifolds import Manifold, eigenbasis, quadrature_nodes
from .spectral import EigenSystem, gn_norm

QUADRATURE_CHUNK = 1 << 13  # quadrature nodes a streamed pass evaluates at once

NONLINEARITIES = {
    "abs": np.abs,
    "relu": lambda x: np.maximum(x, 0.0),
    "identity": lambda x: x,
}


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths F_0..F_L, a complete filter bank, and a nonlinearity.

    filters[l][p][q] is the filter feeding output feature p of layer l+1
    from input feature q; the bank must contain exactly F_{l+1} x F_l
    filters per layer.
    """

    widths: tuple[int, ...]
    filters: tuple[tuple[tuple[SpectralFilter, ...], ...], ...]
    nonlinearity: str = "abs"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("need at least one layer (two width entries)")
        if any(w < 1 for w in self.widths):
            raise ValueError("widths must be positive")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"unknown nonlinearity: {self.nonlinearity!r}")
        if len(self.filters) != self.depth:
            raise ValueError(
                f"filter bank has {len(self.filters)} layers, expected {self.depth}"
            )
        for l, bank in enumerate(self.filters):
            if len(bank) != self.widths[l + 1] or any(
                len(row) != self.widths[l] for row in bank
            ):
                raise ValueError(f"incomplete filter bank at layer {l + 1}")

    @property
    def depth(self) -> int:
        return len(self.widths) - 1

    @property
    def sigma(self):
        return NONLINEARITIES[self.nonlinearity]


def _apply_bank(bank, eigenvalues, coeffs):
    """Filtered coefficients: row p is sum_q h^pq(lambda) * coeffs[q]."""
    return np.stack([sum(h.evaluate(eigenvalues) * c for h, c in zip(row, coeffs)) for row in bank])


def forward_discrete(net: NetworkSpec, eig: EigenSystem, x0: np.ndarray) -> np.ndarray:
    """Run the discretized network: x_l^p = sigma(sum_q h_l^pq(L_n) x_{l-1}^q).

    x0 has shape (F_0, n); the result has shape (F_L, n). A layer projects
    each input feature onto the eigensystem's K modes, <x_q, phi_i^n>_{G_n},
    filters the coefficients with the discrete eigenvalues, and synthesizes
    each output feature once.
    """
    x = np.atleast_2d(np.asarray(x0, dtype=float))
    if x.shape != (net.widths[0], eig.n):
        raise ValueError(f"input has shape {x.shape}, expected {(net.widths[0], eig.n)}")
    V = eig.eigenvectors
    for bank in net.filters:
        coeffs = np.stack([(V.T @ xq) / eig.n for xq in x])
        x = np.stack([net.sigma(V @ f) for f in _apply_bank(bank, eig.eigenvalues, coeffs)])
    return x


@dataclass(frozen=True)
class ContinuumNetwork:
    """The continuum network up to its last nonlinearity, with hidden-layer diagnostics."""

    coefficients: np.ndarray  # (F_L, K): the last layer's filtered coefficients
    quadrature_residuals: tuple[float, ...]
    feature_l2_norms: tuple[float, ...]
    feature_sup_norms: tuple[float, ...]


def continuum_bytes(net: NetworkSpec, k: int) -> int:
    """Peak bytes of `continuum_network` at k modes, zero without a hidden
    layer: in rows of QUADRATURE_CHUNK, 2k for a chunk's basis and its
    weighted copy, three a hidden feature (f, sigma(f) and their difference)
    and 16 for the chunk's nodes and weights (`eigenbasis`' own working rows,
    about 2 sqrt(k) + 8 on the sphere, come before the weighted copy and fit
    in its k); plus 16 k^2 for the Gram matrix and a chunk's term of it. No
    term grows with the grid's quadrature_size."""
    if net.depth == 1:
        return 0
    return 8 * (QUADRATURE_CHUNK * (2 * k + 3 * max(net.widths[1:-1]) + 16) + 2 * k * k)


def _quadrature_pass(sigma, manifold: Manifold, filtered: np.ndarray, gram: np.ndarray | None):
    """One pass over the quadrature grid, QUADRATURE_CHUNK nodes at a time, for
    the features f = filtered B^T, B the grid's eigenbasis, and g = sigma(f).

    With w the weights and e = g - f what sigma changes, returns the
    projections sum_j w_j g(x_j) B_j and sum_j w_j e(x_j) B_j (features, k);
    per feature sum w g^2, sum w e^2 and max |g|; and the Gram matrix
    sum_j w_j B_j^T B_j, accumulated here where `gram` is None and returned as
    given otherwise: it depends on the grid alone.
    """
    features, k = filtered.shape
    projection, changed = np.zeros((features, k)), np.zeros((features, k))
    squares, change_squares, sups = np.zeros(features), np.zeros(features), np.zeros(features)
    build = gram is None
    if build:
        gram = np.zeros((k, k))
    size = manifold.quadrature_size
    for start in range(0, size, QUADRATURE_CHUNK):
        nodes, weights = quadrature_nodes(manifold, start, min(start + QUADRATURE_CHUNK, size))
        basis = eigenbasis(manifold, nodes, k)
        del nodes
        weighted = basis * weights[:, None]
        if build:
            gram += np.dot(basis.T, weighted)
        before = np.dot(filtered, basis.T)
        del basis
        values = sigma(before)
        change = values - before
        del before
        projection += np.dot(values, weighted)
        changed += np.dot(change, weighted)
        squares += np.einsum("fj,fj,j->f", values, values, weights)
        change_squares += np.einsum("fj,fj,j->f", change, change, weights)
        np.maximum(sups, np.abs(values).max(axis=1), out=sups)
        del weighted, values, change  # before the next chunk's basis
    return projection, changed, squares, change_squares, sups, gram


def continuum_network(net: NetworkSpec, manifold: Manifold, coefficients: np.ndarray) -> ContinuumNetwork:
    """Every continuum filter bank, and every nonlinearity but the last: no sample points.

    coefficients has shape (F_0, K): each input feature is bandlimited in the
    manifold's first K modes, which the filters act on diagonally with
    `manifold.eigenvalues(K)`. A hidden layer is one streamed pass over the
    quadrature grid (`_quadrature_pass`). A nonlinear layer's features
    g = sigma(f), f = q B with q the filtered coefficients, are re-expanded
    onto the same K modes, p = sum w g B, and the dropped mass is the
    quadrature residual ||g - p B||_w. The same pass gives it: with
    e = g - f, u = sum w e B and G the grid's Gram matrix, p - q is
    d = u + q (G - I) and the residual is sqrt(sum w e^2 - 2 d.u + d^T G d).
    Taken about q, not 0, its cancellation is relative to what sigma changes,
    not to g: a layer that sigma leaves bandlimited reads its residual
    |d|_G = |q (G - I)|_G, the grid's own error, to rounding. The hidden
    layers' residuals and norms are recorded in order.
    """
    coeffs = np.atleast_2d(np.asarray(coefficients, dtype=float))
    if coeffs.shape[0] != net.widths[0]:
        raise ValueError(f"input has {coeffs.shape[0]} features, expected {net.widths[0]}")
    k = coeffs.shape[1]
    eigenvalues = manifold.eigenvalues(k)
    residuals, l2_norms, sup_norms = [], [], []
    gram = None
    for bank in net.filters[:-1]:
        filtered = _apply_bank(bank, eigenvalues, coeffs)
        projection, changed, squares, change_squares, sups, gram = _quadrature_pass(
            net.sigma, manifold, filtered, gram
        )
        if net.nonlinearity == "identity":
            coeffs = filtered  # still bandlimited, nothing to re-expand
            l2_norms.extend(float(np.linalg.norm(c)) for c in coeffs)
        else:
            coeffs = projection
            shifts = changed + np.dot(filtered, gram - np.eye(k))  # d = p - q, row by row
            for d, u, e2, s in zip(shifts, changed, change_squares, squares):
                residuals.append(math.sqrt(max(e2 - 2.0 * np.dot(d, u) + d @ gram @ d, 0.0)))
                l2_norms.append(math.sqrt(s))
        sup_norms.extend(float(v) for v in sups)
    return ContinuumNetwork(
        coefficients=_apply_bank(net.filters[-1], eigenvalues, coeffs),
        quadrature_residuals=tuple(residuals),
        feature_l2_norms=tuple(l2_norms),
        feature_sup_norms=tuple(sup_norms),
    )


def forward_continuum(net: NetworkSpec, cont: ContinuumNetwork, basis: np.ndarray) -> np.ndarray:
    """Exact continuum network at the sample points (P_n of Eq. output), shape (F_L, n).

    basis is the `eigenbasis` at the points, (n, K), as wide as the
    coefficients. The last nonlinearity is applied pointwise, which is exact.
    """
    return net.sigma(cont.coefficients @ basis.T)


def mnn_error(discrete_out: np.ndarray, continuum_out: np.ndarray) -> float:
    """Sum over output features of ||x_L^q - P_n f_L^q||_{G_n}."""
    disc = np.atleast_2d(np.asarray(discrete_out, dtype=float))
    cont = np.atleast_2d(np.asarray(continuum_out, dtype=float))
    if disc.shape != cont.shape:
        raise ValueError(f"shape mismatch: {disc.shape} vs {cont.shape}")
    return float(sum(gn_norm(d - c) for d, c in zip(disc, cont)))

"""Manifold neural network forward passes, discrete and continuum.

A layer is one step on both sides: project each input feature to spectral
coefficients, apply the filter bank diagonally (`_apply_bank`), synthesize,
apply sigma. The discrete pass runs on a graph-Laplacian EigenSystem; the
continuum pass on the manifold model's closed-form eigenbasis and eigenvalues
(`manifolds.Manifold.eigenvalues`), exact for bandlimited inputs through the
first nonlinearity. Everything continuum up to the last nonlinearity needs no
sample points: `continuum_network` computes it once per experiment (the
harness runs it while the calibration gate solves), its hidden layers on a
quadrature grid re-expanded onto a truncated eigenbasis, and
`forward_continuum` synthesizes its last coefficients at the eigenbasis of
the sample points and applies sigma. The two passes are compared by summing
per-feature G_n norms of the difference at the sample points.

Truncation contract: both sides keep K modes at every layer, K the signal's
width (10 modes on `sphere_rate.json`; a config lists zero coefficients to
take more). The discrete side projects onto the eigensystem's K modes, after
every nonlinearity too. The continuum side re-expands each hidden layer onto
len(eigenvalues) = K modes. Modes a hidden layer drops are what its
quadrature residual measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import SpectralFilter
from .manifolds import Manifold, eigenbasis, quadrature_nodes
from .spectral import EigenSystem, gn_norm

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
    lam = eigenvalues[: coeffs.shape[1]]
    return np.stack(
        [sum(row[q].evaluate(lam) * coeffs[q] for q in range(len(row))) for row in bank]
    )


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

    coefficients: np.ndarray  # (F_L, k): the last layer's filtered coefficients
    quadrature_residuals: tuple[float, ...]
    feature_l2_norms: tuple[float, ...]
    feature_sup_norms: tuple[float, ...]


def continuum_network(
    net: NetworkSpec,
    manifold: Manifold,
    eigenvalues: np.ndarray,
    coefficients: np.ndarray,
) -> ContinuumNetwork:
    """Every continuum filter bank, and every nonlinearity but the last: no sample points.

    coefficients has shape (F_0, kappa+1): each input feature is bandlimited
    in the manifold's first modes, and eigenvalues[i] is the eigenvalue of
    mode i. Filters act diagonally on coefficients with the continuum
    eigenvalues. A nonlinear hidden layer is re-expanded onto the first
    len(eigenvalues) modes by quadrature; the dropped mass is its quadrature
    residual. The hidden layers' residuals and norms are recorded in order.
    """
    coeffs = np.atleast_2d(np.asarray(coefficients, dtype=float))
    if coeffs.shape[0] != net.widths[0]:
        raise ValueError(f"input has {coeffs.shape[0]} features, expected {net.widths[0]}")
    if coeffs.shape[1] > len(eigenvalues):
        raise ValueError(
            f"bandwidth {coeffs.shape[1] - 1} exceeds the {len(eigenvalues)} available modes"
        )
    residuals, l2_norms, sup_norms = [], [], []
    if net.depth > 1:
        grid, grid_w = quadrature_nodes(manifold)
        # every layer's input has at most k coefficients: the signal's or k
        k = len(eigenvalues)
        grid_basis = eigenbasis(manifold, grid, k)
    for bank in net.filters[:-1]:
        filtered = _apply_bank(bank, eigenvalues, coeffs)
        grid_vals = net.sigma(filtered @ grid_basis[:, : coeffs.shape[1]].T)
        if net.nonlinearity == "identity":
            coeffs = filtered  # still bandlimited, nothing to re-expand
            l2_norms.extend(float(np.linalg.norm(c)) for c in coeffs)
        else:
            coeffs = (grid_vals * grid_w) @ grid_basis[:, :k]
            recon = coeffs @ grid_basis[:, :k].T
            for gv, rv in zip(grid_vals, recon):
                residuals.append(float(np.sqrt(np.sum(grid_w * (gv - rv) ** 2))))
                l2_norms.append(float(np.sqrt(np.sum(grid_w * gv**2))))
        sup_norms.extend(float(np.max(np.abs(gv))) for gv in grid_vals)
    return ContinuumNetwork(
        coefficients=_apply_bank(net.filters[-1], eigenvalues, coeffs),
        quadrature_residuals=tuple(residuals),
        feature_l2_norms=tuple(l2_norms),
        feature_sup_norms=tuple(sup_norms),
    )


def forward_continuum(net: NetworkSpec, cont: ContinuumNetwork, basis: np.ndarray) -> np.ndarray:
    """Exact continuum network at the sample points (P_n of Eq. output), shape (F_L, n).

    basis is the `eigenbasis` at the points, at least as wide as the
    coefficients. The last nonlinearity is applied pointwise, which is exact.
    """
    k = cont.coefficients.shape[1]
    return net.sigma(cont.coefficients @ basis[:, :k].T)


def mnn_error(discrete_out: np.ndarray, continuum_out: np.ndarray) -> float:
    """Sum over output features of ||x_L^q - P_n f_L^q||_{G_n}."""
    disc = np.atleast_2d(np.asarray(discrete_out, dtype=float))
    cont = np.atleast_2d(np.asarray(continuum_out, dtype=float))
    if disc.shape != cont.shape:
        raise ValueError(f"shape mismatch: {disc.shape} vs {cont.shape}")
    return float(sum(gn_norm(d - c) for d, c in zip(disc, cont)))

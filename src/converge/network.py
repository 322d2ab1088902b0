"""Manifold neural network forward passes, discrete and continuum.

The discrete pass runs on a graph-Laplacian EigenSystem; the continuum pass
runs on the manifold model's closed-form eigenbasis and eigenvalues
(`manifolds.Manifold.eigenvalues`) and is exact for bandlimited inputs
through the first nonlinearity. The continuum hidden layers of deeper
networks run on a quadrature grid, re-expanded onto a truncated eigenbasis,
and need no sample points: `continuum_hidden_layers` computes them once per
experiment (the harness runs it beside the calibration solve), and
`forward_continuum` on the one-layer tail it returns evaluates the exact
last layer at any (n, D) point array. Both evaluate the eigenbasis with one
`manifolds.eigenbasis` call per point set. The two passes are compared by
summing per-feature G_n norms of the difference at the sample points.

Truncation contract: both sides keep K modes at every layer. The discrete
side keeps the eigensystem's K modes in `filter_apply_discrete`, after every
nonlinearity too. The continuum side re-expands each hidden layer onto
len(eigenvalues) modes, and the rate experiment passes as many continuum
eigenvalues as the signal has coefficients, which is K =
`ExperimentConfig.mode_count(n)` unless a config's `truncation` asks for more
(10 modes on `sphere_rate.json`). Modes a hidden layer drops are what its
quadrature residual measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def filter_apply_discrete(
    h: SpectralFilter, eig: EigenSystem, x: np.ndarray
) -> np.ndarray:
    """h(L_n) x truncated to the eigensystem's K modes.

    Returns sum_i h(lambda_i^n) <x, phi_i^n>_{G_n} phi_i^n, using the
    discrete eigenvalues.
    """
    if len(x) != eig.n:
        raise ValueError(f"vector length {len(x)} != point count {eig.n}")
    coeffs = (eig.eigenvectors.T @ x) / eig.n
    return eig.eigenvectors @ (h.evaluate(eig.eigenvalues) * coeffs)


def forward_discrete(
    net: NetworkSpec, eig: EigenSystem, x0: np.ndarray
) -> np.ndarray:
    """Run the discretized network: x_l^p = sigma(sum_q h_l^pq(L_n) x_{l-1}^q).

    x0 has shape (F_0, n); the result has shape (F_L, n).
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    if x0.shape[0] != net.widths[0]:
        raise ValueError(f"input has {x0.shape[0]} features, expected {net.widths[0]}")
    sigma = net.sigma
    x = x0
    for bank in net.filters:
        x = np.stack(
            [
                sigma(sum(filter_apply_discrete(h, eig, xq) for h, xq in zip(row, x)))
                for row in bank
            ]
        )
    return x


@dataclass
class ContinuumOutput:
    """Continuum forward pass projected to the sample points, with metadata."""

    values: np.ndarray | None  # (F_L, n); None until the last layer has run
    quadrature_residuals: list[float] = field(default_factory=list)
    feature_l2_norms: list[float] = field(default_factory=list)
    feature_sup_norms: list[float] = field(default_factory=list)


def _apply_bank(bank, eigenvalues, coeffs):
    """Filtered coefficients: row p is sum_q h^pq(lambda) * coeffs[q]."""
    lam = eigenvalues[: coeffs.shape[1]]
    return np.stack(
        [sum(row[q].evaluate(lam) * coeffs[q] for q in range(len(row))) for row in bank]
    )


def continuum_hidden_layers(
    net: NetworkSpec,
    manifold: Manifold,
    eigenvalues: np.ndarray,
    coefficients: np.ndarray,
) -> tuple[NetworkSpec, np.ndarray, ContinuumOutput]:
    """Every continuum layer but the last, on the quadrature grid: no sample points.

    Returns the one-layer tail network, its input coefficients and a
    ContinuumOutput (values unset) with the hidden layers' quadrature
    residuals and norms. Filters act diagonally on coefficients with the
    continuum eigenvalues. A nonlinear hidden layer is re-expanded onto the
    first len(eigenvalues) modes by quadrature; the dropped mass is its
    quadrature residual. eigenvalues[i] is the eigenvalue of mode i.
    """
    coeffs = np.atleast_2d(np.asarray(coefficients, dtype=float))
    if coeffs.shape[0] != net.widths[0]:
        raise ValueError(f"input has {coeffs.shape[0]} features, expected {net.widths[0]}")
    if coeffs.shape[1] > len(eigenvalues):
        raise ValueError(
            f"bandwidth {coeffs.shape[1] - 1} exceeds the {len(eigenvalues)} available modes"
        )
    out = ContinuumOutput(values=None)
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
            out.feature_l2_norms.extend(float(np.linalg.norm(c)) for c in coeffs)
        else:
            coeffs = (grid_vals * grid_w) @ grid_basis[:, :k]
            recon = coeffs @ grid_basis[:, :k].T
            for gv, rv in zip(grid_vals, recon):
                out.quadrature_residuals.append(
                    float(np.sqrt(np.sum(grid_w * (gv - rv) ** 2)))
                )
                out.feature_l2_norms.append(float(np.sqrt(np.sum(grid_w * gv**2))))
        out.feature_sup_norms.extend(float(np.max(np.abs(gv))) for gv in grid_vals)
    tail = NetworkSpec(net.widths[-2:], net.filters[-1:], net.nonlinearity)
    return tail, coeffs, out


def forward_continuum(
    net: NetworkSpec,
    manifold: Manifold,
    eigenvalues: np.ndarray,
    coefficients: np.ndarray,
    points: np.ndarray,
) -> ContinuumOutput:
    """Exact continuum network evaluated at the sample points (P_n of Eq. output).

    coefficients has shape (F_0, kappa+1): each input feature is bandlimited
    in the manifold's first modes, with the given eigenvalues. After `continuum_hidden_layers`, the final
    nonlinearity is applied pointwise at the sample points, which is exact.
    """
    tail, coeffs, out = continuum_hidden_layers(net, manifold, eigenvalues, coefficients)
    filtered = _apply_bank(tail.filters[0], eigenvalues, coeffs)
    vals = filtered @ eigenbasis(manifold, points, coeffs.shape[1]).T
    out.values = tail.sigma(vals)
    out.feature_l2_norms.extend(
        float(np.linalg.norm(v)) / np.sqrt(len(points)) for v in out.values
    )
    out.feature_sup_norms.extend(float(np.max(np.abs(v))) for v in out.values)
    return out


def mnn_error(discrete_out: np.ndarray, continuum_out: np.ndarray) -> float:
    """Sum over output features of ||x_L^q - P_n f_L^q||_{G_n}."""
    disc = np.atleast_2d(np.asarray(discrete_out, dtype=float))
    cont = np.atleast_2d(np.asarray(continuum_out, dtype=float))
    if disc.shape != cont.shape:
        raise ValueError(f"shape mismatch: {disc.shape} vs {cont.shape}")
    return float(sum(gn_norm(d - c) for d, c in zip(disc, cont)))

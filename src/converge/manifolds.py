"""Analytic model manifolds: the unit circle and the unit 2-sphere.

Both come with uniform sampling, closed-form Laplace-Beltrami eigenpairs,
and quadrature grids dense enough that quadrature error sits well below any
discretization error we measure downstream. Eigenfunctions are orthonormal
with respect to the *normalized* volume measure dV / vol(M), which keeps the
classical eigenvalue formulas (k^2 on the circle, l(l+1) on the sphere)
intact even though vol(M) != 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gammaln, lpmv

# Quadrature sizes: circle = 2^17-node trapezoid rule, sphere = Fibonacci
# lattice with equal weights.
CIRCLE_QUADRATURE_NODES = 1 << 17
SPHERE_QUADRATURE_NODES = 200_000


@dataclass(frozen=True)
class ManifoldModel:
    """A unit-radius model manifold with a closed-form spectrum."""

    kind: str  # "circle" | "sphere2"

    def __post_init__(self):
        if self.kind not in ("circle", "sphere2"):
            raise ValueError(f"unknown manifold kind: {self.kind!r}")

    @property
    def intrinsic_dim(self) -> int:
        return 1 if self.kind == "circle" else 2

    @property
    def ambient_dim(self) -> int:
        return 2 if self.kind == "circle" else 3

    @property
    def volume(self) -> float:
        return 2.0 * math.pi if self.kind == "circle" else 4.0 * math.pi


def circle() -> ManifoldModel:
    return ManifoldModel("circle")


def sphere2() -> ManifoldModel:
    return ManifoldModel("sphere2")


@dataclass(frozen=True)
class PointCloud:
    """n sample points in ambient space, with provenance for reproducibility."""

    points: np.ndarray  # shape (n, D)
    manifold: ManifoldModel
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ContinuumEigenpair:
    """One Laplace-Beltrami eigenpair, 0-indexed, constant mode first.

    The evaluator maps ambient coordinates (m, D) to eigenfunction values
    (m,). Eigenfunctions are orthonormal under dV / vol(M).
    """

    index: int
    eigenvalue: float
    multiplicity_group: int
    evaluate: Callable[[np.ndarray], np.ndarray] = field(compare=False)


@dataclass(frozen=True)
class BandlimitedSignal:
    """A finite generalized-Fourier expansion: f = sum_i alpha_i phi_i."""

    coefficients: np.ndarray  # alpha_0 .. alpha_kappa

    @property
    def bandwidth(self) -> int:
        return len(self.coefficients) - 1

    def squared_l2_norm(self) -> float:
        # Parseval under the orthonormal basis.
        return float(np.dot(self.coefficients, self.coefficients))


def sample_uniform(manifold: ManifoldModel, n: int, seed: int) -> PointCloud:
    """Draw n i.i.d. points uniform w.r.t. the Riemannian volume form.

    Circle: uniform angle. Sphere: normalized 3D standard normal. Both are
    exactly uniform (no rejection) and bit-deterministic given the seed.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    if manifold.kind == "circle":
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        g = rng.standard_normal(size=(n, 3))
        pts = g / np.linalg.norm(g, axis=1, keepdims=True)
    return PointCloud(points=pts, manifold=manifold, seed=seed)


def _circle_eigenpair(i: int) -> ContinuumEigenpair:
    if i == 0:
        return ContinuumEigenpair(0, 0.0, 0, lambda x: np.ones(x.shape[0]))
    k = (i + 1) // 2
    is_cos = i % 2 == 1  # odd index -> sqrt(2) cos(k theta), even -> sin
    root2 = math.sqrt(2.0)

    def ev(x, k=k, is_cos=is_cos):
        theta = np.arctan2(x[:, 1], x[:, 0])
        return root2 * (np.cos(k * theta) if is_cos else np.sin(k * theta))

    return ContinuumEigenpair(i, float(k * k), k, ev)


def _sphere_harmonic(l: int, m: int) -> Callable[[np.ndarray], np.ndarray]:
    """Real spherical harmonic scaled to unit norm under dOmega / (4 pi).

    m = 0: sqrt(2l+1) P_l(cos theta); m != 0 carries the usual sqrt(2) and
    factorial normalization with cos/sin(|m| phi).
    """
    am = abs(m)
    # sqrt((2l+1) (l-|m|)! / (l+|m|)!), via log-gamma for stability
    norm = math.exp(
        0.5 * (math.log(2 * l + 1) + gammaln(l - am + 1) - gammaln(l + am + 1))
    )
    if m != 0:
        norm *= math.sqrt(2.0)

    def ev(x, l=l, m=m, am=am, norm=norm):
        ct = np.clip(x[:, 2], -1.0, 1.0)
        p = lpmv(am, l, ct)
        if m == 0:
            return norm * p
        phi = np.arctan2(x[:, 1], x[:, 0])
        trig = np.cos(am * phi) if m > 0 else np.sin(am * phi)
        return norm * p * trig

    return ev


def continuum_eigenpairs(manifold: ManifoldModel, count: int) -> list[ContinuumEigenpair]:
    """The `count` lowest Laplace-Beltrami eigenpairs, eigenvalues nondecreasing.

    Circle: 0, 1, 1, 4, 4, ... (k^2, cosine then sine). Sphere: l(l+1) with
    multiplicity 2l+1, real harmonics ordered m = -l..l within each level.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    if manifold.kind == "circle":
        return [_circle_eigenpair(i) for i in range(count)]
    pairs: list[ContinuumEigenpair] = []
    l = 0
    while len(pairs) < count:
        lam = float(l * (l + 1))
        for m in range(-l, l + 1):
            pairs.append(ContinuumEigenpair(len(pairs), lam, l, _sphere_harmonic(l, m)))
            if len(pairs) == count:
                break
        l += 1
    return pairs


def evaluate_signal(
    f: BandlimitedSignal, manifold: ManifoldModel, points: PointCloud | np.ndarray
) -> np.ndarray:
    """Evaluate f at the sample points: entry j is sum_i alpha_i phi_i(x_j)."""
    x = points.points if isinstance(points, PointCloud) else points
    pairs = continuum_eigenpairs(manifold, f.bandwidth + 1)
    out = np.zeros(x.shape[0])
    for alpha, pair in zip(f.coefficients, pairs):
        if alpha != 0.0:
            out += alpha * pair.evaluate(x)
    return out


def quadrature_nodes(manifold: ManifoldModel, count: int | None = None):
    """Quadrature grid (points, weights) for the normalized measure dV/vol.

    Weights sum to 1, so integrals are weighted means. Circle: equispaced
    angles (trapezoid rule on a periodic domain, spectrally accurate).
    Sphere: Fibonacci lattice with equal weights.
    """
    if manifold.kind == "circle":
        m = count or CIRCLE_QUADRATURE_NODES
        theta = np.arange(m) * (2.0 * math.pi / m)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        m = count or SPHERE_QUADRATURE_NODES
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        i = np.arange(m)
        z = 1.0 - (2.0 * i + 1.0) / m
        phi = 2.0 * math.pi * i / golden
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    w = np.full(m, 1.0 / m)
    return pts, w


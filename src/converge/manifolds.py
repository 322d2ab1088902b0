"""Analytic model manifolds: the unit circle and the unit 2-sphere.

Both come with uniform sampling, closed-form Laplace-Beltrami eigenpairs,
and quadrature grids dense enough that quadrature error sits well below any
discretization error we measure downstream. Eigenfunctions are orthonormal
with respect to the *normalized* volume measure dV / vol(M), which keeps the
classical eigenvalue formulas (k^2 on the circle, l(l+1) on the sphere)
intact even though vol(M) != 1.

`eigenbasis` evaluates the first `count` eigenfunctions at a set of points in
one pass, sharing the angles and, on the sphere, the Legendre recurrence
across modes. Every multi-mode caller goes through it, and a single pair's
`evaluate` returns its column, so there is one evaluation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    Eigenfunctions are orthonormal under dV / vol(M).
    """

    index: int
    eigenvalue: float
    multiplicity_group: int
    manifold: ManifoldModel

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Values at ambient coordinates (m, D): column `index` of `eigenbasis`."""
        return eigenbasis(self.manifold, x, self.index + 1)[:, self.index]


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


def continuum_eigenpairs(manifold: ManifoldModel, count: int) -> list[ContinuumEigenpair]:
    """The `count` lowest Laplace-Beltrami eigenpairs, eigenvalues nondecreasing.

    Circle: 0, 1, 1, 4, 4, ... (k^2, cosine then sine). Sphere: l(l+1) with
    multiplicity 2l+1, real harmonics ordered m = -l..l within each level.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    if manifold.kind == "circle":
        groups = [(i + 1) // 2 for i in range(count)]
        return [ContinuumEigenpair(i, float(k * k), k, manifold) for i, k in enumerate(groups)]
    levels = [math.isqrt(i) for i in range(count)]
    return [ContinuumEigenpair(i, float(l * (l + 1)), l, manifold) for i, l in enumerate(levels)]


def eigenbasis(manifold: ManifoldModel, x: np.ndarray, count: int) -> np.ndarray:
    """The first `count` eigenfunctions at ambient coordinates x (m, D), as (m, count).

    Column i is eigenpair i of `continuum_eigenpairs`, and depends on i alone,
    not on `count`. The angles are computed once for all modes. Circle:
    1, sqrt(2) cos(k theta), sqrt(2) sin(k theta). Sphere: the real harmonic
    (l, m) is sqrt(2l+1) P_l(cos theta) for m = 0 and sqrt(2) Pbar_l^|m|(cos
    theta) cos/sin(|m| phi) otherwise, where Pbar_l^m = sqrt((2l+1) (l-m)! /
    (l+m)!) P_l^m carries the Condon-Shortley sign. Pbar comes from the
    normalized three-term recurrences in l (Holmes & Featherstone, J. Geodesy
    76, 2002), seeded by the sectoral Pbar_m^m, and cos/sin(|m| phi) once per
    |m| by the angle-addition recurrence from cos/sin phi = (x, y) / r.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    out = np.empty((count, x.shape[0]))  # one contiguous row per mode
    out[0] = 1.0
    root2 = math.sqrt(2.0)
    if manifold.kind == "circle":
        theta = np.arctan2(x[:, 1], x[:, 0])
        for k in range(1, count // 2 + 1):
            out[2 * k - 1] = root2 * np.cos(k * theta)
            if 2 * k < count:
                out[2 * k] = root2 * np.sin(k * theta)
        return out.T
    top = math.isqrt(count - 1)  # the last level with a column
    t = np.clip(x[:, 2], -1.0, 1.0)  # cos theta
    u = np.sqrt(1.0 - t * t)  # sin theta
    r = np.hypot(x[:, 0], x[:, 1])
    # phi = 0 on the axis, where every mode with m != 0 vanishes
    cos_1 = np.divide(x[:, 0], r, out=np.ones_like(r), where=r > 0)
    sin_1 = np.divide(x[:, 1], r, out=np.zeros_like(r), where=r > 0)
    sectoral = out[0]  # Pbar_0^0; from m = 1 on it carries the sqrt(2) too
    for m in range(top + 1):
        if m == 1:
            sectoral = -math.sqrt(3.0) * u
            cos_m, sin_m = cos_1, sin_1
        elif m > 1:
            sectoral = -math.sqrt((2 * m + 1) / (2 * m)) * u * sectoral
            cos_m, sin_m = cos_m * cos_1 - sin_m * sin_1, sin_m * cos_1 + cos_m * sin_1
        older, prev = None, sectoral
        for l in range(m, top + 1):
            centre = l * l + l  # column of (l, 0); (l, m) sits at centre + m
            if centre - m >= count:
                break  # the last level is cut before (l, -m)
            if l == m + 1:
                prev, older = math.sqrt(2 * m + 3) * t * prev, prev
            elif l > m + 1:
                a = math.sqrt((2 * l - 1) * (2 * l + 1) / ((l - m) * (l + m)))
                b = math.sqrt(
                    (2 * l + 1) * (l + m - 1) * (l - m - 1) / ((l - m) * (l + m) * (2 * l - 3))
                )
                prev, older = a * t * prev - b * older, prev
            if m == 0:
                out[centre] = prev
                continue
            np.multiply(prev, sin_m, out=out[centre - m])
            if centre + m < count:
                np.multiply(prev, cos_m, out=out[centre + m])
    return out.T


def evaluate_signal(
    f: BandlimitedSignal, manifold: ManifoldModel, points: PointCloud | np.ndarray
) -> np.ndarray:
    """Evaluate f at the sample points: entry j is sum_i alpha_i phi_i(x_j)."""
    x = points.points if isinstance(points, PointCloud) else points
    return eigenbasis(manifold, x, f.bandwidth + 1) @ f.coefficients


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


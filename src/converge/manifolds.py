"""Analytic model manifolds: the unit circle and the unit 2-sphere.

Each manifold is one small frozen class, `Circle` or `Sphere2`, holding its
intrinsic dimension d, ambient dimension D and volume, and supplying its own
uniform sampler, closed-form Laplace-Beltrami spectrum, eigenbasis and
quadrature grid. `MODELS` maps the config names to them. Points are plain
(n, D) arrays. Eigenfunctions are orthonormal with respect to the
*normalized* volume measure dV / vol(M), which keeps the classical eigenvalue
formulas (k^2 on the circle, l(l+1) on the sphere) intact even though
vol(M) != 1. Modes are 0-indexed, constant mode first, eigenvalues
nondecreasing; a level is a set of modes that share an eigenvalue.

The module functions `sample_uniform`, `eigenbasis` and `quadrature_nodes`
dispatch on the model. `eigenbasis` evaluates the first `count`
eigenfunctions at a set of points in one pass, sharing the angles and, on
the sphere, the Legendre recurrence across modes. Every caller goes through
it, so there is one evaluation path. A bandlimited signal is its coefficient
array, alpha_i on mode i; `evaluate_signal` sums it over an evaluated basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class Manifold:
    """A unit-radius model manifold with a closed-form spectrum.

    A model sets intrinsic_dim, ambient_dim, volume and quadrature_size (the
    default grid's node count), and supplies sample(rng, n), level(i),
    eigenvalue(i), fill_basis(x, out) (rows 1.. of `eigenbasis`, row 0 being
    the constant mode) and grid(m).
    """

    intrinsic_dim: int
    ambient_dim: int
    volume: float
    quadrature_size: int

    def eigenvalues(self, count: int) -> np.ndarray:
        """Eigenvalues of modes 0..count-1."""
        return np.array([self.eigenvalue(i) for i in range(count)])

    def level_end(self, i: int) -> int:
        """The number of modes through the end of mode i's level."""
        end = i + 1
        while self.level(end) == self.level(i):
            end += 1
        return end


@dataclass(frozen=True)
class Circle(Manifold):
    """The unit circle in R^2: modes 1, sqrt(2) cos(k theta), sqrt(2) sin(k theta)."""

    intrinsic_dim = 1
    ambient_dim = 2
    volume = 2.0 * math.pi
    quadrature_size = 1 << 17  # trapezoid rule

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        return np.column_stack([np.cos(theta), np.sin(theta)])

    def level(self, i: int) -> int:
        return (i + 1) // 2

    def eigenvalue(self, i: int) -> float:
        return float(self.level(i) ** 2)

    def fill_basis(self, x: np.ndarray, out: np.ndarray) -> None:
        count, root2 = out.shape[0], math.sqrt(2.0)
        theta = np.arctan2(x[:, 1], x[:, 0])
        for k in range(1, count // 2 + 1):
            out[2 * k - 1] = root2 * np.cos(k * theta)
            if 2 * k < count:
                out[2 * k] = root2 * np.sin(k * theta)

    def grid(self, m: int) -> np.ndarray:
        """Equispaced angles: the trapezoid rule, spectrally accurate on a periodic domain."""
        theta = np.arange(m) * (2.0 * math.pi / m)
        return np.column_stack([np.cos(theta), np.sin(theta)])


@dataclass(frozen=True)
class Sphere2(Manifold):
    """The unit 2-sphere in R^3: real spherical harmonics, m = -l..l within level l."""

    intrinsic_dim = 2
    ambient_dim = 3
    volume = 4.0 * math.pi
    quadrature_size = 200_000  # Fibonacci lattice

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        g = rng.standard_normal(size=(n, 3))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    def level(self, i: int) -> int:
        return math.isqrt(i)

    def eigenvalue(self, i: int) -> float:
        l = self.level(i)
        return float(l * (l + 1))

    def fill_basis(self, x: np.ndarray, out: np.ndarray) -> None:
        """The real harmonic (l, m) is sqrt(2l+1) P_l(cos theta) for m = 0 and
        sqrt(2) Pbar_l^|m|(cos theta) cos/sin(|m| phi) otherwise, where Pbar_l^m
        = sqrt((2l+1) (l-m)! / (l+m)!) P_l^m carries the Condon-Shortley sign.
        Pbar comes from the normalized three-term recurrences in l (Holmes &
        Featherstone, J. Geodesy 76, 2002), seeded by the sectoral Pbar_m^m, and
        cos/sin(|m| phi) once per |m| by the angle-addition recurrence from
        cos/sin phi = (x, y) / r.
        """
        count = out.shape[0]
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

    def grid(self, m: int) -> np.ndarray:
        """A Fibonacci lattice."""
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        i = np.arange(m)
        z = 1.0 - (2.0 * i + 1.0) / m
        phi = 2.0 * math.pi * i / golden
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


MODELS: dict[str, Manifold] = {"circle": Circle(), "sphere2": Sphere2()}


def sample_uniform(manifold: Manifold, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. points, shape (n, D), uniform w.r.t. the Riemannian volume form.

    Circle: uniform angle. Sphere: normalized 3D standard normal. Both are
    exactly uniform (no rejection) and bit-deterministic given the seed.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return manifold.sample(np.random.default_rng(seed), n)


def eigenbasis(manifold: Manifold, x: np.ndarray, count: int) -> np.ndarray:
    """The first `count` eigenfunctions at ambient coordinates x (m, D), as (m, count).

    Column i is mode i and depends on i alone, not on `count`. The model fills
    one contiguous row per mode, computing its angles once for all modes.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    out = np.empty((count, x.shape[0]))  # one contiguous row per mode
    out[0] = 1.0
    manifold.fill_basis(x, out)
    return out.T


def evaluate_signal(coefficients: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The bandlimited signal f = sum_i alpha_i phi_i, given by its K coefficients
    alpha_0..alpha_{K-1}, at the points of an (n, K) `eigenbasis`: entry j is f(x_j)."""
    return basis @ coefficients


def quadrature_nodes(manifold: Manifold):
    """Quadrature grid (points, weights) for the normalized measure dV/vol.

    The model's quadrature_size nodes with equal weights that sum to 1, so
    integrals are weighted means.
    """
    m = manifold.quadrature_size
    return manifold.grid(m), np.full(m, 1.0 / m)

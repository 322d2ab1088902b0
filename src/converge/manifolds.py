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
eigenfunctions at a set of points in one pass, sharing work across modes:
both models compute their angles once and cos/sin(k phi) for every k by
angle addition (`azimuthal_multiples`, one path for both), and the sphere
runs the Legendre recurrence once per azimuthal order (`legendre_orders`).
Every caller of the basis goes through it, and the sphere's kernel factors
share its recurrence, so there is one evaluation path. A bandlimited signal
is its coefficient array, alpha_i on mode i; `evaluate_signal` sums it over
an evaluated basis.

Both models are zonal: on them the Gaussian exp(z x.y) at unit-norm x, y
expands over the levels of the eigenbasis (Jacobi-Anger on the circle,
Funk-Hecke on the sphere), and `kernel_levels` gives that expansion's
per-level coefficients in closed form. `zonal_factors` stores the first
levels of the eigenbasis for that expansion: the circle its basis rows, the
sphere each order's Legendre table once for the modes (l, m) and (l, -m),
beside cos/sin(m phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ive


class Manifold:
    """A unit-radius model manifold with a closed-form spectrum.

    A model sets intrinsic_dim, ambient_dim, volume and quadrature_size (the
    default grid's node count), and supplies sample(rng, n), level(i),
    eigenvalue(i), fill_basis(x, out) (rows 1.. of `eigenbasis`, row 0 being
    the constant mode) and grid(m). A model may supply kernel_levels(z, count),
    and with it a cheaper zonal_factors(x, count) and its factor_rows(count).
    """

    intrinsic_dim: int
    ambient_dim: int
    volume: float
    quadrature_size: int

    def eigenvalues(self, count: int) -> np.ndarray:
        """Eigenvalues of modes 0..count-1."""
        return np.array([self.eigenvalue(i) for i in range(count)])

    def kernel_levels(self, z: float, count: int):
        """(sizes, mu) over levels 0..count-1, such that e^{-z} exp(z x.y) =
        sum_l mu_l sum_{i in level l} phi_i(x) phi_i(y) for unit-norm x, y,
        where level l has sizes[l] modes; or None, where the model has no such
        expansion. Here there is none."""
        return None

    def zonal_factors(self, x: np.ndarray, count: int):
        """The kernel factors of the first `count` modes, whole levels, at the
        points x (n, D), as (block, modes, stack, trig, stack_modes). Row k of
        the block (rows, n) is mode modes[k] at x. Item j of the stack
        (items, rows, n) is read through the four rows of trig[j] (4, n): for
        column c, row k stands for the mode stack_modes[j, c, k] at x divided
        by trig[j, c], and -1 there marks a row that column c skips; columns
        2h and 2h + 1 read the same contiguous rows. Here the block is the
        `eigenbasis` rows and the stack is empty.
        """
        n = x.shape[0]
        empty = (np.empty((0, count, n)), np.empty((0, 4, n)), np.empty((0, 4, count), dtype=int))
        return (eigenbasis(self, x, count).T, np.arange(count)) + empty

    def factor_rows(self, count: int) -> int:
        """Rows of n values that `zonal_factors` stores for `count` modes, and
        that a sweep through them works in beside the vectors."""
        return count

    def level_end(self, i: int) -> int:
        """The number of modes through the end of mode i's level."""
        end = i + 1
        while self.level(end) == self.level(i):
            end += 1
        return end


def azimuthal_multiples(x: np.ndarray, top: int):
    """Yield (cos(k phi), sin(k phi)) for k = 1..top, where phi is the angle of
    each point's (x, y) about the origin.

    The step k = 1 is (x, y) / r, with r = hypot(x, y): no `arctan2`, and the
    same angle at any radius. A point with r = 0 gets phi = 0. Every later
    step is one angle addition, cos/sin(k phi) from cos/sin((k - 1) phi) and
    cos/sin(phi): four products and two sums over the points.
    """
    r = np.hypot(x[:, 0], x[:, 1])
    cos_1 = np.divide(x[:, 0], r, out=np.ones_like(r), where=r > 0)
    sin_1 = np.divide(x[:, 1], r, out=np.zeros_like(r), where=r > 0)
    cos_k, sin_k = cos_1, sin_1
    for k in range(1, top + 1):
        if k > 1:
            cos_k, sin_k = cos_k * cos_1 - sin_k * sin_1, sin_k * cos_1 + cos_k * sin_1
        yield cos_k, sin_k


@dataclass(frozen=True)
class Circle(Manifold):
    """The unit circle in R^2: modes 1, sqrt(2) cos(k theta), sqrt(2) sin(k theta).

    The angle is read from (x, y) / r, so the basis ignores |x|, and
    cos/sin(k theta) come by angle addition, as the sphere's cos/sin(|m| phi).
    """

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

    def kernel_levels(self, z: float, count: int):
        """Jacobi-Anger: exp(z cos a) = I_0(z) + 2 sum_k I_k(z) cos(k a), and
        2 cos(k (a - b)) is the sum of level k's two modes at a and b."""
        k = np.arange(count)
        return np.minimum(2 * k + 1, 2), ive(k, z)

    def fill_basis(self, x: np.ndarray, out: np.ndarray) -> None:
        """Mode 2k - 1 is sqrt(2) cos(k theta) and mode 2k sqrt(2) sin(k theta),
        with cos/sin(k theta) from `azimuthal_multiples`, within about k eps of
        the direct `cos` and `sin` (2e-13 through k = 128)."""
        count, root2 = out.shape[0], math.sqrt(2.0)
        for k, (cos_k, sin_k) in enumerate(azimuthal_multiples(x, count // 2), start=1):
            np.multiply(cos_k, root2, out=out[2 * k - 1])
            if 2 * k < count:
                np.multiply(sin_k, root2, out=out[2 * k])

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

    def kernel_levels(self, z: float, count: int):
        """Funk-Hecke: exp(z x.y) = sum_l (2l+1) i_l(z) P_l(x.y), where i_l(z) =
        sqrt(pi / 2z) I_{l+1/2}(z), and (2l+1) P_l(x.y) is the sum of level l's
        2l+1 modes at x and y (the addition theorem)."""
        l = np.arange(count)
        return 2 * l + 1, ive(l + 0.5, z) * math.sqrt(math.pi / (2.0 * z))

    def legendre_orders(self, x: np.ndarray, top: int, tables=None):
        """Yield, for m = 0..top, the (top + 1 - m, n) table whose row l - m is
        Pbar_l^m(cos theta) at the points x (n, 3), times sqrt(2) for m >= 1,
        where Pbar_l^m = sqrt((2l+1) (l-m)! / (l+m)!) P_l^m carries the
        Condon-Shortley sign; row l of the m = 0 table is sqrt(2l+1) P_l.
        Table m is written into tables[m] where `tables` is given, else into
        a new array.

        Table m starts from the sectoral row Pbar_m^m, one product on table
        m - 1's first row, and runs the normalized three-term recurrence in l
        (Holmes & Featherstone, J. Geodesy 76, 2002), each row written in
        place.
        """
        t = np.clip(x[:, 2], -1.0, 1.0)  # cos theta
        u = np.sqrt(1.0 - t * t)  # sin theta
        sectoral = None
        for m in range(top + 1):
            rows = np.empty((top + 1 - m, x.shape[0])) if tables is None else tables[m]
            if m == 0:
                rows[0] = 1.0
            elif m == 1:
                np.multiply(u, -math.sqrt(3.0), out=rows[0])
            else:
                np.multiply(u, -math.sqrt((2 * m + 1) / (2 * m)), out=rows[0])
                rows[0] *= sectoral
            for l in range(m + 1, top + 1):
                row = rows[l - m]
                if l == m + 1:
                    np.multiply(t, math.sqrt(2 * m + 3), out=row)
                    row *= rows[0]
                    continue
                a = math.sqrt((2 * l - 1) * (2 * l + 1) / ((l - m) * (l + m)))
                b = math.sqrt((2 * l + 1) * (l + m - 1) * (l - m - 1) / ((l - m) * (l + m) * (2 * l - 3)))
                np.multiply(t, a, out=row)
                row *= rows[l - m - 1]
                row -= b * rows[l - m - 2]
            sectoral = rows[0]
            yield rows

    def fill_basis(self, x: np.ndarray, out: np.ndarray) -> None:
        """The real harmonic (l, m) is sqrt(2l+1) P_l(cos theta) for m = 0 and
        sqrt(2) Pbar_l^|m|(cos theta) cos/sin(|m| phi) otherwise: the rows of
        `legendre_orders`, times cos/sin(|m| phi) from `azimuthal_multiples`,
        which puts phi = 0 on the axis, where every mode with m != 0 vanishes.
        """
        count = out.shape[0]
        top = math.isqrt(count - 1)  # the last level with a column
        multiples = azimuthal_multiples(x, top)
        for m, rows in enumerate(self.legendre_orders(x, top)):
            if m > 0:
                cos_m, sin_m = next(multiples)
            for l in range(m, top + 1):
                centre = l * l + l  # column of (l, 0); (l, m) sits at centre + m
                if centre - m >= count:
                    break  # the last level is cut before (l, -m)
                if m == 0:
                    out[centre] = rows[l]
                    continue
                np.multiply(rows[l - m], sin_m, out=out[centre - m])
                if centre + m < count:
                    np.multiply(rows[l - m], cos_m, out=out[centre + m])

    def zonal_factors(self, x: np.ndarray, count: int):
        """The (L + 1)^2 = count modes of levels 0..L by azimuthal order: the
        block is the m = 0 table of `legendre_orders`, and each stack item j
        holds the tables of orders a = j + 1 and b = L - j, L + 1 rows between
        them, beside cos/sin(a phi) and cos/sin(b phi) in its trig rows. Where
        L is odd, the middle order's item is padded with zero rows and trig.
        Mode (l, +-m) is its table row times cos/sin(m phi), so the two share
        one stored row."""
        top = math.isqrt(count) - 1
        if (top + 1) ** 2 != count:
            raise ValueError(f"zonal factors take whole levels, got {count} modes")
        n, pairs = x.shape[0], (top + 1) // 2
        centres = np.arange(top + 1) * np.arange(1, top + 2)  # mode (l, m) is centres[l] + m
        block = np.empty((top + 1, n))
        stack = np.zeros((pairs, top + 1, n))
        trig = np.zeros((pairs, 4, n))
        stack_modes = np.full((pairs, 4, top + 1), -1)
        tables = [block] + [None] * top
        for j in range(pairs):
            a, b = j + 1, top - j
            tables[a] = stack[j, : top + 1 - a]
            stack_modes[j, :2, : top + 1 - a] = centres[a:] + [[a], [-a]]
            if b > a:
                tables[b] = stack[j, top + 1 - a :]
                stack_modes[j, 2:, top + 1 - a :] = centres[b:] + [[b], [-b]]
        for _ in self.legendre_orders(x, top, tables):
            pass
        for k, (cos_k, sin_k) in enumerate(azimuthal_multiples(x, top), start=1):
            j, half = (k - 1, 0) if k <= pairs else (top - k, 2)
            trig[j, half], trig[j, half + 1] = cos_k, sin_k
        return block, centres, stack, trig, stack_modes

    def factor_rows(self, count: int) -> int:
        """L + 1 rows of block, and per stack item L + 1 rows, 4 trig rows and
        the 4 rows a stacked sweep works in."""
        top = math.isqrt(count) - 1
        return (top + 1) * (1 + (top + 1) // 2) + 8 * ((top + 1) // 2)

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
    one contiguous row per mode, computing its angles once for all modes and
    their multiples by angle addition.
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

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
per-level coefficients, e^{-z} I_k(z) on the circle and e^{-z} i_l(z) on the
sphere, by one backward recurrence (`_bessel_levels`) that keeps each
level's relative accuracy however small it is, so the tail below 2^-53 that
`graph.zonal_weights` cuts is verified, not read off an FFT's absolute
floor. The module needs numpy alone. `zonal_factors` stores that
expansion's first levels at the points: the circle its basis rows, the
sphere separable Fourier factors (the double Fourier sphere of Townsend,
Wilber and Wright, SIAM J. Sci. Comput. 2016): cos/sin(k theta) for k <= L,
shared by every level, cos/sin(m phi), and per order a small core from the
sample-free `legendre_fourier` coefficients, about 6L rows of n in all.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np


class Manifold:
    """A unit-radius model manifold with a closed-form spectrum.

    A model sets intrinsic_dim, ambient_dim, volume and quadrature_size (the
    default grid's node count), and supplies sample(rng, n), level(i),
    eigenvalue(i), fill_basis(x, out) (rows 1.. of `eigenbasis`, row 0 being
    the constant mode), grid(m, start, stop), nodes start..stop-1 of the
    m-node grid, and kernel_levels(z, count): (sizes, mu) over levels
    0..count-1, such that e^{-z} exp(z x.y) = sum_l mu_l sum_{i in level l}
    phi_i(x) phi_i(y) for unit-norm x, y, where level l has sizes[l] modes.
    A model may supply a cheaper zonal_factors(x, weights) and its
    factor_rows(count, n).
    """

    intrinsic_dim: int
    ambient_dim: int
    volume: float
    quadrature_size: int

    def eigenvalues(self, count: int) -> np.ndarray:
        """Eigenvalues of modes 0..count-1."""
        return np.array([self.eigenvalue(i) for i in range(count)])

    def zonal_factors(self, x: np.ndarray, weights: np.ndarray):
        """The kernel sum_i weights[i] phi_i(x) phi_i(y) over the first
        len(weights) modes, whole levels, at the points x (n, D), as
        (rows, trig, cores): here the `eigenbasis` rows (count, n), no trig
        and the weights as one diagonal core, so the kernel is
        rows^T diag(cores) rows.
        """
        return eigenbasis(self, x, len(weights)).T, None, weights

    def factor_rows(self, count: int, n: int) -> int:
        """Rows of n values that `zonal_factors` stores for `count` modes at n
        points, and that a sweep through them works in beside the vectors."""
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


def _bessel_levels(z: float, count: int, half: bool) -> np.ndarray:
    """e^{-z} I_k(z) for k = 0..count-1, or with `half` e^{-z} i_k(z) =
    e^{-z} sqrt(pi / 2z) I_{k+1/2}(z): the levels of `kernel_levels`.

    Miller's backward recurrence (Gautschi, SIAM Rev. 9, 1967) on the ratios
    r_v = I_v(z) / I_{v-1}(z) = 1 / (2v / z + r_{v+1}), v = k or k + 1/2, run
    down from r = 0 at k = sqrt(count^2 + 128 z) + 8, far enough past count
    that the start's error, damped by about r_v^2 a step, is below rounding
    at every level returned. Every ratio lies in (0, 1), so nothing
    overflows, and the levels are the ratios' cumulative product from level
    0, with a relative error that grows by about an eps a level however small
    the level is: against mpmath, within 6e-15 through level 63 at z from 6
    to 13, where scipy's `ive` is 7e-14 off, and the two agree to 3.5e-13
    through level 255 for z from 0.01 to 500.
    Level 0 is 1 / (1 + 2 sum_{k >= 1} I_k / I_0) on the circle, the
    Jacobi-Anger sum at a = 0 being e^z, the sum accumulated on the way down;
    on the sphere it is e^{-z} sinh z / z = -expm1(-2z) / 2z.

    Not an FFT of the profile e^{-z} exp(z cos a): that gives every level at
    once but to an absolute floor of about 1.5e-17, where
    `graph.zonal_weights` verifies the tail against 2^-53 from the smallest
    levels' own sizes.
    """
    nu, step = (0.5 if half else 0.0), 2.0 / z
    top = math.isqrt(count * count + int(128 * z)) + 8
    ratios = [0.0] * (top + 1)
    r = total = 0.0
    for k in range(top, 0, -1):
        r = ratios[k] = 1.0 / ((k + nu) * step + r)
        total = r * (1.0 + total)  # sum over j >= k of I_{j+nu} / I_{k-1+nu}
    ratios[0] = -math.expm1(-2.0 * z) / (2.0 * z) if half else 1.0 / (1.0 + 2.0 * total)
    return np.array(list(itertools.accumulate(ratios[:count], operator.mul)))


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
        return np.minimum(np.arange(1, 2 * count, 2), 2), _bessel_levels(z, count, half=False)

    def fill_basis(self, x: np.ndarray, out: np.ndarray) -> None:
        """Mode 2k - 1 is sqrt(2) cos(k theta) and mode 2k sqrt(2) sin(k theta),
        with cos/sin(k theta) from `azimuthal_multiples`, within about k eps of
        the direct `cos` and `sin` (2e-13 through k = 128)."""
        count, root2 = out.shape[0], math.sqrt(2.0)
        for k, (cos_k, sin_k) in enumerate(azimuthal_multiples(x, count // 2), start=1):
            np.multiply(cos_k, root2, out=out[2 * k - 1])
            if 2 * k < count:
                np.multiply(sin_k, root2, out=out[2 * k])

    def grid(self, m: int, start: int, stop: int) -> np.ndarray:
        """Equispaced angles: the trapezoid rule, spectrally accurate on a periodic domain."""
        theta = np.arange(start, stop) * (2.0 * math.pi / m)
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
        return np.arange(1, 2 * count, 2), _bessel_levels(z, count, half=True)

    def legendre_orders(self, x: np.ndarray, top: int):
        """Yield, for m = 0..top, the (top + 1 - m, n) table whose row l - m is
        Pbar_l^m(cos theta) at the points x (n, 3), times sqrt(2) for m >= 1,
        where Pbar_l^m = sqrt((2l+1) (l-m)! / (l+m)!) P_l^m carries the
        Condon-Shortley sign; row l of the m = 0 table is sqrt(2l+1) P_l.
        The tables take x's floating type, double at the least.

        Table m starts from the sectoral row Pbar_m^m, one product on table
        m - 1's first row, and runs the normalized three-term recurrence in l
        (Holmes & Featherstone, J. Geodesy 76, 2002), each row written in
        place. sin theta is hypot(x_1, x_2), as in the zonal factors' rows:
        sqrt(1 - cos^2 theta) would carry the rounding of cos theta, amplified
        by 1 / (2 sin^2 theta) next to a pole, into table m m times over
        (7.0e-11 off against mpmath at theta = 1e-4, l = 80, m = 1).
        """
        t = np.clip(x[:, 2], -1.0, 1.0)  # cos theta
        u = np.hypot(x[:, 0], x[:, 1])  # sin theta
        sectoral = None
        for m in range(top + 1):
            rows = np.empty((top + 1 - m, x.shape[0]), dtype=np.promote_types(x.dtype, float))
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

    def zonal_factors(self, x: np.ndarray, weights: np.ndarray):
        """The (L + 1)^2 = len(weights) modes of levels 0..L, one weight w_l a
        level, as (rows, trig, cores). Mode (l, +-m) is `legendre_orders`' row
        l of order m, sum_k a_lk^m T_k (`legendre_fourier`), times cos/sin(m phi),
        so the kernel is the sum over trig rows c of diag(c) T^T G_m T diag(c),
        G_m = sum_{l >= m} w_l a_l^m a_l^m^T, T_k = cos(k theta) for even m and
        sin(k theta) for odd m. rows (2L + 1, n) are cos(k theta), k = 0..L,
        then sin(k theta), k = 1..L, by angle addition on (x_3, hypot(x_1, x_2));
        trig (2L + 2, n) is cos and sin of m phi, even orders first (sin(0 phi)
        a zero row); cores stacks the even orders' G_m, then the odd orders'.
        """
        top = math.isqrt(len(weights)) - 1
        if (top + 1) ** 2 != len(weights):
            raise ValueError(f"zonal factors take whole levels, got {len(weights)} modes")
        n, even = x.shape[0], top // 2 + 1
        rows = np.empty((2 * top + 1, n))
        rows[0] = 1.0
        polar = np.column_stack([x[:, 2], np.hypot(x[:, 0], x[:, 1])])
        for k, (cos_k, sin_k) in enumerate(azimuthal_multiples(polar, top), start=1):
            rows[k], rows[top + k] = cos_k, sin_k
        trig = np.empty((2 * top + 2, n))
        trig[0], trig[1] = 1.0, 0.0
        for m, (cos_m, sin_m) in enumerate(azimuthal_multiples(x, top), start=1):
            j = m if m % 2 == 0 else 2 * even + m - 1
            trig[j], trig[j + 1] = cos_m, sin_m
        level = weights[np.arange(top + 1) ** 2]
        cores = np.empty((even, top + 1, top + 1)), np.empty((top + 1 - even, top, top))
        for m, a in enumerate(legendre_fourier(top)):
            np.dot(a.T * level[m:], a, out=cores[m % 2][m // 2])
        return rows, trig, cores

    def factor_rows(self, count: int, n: int) -> int:
        """The 2L + 1 rows and 2L + 2 trig rows, the cores in rows of n, and
        the 2L + 2 rows a sweep works in: the scaled trig, then W over it."""
        top = math.isqrt(count) - 1
        core = (top // 2 + 1) * (top + 1) ** 2 + (top + 1) // 2 * top**2
        return 6 * top + 5 + -(-core // n)

    def grid(self, m: int, start: int, stop: int) -> np.ndarray:
        """A Fibonacci lattice."""
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        i = np.arange(start, stop)
        z = 1.0 - (2.0 * i + 1.0) / m
        phi = 2.0 * math.pi * i / golden
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@functools.cache
def legendre_fourier(top: int) -> tuple[np.ndarray, ...]:
    """Per order m = 0..top, the (top + 1 - m, width) coefficients whose row
    l - m expands `Sphere2.legendre_orders`' row l of order m over
    cos(k theta), k = 0..top, for even m, or sin(k theta), k = 1..top, for odd
    m: Pbar_l^m(cos theta) is sin^m theta times a polynomial of degree l - m
    in cos theta. At the N = 2 (top + 1) nodes theta_j = pi (j + 1/2) / N,
    cos and sin of degree below N are exactly orthogonal (sum_j of
    cos(k theta_j) cos(k' theta_j) is N/2 delta_kk', N at k = k' = 0; sin
    alike), so an order's coefficients are one product of its table at the
    nodes with the cos or sin rows times 2/N (1/N at k = 0). Computed once
    for each top, read-only.

    The tables at the nodes are taken in long double, at the points
    (sin theta_j, 0, cos theta_j): in double, the rounding of cos theta_j
    next to a pole, amplified by the rows' slope, left the coefficients
    2e-13 of a row's largest value off at top = 100; in long double (where
    wider than double), 6.3e-14 through top = 160.
    """
    nodes = 2 * (top + 1)
    theta = math.pi * (np.arange(nodes) + 0.5) / nodes
    k = np.arange(top + 1)[:, None]
    cos_k = np.cos(k * theta) * (2.0 / nodes)
    cos_k[0] *= 0.5
    sin_k = np.sin(k[1:] * theta) * (2.0 / nodes)
    points = np.zeros((nodes, 3), dtype=np.longdouble)
    points[:, 0] = np.sin(theta.astype(np.longdouble))
    points[:, 2] = np.cos(theta.astype(np.longdouble))
    coefficients = []
    for m, table in enumerate(Sphere2().legendre_orders(points, top)):
        a = np.dot(table.astype(float), (sin_k if m % 2 else cos_k).T)
        a.flags.writeable = False
        coefficients.append(a)
    return tuple(coefficients)


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


def quadrature_nodes(manifold: Manifold, start: int, stop: int):
    """Nodes start..stop-1 (points, weights) of the quadrature grid for the
    normalized measure dV/vol.

    The model's quadrature_size nodes have equal weights that sum to 1, so
    integrals are weighted means. A node's coordinates depend on its index
    alone, so chunks of the grid are the full grid's rows to the bit.
    """
    m = manifold.quadrature_size
    if not 0 <= start <= stop <= m:
        raise ValueError(f"need 0 <= start <= stop <= {m}, got {start}, {stop}")
    return manifold.grid(m, start, stop), np.full(stop - start, 1.0 / m)

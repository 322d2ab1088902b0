"""Kernel graphs on point clouds and their Laplacians as linear operators.

One kernel is built: at bandwidth t = c n^(-2/(d+6)) the weights are
a_ij = t^(-d/2) exp(-|x_i - x_j|^2 / t), and L = calibration / (n t) (D - A),
with the calibration constant chosen so the spectrum targets the
Laplace-Beltrami spectrum of the underlying unit-radius manifold. The
unit-moment heat-kernel weighting at c, (vol / n) exp(-r^2 / 4t) /
(t (4 pi t)^(d/2)), is this operator at 4c, equal to rounding, so it is not
offered as a second scheme.

The same matrix is stored in one of two ways, and `zonal_weights` picks it.

The dense kernel. The full n x n weight matrix is built by one matmul against
points pre-scaled by 1/t, one broadcast subtract of a row term (the squared
norm over t, less half the log prefactor), one add of the result's own
transpose, which makes it exactly symmetric, one `minimum` that clamps the
exponent where roundoff makes r^2 negative, and one `exp`; the diagonal is
then zeroed. The build peaks at the kernel and the half it is summed from,
16 n^2 bytes, and a matvec is one numpy `matmul` over the kernel, 8 n^2
bytes read, which releases the GIL.

The zonal factors. On unit-norm points |x - y|^2 = 2 - 2 x.y, so with
z = 2/t a weight is t^(-d/2) e^(-z) exp(z x.y), a function of x.y alone. On
the circle and the sphere the model's `kernel_levels` expands it over the
levels of its own eigenbasis, A = t^(-d/2) Phi^T diag(mu) Phi, with Phi the
(r, n) `eigenbasis` at the points and mu_i the coefficient of mode i's level.
The expansion is cut after the first level whose tail, sum of size * mu over
the levels past it, is verified below TAIL (2^-53) of the peak weight, which
is the whole sum, 1. A matvec is two BLAS matrix-vector products over Phi
(numpy `matmul`, also GIL-free), 16 n r bytes read. The factors are stored
where all of these hold: the model has an expansion, every point has
||x|^2 - 1| <= UNIT_TOL, the tail is verified, and 16 n r < 8 n^2, that is
2 r < n. Otherwise the dense kernel is.

Either way a sweep runs inside BLAS without the GIL, so the large sweeps of
concurrent harness workers run in parallel. Small cells do not: their
workers contend on the GIL between numpy calls. A circle cell at n = 2048,
K = 3, took 8 ms alone, 12-15 ms each beside a second worker thread and
9-10 ms each beside a second process (2 cores, one BLAS thread).

The harness bounds memory by capping its worker count, not here;
`kernel_bytes` is the kernel's share of a cell, from the same choice.
"""

from __future__ import annotations

import math

import numpy as np

from .manifolds import eigenbasis

TAIL = 2.0**-53  # the largest kept-out share of the peak weight
UNIT_TOL = 1e-12  # the largest ||x|^2 - 1| at which the zonal factors hold


def scale_parameter(n: int, d: int, c: float) -> float:
    """Bandwidth schedule t = c * n^(-2/(d+6))."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not c > 0:
        raise ValueError(f"need c > 0, got {c}")
    return c * float(n) ** (-2.0 / (d + 6))


def calibration_constant(manifold) -> float:
    """Multiplier making the calibrated Laplacian's spectrum match lambda_i.

    The kernel exp(-r^2/t) has per-coordinate second moment pi^{d/2} t / 2,
    and the Taylor expansion contributes another 1/2, so after the outer 1/t
    the graph Laplacian approximates pi^{d/2} / (4 vol) times the manifold
    operator; the constant is therefore 4 vol / pi^{d/2}. `build_laplacian`
    applies it; the harness only checks it against the model's lambda_1, and
    a miss refuses the run.
    """
    return 4.0 * manifold.volume / math.pi ** (manifold.intrinsic_dim / 2.0)


def zonal_weights(manifold, n: int, t: float, points: np.ndarray | None = None):
    """Per-mode coefficients mu_i (r,) of the zonal factors an n-point kernel
    at bandwidth t is stored as, or None where it is stored dense.

    None where the model has no expansion, a given point is off the unit
    sphere by more than UNIT_TOL in |x|^2, no level's tail is verified below
    TAIL, or 2 r >= n. Without `points` the model's own samples are assumed,
    which are unit-norm to rounding.

    The levels come from `manifold.kernel_levels` in doubling batches, so the
    choice costs O(levels). Past the last computed level the tail is bounded
    by the geometric series of the last computed ratio of size * mu terms: on
    both models the ratios never grow (I_{v+1}(z) / I_v(z) falls as v grows,
    and so does the ratio of consecutive level sizes). A batch whose last
    ratio is not below 1 bounds nothing, and a batch whose levels fill n / 2
    modes unverified means the dense kernel.
    """
    if points is not None:
        norms = np.einsum("ij,ij->i", points, points)
        if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):
            return None
    z, count = 2.0 / t, 8
    while True:
        levels = manifold.kernel_levels(z, count)
        if levels is None:
            return None
        sizes, mu = levels
        terms = sizes * mu
        last, before = float(terms[-1]), float(terms[-2])
        if last == 0.0:
            beyond = 0.0
        elif last < before:
            beyond = last * last / (before - last)  # last * rho / (1 - rho)
        else:
            beyond = math.inf
        # tail[l]: the computed terms past level l, smallest first, plus beyond
        tail = np.append(np.cumsum(terms[::-1])[::-1][1:], 0.0) + beyond
        verified = np.flatnonzero(tail < TAIL)
        if verified.size:
            kept = verified[0] + 1
            weights = np.repeat(mu[:kept], sizes[:kept])
            return weights if 2 * len(weights) < n else None
        if 2 * int(sizes.sum()) >= n:
            return None
        count *= 2


def kernel_bytes(manifold, n: int, c: float) -> int:
    """Bytes of an n-point kernel at bandwidth constant c, as `build_laplacian`
    stores it: 8 n r of zonal factors, or 16 n^2 for the dense kernel, the peak
    of its build (the kernel and the half it is summed from)."""
    weights = zonal_weights(manifold, n, scale_parameter(n, manifold.intrinsic_dim, c))
    return 16 * n * n if weights is None else 8 * n * len(weights)


class LaplacianOperator:
    """Symmetric PSD graph Laplacian over n points, kernel cached at build.

    Given a manifold whose `zonal_weights` hold at the points, the kernel is
    stored as its zonal factors; otherwise, and always without a manifold, as
    the dense n x n kernel. Self-weights cancel identically in D - A: the
    dense kernel zeroes them, and the factors keep them in both D and A.
    """

    def __init__(self, points: np.ndarray, d: int, t: float, calibration: float, manifold=None):
        self.n = n = points.shape[0]
        self._scale = calibration / (n * t)
        weights = None if manifold is None else zonal_weights(manifold, n, t, points)
        self._kernel = self._factors = None
        if weights is not None:
            self._factors = eigenbasis(manifold, points, len(weights)).T  # (r, n), C-order
            self._weights = t ** (-d / 2.0) * weights
            self._degrees = self._factored_sweep(np.ones(n))
            return
        # a weight, without the outer scale, is exp(min(log t^{-d/2} +
        # (2 x_i.x_j - |x_i|^2 - |x_j|^2) / t, log t^{-d/2})): the minimum is
        # the r^2 >= 0 clamp; half[i, j] = (x_i.x_j - |x_i|^2) / t + log t^{-d/2} / 2
        inv_t = 1.0 / t
        log_pref = math.log(t ** (-d / 2.0))
        half = points @ (points * inv_t).T
        half -= (np.einsum("ij,ij->i", points, points) * inv_t - 0.5 * log_pref)[:, None]
        kernel = half + half.T  # a + b == b + a: exactly symmetric
        np.minimum(kernel, log_pref, out=kernel)
        np.exp(kernel, out=kernel)
        np.fill_diagonal(kernel, 0.0)
        self._kernel = kernel
        self._degrees = kernel.sum(axis=1)

    def _factored_sweep(self, x: np.ndarray) -> np.ndarray:
        """A x = Phi^T (w * Phi x) for a vector x (n,)."""
        return self._factors.T @ (self._weights * (self._factors @ x))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return L x for a vector x (n,)."""
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of {self.n}, got shape {x.shape}")
        ax = self._kernel @ x if self._factors is None else self._factored_sweep(x)
        return self._scale * (self._degrees * x - ax)

    def dense_matrix(self) -> np.ndarray:
        """Materialize L as a dense symmetric matrix (oracle/testing path)."""
        if self._factors is None:
            k = self._kernel
        else:
            k = self._factors.T @ (self._weights[:, None] * self._factors)
        return self._scale * (np.diag(self._degrees) - k)

    def degree_bound(self) -> float:
        """Gershgorin-style upper bound on the spectrum of L."""
        return float(2.0 * self._scale * self._degrees.max())


def build_laplacian(points: np.ndarray, manifold, c: float) -> LaplacianOperator:
    """The graph Laplacian of an (n, D) point array sampled from `manifold`,
    at bandwidth t = scale_parameter(n, d, c), scaled by calibration_constant,
    its kernel stored as `zonal_weights` picks."""
    x = np.asarray(points, float)
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 points, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point cloud contains non-finite coordinates")
    d = manifold.intrinsic_dim
    t = scale_parameter(x.shape[0], d, c)
    return LaplacianOperator(x, d, t, calibration_constant(manifold), manifold)

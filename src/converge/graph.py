"""Kernel graphs on point clouds and their Laplacians as linear operators.

One kernel is built: at bandwidth t = c n^(-2/(d+6)) the weights are
a_ij = t^(-d/2) exp(-|x_i - x_j|^2 / t), and L = calibration / (n t) (D - A),
with the calibration constant chosen so the spectrum targets the
Laplace-Beltrami spectrum of the underlying unit-radius manifold. The
unit-moment heat-kernel weighting at c, (vol / n) exp(-r^2 / 4t) /
(t (4 pi t)^(d/2)), is this operator at 4c, equal to rounding, so it is not
offered as a second scheme.

The same matrix is stored in one of two ways, and `zonal_weights` picks it.

The dense kernel, `gaussian_kernel`. The full n x n weight matrix is built by
one matmul against points pre-scaled by 1/t, one broadcast subtract of a row
term (the squared norm over t, less half the log prefactor), one add of the
result's own transpose, which makes it exactly symmetric, one `minimum` that
clamps the exponent where roundoff makes r^2 negative, and one `exp`; the
diagonal is then zeroed. The build peaks at the kernel and the half it is
summed from, 16 n^2 bytes, and a matvec is one BLAS matrix-vector product
over the kernel, 8 n^2 bytes read.

The zonal factors. On unit-norm points |x - y|^2 = 2 - 2 x.y, so with
z = 2/t a weight is t^(-d/2) e^(-z) exp(z x.y), a function of x.y alone. On
the circle and the sphere the model's `kernel_levels` expands it over the
levels of its own eigenbasis, A = t^(-d/2) Phi^T diag(mu) Phi, with Phi the
(r, n) `eigenbasis` at the points and mu_i the coefficient of mode i's level.
The expansion is cut after the first level whose tail, sum of size * mu over
the levels past it, is verified below TAIL (2^-53) of the peak weight, which
is the whole sum, 1. The model stores it as its `zonal_factors` (rows, trig,
cores): on the circle Phi itself as the rows, the weights as a diagonal core
and no trig, swept as rows^T (w * rows x); on the sphere separable Fourier
factors, the 2L + 1 rows T = cos/sin(k theta), k <= L, 2L + 2 trig rows
cos/sin(m phi), and per order m a core G_m, with A the sum over trig rows c
of diag(c) T^T G_m(c) T diag(c). That sweep runs by parity of m:
Y = (trig * x) T^T, each order's two rows of Y times G_m in one batched
`matmul`, W = Z^T trig, and A x = sum_k T_k * W_k. It does about
8 n (L + 1)^2 flops as four GEMMs and reads 16 n R bytes, R the model's
`factor_rows` of rows stored and worked in, 195 at L = 31. W is written
over the scaled trig, in working rows each thread allocates once (allocated
every sweep, they cost about 1500 page faults a sweep at n = 8192, 5.2 ms
against 3.2). Every 2-D product is an `np.dot`: at these shapes `matmul`
holds the GIL through the call (a thread looping a (2, 8192) by (8192, 32)
`matmul` kept a pure-Python thread out of the GIL in gaps over 30 us half
the time; `np.dot`, 1%). The factors
are stored where all of these hold: every point has ||x|^2 - 1| <= UNIT_TOL,
the tail is verified, and 16 n R < 8 n^2, that is 2 R < n. Otherwise the
dense kernel is. `_factored_sweep` is the one
reader of the factors: `dense_matrix`, the oracle, is the definition at the
points either way, so a fault in the stored factors moves Lanczos off it.

The harness bounds memory by capping its worker count, not here;
`kernel_bytes` is the kernel's share of a cell, from the same choice.
"""

from __future__ import annotations

import math
import threading

import numpy as np

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
    operator; the constant is therefore 4 vol / pi^{d/2}. `LaplacianOperator`
    applies it; the harness only checks it against the model's lambda_1, and
    a miss refuses the run.
    """
    return 4.0 * manifold.volume / math.pi ** (manifold.intrinsic_dim / 2.0)


def zonal_weights(manifold, n: int, t: float):
    """Per-mode coefficients mu_i (r,) of the zonal factors an n-point kernel
    at bandwidth t on unit-norm points is stored as, or None where it is
    stored dense.

    None where no level's tail is verified below TAIL, or 2 R >= n, R being
    the model's `factor_rows` of the r modes: a sweep reads each stored row
    twice, 16 n R bytes, against the 8 n^2 of the dense kernel.

    The levels come from `manifold.kernel_levels` in doubling batches, so the
    choice costs O(levels). Past the last computed level the tail is bounded
    by the geometric series of the last computed ratio of size * mu terms: on
    both models the ratios never grow (I_{v+1}(z) / I_v(z) falls as v grows,
    and so does the ratio of consecutive level sizes). A batch whose last
    ratio is not below 1 bounds nothing, and a batch whose levels fill n / 2
    factor rows unverified means the dense kernel.
    """
    z, count = 2.0 / t, 8
    while True:
        sizes, mu = manifold.kernel_levels(z, count)
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
            return weights if 2 * manifold.factor_rows(len(weights), n) < n else None
        if 2 * manifold.factor_rows(int(sizes.sum()), n) >= n:
            return None
        count *= 2


def gaussian_kernel(points: np.ndarray, d: int, t: float) -> np.ndarray:
    """The n x n weights t^(-d/2) exp(-|x_i - x_j|^2 / t) of an (n, D) point
    array, zero on the diagonal: the kernel's definition and dense storage."""
    # a weight is exp(min(log t^{-d/2} + (2 x_i.x_j - |x_i|^2 - |x_j|^2) / t, log t^{-d/2})),
    # the min the r^2 >= 0 clamp; half[i, j] = (x_i.x_j - |x_i|^2) / t + log t^{-d/2} / 2
    inv_t = 1.0 / t
    log_pref = math.log(t ** (-d / 2.0))
    half = points @ (points * inv_t).T
    half -= (np.einsum("ij,ij->i", points, points) * inv_t - 0.5 * log_pref)[:, None]
    kernel = half + half.T  # a + b == b + a: exactly symmetric
    np.minimum(kernel, log_pref, out=kernel)
    np.exp(kernel, out=kernel)
    np.fill_diagonal(kernel, 0.0)
    return kernel


def kernel_bytes(manifold, n: int, c: float) -> int:
    """Bytes of an n-point kernel at bandwidth constant c, as `build_laplacian`
    stores it: 8 n R for the R `factor_rows` of the zonal factors, or 16 n^2
    for the dense kernel, the peak of its build (the kernel and the half it is
    summed from)."""
    weights = zonal_weights(manifold, n, scale_parameter(n, manifold.intrinsic_dim, c))
    return 16 * n * n if weights is None else 8 * n * manifold.factor_rows(len(weights), n)


class LaplacianOperator:
    """Symmetric PSD graph Laplacian of an (n, D) point array sampled from
    `manifold`, at bandwidth t = scale_parameter(n, d, c) and scaled by
    calibration_constant, kernel cached at build.

    Where every point has ||x|^2 - 1| <= UNIT_TOL and `zonal_weights` holds,
    the kernel is stored as its zonal factors; otherwise as the dense n x n
    kernel. Self-weights cancel identically in D - A: the dense kernel
    zeroes them, and the factors keep them in both D and A.
    """

    def __init__(self, points: np.ndarray, manifold, c: float):
        self.n = n = points.shape[0]
        d = manifold.intrinsic_dim
        t = scale_parameter(n, d, c)
        self._scale = calibration_constant(manifold) / (n * t)
        norms = np.einsum("ij,ij->i", points, points)
        weights = zonal_weights(manifold, n, t) if np.all(np.abs(norms - 1.0) <= UNIT_TOL) else None
        self._kernel = self._factors = None
        if weights is not None:
            self._work = threading.local()  # each thread's working rows
            self._factors = manifold.zonal_factors(points, t ** (-d / 2.0) * weights)
            self._degrees = self._factored_sweep(np.ones(n))
            self._definition = points, d, t  # what `dense_matrix` rebuilds the kernel from
            return
        self._kernel = gaussian_kernel(points, d, t)
        self._degrees = self._kernel.sum(axis=1)

    def _factored_sweep(self, x: np.ndarray) -> np.ndarray:
        """A x for a vector x (n,). With no trig, rows^T (cores * rows x): two
        products. Otherwise the sum over trig rows c of
        c * T^T G_m(c) T (c * x), by parity of the order m: forward,
        Y = (trig * x) T^T; each order's two rows of Y times its core G_m;
        back, W = Z^T trig; then A x = sum_k T_k * W_k. Every 2-D product is
        an `np.dot`."""
        rows, trig, cores = self._factors
        if trig is None:
            return np.dot(rows.T, cores * np.dot(rows, x))
        work = getattr(self._work, "rows", None)
        if work is None:  # this thread's first sweep
            work = self._work.rows = np.empty_like(trig)
        np.multiply(trig, x, out=work)
        k = j = 0
        for core in cores:  # the even orders, over cos(k theta), then the odd, over sin(k theta)
            orders, width = core.shape[:2]
            y = np.dot(work[j : j + 2 * orders], rows[k : k + width].T)
            z = np.matmul(y.reshape(orders, 2, width), core).reshape(2 * orders, width)
            # W's rows k.. land on scaled trig rows already read: k + width <= j + 2 orders
            np.dot(z.T, trig[j : j + 2 * orders], out=work[k : k + width])
            k, j = k + width, j + 2 * orders
        return np.einsum("kn,kn->n", rows, work[:k])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return L x for a vector x (n,)."""
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of {self.n}, got shape {x.shape}")
        ax = np.dot(self._kernel, x) if self._factors is None else self._factored_sweep(x)
        return self._scale * (self._degrees * x - ax)

    def dense_matrix(self) -> np.ndarray:
        """Materialize L as a dense symmetric matrix from its definition,
        `gaussian_kernel` at the points (oracle/testing path): the dense
        storage's own kernel, or rebuilt, reading none of the zonal factors."""
        k = self._kernel if self._factors is None else gaussian_kernel(*self._definition)
        return self._scale * (np.diag(k.sum(axis=1)) - k)

    def degree_bound(self) -> float:
        """Gershgorin-style upper bound on the spectrum of L."""
        return float(2.0 * self._scale * self._degrees.max())


def build_laplacian(points: np.ndarray, manifold, c: float) -> LaplacianOperator:
    """The `LaplacianOperator` of an (n, D) point array sampled from
    `manifold` at bandwidth constant c, once its coordinates are checked
    finite; fewer than 2 points or c <= 0 fail in `scale_parameter`."""
    x = np.asarray(points, float)
    if not np.all(np.isfinite(x)):
        raise ValueError("point cloud contains non-finite coordinates")
    return LaplacianOperator(x, manifold, c)

"""Kernel graphs on point clouds and their Laplacians as linear operators.

One kernel is built: at bandwidth t = c n^(-2/(d+6)) the weights are
a_ij = t^(-d/2) exp(-|x_i - x_j|^2 / t), and L = calibration / (n t) (D - A),
with the calibration constant chosen so the spectrum targets the
Laplace-Beltrami spectrum of the underlying unit-radius manifold. The
unit-moment heat-kernel weighting at c, (vol / n) exp(-r^2 / 4t) /
(t (4 pi t)^(d/2)), is this operator at 4c, equal to rounding, so it is not
offered as a second scheme.

The same matrix is stored in one of two ways, and `zonal_weights` picks it.

The triangle. The kernel is symmetric, so only its lower triangle is
computed and swept, one row tile K[lo:hi, :hi] of TILE_ROWS rows at a time.
A tile takes five passes: one matmul against points pre-scaled by 2/t, two
broadcast adds of the log prefactor and squared norms, one `minimum` that
clamps the exponent where roundoff makes r^2 negative, and one `exp`. The
tiles fill an n x n array in place, so a worker touches about 4 n^2 bytes
(256 MiB at n = 8192, 1 GiB at n = 16384), and a matvec is one BLAS
symmetric sweep over the triangle (`dsymv`) per vector, 4 n^2 bytes read. It
calls scipy's BLAS through ctypes, which releases the GIL, so the sweeps of
concurrent harness workers run in parallel; through scipy.linalg.blas, which
holds the GIL, they would take turns.

The zonal factors. On unit-norm points |x - y|^2 = 2 - 2 x.y, so with
z = 2/t a weight is t^(-d/2) e^(-z) exp(z x.y), a function of x.y alone. On
the circle and the sphere the model's `kernel_levels` expands it over the
levels of its own eigenbasis, A = t^(-d/2) Phi^T diag(mu) Phi, with Phi the
(r, n) `eigenbasis` at the points and mu_i the coefficient of mode i's level.
The expansion is cut after the first level whose tail, sum of size * mu over
the levels past it, is verified below TAIL (2^-53) of the peak weight, which
is the whole sum, 1. A matvec is two BLAS matrix-vector products over Phi
(numpy `matmul`, which releases the GIL), 16 n r bytes read. The factors are
stored where all of these hold: the model has an expansion, every point has
||x|^2 - 1| <= UNIT_TOL, the tail is verified, and 16 n r < 4 n^2, that is
4 r < n. Otherwise the triangle is.

The harness bounds memory by capping its worker count, not here;
`kernel_bytes` is the kernel's share of a cell, from the same choice.
"""

from __future__ import annotations

import ctypes
import math
import mmap

import numpy as np
from scipy.linalg import cython_blas

from .manifolds import eigenbasis

TILE_ROWS = 256
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


def _lazy_matrix(n: int) -> np.ndarray:
    """An n x n zero matrix whose memory is mapped page by page on first write.

    np.empty would ask for huge pages, and one write into a 2 MiB huge page
    maps 32 whole kernel rows at n = 8192, the unwritten triangle included.
    """
    buf = mmap.mmap(-1, 8 * n * n)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=float).reshape(n, n)


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _blas_routine(name: str, nargs: int):
    """scipy's BLAS routine `name`, every argument a pointer, as a ctypes function.

    A ctypes CFUNCTYPE call releases the GIL for as long as the routine runs.
    """
    capsule = cython_blas.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


_DSYMV = _blas_routine("dsymv", 10)


def symmetric_sweep(lower: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S x for a vector x (n,), where S is the symmetric matrix whose lower
    triangle (diagonal included) is that of `lower`.

    `lower` is a C-order (n, n) float array; its upper triangle is never read.
    The result equals scipy.linalg.blas.dsymv on lower.T with lower=0 bit for
    bit, and the GIL is released during the sweep.
    """
    n = lower.shape[0]
    if lower.dtype != np.float64 or lower.shape != (n, n) or not lower.flags.c_contiguous:
        raise ValueError("expected a C-contiguous square float64 matrix")
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"expected a vector of {n}, got shape {x.shape}")
    # the C-order lower triangle is the Fortran-order upper one
    out = np.zeros(n)
    a, b, c = (v.ctypes.data for v in (lower, x, out))
    ref = ctypes.byref
    rows, one, zero = ctypes.c_int(n), ctypes.c_double(1.0), ctypes.c_double(0.0)
    unit = ref(ctypes.c_int(1))
    _DSYMV(b"U", ref(rows), ref(one), a, ref(rows), b, unit, ref(zero), c, unit)
    return out


def zonal_weights(manifold, n: int, t: float, points: np.ndarray | None = None):
    """Per-mode coefficients mu_i (r,) of the zonal factors an n-point kernel
    at bandwidth t is stored as, or None where it is stored as the triangle.

    None where the model has no expansion, a given point is off the unit
    sphere by more than UNIT_TOL in |x|^2, no level's tail is verified below
    TAIL, or 4 r >= n. Without `points` the model's own samples are assumed,
    which are unit-norm to rounding.

    The levels come from `manifold.kernel_levels` in doubling batches, so the
    choice costs O(levels). Past the last computed level the tail is bounded
    by the geometric series of the last computed ratio of size * mu terms: on
    both models the ratios never grow (I_{v+1}(z) / I_v(z) falls as v grows,
    and so does the ratio of consecutive level sizes). A batch whose last
    ratio is not below 1 bounds nothing, and a batch whose levels fill n / 4
    modes unverified means the triangle.
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
            return weights if 4 * len(weights) < n else None
        if 4 * int(sizes.sum()) >= n:
            return None
        count *= 2


def kernel_bytes(manifold, n: int, c: float) -> int:
    """Bytes of an n-point kernel at bandwidth constant c, as `build_laplacian`
    stores it: 8 n r of zonal factors, or the 4 n^2 touched triangle."""
    weights = zonal_weights(manifold, n, scale_parameter(n, manifold.intrinsic_dim, c))
    return 4 * n * n if weights is None else 8 * n * len(weights)


class LaplacianOperator:
    """Symmetric PSD graph Laplacian over n points, kernel cached at build.

    Given a manifold whose `zonal_weights` hold at the points, the kernel is
    stored as its zonal factors; otherwise, and always without a manifold,
    only its lower triangle is computed, stored and swept, in row tiles
    K[lo:hi, :hi], the upper triangle following by symmetry. Self-weights
    cancel identically in D - A: the triangle never materializes them, and
    the factors keep them in both D and A.
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
        # the r^2 >= 0 clamp
        inv_t = 1.0 / t
        log_pref = math.log(t ** (-d / 2.0))
        scaled_points = points * (2.0 * inv_t)
        col_term = np.einsum("ij,ij->i", points, points) * -inv_t
        row_term = col_term + log_pref
        # tiles land in place; above the diagonal blocks nothing is written
        self._kernel = _lazy_matrix(n)
        self._degrees = np.zeros(n)
        for lo in range(0, n, TILE_ROWS):
            hi = min(lo + TILE_ROWS, n)
            blk = self._kernel[lo:hi, :hi]
            np.matmul(points[lo:hi], scaled_points[:hi].T, out=blk)
            blk += row_term[lo:hi, None]
            blk += col_term[None, :hi]
            np.minimum(blk, log_pref, out=blk)
            np.exp(blk, out=blk)
            blk[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
            self._degrees[lo:hi] += blk.sum(axis=1)
            self._degrees[:lo] += blk[:, :lo].sum(axis=0)

    def _factored_sweep(self, x: np.ndarray) -> np.ndarray:
        """A x = Phi^T (w * Phi x) for a vector x (n,)."""
        if x.shape != (self.n,):
            raise ValueError(f"expected a vector of {self.n}, got shape {x.shape}")
        return self._factors.T @ (self._weights * (self._factors @ x))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return L x for a vector x (n,)."""
        if self._factors is None:
            ax = symmetric_sweep(self._kernel, x)
        else:
            ax = self._factored_sweep(x)
        return self._scale * (self._degrees * x - ax)

    def dense_matrix(self) -> np.ndarray:
        """Materialize L as a dense symmetric matrix (oracle/testing path)."""
        if self._factors is None:
            k = np.tril(self._kernel, -1)
            k += k.T
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

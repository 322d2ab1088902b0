"""Kernel graphs on point clouds and their Laplacians as linear operators.

Two kernel schemes are supported: a heat-kernel weighting with unit zeroth
moment, and a plain Gaussian weighting with an outer 1/(n t) scale. Both
yield L = D - A up to scheme-dependent prefactors, multiplied by a
calibration constant chosen so the spectrum targets the Laplace-Beltrami
spectrum of the underlying unit-radius manifold.

The kernel is symmetric, so only its lower triangle is computed and swept,
one row tile K[lo:hi, :hi] of TILE_ROWS rows at a time. A tile takes five
passes: one matmul against points pre-scaled by 2/denom, two broadcast adds
of the log prefactor and squared norms, one `minimum` that clamps the
exponent where roundoff makes r^2 negative, and one `exp`.

The tiles fill an n x n array in place, so a worker touches about 4 n^2
bytes (256 MiB at n = 8192, 1 GiB at n = 16384), and a matvec is one BLAS
symmetric sweep over the triangle (`dsymv`, or `dsymm` for a block). It calls
scipy's BLAS through ctypes, which releases the GIL, so the sweeps of
concurrent harness workers run in parallel; through scipy.linalg.blas, which
holds the GIL, they would take turns. The harness bounds memory by capping
its worker count, not here.
"""

from __future__ import annotations

import ctypes
import math
import mmap
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_blas

from .manifolds import PointCloud

TILE_ROWS = 256


def scale_parameter(n: int, d: int, c: float) -> float:
    """Bandwidth schedule t = c * n^(-2/(d+6))."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    return c * float(n) ** (-2.0 / (d + 6))


def calibration_constant(scheme_tag: str, d: int, volume: float) -> float:
    """Multiplier making the calibrated Laplacian's spectrum match lambda_i.

    Heat scheme: the kernel has unit zeroth moment and the uniform sampling
    density contributes 1/vol, so the constant is vol. Gaussian scheme: the
    kernel exp(-r^2/t) has per-coordinate second moment pi^{d/2} t / 2, and
    the Taylor expansion contributes another 1/2, so after the outer 1/t the
    graph Laplacian approximates pi^{d/2} / (4 vol) times the manifold
    operator; the constant is therefore 4 vol / pi^{d/2}. Both constants are
    verified empirically against the circle/sphere eigenvalue oracles.
    """
    if d not in (1, 2):
        raise ValueError(f"unsupported intrinsic dimension: {d}")
    if scheme_tag == "heat":
        return volume
    if scheme_tag == "gaussian":
        return 4.0 * volume / math.pi ** (d / 2.0)
    raise ValueError(f"unknown scheme tag: {scheme_tag!r}")


@dataclass(frozen=True)
class KernelScheme:
    """Kernel choice plus bandwidth and spectral calibration."""

    tag: str  # "heat" | "gaussian"
    intrinsic_dim: int
    bandwidth: float
    calibration: float = 1.0

    def __post_init__(self):
        if self.tag not in ("heat", "gaussian"):
            raise ValueError(f"unknown scheme tag: {self.tag!r}")
        if self.bandwidth <= 0:
            raise ValueError(f"need bandwidth > 0, got {self.bandwidth}")
        if self.calibration <= 0:
            raise ValueError(f"need calibration > 0, got {self.calibration}")

    def kernel_prefactor(self) -> float:
        """Multiplier on exp(-r^2 / denom) in the adjacency weights."""
        t, d = self.bandwidth, self.intrinsic_dim
        if self.tag == "heat":
            return 1.0 / (t * (4.0 * math.pi * t) ** (d / 2.0))
        return t ** (-d / 2.0)

    def kernel_denominator(self) -> float:
        t = self.bandwidth
        return 4.0 * t if self.tag == "heat" else t

    def outer_scale(self, n: int) -> float:
        """Everything outside D - A: calibration and scheme normalization."""
        if self.tag == "heat":
            # the 1/n lives in the adjacency definition; keep it out here
            return self.calibration / n
        return self.calibration / (n * self.bandwidth)


def calibrated_scheme(
    tag: str, manifold, n: int, c: float = 1.0
) -> KernelScheme:
    """Convenience: scheduled bandwidth plus analytic calibration constant."""
    d = manifold.intrinsic_dim
    t = scale_parameter(n, d, c)
    cal = calibration_constant(tag, d, manifold.volume)
    return KernelScheme(tag=tag, intrinsic_dim=d, bandwidth=t, calibration=cal)


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
_DSYMM = _blas_routine("dsymm", 12)


def symmetric_sweep(lower: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S x for a vector (n,) or a block (n, k), where S is the symmetric matrix
    whose lower triangle (diagonal included) is that of `lower`.

    `lower` is a C-order (n, n) float array; its upper triangle is never read.
    The result equals scipy.linalg.blas.dsymv/dsymm on lower.T with lower=0
    bit for bit, and the GIL is released during the sweep.
    """
    n = lower.shape[0]
    if lower.dtype != np.float64 or lower.shape != (n, n) or not lower.flags.c_contiguous:
        raise ValueError("expected a C-contiguous square float64 matrix")
    x = np.asfortranarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"expected {n} rows, got shape {x.shape}")
    # the C-order lower triangle is the Fortran-order upper one
    out = np.zeros(x.shape, order="F")
    a, b, c = (v.ctypes.data for v in (lower, x, out))
    ref = ctypes.byref
    rows, one, zero = ctypes.c_int(n), ctypes.c_double(1.0), ctypes.c_double(0.0)
    if x.ndim == 1:
        unit = ref(ctypes.c_int(1))
        _DSYMV(b"U", ref(rows), ref(one), a, ref(rows), b, unit, ref(zero), c, unit)
    else:
        cols = ctypes.c_int(x.shape[1])
        _DSYMM(b"L", b"U", ref(rows), ref(cols), ref(one), a, ref(rows), b, ref(rows),
               ref(zero), c, ref(rows))
    return out


class LaplacianOperator:
    """Symmetric PSD graph Laplacian over n points, kernel cached at build.

    Only the lower triangle of the kernel is computed, stored and swept, in
    row tiles K[lo:hi, :hi]; the upper triangle follows by symmetry.
    Self-weights are never materialized: they cancel identically in D - A.
    """

    def __init__(self, points: np.ndarray, scheme: KernelScheme):
        self.n = n = points.shape[0]
        self._scale = scheme.outer_scale(n)
        # a weight, without calibration and outer scale, is exp(min(log pref +
        # (2 x_i.x_j - |x_i|^2 - |x_j|^2) / denom, log pref)): the minimum is
        # the r^2 >= 0 clamp
        inv_denom = 1.0 / scheme.kernel_denominator()
        log_pref = math.log(scheme.kernel_prefactor())
        scaled_points = points * (2.0 * inv_denom)
        col_term = np.einsum("ij,ij->i", points, points) * -inv_denom
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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return L x for a vector (n,) or a block of vectors (n, k)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError(f"expected {self.n} rows, got shape {x.shape}")
        ax = symmetric_sweep(self._kernel, x)
        degrees = self._degrees if x.ndim == 1 else self._degrees[:, None]
        return self._scale * (degrees * x - ax)

    def dense_matrix(self) -> np.ndarray:
        """Materialize L as a dense symmetric matrix (oracle/testing path)."""
        k = np.tril(self._kernel, -1)
        k += k.T
        return self._scale * (np.diag(self._degrees) - k)

    def degree_bound(self) -> float:
        """Gershgorin-style upper bound on the spectrum of L."""
        return float(2.0 * self._scale * self._degrees.max())


def build_laplacian(points: PointCloud | np.ndarray, scheme: KernelScheme) -> LaplacianOperator:
    """Construct the calibrated graph Laplacian for a point cloud."""
    x = points.points if isinstance(points, PointCloud) else np.asarray(points, float)
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 points, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point cloud contains non-finite coordinates")
    return LaplacianOperator(x, scheme)

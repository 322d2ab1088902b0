"""Kernel graphs on point clouds and their Laplacians as linear operators.

Two kernel schemes are supported: a heat-kernel weighting with unit zeroth
moment, and a plain Gaussian weighting with an outer 1/(n t) scale. Both
yield L = D - A up to scheme-dependent prefactors, multiplied by a
calibration constant chosen so the spectrum targets the Laplace-Beltrami
spectrum of the underlying unit-radius manifold.

The kernel is symmetric, so only its lower triangle is computed and swept,
one row tile K[lo:hi, :hi] at a time. Storage is cached-dense up to
DENSE_LIMIT points: the tiles fill an n x n array in place, so a worker
touches about 4 n^2 bytes (256 MiB at n = 8192) and a matvec is one BLAS
symmetric sweep over the triangle. Above DENSE_LIMIT the tiles are
re-evaluated on the fly for every matvec, each one used for its rows and,
transposed, for its columns. The two paths agree to roundoff and the dense
path is the one the acceptance runs exercise.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .manifolds import PointCloud

DENSE_LIMIT = 8192
TILE_ROWS = 1024


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


class LaplacianOperator:
    """Symmetric PSD graph Laplacian over n points, matrix-free matvec.

    Only the lower triangle of the kernel is computed, stored and swept, in
    row tiles K[lo:hi, :hi]; the upper triangle follows by symmetry.
    Self-weights are never materialized: they cancel identically in D - A.
    """

    def __init__(self, points: np.ndarray, scheme: KernelScheme, storage: str):
        self.points = points
        self.scheme = scheme
        self.storage = storage
        self.n = points.shape[0]
        self._scale = scheme.outer_scale(self.n)
        self._pref = scheme.kernel_prefactor()
        self._inv_denom = 1.0 / scheme.kernel_denominator()
        self._sqnorms = np.einsum("ij,ij->i", points, points)
        # cached-dense: tiles land in place; the upper triangle stays unwritten
        self._kernel = _lazy_matrix(self.n) if storage == "cached-dense" else None
        self._degrees = np.zeros(self.n)
        for lo, hi, blk in self._tiles(self._kernel):
            self._degrees[lo:hi] += blk.sum(axis=1)
            self._degrees[:lo] += blk[:, :lo].sum(axis=0)

    def _tiles(self, out: np.ndarray | None = None):
        """Yield (lo, hi, K[lo:hi, :hi]): adjacency row tiles up to the diagonal.

        Weights exclude calibration and outer scale, and the diagonal is zero.
        Tiles are evaluated into the matching slice of `out` if given, else
        into a fresh array per tile.
        """
        pts, sq = self.points, self._sqnorms
        for lo in range(0, self.n, TILE_ROWS):
            hi = min(lo + TILE_ROWS, self.n)
            blk = np.empty((hi - lo, hi)) if out is None else out[lo:hi, :hi]
            np.matmul(pts[lo:hi], pts[:hi].T, out=blk)
            blk *= -2.0
            blk += sq[lo:hi, None]
            blk += sq[None, :hi]
            np.maximum(blk, 0.0, out=blk)
            blk *= -self._inv_denom
            np.exp(blk, out=blk)
            blk *= self._pref
            blk[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
            yield lo, hi, blk

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return L x for a vector (n,) or a block of vectors (n, k)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError(f"expected {self.n} rows, got shape {x.shape}")
        if self._kernel is None:
            ax = np.zeros(x.shape)
            for lo, hi, blk in self._tiles():
                ax[lo:hi] += blk @ x[:hi]
                ax[:lo] += blk[:, :lo].T @ x[lo:hi]
        else:
            # the C-order lower triangle is the Fortran-order upper one, and
            # the transposed view reaches BLAS without a copy
            sym = blas.dsymv if x.ndim == 1 else blas.dsymm
            ax = sym(1.0, self._kernel.T, x, lower=0)
        degrees = self._degrees if x.ndim == 1 else self._degrees[:, None]
        return self._scale * (degrees * x - ax)

    def dense_matrix(self) -> np.ndarray:
        """Materialize L as a dense symmetric matrix (oracle/testing path)."""
        k = self._kernel
        if k is None:
            k = np.empty((self.n, self.n))
            for _ in self._tiles(k):
                pass
        k = np.tril(k, -1)
        k += k.T
        return self._scale * (np.diag(self._degrees) - k)

    def degree_bound(self) -> float:
        """Gershgorin-style upper bound on the spectrum of L."""
        return float(2.0 * self._scale * self._degrees.max())


def build_laplacian(
    points: PointCloud | np.ndarray, scheme: KernelScheme, storage: str | None = None
) -> LaplacianOperator:
    """Construct the calibrated graph Laplacian for a point cloud."""
    x = points.points if isinstance(points, PointCloud) else np.asarray(points, float)
    if x.shape[0] < 2:
        raise ValueError(f"need at least 2 points, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point cloud contains non-finite coordinates")
    if storage is None:
        storage = "cached-dense" if x.shape[0] <= DENSE_LIMIT else "on-the-fly"
    if storage not in ("cached-dense", "on-the-fly"):
        raise ValueError(f"unknown storage mode: {storage!r}")
    return LaplacianOperator(x, scheme, storage)

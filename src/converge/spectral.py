"""Partial eigendecomposition and eigen-convergence diagnostics.

Everything here lives in the G_n geometry: the inner product is the
1/n-weighted dot product, the Monte Carlo surrogate for the manifold L2
inner product. Eigenvectors returned by this module are G_n-orthonormal
(Euclidean norm sqrt(n)).

The solver is Lanczos with full reorthogonalization applied to L itself:
the K smallest Ritz values of the tridiagonal projection, taken in
ascending order, converge to the smallest eigenpairs of L, so no spectral
shift is needed. It uses only matvecs, no linear solves, and stops as soon
as every Ritz residual estimate meets the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .bounds import hoeffding_bound
from .graph import LaplacianOperator
from .manifolds import (
    ContinuumEigenpair,
    ManifoldModel,
    PointCloud,
    quadrature_nodes,
    sample_uniform,
)


def gn_inner(x: np.ndarray, y: np.ndarray) -> float:
    """<x, y>_{G_n} = (1/n) sum_i x_i y_i."""
    return float(np.dot(x, y)) / len(x)


def gn_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x)) / np.sqrt(len(x))


class ConvergenceFailure(Exception):
    """Eigensolver hit its iteration cap; carries the residuals achieved."""

    def __init__(self, message: str, residuals: np.ndarray):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class EigenSystem:
    """K smallest eigenpairs of a graph Laplacian, G_n-orthonormal."""

    eigenvalues: np.ndarray  # (K,), nondecreasing
    eigenvectors: np.ndarray  # (n, K), columns with unit G_n norm

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    def with_vectors(self, vectors: np.ndarray) -> "EigenSystem":
        return EigenSystem(self.eigenvalues, vectors)


def _start_vector(n: int, seed: int) -> np.ndarray:
    v = np.random.default_rng(seed).standard_normal(n)
    return v / np.linalg.norm(v)


def _lanczos(op: LaplacianOperator, K: int, tol: float, seed: int, max_iter: int):
    """Lanczos on L with full reorthogonalization; the K smallest Ritz pairs."""
    n = op.n
    m_cap = min(max_iter, n)
    Q = np.empty((n, m_cap))
    alphas = np.empty(m_cap)
    betas = np.empty(m_cap)
    Q[:, 0] = _start_vector(n, seed)
    floor = 1e-14 * max(op.degree_bound(), 1.0)
    check_at = max(2 * K, 8)
    for m in range(1, m_cap + 1):
        r = op.matvec(Q[:, m - 1])
        alphas[m - 1] = np.dot(Q[:, m - 1], r)
        # full reorthogonalization, twice for safety; it also removes the
        # alpha q_m and beta q_{m-1} terms of the three-term recurrence
        r -= Q[:, :m] @ (Q[:, :m].T @ r)
        r -= Q[:, :m] @ (Q[:, :m].T @ r)
        beta = float(np.linalg.norm(r))
        exhausted = m == m_cap or beta < floor
        if exhausted and m < K:
            raise ConvergenceFailure(
                f"Krylov space exhausted at m={m} before reaching K={K}", np.array([])
            )
        if m >= check_at or exhausted:
            theta, S = scipy.linalg.eigh_tridiagonal(
                alphas[:m], betas[: m - 1], select="i", select_range=(0, K - 1)
            )
            # |beta * s_last| is the Euclidean residual of each unit Ritz pair,
            # which equals the G_n residual after rescaling to unit G_n norm
            if exhausted or np.all(np.abs(beta * S[-1]) <= 0.1 * tol * max(theta[-1], 1.0)):
                return theta, Q[:, :m] @ S
            check_at = m + max(K, 4)
        betas[m - 1] = beta
        Q[:, m] = r / beta


def smallest_eigenpairs(
    op: LaplacianOperator,
    K: int,
    tol: float = 1e-8,
    seed: int = 0,
    method: str = "auto",
) -> EigenSystem:
    """The K algebraically smallest eigenpairs of the operator.

    method: "lanczos" (default for K << n), "dense" (full symmetric
    eigendecomposition of the materialized matrix), or "auto".
    Raises ConvergenceFailure if residuals do not reach tol within the
    iteration cap (40 K matvecs).
    """
    n = op.n
    if not 1 <= K <= n:
        raise ValueError(f"need 1 <= K <= {n}, got {K}")
    if tol <= 0:
        raise ValueError(f"need tol > 0, got {tol}")
    if method == "auto":
        method = "dense" if (K > n // 3 or n <= 128) else "lanczos"

    if method == "dense":
        lam, vecs = scipy.linalg.eigh(op.dense_matrix())
        lam, vecs = lam[:K], vecs[:, :K]
    elif method == "lanczos":
        lam, vecs = _lanczos(op, K, tol, seed, max_iter=40 * K)
    else:
        raise ValueError(f"unknown method: {method!r}")

    # Euclidean-orthonormal Ritz vectors -> G_n-orthonormal columns
    vecs = vecs * np.sqrt(n)
    vecs /= np.linalg.norm(vecs, axis=0) / np.sqrt(n)
    lam = np.maximum(lam, 0.0)  # clip tiny negative roundoff in the kernel mode

    # G_n norms of the columns of L V - V diag(lam), one block product
    residuals = np.linalg.norm(op.matvec(vecs) - vecs * lam, axis=0) / np.sqrt(n)
    scale = max(float(lam[-1]), 1.0)
    if np.any(residuals > tol * scale):
        raise ConvergenceFailure(
            f"residuals {residuals.max():.3e} exceed tol*scale {tol * scale:.3e}",
            residuals,
        )
    return EigenSystem(eigenvalues=lam, eigenvectors=vecs)


def multiplicity_groups(
    eigenvalues: Sequence[float], rel_gap: float = 1e-3
) -> list[list[int]]:
    """Group indices of (near-)repeated eigenvalues.

    Consecutive eigenvalues join a group when their gap is below
    rel_gap * max(1, lambda).
    """
    groups: list[list[int]] = []
    for i, lam in enumerate(eigenvalues):
        if groups and lam - eigenvalues[groups[-1][-1]] < rel_gap * max(1.0, lam):
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def project_eigenfunctions(
    pairs: Sequence[ContinuumEigenpair], points: PointCloud | np.ndarray
) -> list[np.ndarray]:
    """P_n phi_i for each continuum eigenfunction: values at the samples."""
    x = points.points if isinstance(points, PointCloud) else points
    return [p.evaluate(x) for p in pairs]


def align_to_continuum(
    discrete: EigenSystem,
    projected: Sequence[np.ndarray],
    groups: Sequence[Sequence[int]],
) -> EigenSystem:
    """Rotate discrete eigenvectors toward the projected continuum basis.

    Within each multiplicity group, solves orthogonal Procrustes on the
    cross-Gram matrix in the G_n inner product; for a simple eigenvalue this
    reduces to a sign flip making <phi^n, P_n phi>_{G_n} >= 0. Eigenvalues
    and the span of each group are unchanged.
    """
    if len(projected) != discrete.count:
        raise ValueError(
            f"projected count {len(projected)} != discrete count {discrete.count}"
        )
    covered = sorted(i for g in groups for i in g)
    if covered != list(range(discrete.count)):
        raise ValueError("multiplicity groups must partition 0..K-1")
    n = discrete.n
    vecs = discrete.eigenvectors.copy()
    for g in groups:
        g = list(g)
        Q = vecs[:, g]
        P = np.column_stack([projected[i] for i in g])
        if P.shape[0] != n:
            raise ValueError("projected vector length mismatch")
        cross = (Q.T @ P) / n
        if len(g) == 1:
            if cross[0, 0] < 0:
                vecs[:, g[0]] = -vecs[:, g[0]]
            continue
        u, _, vt = np.linalg.svd(cross)
        vecs[:, g] = Q @ (u @ vt)
    return discrete.with_vectors(vecs)


def eigen_errors(
    aligned: EigenSystem,
    continuum: Sequence[ContinuumEigenpair],
    points: PointCloud | np.ndarray,
):
    """Per-index (|lambda_i - lambda_i^n|, ||P_n phi_i - phi_i^n||_{G_n})."""
    x = points.points if isinstance(points, PointCloud) else points
    k = min(aligned.count, len(continuum))
    lam_err = np.empty(k)
    vec_err = np.empty(k)
    for i in range(k):
        lam_err[i] = abs(continuum[i].eigenvalue - aligned.eigenvalues[i])
        vec_err[i] = gn_norm(continuum[i].evaluate(x) - aligned.eigenvectors[:, i])
    return lam_err, vec_err


def hoeffding_check(
    f: Callable[[np.ndarray], np.ndarray],
    g: Callable[[np.ndarray], np.ndarray],
    manifold: ManifoldModel,
    n: int,
    trials: int,
    seed: int,
) -> float:
    """Empirical violation rate of the Monte Carlo inner-product bound.

    The deviation |<P_n f, P_n g>_{G_n} - <f, g>_{L2}| is compared against
    sqrt(18 ln n / n) * sup|fg| per trial; sup and the L2 inner product are
    taken on the manifold's dense quadrature grid.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    grid, w = quadrature_nodes(manifold)
    fg = f(grid) * g(grid)
    exact = float(np.sum(w * fg))
    bound = hoeffding_bound(n, float(np.max(np.abs(fg))))
    violations = 0
    for trial in range(trials):
        cloud = sample_uniform(manifold, n, seed + trial)
        dev = abs(gn_inner(f(cloud.points), g(cloud.points)) - exact)
        if dev > bound:
            violations += 1
    return violations / trials

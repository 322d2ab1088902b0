"""Partial eigendecomposition and eigen-convergence diagnostics.

Everything here lives in the G_n geometry: the inner product is the
1/n-weighted dot product, the Monte Carlo surrogate for the manifold L2
inner product, and `gn_norm` is its norm. Eigenvectors returned by this
module are G_n-orthonormal (Euclidean norm sqrt(n)).

Every solve the program runs is Lanczos with full reorthogonalization
applied to L itself: the K smallest Ritz values of the tridiagonal
projection, taken in ascending order, converge to the smallest eigenpairs of
L, so no spectral shift is needed. It uses only matvecs, no linear solves.
The Ritz residual estimates are checked first at step max(2K, 8); after a
miss, the next check extrapolates the estimates' geometric decay since the
previous miss to the step where they meet the tolerance, at most max(K, 4)
steps ahead. The residual gate ||L V - V Lambda|| is computed from the sweeps
Lanczos already took (L applied to the Ritz vectors is the same combination
of the stored L q_m), so a solve costs one kernel sweep per Lanczos step and
no more. A dense `eigh` of the materialized matrix is kept only as the
oracle, for a caller that names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .graph import LaplacianOperator
from .manifolds import Manifold, eigenbasis

LANCZOS_STEPS = 40  # Lanczos iteration cap, per requested eigenpair


def gn_norm(x: np.ndarray) -> float:
    """||x||_{G_n} = sqrt((1/n) sum_i x_i^2)."""
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


def _start_vector(n: int, seed: int) -> np.ndarray:
    v = np.random.default_rng(seed).standard_normal(n)
    return v / np.linalg.norm(v)


def _lanczos(op: LaplacianOperator, K: int, tol: float, seed: int):
    """Lanczos on L with full reorthogonalization; the K smallest Ritz pairs,
    within min(LANCZOS_STEPS K, n) steps.

    Returns (theta, Q S, LQ S): the Ritz values, the Euclidean-unit Ritz
    vectors, and L applied to them, assembled from the sweeps already taken
    (column m of LQ is L q_m as the operator returned it).
    """
    n = op.n
    m_cap = min(LANCZOS_STEPS * K, n)
    # column-major: a column is contiguous, and unused columns are never touched
    Q = np.empty((n, m_cap), order="F")
    LQ = np.empty((n, m_cap), order="F")
    alphas = np.empty(m_cap)
    betas = np.empty(m_cap)
    Q[:, 0] = _start_vector(n, seed)
    floor = 1e-14 * max(op.degree_bound(), 1.0)
    stride = max(K, 4)
    check_at, last_miss = max(2 * K, 8), None
    for m in range(1, m_cap + 1):
        r = op.matvec(Q[:, m - 1])
        LQ[:, m - 1] = r  # the raw sweep, kept for the residual gate
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
            estimate, bound = np.abs(beta * S[-1]).max(), 0.1 * tol * max(theta[-1], 1.0)
            if exhausted or estimate <= bound:
                return theta, Q[:, :m] @ S, LQ[:, :m] @ S
            ratio, step = estimate / bound, stride
            if last_miss is not None and last_miss[1] > ratio:
                # the estimates decay about geometrically: extrapolate the decay
                # since the last miss to the step where they meet the bound
                m0, ratio0 = last_miss
                to_go = math.log(ratio) * (m - m0) / math.log(ratio0 / ratio)
                step = min(stride, max(1, math.ceil(to_go)))
            check_at, last_miss = m + step, (m, ratio)
        betas[m - 1] = beta
        Q[:, m] = r / beta


def peak_bytes(n: int, K: int) -> int:
    """Peak bytes of a solve, beside the kernel (`graph.kernel_bytes`): 16 n a
    step for the basis and its sweeps over at most min(LANCZOS_STEPS K, n)
    steps, and 32 n K for the Ritz vectors, their sweeps and the tridiagonal
    eigenvectors."""
    return 16 * n * (min(LANCZOS_STEPS * K, n) + 2 * K)


def smallest_eigenpairs(
    op: LaplacianOperator,
    K: int,
    tol: float = 1e-8,
    seed: int = 0,
    method: str = "lanczos",
) -> EigenSystem:
    """The K algebraically smallest eigenpairs of the operator.

    method: "lanczos", the one the program runs, or "dense", the full
    symmetric eigendecomposition of the materialized matrix, kept as the
    oracle that tests and benchmarks check Lanczos against.
    Raises ConvergenceFailure if residuals do not reach tol within the
    iteration cap (LANCZOS_STEPS K matvecs), or if the returned pairs' residuals
    ||L v - lambda v||_{G_n} exceed tol * max(lambda_K, 1).
    """
    n = op.n
    if not 1 <= K <= n:
        raise ValueError(f"need 1 <= K <= {n}, got {K}")
    if tol <= 0:
        raise ValueError(f"need tol > 0, got {tol}")

    if method == "dense":
        matrix = op.dense_matrix()
        lam, vecs = scipy.linalg.eigh(matrix)
        lam, vecs, lvecs = lam[:K], vecs[:, :K], None
    elif method == "lanczos":
        lam, vecs, lvecs = _lanczos(op, K, tol, seed)
    else:
        raise ValueError(f"unknown method: {method!r}")

    # Euclidean-orthonormal Ritz vectors -> G_n-orthonormal columns
    unit = np.sqrt(n) / np.linalg.norm(vecs, axis=0)
    vecs = vecs * unit
    # L V: Lanczos already swept every basis vector; dense multiplies its matrix
    lvecs = matrix @ vecs if lvecs is None else lvecs * unit
    lam = np.maximum(lam, 0.0)  # clip tiny negative roundoff in the kernel mode

    # G_n norms of the columns of L V - V diag(lam)
    residuals = np.linalg.norm(lvecs - vecs * lam, axis=0) / np.sqrt(n)
    scale = max(float(lam[-1]), 1.0)
    if np.any(residuals > tol * scale):
        raise ConvergenceFailure(
            f"residuals {residuals.max():.3e} exceed tol*scale {tol * scale:.3e}",
            residuals,
        )
    return EigenSystem(eigenvalues=lam, eigenvectors=vecs)


def project_eigenfunctions(manifold: Manifold, points: np.ndarray, count: int) -> np.ndarray:
    """P_n phi_i for the first `count` continuum modes, shape (n, count):
    column i is P_n phi_i, phi_i at the samples."""
    return eigenbasis(manifold, points, count)


def align_to_continuum(
    discrete: EigenSystem, projected: np.ndarray, groups: Sequence[Sequence[int]]
) -> EigenSystem:
    """Rotate discrete eigenvectors toward the projected continuum basis.

    Within each multiplicity group, solves orthogonal Procrustes on the
    cross-Gram matrix in the G_n inner product; for a simple eigenvalue this
    reduces to a sign flip making <phi^n, P_n phi>_{G_n} >= 0. Eigenvalues
    and the span of each group are unchanged.
    """
    if projected.shape != discrete.eigenvectors.shape:
        raise ValueError(
            f"projected shape {projected.shape} != eigenvectors {discrete.eigenvectors.shape}"
        )
    covered = sorted(i for g in groups for i in g)
    if covered != list(range(discrete.count)):
        raise ValueError("multiplicity groups must partition 0..K-1")
    n = discrete.n
    vecs = discrete.eigenvectors.copy()
    for g in groups:
        g = list(g)
        Q = vecs[:, g]
        P = projected[:, g]
        cross = (Q.T @ P) / n
        if len(g) == 1:
            if cross[0, 0] < 0:
                vecs[:, g[0]] = -vecs[:, g[0]]
            continue
        u, _, vt = np.linalg.svd(cross)
        vecs[:, g] = Q @ (u @ vt)
    return EigenSystem(discrete.eigenvalues, vecs)


def eigen_errors(aligned: EigenSystem, eigenvalues: np.ndarray, projected: np.ndarray):
    """Per-index (|lambda_i - lambda_i^n|, ||P_n phi_i - phi_i^n||_{G_n}) for aligned's K modes.

    eigenvalues[i] is the continuum eigenvalue of mode i, and column i of
    projected is P_n phi_i, as `project_eigenfunctions` returns it.
    """
    k = aligned.count
    if len(eigenvalues) != k:
        raise ValueError(f"{len(eigenvalues)} continuum eigenvalues for {k} modes")
    lam_err = np.abs(eigenvalues - aligned.eigenvalues)
    vec_err = np.array([gn_norm(projected[:, i] - aligned.eigenvectors[:, i]) for i in range(k)])
    return lam_err, vec_err

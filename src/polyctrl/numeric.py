"""Numeric strong-controllability tests.

The reduced controllability matrix is an orthonormal basis of the span
chain S_0 = range(B), S_{j+1} = S_j + span{ f(v) : v in S_j } of the field
f(x) = A x^(k-1).  By polarization that span is the span of A applied to the
symmetrized Kronecker power of a basis of S_j, so the rank iteration
evaluates the field instead: a randomized range finder (Halko, Martinsson
and Tropp, SIAM Review 2011) on the reduced controllability matrix (Chen,
Surana, Bloch and Rajapakse, IEEE TNSE 2021).  Iteration j draws seeded
Gaussian points V c in the span of the basis V of S_j, at most 8 at a time.
It evaluates f at them from the stored entries: gather the tail rows,
multiply, scatter to the heads, at a cost of nnz * (k-1) per point.  Each
batch W is projected twice against the whole current basis, and the left
singular vectors of the n x b residual are kept above a global cutoff:
tol * sqrt(1 + sum ||W||_F**2) over the iteration so far, a bound on the
largest singular value of the basis beside every batch.  A cutoff relative
to the batch alone would turn a residual of pure rounding into a direction.
An iteration ends when a batch keeps fewer directions than it has points
(b generic points of a span of dimension d add min(b, d) directions), and
the loop ends when an iteration adds nothing.

The explicit controllability matrix runs the same recursion uncompressed
on the tail-symmetrized unfolding: each step appends A applied to the
Kronecker power of the whole matrix so far, so its width w becomes
w + w**(k-1) per step and explodes doubly exponentially, which is why it
only serves as a desk-scale oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import Polysystem, ensure_valid
from .tensor import DEFAULT_CAP, CapacityError, SparseTensor, kron_power, symmetrize, unfold

__all__ = [
    "RankReport",
    "explicit_controllability_matrix",
    "reduced_controllability_matrix",
    "strong_controllability",
    "svd_rank",
]

_EPS = float(np.finfo(np.float64).eps)
# Field evaluations per batch of the rank iteration.
_BATCH = 8


def _relative_tolerance(tol: float, shape: tuple[int, int]) -> float:
    # tol = 0 selects the usual automatic cutoff max(dims) * machine epsilon.
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    return tol if tol > 0 else max(shape) * _EPS


def svd_rank(mat: np.ndarray, tol: float = 0.0) -> int:
    """Numerical rank with a cutoff relative to the largest singular value."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0
    sigma = np.linalg.svd(mat, compute_uv=False)
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > _relative_tolerance(tol, mat.shape) * sigma[0]))


def _entry_arrays(tensor: SparseTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based tail indices (nnz, k-1), head indices (nnz,) and coefficients
    (nnz, 1) of the stored entries, the coefficients scaled to unit Euclidean
    norm."""
    entries = tensor.entries
    nnz, k = len(entries), tensor.order
    idx = np.array(list(entries), dtype=np.intp).reshape(nnz, k) - 1
    coeffs = np.fromiter(entries.values(), dtype=float, count=nnz)
    if nnz:
        coeffs /= np.sqrt(coeffs @ coeffs)
    return idx[:, :-1], idx[:, -1], coeffs[:, None]


def _field(tails, heads, coeffs, points: np.ndarray) -> np.ndarray:
    """f(x) = A x^(k-1) at each column x of ``points``, from the entry arrays:
    gather the tail rows, multiply, and scatter to the heads."""
    out = np.zeros(points.shape)
    np.add.at(out, heads, points[tails].prod(axis=1) * coeffs)
    return out


def _compress(mat: np.ndarray, tol: float) -> tuple[np.ndarray, int, float]:
    u, sigma, _ = np.linalg.svd(mat, full_matrices=False)
    used_tol = _relative_tolerance(tol, mat.shape)
    if sigma.size == 0 or sigma[0] == 0.0:
        return u[:, :0], 0, used_tol
    rank = int(np.count_nonzero(sigma > used_tol * sigma[0]))
    return u[:, :rank], rank, used_tol


def _reduce(system: Polysystem, tol: float, cap: int) -> tuple[np.ndarray, int, float]:
    ensure_valid(system)
    n = system.dim
    tails, heads, coeffs = _entry_arrays(system.tensor)
    # The basis rows, one batch of points and its gathered tail rows.
    cells = n * n + (n + tails.size) * min(_BATCH, n)
    if cells > cap:
        raise CapacityError(f"rank reduction needs {cells} cells, cap is {cap}")
    u, rank, used_tol = _compress(np.array(system.control), tol)
    basis = np.empty((n, n))
    basis[:rank] = u.T
    # One generator per call, so the rank is deterministic.
    rng = np.random.default_rng(0)
    iterations = 0
    while 0 < rank < n:
        iterations += 1
        start, scale = rank, 1.0
        while rank < n:
            width = min(_BATCH, n - rank)
            used_tol = _relative_tolerance(tol, (n, rank + width))
            points = basis[:start].T @ rng.standard_normal((start, width))
            block = _field(tails, heads, coeffs, points)
            scale += np.vdot(block, block)
            for _ in range(2):
                block -= basis[:rank].T @ (basis[:rank] @ block)
            u, sigma, _ = np.linalg.svd(block, full_matrices=False)
            kept = int(np.count_nonzero(sigma > used_tol * scale**0.5))
            basis[rank : rank + kept] = u[:, :kept].T
            rank += kept
            if kept < width:
                break
        if rank == start:
            break
    return basis[:rank].T, iterations, used_tol


def reduced_controllability_matrix(
    system: Polysystem, tol: float = 0.0, cap: int = DEFAULT_CAP
) -> np.ndarray:
    """Orthonormal basis of the reachable directions, at most n columns.

    ``tol`` is the relative singular-value cutoff; 0 selects the automatic
    max(n, r + b) * machine-epsilon cutoff for a batch of b points beside a
    basis of r columns.  The loop runs at most n times and exits early once
    the rank reaches n or stops growing.  The coefficients are scaled to unit Euclidean norm and B is
    orthonormalized up front, so the verdict does not depend on the overall
    scale of either.  ``cap`` bounds the cells of the n x n basis and one
    batch.
    """
    basis, _, _ = _reduce(system, tol, cap)
    return basis


@dataclass(frozen=True)
class RankReport:
    rank: int
    n: int
    strongly_controllable: bool
    iterations: int
    tolerance: float


def strong_controllability(
    system: Polysystem, tol: float = 0.0, cap: int = DEFAULT_CAP
) -> RankReport:
    """Rank verdict from the reduced controllability matrix."""
    basis, iterations, used_tol = _reduce(system, tol, cap)
    rank = basis.shape[1]
    return RankReport(
        rank=rank,
        n=system.dim,
        strongly_controllable=rank == system.dim,
        iterations=iterations,
        tolerance=used_tol,
    )


def explicit_controllability_matrix(
    system: Polysystem, terms: int, cap: int = DEFAULT_CAP
) -> np.ndarray:
    """Uncompressed controllability matrix after ``terms - 1`` steps of the
    cumulative recursion M_0 = B, M_j = [M_{j-1}, A M_{j-1}^(kron (k-1))].

    A is the unfolding of the tail-symmetrized tensor, so A applied to a
    Kronecker power depends on the field alone.  This is the reduction's
    span chain without compression: by polarization, the products such as
    A(b1 kron b1 kron b2) of columns of M_{j-1} span the field values on its
    range.  The width w becomes w + w**(k-1) at each step (m = 1, k = 4: 1,
    2, 10).  Intended as a small-scale rank oracle only; the capacity error
    on column blowup is the expected behaviour beyond desk sizes.
    """
    ensure_valid(system)
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    a_mat = unfold(symmetrize(system.tensor), cap=cap)
    mat = np.array(system.control)
    for _ in range(terms - 1):
        power = kron_power(mat, system.order - 1, cap=cap)
        if mat.shape[0] * power.shape[1] > cap:
            raise CapacityError(
                f"controllability block needs {mat.shape[0] * power.shape[1]} "
                f"cells, cap is {cap}"
            )
        mat = np.hstack([mat, a_mat @ power])
    return mat

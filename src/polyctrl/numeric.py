"""Numeric strong-controllability tests.

The reduced controllability matrix is grown iteratively: apply the tensor
to the Kronecker power of the current basis, append, and compress with a
thin SVD so the column count never exceeds n.  The generated block is built
from the stored entries, each adding a row-wise Kronecker product of basis
rows to its head row, so its cost is nnz * s**(k-1) for a basis of s
columns and neither the Kronecker power nor a dense unfolding enters the
product; the unfolding is formed once per call, only for the spectral norm
that scales the coefficients.

The explicit controllability matrix runs the same recursion uncompressed:
each step appends A applied to the Kronecker power of the whole matrix so
far, so its width w becomes w + w**(k-1) per step and explodes doubly
exponentially, which is why it only serves as a desk-scale oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import Polysystem, ensure_valid
from .tensor import DEFAULT_CAP, CapacityError, SparseTensor, kron_power, unfold

__all__ = [
    "RankReport",
    "explicit_controllability_matrix",
    "reduced_controllability_matrix",
    "strong_controllability",
    "svd_rank",
]

_EPS = float(np.finfo(np.float64).eps)


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


def _entry_arrays(
    tensor: SparseTensor, a_norm: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """0-based tail indices (nnz, k-1), head indices (nnz,) and coefficients
    (nnz,) of the stored entries, the coefficients divided by ``a_norm``."""
    entries = tensor.entries
    nnz, k = len(entries), tensor.order
    idx = np.array(list(entries), dtype=np.intp).reshape(nnz, k) - 1
    coeffs = np.fromiter(entries.values(), dtype=float, count=nnz)
    if a_norm > 0.0:
        coeffs = coeffs / a_norm
    return idx[:, :-1], idx[:, -1], coeffs


def _generated_block(
    tails: np.ndarray,
    heads: np.ndarray,
    coeffs: np.ndarray,
    basis: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Apply the tensor to the Kronecker power of ``basis``, entry by entry.

    Entry e adds ``c_e * V[i1] kron ... kron V[i_{k-1}]`` (rows of the basis
    V at its tail indices) to row ``head_e`` of the block, so columns keep
    the ``kron_power`` order: tuple index lexicographic, first factor
    slowest.  Entries are taken at most n at a time, so no temporary is
    larger than the block itself.
    """
    n, s = basis.shape
    width = s ** tails.shape[1]
    if n * width > cap:
        raise CapacityError(
            f"generated block needs {n * width} cells, cap is {cap}"
        )
    out = np.zeros((n, width))
    for start in range(0, heads.size, n):
        chunk = slice(start, start + n)
        rows = basis[tails[chunk, 0]]
        for mode in range(1, tails.shape[1]):
            factor = basis[tails[chunk, mode]]
            rows = (rows[:, :, None] * factor[:, None, :]).reshape(rows.shape[0], -1)
        rows *= coeffs[chunk, None]
        np.add.at(out, heads[chunk], rows)
    return out


def _compress(mat: np.ndarray, tol: float) -> tuple[np.ndarray, int, float]:
    u, sigma, _ = np.linalg.svd(mat, full_matrices=False)
    used_tol = _relative_tolerance(tol, mat.shape)
    if sigma.size == 0 or sigma[0] == 0.0:
        return u[:, :0], 0, used_tol
    rank = int(np.count_nonzero(sigma > used_tol * sigma[0]))
    return u[:, :rank], rank, used_tol


def _reduce(
    system: Polysystem, tol: float, cap: int
) -> tuple[np.ndarray, int, float, list[int]]:
    ensure_valid(system)
    n = system.dim
    # B is compressed to an orthonormal basis before the loop and the
    # coefficients are divided once by the spectral norm of the unfolded
    # tensor (built only for that norm and its capacity guard).  Both steps
    # preserve the span chain, and they make the rank verdict independent
    # of the overall coefficient scale: raw stacking of B against
    # A(B kron ... kron B) would otherwise compare magnitudes that differ
    # by the scale to the power k-1.  Per-block rescaling is deliberately
    # avoided; it would amplify an all-noise block into a fake direction.
    a_norm = np.linalg.norm(unfold(system.tensor, cap=cap), 2)
    tails, heads, coeffs = _entry_arrays(system.tensor, a_norm)
    basis, previous_rank, used_tol = _compress(np.array(system.control), tol)
    iterations = 0
    history: list[int] = []
    for _ in range(n):
        if basis.shape[1] == 0 or previous_rank == n:
            break
        block = _generated_block(tails, heads, coeffs, basis, cap)
        iterations += 1
        basis, rank, used_tol = _compress(np.hstack([basis, block]), tol)
        history.append(rank)
        if rank == n or rank == previous_rank:
            break
        previous_rank = rank
    return basis, iterations, used_tol, history


def reduced_controllability_matrix(
    system: Polysystem, tol: float = 0.0, cap: int = DEFAULT_CAP
) -> np.ndarray:
    """Orthonormal basis of the reachable directions, at most n columns.

    ``tol`` is the relative singular-value cutoff; 0 selects the automatic
    max(dims) * machine-epsilon cutoff.  The loop runs at most n times and
    exits early once the rank reaches n or stops growing.  The unfolded
    tensor is scaled to unit spectral norm once up front, so the verdict
    does not depend on the overall scale of the coefficients.
    """
    basis, _, _, _ = _reduce(system, tol, cap)
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
    basis, iterations, used_tol, _ = _reduce(system, tol, cap)
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

    This is the reduction's span chain without the SVD: M_{j-1} and the
    reduced basis span the same space, and so do their Kronecker powers, so
    cross terms such as A(b1 kron b1 kron b2) are formed here as well.  The
    width w becomes w + w**(k-1) at each step (m = 1, k = 4: 1, 2, 10).
    Intended as a small-scale rank oracle only; the capacity error on column
    blowup is the expected behaviour beyond desk sizes.
    """
    ensure_valid(system)
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    a_mat = unfold(system.tensor, cap=cap)
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

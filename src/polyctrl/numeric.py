"""Numeric strong-controllability tests.

The reduced controllability matrix is an orthonormal basis of the span
chain S_0 = range(B), S_{j+1} = S_j + span{ f(v) : v in S_j } of the field
f(x) = A x^(k-1).  By polarization that span is the span of A applied to the
symmetrized Kronecker power of a basis of S_j, so the rank iteration
evaluates the field instead: a randomized range finder (Halko, Martinsson
and Tropp, SIAM Review 2011) on the reduced controllability matrix (Chen,
Surana, Bloch and Rajapakse, IEEE TNSE 2021).  Iteration j draws seeded
Gaussian points V c in the span of the basis V of S_j, at most 8 at a time.
It evaluates f at them from the support's canonical index and the
coefficients with the kernel ``contract`` uses: gather the tail rows,
multiply, scatter to the heads, at a cost of nnz * (k-1) per point.  Each
batch W is projected twice against the whole current basis, and the left
singular vectors of the n x b residual are kept above a global cutoff:
tol * sqrt(1 + sum ||W||_F**2) over the iteration so far, a bound on the
largest singular value of the basis beside every batch, with tol = 0
standing for n * machine epsilon (the basis and a batch never have more
than n columns).  A cutoff relative to the batch alone would turn a
residual of pure rounding into a direction.  An iteration ends when a batch
keeps fewer directions than it has points (b generic points of a span of
dimension d add min(b, d) directions), and the loop ends when an iteration
adds nothing.

The iteration has one entry, ``_reduce``, and runs on a stack of
realizations of one support (R systems that share n and the entry indices,
with their own coefficients and B), so a pattern's realizations cost one
set of numpy calls per batch, not R; ``strong_controllability`` is the
stack of one.  The entries are in the index's lexicographic order, so the
rank does not depend on the order of a file's lines.  The basis is an
(R, n, n) array, and the matmuls and the SVD are stacked.  The members of a
stack start at one control rank and draw the same normals from a fresh
generator.  When one batch keeps different numbers of directions across
them, the stack reruns from its start as one stack per number, so every
member draws what a run on it alone draws and its result is bit-identical
to that run; a stack of one never diverges.  Norms stay per member
(``c @ c``, ``np.vdot``) for the same reason.

The explicit controllability matrix runs the same recursion uncompressed
on the tail-symmetrized unfolding: each step appends A applied to the
Kronecker power of the whole matrix so far, so its width w becomes
w + w**(k-1) per step and explodes doubly exponentially, which is why it
only serves as a desk-scale oracle.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .system import Polysystem, SparsityPattern, sample_coefficients
from .tensor import DEFAULT_CAP, kron_power, symmetrize, unfold
from .tensor import _FrozenArrays, _check_capacity, _field

__all__ = [
    "RankReport",
    "check_tolerance",
    "explicit_controllability_matrix",
    "realization_ranks",
    "strong_controllability",
    "svd_rank",
]

_EPS = float(np.finfo(np.float64).eps)
# Field evaluations per batch of the rank iteration.
_BATCH = 8


def check_tolerance(tol: float) -> None:
    """Refuse a relative cutoff outside [0, 1), NaN included."""
    if not 0 <= tol < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tol}")


def _relative_tolerance(tol: float, shape: tuple[int, int]) -> float:
    # tol = 0 selects the usual automatic cutoff max(dims) * machine epsilon.
    check_tolerance(tol)
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


def _iterate(n: int, index, coeffs, u: np.ndarray, rank: int, cutoff: float):
    """The rank iteration on members that share a control rank, from the
    first ``rank`` left singular vectors ``u`` of their control matrices and
    a fresh generator.  Returns the rank, the iteration count and None, or,
    from the first batch where the members keep different numbers of
    directions, each member's number in place of the None."""
    basis = np.empty((len(u), n, n))
    basis[:, :rank] = u[:, :, :rank].transpose(0, 2, 1)
    rng = np.random.default_rng(0)
    iterations = 0
    while 0 < rank < n:
        iterations += 1
        start, scale = rank, [1.0] * len(basis)
        while True:
            width = min(_BATCH, n - rank)
            normals = rng.standard_normal((start, width))
            block = _field(index, coeffs, basis[:, :start].transpose(0, 2, 1) @ normals)
            # per member, so every value matches a run on that member alone
            scale = [s + np.vdot(b, b) for s, b in zip(scale, block)]
            for _ in range(2):
                block -= basis[:, :rank].transpose(0, 2, 1) @ (basis[:, :rank] @ block)
            w, sigma, _ = np.linalg.svd(block, full_matrices=False)
            kept = [int(np.count_nonzero(row > cutoff * s**0.5)) for row, s in zip(sigma, scale)]
            count = kept[0]
            if kept.count(count) < len(kept):
                return rank, iterations, kept
            basis[:, rank : rank + count] = w[:, :, :count].transpose(0, 2, 1)
            rank += count
            if count < width or rank == n:
                break
        if rank == start:
            break
    return rank, iterations, None


def _reduce(
    n: int, index: np.ndarray, coeffs: np.ndarray, controls: np.ndarray, tol: float, cap: int
) -> list[tuple[int, int, float]]:
    """The rank iteration on a stack of realizations of one support.

    ``index`` is the support's (nnz, k) array of 1-based multi-indices,
    ``coeffs`` the (R, nnz) coefficients and ``controls`` the (R, n, m)
    control matrices.  Each member's coefficients are scaled to unit
    Euclidean norm, by an exact power of two first so that no square
    overflows or underflows, and B is orthonormalized up front, so the
    verdict does not depend on the overall scale of either.  ``tol`` is the
    relative singular-value cutoff; 0 selects the automatic n * machine-epsilon
    cutoff (a batch beside the basis never has more than n columns).
    ``cap`` bounds the cells of each member's n x n basis and one batch.
    Returns each member's rank, iteration count and cutoff; a member that
    did not iterate reports the cutoff of its control rank.
    """
    cells = len(controls) * (n * n + (n + index[:, :-1].size) * min(_BATCH, n))
    _check_capacity("rank reduction needs", cells, cap)
    if coeffs.shape[1]:
        # one contiguous row per member, so every norm rounds as a stack of
        # one's, with its largest |c| brought into [0.5, 1) exactly
        exponents = np.frexp(np.abs(coeffs).max(axis=1, keepdims=True))[1]
        coeffs = np.ldexp(coeffs, -exponents)
        for c in coeffs:
            c /= np.sqrt(c @ c)
    index = index - 1
    u, sigma, _ = np.linalg.svd(controls, full_matrices=False)
    control_cutoff = _relative_tolerance(tol, controls.shape[1:])
    cutoff = _relative_tolerance(tol, (n, n))
    ranks = np.array([np.count_nonzero(row > control_cutoff * row[0]) for row in sigma])
    # A set whose members keep different numbers of directions in one batch
    # reruns from its start as one set per number; every member then draws
    # what a run on it alone draws.
    work = [np.flatnonzero(ranks == rank) for rank in set(ranks.tolist())]
    results: list = [None] * len(controls)
    while work:
        members = work.pop()
        start = int(ranks[members[0]])
        rank, iterations, kept = _iterate(n, index, coeffs[members], u[members], start, cutoff)
        if kept is not None:
            work.extend(members[np.array(kept) == count] for count in set(kept))
            continue
        for member in members:
            results[member] = (rank, iterations, cutoff if iterations else control_cutoff)
    return results


class RankReport(_FrozenArrays):
    __slots__ = ("rank", "n", "strongly_controllable", "iterations", "tolerance")


def _reports(n: int, results: list[tuple[int, int, float]]) -> list[RankReport]:
    return [RankReport(rank, n, rank == n, *rest) for rank, *rest in results]


def strong_controllability(
    system: Polysystem, tol: float = 0.0, cap: int = DEFAULT_CAP
) -> RankReport:
    """Rank verdict from the reduced controllability matrix: the rank
    iteration of ``_reduce`` on a stack of one."""
    tensor, n = system.tensor, system.dim
    results = _reduce(n, tensor.index, tensor.values[None], system.control[None], tol, cap)
    [report] = _reports(n, results)
    return report


def realization_ranks(
    pattern: SparsityPattern, seeds: Iterable[int], tol: float = 0.0
) -> list[RankReport]:
    """Rank verdicts of the pattern's realizations, one per seed, drawn by
    ``sample_coefficients`` and reduced as one stack.  Each report equals
    ``strong_controllability(sample_realization(pattern, seed), tol)`` bit
    for bit; ``DEFAULT_CAP`` counts the cells of the whole stack."""
    index, coeffs, controls = sample_coefficients(pattern, seeds)
    return _reports(pattern.dim, _reduce(pattern.dim, index, coeffs, controls, tol, DEFAULT_CAP))


def explicit_controllability_matrix(system: Polysystem, terms: int) -> np.ndarray:
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
    if terms < 1:
        raise ValueError(f"need at least one term, got {terms}")
    a_mat = unfold(symmetrize(system.tensor))
    mat = np.array(system.control)
    for _ in range(terms - 1):
        # A @ power has n**(k-2) times fewer cells than power, which kron_power bounds
        mat = np.hstack([mat, a_mat @ kron_power(mat, system.order - 1)])
    return mat

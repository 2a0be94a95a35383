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
realizations of dimension n (R systems with their own supports,
coefficients and B), so the realizations of many patterns cost one set of
numpy calls per batch, not R; ``strong_controllability`` is the stack of
one.  Each member's entries are in its index's lexicographic order, so the
rank does not depend on the order of a file's lines, and a shorter support
is padded with coefficient-0 entries that the field drops.  The basis is an
(R, n, n) array, and the matmuls and the SVD are stacked.  Members that
start at one control rank form a part that draws the same normals from a
fresh generator.  When one batch keeps different numbers of directions
across a part's members, the part goes on from that batch as one part per
number, each with a copy of the generator's state, so every member draws
what a run on it alone draws and its result is bit-identical to that run;
a stack of one never splits.  Norms stay per member (``c @ c``, one dot
product per member's batch) for the same reason.

The explicit controllability matrix runs the same recursion uncompressed
on the tail-symmetrized unfolding: each step appends A applied to the
Kronecker power of the whole matrix so far, so its width w becomes
w + w**(k-1) per step and explodes doubly exponentially, which is why it
only serves as a desk-scale oracle.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .system import Polysystem, SparsityPattern, sample_coefficients
from .tensor import DEFAULT_CAP, kron_power, symmetrize, unfold
from .tensor import _FrozenArrays, _check_capacity, _field, _unit_scaled

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


def _reduction_cells(members: int, n: int, tails: int) -> int:
    """Cells of a stack's rank reduction: each member's n x n basis and one
    batch of points, n cells each and ``tails`` gathered tail cells."""
    return members * (n * n + (n + tails) * min(_BATCH, n))


def _twin(rng: np.random.Generator) -> np.random.Generator:
    """A generator that draws what ``rng`` draws from here on."""
    twin = np.random.default_rng(0)
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def _reduce(
    n: int, index: np.ndarray, coeffs: np.ndarray, controls: np.ndarray, tol: float, cap: int
) -> list[tuple[int, int, float]]:
    """The rank iteration on a stack of realizations of dimension n.

    ``index`` holds each member's 1-based multi-indices (R, nnz, k), a
    shorter support padded with rows whose head is n + 1, ``coeffs`` the
    (R, nnz) coefficients, 0 on the padding, and ``controls`` the (R, n, m)
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
    tails = index.shape[1] * (index.shape[2] - 1)
    _check_capacity("rank reduction needs", _reduction_cells(len(controls), n, tails), cap)
    if coeffs.shape[1]:
        # one contiguous row per member, without its padding, so every norm
        # rounds as a stack of one's, with its largest |c| brought into
        # [0.5, 1) exactly
        sizes = np.count_nonzero(index[:, :, -1] <= n, axis=1).tolist()
        coeffs = np.array(
            [c / np.sqrt(c[:size] @ c[:size]) for c, size in zip(map(_unit_scaled, coeffs), sizes)]
        )
    u, sigma, _ = np.linalg.svd(controls, full_matrices=False)
    control_cutoff = _relative_tolerance(tol, controls.shape[1:])
    cutoff = _relative_tolerance(tol, (n, n))
    ranks = np.count_nonzero(sigma > control_cutoff * sigma[:, :1], axis=1)
    results: list = [None] * len(controls)
    # A part is a set of members at one rank that draw from one generator:
    # (members, basis, index, coeffs, rank, start, iterations, scale, rng,
    # going), where start is the rank at the start of the iteration, scale
    # each member's 1 + sum ||W||_F**2 over it, and going whether its last
    # batch kept every direction.  Each distinct control rank starts a part
    # with a fresh generator; a part whose members keep different numbers
    # of directions in one batch goes on from that batch as one part per
    # number, each with a twin of the generator, so every member draws what
    # a run on it alone draws.
    work = []
    for rank in set(ranks.tolist()):
        members = np.flatnonzero(ranks == rank)
        basis = np.empty((len(members), n, n))
        basis[:, :rank] = u[members, :, :rank].transpose(0, 2, 1)
        rng = np.random.default_rng(0)
        work.append((members, basis, index[members] - 1, coeffs[members], rank, -1, 0, None, rng,
                     False))
    while work:
        members, basis, idx, c, rank, start, iterations, scale, rng, going = work.pop()
        if not going:
            if rank == start or not 0 < rank < n:
                for member in members.tolist():
                    results[member] = (rank, iterations, cutoff if iterations else control_cutoff)
                continue
            iterations += 1
            start, scale = rank, np.ones(len(members))
        width = min(_BATCH, n - rank)
        normals = rng.standard_normal((start, width))
        block = _field(idx, c, basis[:, :start].transpose(0, 2, 1) @ normals)
        # one BLAS dot product per member, (1, L) by (L, 1), so every value
        # matches a run on that member alone
        flat = block.reshape(len(block), 1, -1)
        scale = scale + (flat @ flat.transpose(0, 2, 1))[:, 0, 0]
        for _ in range(2):
            block -= basis[:, :rank].transpose(0, 2, 1) @ (basis[:, :rank] @ block)
        w, sigma, _ = np.linalg.svd(block, full_matrices=False)
        # s**0.5 is libm's pow, as the cutoff always was; np.sqrt can differ
        # from it in the last bit
        bounds = [cutoff * s**0.5 for s in scale.tolist()]
        kept = np.count_nonzero(sigma > np.array(bounds)[:, None], axis=1)
        counts = set(kept.tolist())
        for count in counts:
            part, twin, keep = (members, basis, idx, c, scale), rng, slice(None)
            if len(counts) > 1:
                keep = kept == count
                part, twin = tuple(a[keep] for a in part), _twin(rng)
            part[1][:, rank : rank + count] = w[keep, :, :count].transpose(0, 2, 1)
            going = count == width and rank + count < n
            work.append((*part[:4], rank + count, start, iterations, part[4], twin, going))
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
    results = _reduce(n, tensor.index[None], tensor.values[None], system.control[None], tol, cap)
    [report] = _reports(n, results)
    return report


def realization_ranks(
    patterns: Sequence[SparsityPattern], seeds: Sequence[Iterable[int]], tol: float = 0.0
) -> list[list[RankReport]]:
    """Rank verdicts of realizations of patterns of one shape, one per seed,
    ``seeds[i]`` those of ``patterns[i]``, drawn by ``sample_coefficients``
    and reduced as one stack.  Returns each pattern's reports in the order
    of its seeds; each equals ``strong_controllability(sample_realization(
    pattern, seed), tol)`` bit for bit.  ``DEFAULT_CAP`` counts the cells of
    the whole stack."""
    seeds = [list(draws) for draws in seeds]
    index, coeffs, controls = sample_coefficients(patterns, seeds)
    n = controls.shape[1]
    reports = iter(_reports(n, _reduce(n, index, coeffs, controls, tol, DEFAULT_CAP)))
    return [list(islice(reports, len(draws))) for draws in seeds]


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

"""Sparse coefficient tensors and the dense kernels built from them.

A degree-uniform polynomial vector field is stored as a sparse k-mode,
n-dimensional tensor: entry (i1, ..., ik) contributes
``coeff * x_{i1} * ... * x_{i_{k-1}}`` to coordinate ik of the field value.
Mode k is the head mode, modes 1..k-1 are tail modes.  The mode-k unfolding
flattens the tail modes with mode 1 slowest-varying, which is exactly the
ordering of an iterated Kronecker product, so

    unfold(T) @ kron_power(x, k - 1) == contract(T, x)

with the leftmost Kronecker factor bound to tail mode 1.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from itertools import permutations
from typing import Mapping

import numpy as np

__all__ = [
    "DEFAULT_CAP",
    "CapacityError",
    "SparseTensor",
    "contract",
    "kron_power",
    "symmetrize",
    "unfold",
]

# Cap on materialized cells; large dense intermediates are the
# expected failure mode at scale and must fail loudly, never by swapping.
DEFAULT_CAP = 1 << 26


class CapacityError(Exception):
    """An operation would materialize more data than its configured cap."""


def _normalize_entries(order, dim, entries):
    items = entries.items() if isinstance(entries, Mapping) else list(entries)
    out: dict[tuple[int, ...], float] = {}
    for index, value in items:
        idx = tuple(operator.index(i) for i in index)
        if len(idx) != order:
            raise ValueError(f"multi-index {idx} has {len(idx)} modes, expected {order}")
        for i in idx:
            if not 1 <= i <= dim:
                raise ValueError(f"index {i} of multi-index {idx} outside [1, {dim}]")
        coeff = float(value)
        if not math.isfinite(coeff):
            raise ValueError(f"non-finite coefficient {coeff} at {idx}")
        if coeff == 0.0:
            raise ValueError(f"exact-zero coefficient at {idx}: drop the entry instead")
        if idx in out:
            raise ValueError(f"duplicate multi-index {idx}")
        out[idx] = coeff
    return out


@dataclass(frozen=True)
class SparseTensor:
    """k-mode, n-dimensional tensor holding only structurally nonzero entries.

    ``entries`` maps 1-based multi-indices to coefficients and may be given
    as a mapping or as an iterable of (multi-index, value) pairs.  Stored
    support equals structural support: exact-zero coefficients and duplicate
    multi-indices are construction errors, not silent drops.
    """

    order: int
    dim: int
    entries: Mapping[tuple[int, ...], float]

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"tensor order must be >= 2, got {self.order}")
        if self.dim < 1:
            raise ValueError(f"tensor dimension must be >= 1, got {self.dim}")
        object.__setattr__(
            self, "entries", _normalize_entries(self.order, self.dim, self.entries)
        )

    @property
    def support(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.entries)


def _column_index(idx: tuple[int, ...], dim: int) -> int:
    # Horner form of sum_m (i_m - 1) * dim**(k-1-m) over the tail modes.
    col = 0
    for i in idx[:-1]:
        col = col * dim + (i - 1)
    return col


def symmetrize(tensor: SparseTensor) -> SparseTensor:
    """The tensor with tail modes symmetric and the same field ``contract``.

    Each coefficient is spread evenly over the distinct orderings of its
    tail; entries whose shares cancel exactly are dropped.
    """
    out: dict[tuple[int, ...], float] = defaultdict(float)
    for idx, coeff in tensor.entries.items():
        tails = set(permutations(idx[:-1]))
        for tail in tails:
            out[tail + idx[-1:]] += coeff / len(tails)
    return SparseTensor(
        tensor.order, tensor.dim, {idx: c for idx, c in out.items() if c != 0.0}
    )


def unfold(tensor: SparseTensor, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Mode-k unfolding: n x n**(k-1) matrix, row = head index.

    Column order puts tail mode 1 slowest, matching ``kron_power``.  Raises
    CapacityError when its n * n**(k-1) cells exceed ``cap``.
    """
    n, k = tensor.dim, tensor.order
    cols = n ** (k - 1)
    if n * cols > cap:
        raise CapacityError(
            f"unfolding needs {n * cols} cells, cap is {cap}; "
            "use the sparse operations instead"
        )
    out = np.zeros((n, cols))
    for idx, coeff in tensor.entries.items():
        out[idx[-1] - 1, _column_index(idx, n)] = coeff
    return out


def contract(tensor: SparseTensor, x: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial field: bind x to every tail mode.

    Computed directly on the sparse entries, never through the unfolding.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (tensor.dim,):
        raise ValueError(f"expected vector of length {tensor.dim}, got shape {x.shape}")
    out = np.zeros(tensor.dim)
    for idx, coeff in tensor.entries.items():
        term = coeff
        for i in idx[:-1]:
            term *= x[i - 1]
        out[idx[-1] - 1] += term
    return out


def kron_power(mat: np.ndarray, power: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Iterated Kronecker product of ``mat`` with itself, first factor slowest.

    Accepts a matrix or a vector (returned in kind).  Raises CapacityError
    when the result would hold more than ``cap`` cells.
    """
    if power < 1:
        raise ValueError(f"Kronecker power must be >= 1, got {power}")
    mat = np.asarray(mat, dtype=float)
    if mat.ndim > 2:
        raise ValueError(f"expected a vector or matrix, got {mat.ndim} axes")
    cells = 1
    for extent in mat.shape:
        cells *= extent ** power
    if cells > cap:
        raise CapacityError(f"Kronecker power needs {cells} cells, cap is {cap}")
    out = mat
    for _ in range(power - 1):
        out = np.kron(out, mat)
    return out

"""Polynomial control systems, their sparsity patterns, and realization sampling.

A system pairs a k-mode coefficient tensor (the drift ``A x^(k-1)``) with a
linear control matrix B.  A Polysystem checks itself when built and
refuses invalid input, so no operation on one checks it again; a
SparsityPattern's constructor checks its shape, and its support by the
index rule of ``polyctrl.tensor`` that a tensor's keys follow too.  The
structural layer works on sparsity patterns alone; ``sample_realization``
turns a pattern back into a concrete system with coefficients bounded away
from zero.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .tensor import SparseTensor, _FrozenArrays, _check_capacity, _first_outside, _support_index

__all__ = [
    "Polysystem",
    "SparsityPattern",
    "check_shape",
    "sample_coefficients",
    "sample_realization",
    "sparsity_pattern",
]


class Polysystem(_FrozenArrays):
    """Coefficient tensor plus control matrix, a 1-D control read as one column.

    Construction raises ``ValueError("invalid system: ...")`` naming every
    violation: an odd tensor order, or a control matrix that is not 2-D,
    lacks one row per coordinate or a column, or has non-finite entries.
    ``control`` is a read-only float64 copy, compared by value as the tensor is.
    """

    __slots__ = ("tensor", "control")

    def __init__(self, tensor: SparseTensor, control) -> None:
        b = np.array(control, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        violations = []
        if tensor.order % 2 != 0:
            violations.append(
                f"parity: tensor order k={tensor.order} is odd, so the drift degree k-1 is not odd"
            )
        if b.ndim != 2:
            violations.append(f"shape: control matrix has {b.ndim} axes")
        else:
            if len(b) != tensor.dim:
                violations.append(
                    f"dimension: control matrix has {len(b)} rows, tensor dimension is {tensor.dim}"
                )
            if b.shape[1] < 1:
                violations.append("dimension: control matrix needs at least one column")
            if not np.isfinite(b).all():
                violations.append("value: control matrix has non-finite entries")
        if violations:
            raise ValueError("invalid system: " + "; ".join(violations))
        self._fill(tensor, b)

    @property
    def order(self) -> int:
        return self.tensor.order

    @property
    def dim(self) -> int:
        return self.tensor.dim

    @property
    def inputs(self) -> int:
        return self.control.shape[-1]


def check_shape(n: int, k: int, m: int) -> None:
    """Reject a shape no pattern can have: n or m below 1, an odd k or k
    below 2."""
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    if m < 1:
        raise ValueError(f"input count m must be >= 1, got {m}")
    if k % 2:
        raise ValueError(f"tensor order k={k} is odd; the drift degree k-1 must be odd")
    if k < 2:
        raise ValueError(f"tensor order k must be >= 2, got {k}")


class SparsityPattern(_FrozenArrays):
    """Structural support of a system: which coefficients may be nonzero.

    The support is held as two read-only int64 arrays of distinct rows in
    lexicographic order: ``tensor_index`` (nnz, order) holds the tensor's
    1-based multi-indices, the same form as a ``SparseTensor``'s ``index``,
    and ``control_index`` (c, 2) the (row, column) pairs of the control
    matrix.  ``tensor_support`` and ``control_support`` read them back as
    frozensets of tuples.  The constructor checks its arguments;
    ``from_index`` wraps arrays that are already canonical.
    """

    __slots__ = ("order", "dim", "inputs", "tensor_index", "control_index")

    def __init__(
        self,
        order: int,
        dim: int,
        inputs: int,
        tensor_support: Iterable[tuple[int, ...]],
        control_support: Iterable[tuple[int, int]],
    ) -> None:
        check_shape(dim, order, inputs)
        tensor_index = _support_index(tensor_support, order, "multi-index")
        idx = _first_outside(tensor_index, dim)
        if idx is not None:
            raise ValueError(f"multi-index {idx} outside [1, {dim}]")
        control_index = _support_index(control_support, 2, "control index")
        idx = _first_outside(control_index, [dim, inputs])
        if idx is not None:
            raise ValueError(f"control index {idx} out of range")
        self._fill(order, dim, inputs, tensor_index, control_index)

    @classmethod
    def from_index(
        cls,
        order: int,
        dim: int,
        inputs: int,
        tensor_index: np.ndarray,
        control_index: np.ndarray,
    ) -> SparsityPattern:
        """Wrap a support without checking it: an even order, and
        ``tensor_index`` an (nnz, order) and ``control_index`` a (c, 2) int64
        array, each of distinct rows in lexicographic order and in range.
        The arrays are made read-only, not copied."""
        return cls._wrap(order, dim, inputs, tensor_index, control_index)

    @property
    def tensor_support(self) -> frozenset[tuple[int, ...]]:
        return frozenset(map(tuple, self.tensor_index.tolist()))

    @property
    def control_support(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.control_index.tolist()))

    def __repr__(self) -> str:
        return (
            f"SparsityPattern(order={self.order!r}, dim={self.dim!r}, inputs={self.inputs!r}, "
            f"tensor_support={self.tensor_support!r}, control_support={self.control_support!r})"
        )


def sparsity_pattern(system: Polysystem) -> SparsityPattern:
    """Project a system onto its structural support."""
    return SparsityPattern.from_index(
        system.order,
        system.dim,
        system.inputs,
        system.tensor.index,
        np.argwhere(system.control) + 1,
    )


# numpy draws one coefficient as ``integers(0, 2)``, Lemire's method on a
# 32-bit half of a raw PCG64 word (it never rejects at range 2, and the
# other half is kept for the next call), then ``uniform(0.5, 2.0)``, one raw
# word.  So a pair of coefficients reads three raw words [S, U0, U1]: the
# signs are the top bits of S's low and high halves (0 is negative), and
# each magnitude is 0.5 + 1.5 * (U >> 11) * 2**-53.
_SIGN_SHIFT = np.array([31, 63], dtype=np.uint64)


def sample_coefficients(
    pattern: SparsityPattern, seeds: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one realization of the pattern per seed, all in one pass.

    Returns the pattern's ``tensor_index``, the tensor coefficients as a
    C-contiguous (R, nnz) array and the control matrices as an (R, dim,
    inputs) array, row r drawn from the r-th seed.  Each coefficient is
    sign * magnitude with the sign uniform on {-1, +1} and the magnitude
    uniform on [0.5, 2.0], so values never fall inside (-0.5, 0.5).
    Coefficients are drawn in lexicographic order of the supports, tensor
    first, then control, and every value is bit-identical to drawing them
    one at a time from ``np.random.default_rng(seed)`` with
    ``integers(0, 2)`` for the sign (0 is negative) and
    ``uniform(0.5, 2.0)`` for the magnitude.  Raises CapacityError when
    the control matrices hold more than ``DEFAULT_CAP`` cells.
    """
    seeds = list(seeds)
    _check_capacity("control matrices need", len(seeds) * pattern.dim * pattern.inputs)
    index, control = pattern.tensor_index, pattern.control_index
    nnz = len(index)
    count = nnz + len(control)
    pairs = (count + 1) // 2
    # one row of [S, U0, U1] words per pair; an odd count leaves the last
    # U1 unread, as zero
    raw = np.zeros((len(seeds), pairs, 3), dtype=np.uint64)
    for r, seed in enumerate(seeds):
        raw[r].flat[: count + pairs] = np.random.PCG64(int(seed)).random_raw(count + pairs)
    signs = (raw[:, :, :1] >> _SIGN_SHIFT) & np.uint64(1)
    magnitudes = 0.5 + 1.5 * ((raw[:, :, 1:] >> np.uint64(11)) * 2.0**-53)
    values = (magnitudes * (signs * 2.0 - 1.0)).reshape(len(seeds), 2 * pairs)[:, :count]
    controls = np.zeros((len(seeds), pattern.dim, pattern.inputs))
    if len(control):
        rows, cols = control.T - 1
        controls[:, rows, cols] = values[:, nnz:]
    return index, np.ascontiguousarray(values[:, :nnz]), controls


def sample_realization(pattern: SparsityPattern, seed: int) -> Polysystem:
    """Draw a concrete system on the pattern's support: the one-seed case
    of ``sample_coefficients``, so the draw is bit-identical for a seed."""
    index, coeffs, controls = sample_coefficients(pattern, [seed])
    tensor = SparseTensor.from_arrays(pattern.order, pattern.dim, index, coeffs[0])
    return Polysystem(tensor, controls[0])

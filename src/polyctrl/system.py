"""Polynomial control systems, their sparsity patterns, and realization sampling.

A system pairs a k-mode coefficient tensor (the drift ``A x^(k-1)``) with a
linear control matrix B.  The structural layer works on sparsity patterns
alone; ``sample_realization`` turns a pattern back into a concrete system
with coefficients bounded away from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .tensor import SparseTensor

__all__ = [
    "Polysystem",
    "SparsityPattern",
    "ensure_valid",
    "sample_realization",
    "sparsity_pattern",
    "validate",
]


@dataclass(frozen=True, eq=False)
class Polysystem:
    """Coefficient tensor plus control matrix.

    Construction is deliberately loose so that malformed systems can be
    inspected: ``validate`` reports violations instead of the constructor
    raising.  Operations that require a well-formed system call
    ``ensure_valid`` first.
    """

    tensor: SparseTensor
    control: np.ndarray

    def __post_init__(self) -> None:
        b = np.array(self.control, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        b.setflags(write=False)
        object.__setattr__(self, "control", b)

    @property
    def order(self) -> int:
        return self.tensor.order

    @property
    def dim(self) -> int:
        return self.tensor.dim

    @property
    def inputs(self) -> int:
        return self.control.shape[-1]


def validate(system: Polysystem) -> list[str]:
    """Return all invariant violations, empty when the system is well formed."""
    violations = []
    if system.tensor.order % 2 != 0:
        violations.append(
            f"parity: tensor order k={system.tensor.order} is odd, "
            "so the drift degree k-1 is not odd"
        )
    if system.control.ndim != 2:
        violations.append(f"shape: control matrix has {system.control.ndim} axes")
        return violations
    rows, cols = system.control.shape
    if rows != system.tensor.dim:
        violations.append(
            f"dimension: control matrix has {rows} rows, tensor dimension is "
            f"{system.tensor.dim}"
        )
    if cols < 1:
        violations.append("dimension: control matrix needs at least one column")
    if not np.isfinite(system.control).all():
        violations.append("value: control matrix has non-finite entries")
    return violations


def ensure_valid(system: Polysystem) -> None:
    violations = validate(system)
    if violations:
        raise ValueError("invalid system: " + "; ".join(violations))


def _support_index(support, width: int, what: str) -> tuple[frozenset, np.ndarray]:
    """A support as a frozenset of int tuples and as an int64 array of
    shape (len(support), width), rows in the frozenset's iteration order.

    Every tuple must have ``width`` entries; entries that are not ints are
    converted as ``int()`` would.  The checks run over the whole support in
    builtins and numpy, not tuple by tuple.
    """
    if not isinstance(support, frozenset):
        support = frozenset(map(tuple, support))
    if set(map(len, support)) - {width}:
        idx = next(idx for idx in support if len(idx) != width)
        raise ValueError(f"{what} {idx} has {len(idx)} modes, expected {width}")
    if set(map(type, chain.from_iterable(support))) - {int}:
        support = frozenset(zip(*[map(int, chain.from_iterable(support))] * width))
    try:
        index = np.fromiter(
            chain.from_iterable(support), dtype=np.int64, count=len(support) * width
        )
    except OverflowError:
        raise ValueError(f"{what} entries outside the int64 range") from None
    index = index.reshape(len(support), width)
    index.setflags(write=False)
    return support, index


def _outside(values: np.ndarray, high: int) -> bool:
    return values.size > 0 and (values.min() < 1 or values.max() > high)


@dataclass(frozen=True)
class SparsityPattern:
    """Structural support of a system: which coefficients may be nonzero.

    ``tensor_support`` holds 1-based multi-indices of length ``order``;
    ``control_support`` holds (row, column) pairs of the control matrix.
    ``tensor_index`` holds the tensor support as a read-only (nnz, order)
    int64 array, rows in the support's iteration order.
    """

    order: int
    dim: int
    inputs: int
    tensor_support: frozenset[tuple[int, ...]]
    control_support: frozenset[tuple[int, int]]
    tensor_index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"pattern order must be >= 2, got {self.order}")
        if self.dim < 1:
            raise ValueError(f"pattern dimension must be >= 1, got {self.dim}")
        if self.inputs < 1:
            raise ValueError(f"pattern needs at least one input, got {self.inputs}")
        tsup, tensor_index = _support_index(self.tensor_support, self.order, "multi-index")
        if _outside(tensor_index, self.dim):
            idx = next(idx for idx in tsup if min(idx) < 1 or max(idx) > self.dim)
            raise ValueError(f"multi-index {idx} outside [1, {self.dim}]")
        csup, control_index = _support_index(self.control_support, 2, "control index")
        if _outside(control_index[:, 0], self.dim) or _outside(control_index[:, 1], self.inputs):
            idx = next(
                (i, j) for i, j in csup if not (1 <= i <= self.dim and 1 <= j <= self.inputs)
            )
            raise ValueError(f"control index {idx} out of range")
        object.__setattr__(self, "tensor_support", tsup)
        object.__setattr__(self, "control_support", csup)
        object.__setattr__(self, "tensor_index", tensor_index)


def sparsity_pattern(system: Polysystem) -> SparsityPattern:
    """Project a well-formed system onto its structural support."""
    ensure_valid(system)
    rows, cols = np.nonzero(system.control)
    return SparsityPattern(
        order=system.order,
        dim=system.dim,
        inputs=system.inputs,
        tensor_support=frozenset(system.tensor.entries),
        control_support=frozenset(
            (int(i) + 1, int(j) + 1) for i, j in zip(rows, cols)
        ),
    )


def _draw_coefficient(rng: np.random.Generator) -> float:
    sign = -1.0 if rng.integers(0, 2) == 0 else 1.0
    return sign * rng.uniform(0.5, 2.0)


def sample_realization(pattern: SparsityPattern, seed: int) -> Polysystem:
    """Draw a concrete system on the pattern's support.

    Every coefficient is sign * magnitude with the sign uniform on {-1, +1}
    and the magnitude uniform on [0.5, 2.0], so values never fall inside
    (-0.5, 0.5).  Supports are visited in lexicographic order (tensor first,
    then control), which makes the draw bit-identical for a given seed.
    """
    rng = np.random.default_rng(int(seed))
    entries = {idx: _draw_coefficient(rng) for idx in sorted(pattern.tensor_support)}
    control = np.zeros((pattern.dim, pattern.inputs))
    for i, j in sorted(pattern.control_support):
        control[i - 1, j - 1] = _draw_coefficient(rng)
    tensor = SparseTensor(pattern.order, pattern.dim, entries)
    return Polysystem(tensor, control)

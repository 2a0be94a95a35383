"""Sparse coefficient tensors and the kernels built from them.

A degree-uniform polynomial vector field is stored as a sparse k-mode,
n-dimensional tensor: entry (i1, ..., ik) contributes
``coeff * x_{i1} * ... * x_{i_{k-1}}`` to coordinate ik of the field value.
Mode k is the head mode, modes 1..k-1 are tail modes.  A ``SparseTensor``
holds the entries as two arrays, in the canonical form of a pattern's
support; this module's index rule (``_support_index``) reads the keys of
both, and ``Hyperedge`` vertices by its integer test, and ``_row_order``
orders every index array that numpy sorts.  ``contract`` and the rank
iteration evaluate the field with one kernel.  The mode-k unfolding
flattens the tail modes with mode 1 slowest-varying, which is exactly the
ordering of an iterated Kronecker product, so

    unfold(T) @ kron_power(x, k - 1) == contract(T, x)

with the leftmost Kronecker factor bound to tail mode 1.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain, permutations
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


def _check_capacity(what: str, cells: int, cap: int = DEFAULT_CAP) -> None:
    """The one capacity rule: refuse work of more than ``cap`` cells before
    it starts, as ``"{what} {cells} cells, cap is {cap}"``."""
    if cells > cap:
        raise CapacityError(f"{what} {cells} cells, cap is {cap}")


def _unit_scaled(values: np.ndarray) -> np.ndarray:
    """``values`` times the exact power of two that brings its largest
    |entry| into [0.5, 1); an empty or all-zero array comes back unscaled.
    Entries more than float64's range below the largest lose precision or
    become zero."""
    return np.ldexp(values, -np.frexp(np.abs(values).max(initial=0.0))[1])


class _FrozenArrays:
    """Immutable holder of the fields named by ``__slots__``, some of them
    read-only arrays in a canonical form.  The constructor takes the fields
    by position; a subclass that checks them does so in its own ``__init__``
    and ends in ``_fill``.  Equality and hashing compare the arrays' bytes,
    which for canonical arrays is equality of content, and pickling rebuilds
    through ``_wrap``, unchecked."""

    __slots__ = ()

    def __init__(self, *fields) -> None:
        if len(fields) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__}() takes {len(self.__slots__)} positional "
                f"arguments ({', '.join(self.__slots__)}) but {len(fields)} were given"
            )
        self._fill(*fields)

    @classmethod
    def _wrap(cls, *fields):
        obj = cls.__new__(cls)
        obj._fill(*fields)
        return obj

    def _fill(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def _key(self) -> tuple:
        return tuple(f.tobytes() if isinstance(f, np.ndarray) else f for f in self._fields())

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return self._wrap, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _integer(value, idx: tuple, what: str) -> int:
    """``value`` as an int, when it equals one."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} {idx} has entry {value!r}, which is not an integer")


def _support_index(support, width: int, what: str) -> np.ndarray:
    """A support as an int64 array of shape (len(support), width):
    its distinct rows in lexicographic order.

    Every tuple must have ``width`` entries, each equal to an int (so
    ``1.0``, ``True`` and numpy ints pass, ``1.5``, ``'1'`` and ``[1]`` do
    not), checked before any row is hashed; rows equal as ints are merged.
    """
    if not isinstance(support, (set, frozenset)):
        support = list(map(tuple, support))
    if set(map(len, support)) - {width}:
        idx = next(idx for idx in support if len(idx) != width)
        raise ValueError(f"{what} {idx} has {len(idx)} modes, expected {width}")
    if set(map(type, chain.from_iterable(support))) - {int}:
        support = [tuple(_integer(v, idx, what) for v in idx) for idx in support]
    rows = sorted(set(support))
    try:
        index = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=len(rows) * width)
    except OverflowError:
        raise ValueError(f"{what} entries outside the int64 range") from None
    return index.reshape(len(rows), width)


def _row_order(rows: np.ndarray) -> np.ndarray:
    """The stable permutation that puts int64 rows in lexicographic order,
    by one key per row: its bytes, big-endian with the sign bit flipped, so
    that byte order is numeric order and no column needs a key of its own."""
    key = (rows ^ np.int64(-1 << 63)).astype(">i8")
    return key.view(f"V{8 * rows.shape[1]}").ravel().argsort(kind="stable")


def _first_outside(index: np.ndarray, highs) -> tuple | None:
    """The first row with an entry outside [1, high] of its column, or None."""
    bad = ((index < 1) | (index > highs)).any(axis=1)
    return tuple(index[bad][0].tolist()) if bad.any() else None


class SparseTensor(_FrozenArrays):
    """k-mode, n-dimensional tensor holding only structurally nonzero entries.

    ``index`` holds the distinct 1-based multi-indices as an (nnz, order)
    int64 array in lexicographic order and ``values`` their coefficients as
    an (nnz,) float64 array; both are read-only.  The constructor takes the
    entries as a mapping or as an iterable of (multi-index, value) pairs, in
    any order.  Stored support equals structural support: exact-zero
    coefficients and duplicate multi-indices are construction errors, not
    silent drops.  ``entries`` reads the arrays back; ``from_arrays`` wraps
    arrays that are already canonical.
    """

    __slots__ = ("order", "dim", "index", "values")

    def __init__(self, order: int, dim: int, entries) -> None:
        if order < 2:
            raise ValueError(f"tensor order must be >= 2, got {order}")
        if dim < 1:
            raise ValueError(f"tensor dimension must be >= 1, got {dim}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        items = [(tuple(idx), value) for idx, value in items]
        index = _support_index([idx for idx, _ in items], order, "multi-index")
        # every key passed the integer rule, so int() reads it exactly
        keys = [tuple(map(int, idx)) for idx, _ in items]
        if len(index) < len(keys):
            raise ValueError(f"duplicate multi-index {Counter(keys).most_common(1)[0][0]}")
        idx = _first_outside(index, dim)
        if idx is not None:
            raise ValueError(f"multi-index {idx} outside [1, {dim}]")
        # the keys are distinct, so sorting never compares the items
        values = np.array([float(value) for _, (_, value) in sorted(zip(keys, items))])
        bad = ~np.isfinite(values) | (values == 0.0)
        if bad.any():
            idx, coeff = tuple(index[bad.argmax()].tolist()), values[bad.argmax()].item()
            if coeff == 0.0:
                raise ValueError(f"exact-zero coefficient at {idx}: drop the entry instead")
            raise ValueError(f"non-finite coefficient {coeff} at {idx}")
        self._fill(order, dim, index, values)

    @classmethod
    def from_arrays(
        cls, order: int, dim: int, index: np.ndarray, values: np.ndarray
    ) -> SparseTensor:
        """Wrap arrays without checking them: ``index`` an (nnz, order) int64
        array of distinct in-range rows in lexicographic order, ``values``
        the (nnz,) float64 nonzero finite coefficients.  The arrays are made
        read-only, not copied."""
        return cls._wrap(order, dim, index, values)

    @property
    def entries(self) -> dict[tuple[int, ...], float]:
        return dict(zip(map(tuple, self.index.tolist()), self.values.tolist()))

    def __repr__(self) -> str:
        return f"SparseTensor(order={self.order!r}, dim={self.dim!r}, entries={self.entries!r})"


def _field(index: np.ndarray, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """f(x) = A x^(k-1) at each column x of a stack of points (R, n, b):
    gather the tail rows, multiply, and scatter to the heads.  Member r has
    its own 0-based multi-indices ``index[r]`` (nnz, k) and coefficients
    ``coeffs[r]`` (nnz,).  A member with a shorter support is padded with
    coefficient-0 entries whose head is the scratch row n, which is dropped,
    so every real row adds the same terms in the same order as it would
    for that member alone."""
    members = np.arange(len(points))[:, None]
    out = np.zeros((len(points), points.shape[1] + 1, points.shape[2]))
    terms = points[members[..., None], index[..., :-1]].prod(axis=-2) * coeffs[..., None]
    np.add.at(out, (members, index[..., -1]), terms)
    return out[:, :-1]


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


def unfold(tensor: SparseTensor) -> np.ndarray:
    """Mode-k unfolding: n x n**(k-1) matrix, row = head index.

    Column order puts tail mode 1 slowest, matching ``kron_power``.  Raises
    CapacityError when its n * n**(k-1) cells exceed ``DEFAULT_CAP``.
    """
    n, k = tensor.dim, tensor.order
    cols = n ** (k - 1)
    _check_capacity("unfolding needs", n * cols)
    out = np.zeros((n, cols))
    index = tensor.index - 1
    # column of a row: sum over tail modes m of (i_m - 1) * n**(k-2-m)
    out[index[:, -1], index[:, :-1] @ n ** np.arange(k - 2, -1, -1)] = tensor.values
    return out


def contract(tensor: SparseTensor, x: np.ndarray) -> np.ndarray:
    """Evaluate the polynomial field: bind x to every tail mode.

    Computed directly on the sparse entries, never through the unfolding.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (tensor.dim,):
        raise ValueError(f"expected vector of length {tensor.dim}, got shape {x.shape}")
    return _field(tensor.index[None] - 1, tensor.values[None], x[None, :, None])[0, :, 0]


def kron_power(mat: np.ndarray, power: int) -> np.ndarray:
    """Iterated Kronecker product of ``mat`` with itself, first factor slowest.

    Accepts a matrix or a vector (returned in kind).  Raises CapacityError
    when the result would hold more than ``DEFAULT_CAP`` cells.
    """
    if power < 1:
        raise ValueError(f"Kronecker power must be >= 1, got {power}")
    mat = np.asarray(mat, dtype=float)
    if mat.ndim > 2:
        raise ValueError(f"expected a vector or matrix, got {mat.ndim} axes")
    cells = 1
    for extent in mat.shape:
        cells *= extent ** power
    _check_capacity("Kronecker power needs", cells)
    out = mat
    for _ in range(power - 1):
        out = np.kron(out, mat)
    return out

"""Seeded random instances for the CLI generator and the validation suites.

Every generator takes an integer seed and draws through a single
``numpy.random.Generator`` in a fixed order, so instances are reproducible
bit for bit.  A pattern's supports are drawn in bulk, a round of rows per
call, on the stream that one call per row would take.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .hypergraph import DirectedHypergraph, Hyperedge
from .system import SparsityPattern, check_shape
from .tensor import DEFAULT_CAP, CapacityError, _row_order

__all__ = [
    "pattern_of_shape",
    "random_digraph_pattern",
    "random_hypergraph",
    "random_pattern",
    "random_system_pattern",
]


def _draw_support(rng, highs, count) -> np.ndarray:
    """``count`` distinct rows with column c in [1, highs[c]], as an int64
    array in lexicographic order.  Each round draws all missing rows in one
    call, which takes the words one call per row would, and no round
    overshoots, since a row adds at most one."""
    support: set[tuple[int, ...]] = set()
    while len(support) < count:
        rows = rng.integers(1, np.add(highs, 1), size=(count - len(support), len(highs)))
        support.update(map(tuple, rows.tolist()))
    width = len(highs)
    rows = np.fromiter(chain.from_iterable(support), dtype=np.int64, count=count * width)
    rows = rows.reshape(count, width)
    return rows[_row_order(rows)]


def _within_index_space(count: int, n: int, k: int) -> bool:
    """count <= n**k, without forming n**k when k is huge: n**k is at least
    2**(k * (bit_length(n) - 1)), which exceeds any count of fewer bits."""
    return k * (int(n).bit_length() - 1) >= int(count).bit_length() or count <= n**k


def pattern_with_rng(
    rng: np.random.Generator, n: int, k: int, m: int, tensor_nnz: int, control_nnz: int
) -> SparsityPattern:
    check_shape(n, k, m)
    if tensor_nnz < 0 or control_nnz < 0:
        raise ValueError(
            f"support sizes must be >= 0, got tensor {tensor_nnz} and control {control_nnz}"
        )
    # refused before the first draw; a graph refuses from a lower count on
    if n + m > DEFAULT_CAP:
        raise CapacityError(f"pattern has {n + m} vertices, cap is {DEFAULT_CAP}")
    cells = tensor_nnz * k + control_nnz * 2
    if cells > DEFAULT_CAP:
        raise CapacityError(f"pattern support needs {cells} cells, cap is {DEFAULT_CAP}")
    if not _within_index_space(tensor_nnz, n, k):
        raise ValueError(f"tensor support {tensor_nnz} exceeds index space {n ** k}")
    if control_nnz > n * m:
        raise ValueError(f"control support {control_nnz} exceeds index space {n * m}")
    # the guards above fixed the shape, the counts and the ranges
    tensor_index = _draw_support(rng, (n,) * k, tensor_nnz)
    control_index = _draw_support(rng, (n, m), control_nnz)
    return SparsityPattern.from_index(k, n, m, tensor_index, control_index)


def random_pattern(
    n: int, k: int, m: int, tensor_nnz: int, control_nnz: int, seed: int
) -> SparsityPattern:
    """Pattern with the given shape and support sizes, seed-deterministic."""
    return pattern_with_rng(np.random.default_rng(int(seed)), n, k, m, tensor_nnz, control_nnz)


def pattern_of_shape(
    rng: np.random.Generator, n: int, k: int, m: int, max_tensor_nnz: int = 6
) -> SparsityPattern:
    """Pattern of the given shape with drawn support sizes: 1..max_tensor_nnz
    tensor entries (at most n**k) and 1..n*m control entries."""
    check_shape(n, k, m)
    tensor_nnz = int(rng.integers(1, max_tensor_nnz + 1))
    if not _within_index_space(tensor_nnz, n, k):
        tensor_nnz = n**k
    control_nnz = int(rng.integers(1, n * m + 1))
    return pattern_with_rng(rng, n, k, m, tensor_nnz, control_nnz)


def random_system_pattern(seed: int, n_low: int = 2, n_high: int = 4) -> SparsityPattern:
    """k=4 pattern with n in [n_low, n_high], one or two inputs and up to 6
    tensor entries, used by the cross-validation suites."""
    rng = np.random.default_rng(int(seed))
    n = int(rng.integers(n_low, n_high + 1))
    m = int(rng.integers(1, 3))
    return pattern_of_shape(rng, n, 4, m)


def random_digraph_pattern(seed: int) -> SparsityPattern:
    """k=2 pattern with n in [2, 6] and one or two inputs, the classical
    structured linear system."""
    rng = np.random.default_rng(int(seed))
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 3))
    return pattern_of_shape(rng, n, 2, m, 2 * n)


def random_hypergraph(seed: int) -> DirectedHypergraph:
    """Hypergraph with n in [1, 8], one or two inputs, singleton or size-3
    tails and random state heads."""
    rng = np.random.default_rng(int(seed))
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 3))
    target = int(rng.integers(0, 2 * n + 1))
    tails: set[tuple[int, ...]] = set()
    edges: list[Hyperedge] = []
    for _ in range(target):
        tail = None
        for _ in range(20):
            if rng.random() < 0.3:
                candidate = (n + int(rng.integers(1, m + 1)),)
            elif rng.random() < 0.5:
                candidate = (int(rng.integers(1, n + 1)),)
            else:
                candidate = tuple(
                    sorted(int(v) for v in rng.integers(1, n + 1, size=3))
                )
            if candidate not in tails:
                tail = candidate
                break
        if tail is None:
            continue
        tails.add(tail)
        head = {v for v in range(1, n + 1) if rng.random() < 0.4}
        if not head:
            head = {int(rng.integers(1, n + 1))}
        edges.append(Hyperedge(tail, frozenset(head)))
    return DirectedHypergraph(n, m, tuple(edges))

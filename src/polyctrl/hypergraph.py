"""Directed hypergraph view of a sparsity pattern.

Vertices 1..n stand for state coordinates, n+1..n+m for inputs.  A hyperedge
carries a tail multiset (the monomial variables) and a head set (the
coordinates the monomial feeds).  Tensor entries sharing a tail multiset
collapse into one hyperedge; each control column becomes an edge from its
input vertex to the rows it touches.

The graph is one flat edge table in CSR form: edge e has the sorted tail
multiset ``tail_idx[tail_ptr[e]:tail_ptr[e + 1]]`` and the ascending head set
``head_idx[head_ptr[e]:head_ptr[e + 1]]``.  The structural algorithms loop
over these tuples directly; ``edges`` reads them back as ``Hyperedge``s.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterable

import numpy as np

from .system import SparsityPattern
from .tensor import _FrozenArrays, _check_capacity, _integer, _row_order

__all__ = [
    "DirectedHypergraph",
    "Hyperedge",
    "build_hypergraph",
]

# Cells of 8 bytes that analyzing a graph holds per vertex: the per-vertex
# lists of matching and firing, the vertex sets and the sorted report.
# ``analyze --json`` peaks at about 360 bytes a vertex, so at 448 bytes the
# largest admitted graph, 1,198,372 vertices, analyzes in under 512 MiB.
_VERTEX_CELLS = 56


def _check_vertices(n: int, m: int) -> None:
    _check_capacity(f"graph has {n + m} vertices, which need", (n + m) * _VERTEX_CELLS)


class Hyperedge(_FrozenArrays):
    """Tail multiset (kept as a sorted tuple) and head set.  Each vertex must
    equal an int, by a pattern's index rule: ``1.5`` or ``'2'`` is refused."""

    __slots__ = ("tail", "head")

    def __init__(self, tail: Iterable[int], head: Iterable[int]) -> None:
        tail, head = tuple(tail), tuple(head)
        if set(map(type, tail + head)) - {int}:
            tail = tuple(_integer(v, tail, "tail") for v in tail)
            head = tuple(_integer(v, head, "head") for v in head)
        if not tail:
            raise ValueError("hyperedge tail must be non-empty")
        if not head:
            raise ValueError("hyperedge head must be non-empty")
        self._fill(tuple(sorted(tail)), frozenset(head))

    @property
    def tail_support(self) -> frozenset[int]:
        return frozenset(self.tail)


class _EdgeView(Sequence):
    """The edge table read as a tuple of Hyperedges.

    ``len()`` reads the offsets only; any other access builds the tuple once
    and keeps it.  The view holds the table's tuples, not the graph, so the
    two form no reference cycle.
    """

    __slots__ = ("_table", "_items")

    def __init__(self, table: tuple) -> None:
        self._table = table
        self._items: tuple[Hyperedge, ...] | None = None

    def _all(self) -> tuple[Hyperedge, ...]:
        if self._items is None:
            tp, ti, hp, hi = self._table
            self._items = tuple(
                Hyperedge._wrap(ti[tp[e]:tp[e + 1]], frozenset(hi[hp[e]:hp[e + 1]]))
                for e in range(len(tp) - 1)
            )
        return self._items

    def __len__(self) -> int:
        return len(self._table[0]) - 1

    def __getitem__(self, index):
        return self._all()[index]

    def __iter__(self):
        return iter(self._all())

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _EdgeView)):
            return self._all() == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._all())


class DirectedHypergraph(_FrozenArrays):
    """n state vertices, m input vertices, and a table of hyperedges.

    Tails are unique across edges; heads never contain input vertices
    (inputs have no dynamics of their own).  Edge order is preserved and is
    the tie-break order for everything downstream.  Constructing from
    ``Hyperedge``s checks all of this; ``from_table`` wraps a table that is
    already valid.  Equality, hashing and pickling go by the table.
    """

    __slots__ = ("n", "m", "tail_ptr", "tail_idx", "head_ptr", "head_idx", "edges")

    def __init__(self, n: int, m: int, edges: Iterable[Hyperedge]) -> None:
        if n < 1:
            raise ValueError(f"need at least one state vertex, got n={n}")
        if m < 0:
            raise ValueError(f"input count must be >= 0, got m={m}")
        edges = tuple(edges)
        total = n + m
        tail_ptr, tail_idx, head_ptr, head_idx = [0], [], [0], []
        seen_tails = set()
        for edge in edges:
            tail = edge.tail
            head = sorted(edge.head)
            if tail[0] < 1 or tail[-1] > total:
                raise ValueError(f"tail {tail} outside vertex range [1, {total}]")
            if head[0] < 1 or head[-1] > n:
                raise ValueError(
                    f"head {head} contains a non-state vertex (state range is [1, {n}])"
                )
            if tail in seen_tails:
                raise ValueError(f"duplicate tail {tail}")
            seen_tails.add(tail)
            tail_idx.extend(tail)
            tail_ptr.append(len(tail_idx))
            head_idx.extend(head)
            head_ptr.append(len(head_idx))
        self._fill(n, m, tail_ptr, tail_idx, head_ptr, head_idx, edges)

    @classmethod
    def from_table(cls, n, m, tail_ptr, tail_idx, head_ptr, head_idx) -> DirectedHypergraph:
        """Wrap a CSR edge table without checking it: tails sorted and
        unique, heads ascending state vertices, vertices in range."""
        return cls._wrap(n, m, tail_ptr, tail_idx, head_ptr, head_idx)

    def _fill(self, n, m, tail_ptr, tail_idx, head_ptr, head_idx, edges=None) -> None:
        _check_vertices(n, m)
        # A graph built from Hyperedges keeps their tuple as ``edges``; one
        # built from a table reads its Hyperedges back only when asked.
        table = (tuple(tail_ptr), tuple(tail_idx), tuple(head_ptr), tuple(head_idx))
        if edges is None:
            edges = _EdgeView(table)
        super()._fill(n, m, *table, edges)

    def _fields(self) -> tuple:
        # the table alone: ``edges`` holds the same edges as Hyperedges
        return (self.n, self.m, self.tail_ptr, self.tail_idx, self.head_ptr, self.head_idx)

    def __repr__(self) -> str:
        return f"DirectedHypergraph(n={self.n}, m={self.m}, edges={self.edges!r})"

    @property
    def state_vertices(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    @property
    def input_vertices(self) -> frozenset[int]:
        return frozenset(range(self.n + 1, self.n + self.m + 1))


def _group_rows(rows: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Group (tail..., head) int64 rows into edges by sorted tail, in
    ascending (tail, head) order: the edges' tails, flattened, each edge's
    start in the heads, and the heads.  A head repeated under one tail, which
    comes from a permuted tail, appears once.
    """
    # Sort each tail row, then the rows by (tail, head): rows of one tail
    # multiset become adjacent, heads ascending.  An edge starts where the
    # tail changes; a row equal to the one before it is dropped.
    rows = rows.copy()
    rows[:, :-1].sort(axis=1)
    rows = rows[_row_order(rows)]
    change = rows[1:] != rows[:-1]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = change[:, :-1].any(axis=1)
    keep = starts.copy()
    keep[1:] |= change[:, -1]
    heads_ptr = np.flatnonzero(starts[keep]).tolist()
    return rows[starts, :-1].ravel().tolist(), heads_ptr, rows[keep, -1].tolist()


def build_hypergraph(pattern: SparsityPattern) -> DirectedHypergraph:
    """Group a pattern's support into hyperedges.

    A control entry (i, j) is the row (n + j, i), so both sections group by
    one rule: control edges come first (by column), then tensor edges sorted
    by tail multiset, each collecting the heads of its entries.  The pattern
    is already validated, so the table is wrapped without further checks.
    """
    n = pattern.dim
    # refused before n is added to the control rows, which a huge n overflows
    _check_vertices(n, pattern.inputs)
    tail_ptr, tail_idx, head_ptr, head_idx = [], [], [], []
    for rows in (pattern.control_index[:, ::-1] + (n, 0), pattern.tensor_index):
        tails, heads_ptr, heads = _group_rows(rows)
        tail_ptr.extend(range(len(tail_idx), len(tail_idx) + len(tails), rows.shape[1] - 1))
        tail_idx.extend(tails)
        head_ptr.extend(len(head_idx) + p for p in heads_ptr)
        head_idx.extend(heads)
    tail_ptr.append(len(tail_idx))
    head_ptr.append(len(head_idx))
    return DirectedHypergraph.from_table(n, pattern.inputs, tail_ptr, tail_idx, head_ptr, head_idx)

"""Structural controllability tests on the hypergraph.

Two independent failure modes are checked: a hyperedge dilation (a state
vertex set fed by fewer hyperedges than it has members, found via maximum
matching between hyperedges and the state vertices in their heads) and
inaccessibility (state vertices no chain of hyperedge firings can reach from
the input vertices).  A pattern is structurally controllable exactly when
neither occurs.
"""

from __future__ import annotations

from itertools import compress
from typing import Sequence

from .hypergraph import DirectedHypergraph, build_hypergraph
from .numeric import _reduction_cells, realization_ranks
from .system import SparsityPattern
from .tensor import _FrozenArrays, _check_capacity

__all__ = [
    "DilationResult",
    "StructuralVerdict",
    "accessible_set",
    "analyze_hypergraph",
    "detect_dilation",
    "structural_verdict",
    "verdict_against_rank",
    "verdict_cells",
]


class DilationResult(_FrozenArrays):
    """Outcome of the matching-based dilation test.

    ``matching`` pairs (edge index, state vertex); ``witness`` is a state
    vertex set with fewer covering hyperedges than members, present exactly
    when ``dilated``.
    """

    __slots__ = ("dilated", "witness", "matching")


def detect_dilation(graph: DirectedHypergraph) -> DilationResult:
    """Match state vertices to hyperedges whose head contains them.

    A maximum matching smaller than n certifies a dilation; the witness is
    the set of state vertices alternating-reachable from the unmatched ones,
    which violates the covering inequality by construction.  Vertices and
    their candidate edges are tried in ascending order, depth first, so the
    matching is deterministic.  The augmenting search keeps its path on an
    explicit stack, so long paths need no recursion.
    """
    n = graph.n
    head_idx = graph.head_idx
    # For each state vertex (index 0 unused), the edges whose head holds it,
    # in ascending edge order.
    edges_of_vertex: list[list[int]] = [[] for _ in range(n + 1)]
    e = start = 0
    for end in graph.head_ptr[1:]:
        for v in head_idx[start:end]:
            edges_of_vertex[v].append(e)
        start = end
        e += 1
    owner = [0] * e  # vertex matched to each edge, 0 if free
    visited = owner[:]  # root of the last search that tried the edge
    unmatched: list[int] = []

    for root in range(1, n + 1):
        candidates = edges_of_vertex[root]
        if not candidates:
            unmatched.append(root)
            continue
        # the search below would take a free first candidate at once
        e = candidates[0]
        if not owner[e]:
            owner[e] = root
            continue
        # path[d] tries its edges from cursor[d] on; via[d] is the matched
        # edge path[d] is trying to take over from path[d + 1].
        path, cursor, via = [root], [0], []
        while path:
            candidates = edges_of_vertex[path[-1]]
            i = cursor[-1]
            while i < len(candidates) and visited[candidates[i]] == root:
                i += 1
            if i == len(candidates):
                path.pop()
                cursor.pop()
                if via:
                    via.pop()
                continue
            cursor[-1] = i + 1
            e = candidates[i]
            visited[e] = root
            if owner[e]:
                via.append(e)
                path.append(owner[e])
                cursor.append(0)
                continue
            # Augment: the last vertex takes the free edge, and every earlier
            # one takes the edge it was trying to free.
            owner[e] = path[-1]
            for v, taken in zip(path, via):
                owner[taken] = v
            break
        else:
            unmatched.append(root)

    matching = tuple(zip(compress(range(len(owner)), owner), filter(None, owner)))
    if not unmatched:
        return DilationResult(False, None, matching)

    # Alternating reachability from every unmatched state vertex: each edge
    # seen is matched (else an augmenting path existed), and its partner
    # joins the set, so covering edges number |set| minus the unmatched.
    reach = set(unmatched)
    stack = unmatched
    while stack:
        v = stack.pop()
        for e in edges_of_vertex[v]:
            partner = owner[e]
            if partner and partner not in reach:
                reach.add(partner)
                stack.append(partner)
    return DilationResult(True, frozenset(reach), matching)


def accessible_set(graph: DirectedHypergraph) -> frozenset[int]:
    """Least fixed point of hyperedge firing from the input vertices.

    An edge fires once every distinct tail vertex is accessible; its head
    then becomes accessible.  Each edge is consumed at most once: it keeps a
    count of tail state vertices not yet reached and fires when it hits 0.
    """
    n = graph.n
    tail_ptr, tail_idx = graph.tail_ptr, graph.tail_idx
    head_ptr, head_idx = graph.head_ptr, graph.head_idx
    waiting: list[list[int]] = [[] for _ in range(n + 1)]
    remaining: list[int] = []
    ready: list[int] = []
    start = 0
    for e, end in enumerate(tail_ptr[1:]):
        missing = 0
        previous = 0
        # tails are sorted, so a repeated vertex follows its first copy;
        # vertices above n are inputs, accessible from the start
        for v in tail_idx[start:end]:
            if v != previous and v <= n:
                missing += 1
                waiting[v].append(e)
            previous = v
        start = end
        remaining.append(missing)
        if not missing:
            ready.append(e)

    accessible = set(range(n + 1, n + graph.m + 1))
    while ready:
        e = ready.pop()
        for v in head_idx[head_ptr[e]:head_ptr[e + 1]]:
            if v in accessible:
                continue
            accessible.add(v)
            for e2 in waiting[v]:
                remaining[e2] -= 1
                if remaining[e2] == 0:
                    ready.append(e2)
    return frozenset(accessible)


class StructuralVerdict(_FrozenArrays):
    """Combined verdict; controllable iff no witness and nothing inaccessible."""

    __slots__ = ("controllable", "dilation_witness", "inaccessible", "matching")

    @property
    def dilated(self) -> bool:
        return self.dilation_witness is not None


def analyze_hypergraph(graph: DirectedHypergraph) -> StructuralVerdict:
    """Run both structural tests; a system can fail both at once."""
    dilation = detect_dilation(graph)
    inaccessible = graph.state_vertices - accessible_set(graph)
    controllable = not dilation.dilated and not inaccessible
    return StructuralVerdict(controllable, dilation.witness, inaccessible, dilation.matching)


def structural_verdict(pattern: SparsityPattern) -> StructuralVerdict:
    """Structural controllability of a sparsity pattern.

    Depends on the support only: every realization of the pattern maps to
    the same hypergraph and hence the same verdict.
    """
    return analyze_hypergraph(build_hypergraph(pattern))


def _draws(controllable: bool) -> int:
    return 3 if controllable else 5


def verdict_cells(pattern: SparsityPattern, controllable: bool) -> int:
    """Cells of the stack ``verdict_against_rank`` ranks for one pattern of
    the given verdict: its control matrices and its rank reduction, each
    refused with CapacityError above ``DEFAULT_CAP`` as the sampling and the
    reduction refuse them."""
    draws, n = _draws(controllable), pattern.dim
    controls = draws * n * pattern.inputs
    _check_capacity("control matrices need", controls)
    reduction = _reduction_cells(draws, n, pattern.tensor_index[:, :-1].size)
    _check_capacity("rank reduction needs", reduction)
    return controls + reduction


def verdict_against_rank(
    patterns: Sequence[SparsityPattern],
    seeds: Sequence[int],
    tol: float,
    controllable: Sequence[bool] | None = None,
) -> list[tuple[bool, list[int], bool]]:
    """Check structural verdicts against the ranks of sampled realizations.

    Returns (controllable, ranks, agree) per pattern.  Realization j of
    ``patterns[i]`` is drawn with seed ``seeds[i] + j``: 3 of them for a
    controllable pattern, which agrees when one reaches full rank (a generic
    realization should), and 5 for an uncontrollable one, which agrees when
    none does.  The patterns share one shape, and the realizations of all
    of them are drawn and ranked as one stack (``realization_ranks``).
    ``controllable`` holds the patterns' structural verdicts when the caller
    already has them.
    """
    patterns = list(patterns)
    if controllable is None:
        controllable = [structural_verdict(pattern).controllable for pattern in patterns]
    draws = [range(seed, seed + _draws(c)) for seed, c in zip(seeds, controllable, strict=True)]
    results = []
    stacked = realization_ranks(patterns, draws, tol)
    for pattern, verdict, reports in zip(patterns, controllable, stacked):
        ranks = [report.rank for report in reports]
        full = [rank == pattern.dim for rank in ranks]
        results.append((verdict, ranks, any(full) if verdict else not any(full)))
    return results

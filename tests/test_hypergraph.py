"""Hypergraph construction: grouping rule, the flat edge table and its checks."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from conftest import (
    cubic_forward_system,
    linear_chain_system,
    self_loop_system,
    shared_input_system,
)
from polyctrl.generate import random_pattern
from polyctrl.hypergraph import DirectedHypergraph, Hyperedge, build_hypergraph
from polyctrl.system import SparsityPattern, sparsity_pattern


def graph_of(system) -> DirectedHypergraph:
    return build_hypergraph(sparsity_pattern(system))


def test_cubic_forward_grouping():
    graph = graph_of(cubic_forward_system())
    assert graph.n == 2 and graph.m == 1
    assert graph.edges == (
        Hyperedge((3,), frozenset({1})),
        Hyperedge((1, 1, 1), frozenset({2})),
    )


def test_shared_input_single_edge():
    graph = graph_of(shared_input_system())
    assert graph.edges == (Hyperedge((3,), frozenset({1, 2})),)


def test_entries_with_equal_tail_merge_heads():
    pattern = SparsityPattern(
        order=4,
        dim=2,
        inputs=1,
        tensor_support=frozenset({(1, 1, 1, 1), (1, 1, 1, 2)}),
        control_support=frozenset({(1, 1)}),
    )
    graph = build_hypergraph(pattern)
    assert graph.edges == (
        Hyperedge((3,), frozenset({1})),
        Hyperedge((1, 1, 1), frozenset({1, 2})),
    )


def test_tail_multiset_ignores_mode_order():
    pattern = SparsityPattern(
        order=4,
        dim=2,
        inputs=1,
        tensor_support=frozenset({(1, 1, 2, 1), (2, 1, 1, 2)}),
        control_support=frozenset({(1, 1)}),
    )
    graph = build_hypergraph(pattern)
    # (1,1,2,*) and (2,1,1,*) share the tail multiset {1,1,2}
    assert graph.edges == (
        Hyperedge((3,), frozenset({1})),
        Hyperedge((1, 1, 2), frozenset({1, 2})),
    )


def test_control_edges_come_first_by_column():
    pattern = SparsityPattern(
        order=2,
        dim=2,
        inputs=2,
        tensor_support=frozenset({(2, 1), (1, 2)}),
        control_support=frozenset({(2, 2), (1, 1)}),
    )
    graph = build_hypergraph(pattern)
    assert graph.edges == (
        Hyperedge((3,), frozenset({1})),
        Hyperedge((4,), frozenset({2})),
        Hyperedge((1,), frozenset({2})),
        Hyperedge((2,), frozenset({1})),
    )


def test_control_column_collects_rows():
    pattern = SparsityPattern(
        order=4,
        dim=3,
        inputs=1,
        tensor_support=frozenset(),
        control_support=frozenset({(1, 1), (3, 1)}),
    )
    graph = build_hypergraph(pattern)
    assert graph.edges == (Hyperedge((4,), frozenset({1, 3})),)


def test_every_support_entry_is_represented():
    for system in (cubic_forward_system(), self_loop_system(), linear_chain_system()):
        pattern = sparsity_pattern(system)
        graph = build_hypergraph(pattern)
        tails = {edge.tail: edge for edge in graph.edges}
        for idx in pattern.tensor_support:
            edge = tails[tuple(sorted(idx[:-1]))]
            assert idx[-1] in edge.head
        for i, j in pattern.control_support:
            edge = tails[(pattern.dim + j,)]
            assert i in edge.head


# --- hyperedge and graph validation ---


def test_hyperedge_sorts_tail_and_keeps_multiplicity():
    edge = Hyperedge((2, 1, 2), frozenset({1}))
    assert edge.tail == (1, 2, 2)
    assert edge.tail_support == frozenset({1, 2})
    # vertices equal to ints are read as ints
    edge = Hyperedge((2.0, np.int64(1), True), {np.int32(2), 1.0})
    assert edge == Hyperedge((1, 1, 2), frozenset({1, 2}))
    assert all(type(v) is int for v in (*edge.tail, *edge.head))


def test_hyperedge_rejects_empty_parts():
    with pytest.raises(ValueError):
        Hyperedge((), frozenset({1}))
    with pytest.raises(ValueError):
        Hyperedge((1,), frozenset())


def test_graph_rejects_bad_vertices():
    with pytest.raises(ValueError, match="outside vertex range"):
        DirectedHypergraph(2, 1, (Hyperedge((4,), frozenset({1})),))
    with pytest.raises(ValueError, match="non-state vertex"):
        DirectedHypergraph(2, 1, (Hyperedge((1,), frozenset({3})),))
    with pytest.raises(ValueError, match="duplicate tail"):
        DirectedHypergraph(
            2,
            1,
            (Hyperedge((1,), frozenset({1})), Hyperedge((1,), frozenset({2}))),
        )
    with pytest.raises(ValueError):
        DirectedHypergraph(0, 1, ())
    with pytest.raises(ValueError):
        DirectedHypergraph(2, -1, ())


def test_vertex_partitions():
    graph = DirectedHypergraph(2, 2, ())
    assert graph.state_vertices == frozenset({1, 2})
    assert graph.input_vertices == frozenset({3, 4})
    assert DirectedHypergraph(1, 0, ()).input_vertices == frozenset()


# --- the edge table against the dict-based grouping ---


def dict_grouping(pattern: SparsityPattern) -> list[tuple[tuple[int, ...], list[int]]]:
    """Reference: the dict-based grouping build_hypergraph used before the
    edge table, as (tail, ascending heads) per edge in edge order."""
    heads_by_tail: dict[tuple[int, ...], set[int]] = {}
    for idx in sorted(pattern.tensor_support):
        heads_by_tail.setdefault(tuple(sorted(idx[:-1])), set()).add(idx[-1])
    rows_by_column: dict[int, set[int]] = {}
    for i, j in sorted(pattern.control_support):
        rows_by_column.setdefault(j, set()).add(i)
    edges = [((pattern.dim + j,), sorted(rows)) for j, rows in sorted(rows_by_column.items())]
    edges.extend((tail, sorted(heads)) for tail, heads in sorted(heads_by_tail.items()))
    return edges


def table_edges(graph: DirectedHypergraph) -> list[tuple[tuple[int, ...], list[int]]]:
    tp, hp = graph.tail_ptr, graph.head_ptr
    return [
        (tuple(graph.tail_idx[tp[e]:tp[e + 1]]), list(graph.head_idx[hp[e]:hp[e + 1]]))
        for e in range(len(tp) - 1)
    ]


def assert_matches_reference(pattern: SparsityPattern) -> None:
    graph = build_hypergraph(pattern)
    expected = dict_grouping(pattern)
    assert table_edges(graph) == expected
    assert len(graph.edges) == len(expected)
    assert graph == DirectedHypergraph(
        pattern.dim, pattern.inputs, tuple(Hyperedge(t, frozenset(h)) for t, h in expected)
    )


# (n, k, tensor nnz): sparse and dense supports from 6 to 300 entries; the
# dense ones at small n hold many permuted tails.
RANDOM_SHAPES = [
    (3, 2, 6), (6, 2, 31), (6, 2, 32), (20, 2, 200),
    (2, 4, 12), (3, 4, 31), (3, 4, 60), (30, 4, 200),
    (2, 6, 20), (3, 6, 300), (10, 6, 200),
]


@pytest.mark.parametrize("n, k, nnz", RANDOM_SHAPES)
@pytest.mark.parametrize("seed", range(5))
def test_table_matches_dict_grouping_on_random_patterns(n, k, nnz, seed):
    assert_matches_reference(random_pattern(n, k, 2, nnz, 1 + seed % n, seed))


def test_control_only_pattern():
    pattern = SparsityPattern(4, 3, 2, frozenset(), frozenset({(3, 2), (1, 2), (2, 1)}))
    assert_matches_reference(pattern)
    assert build_hypergraph(pattern).edges == (
        Hyperedge((4,), frozenset({2})),
        Hyperedge((5,), frozenset({1, 3})),
    )


def test_tensor_only_pattern():
    pattern = SparsityPattern(2, 3, 2, frozenset({(2, 1), (1, 3), (2, 3)}), frozenset())
    assert_matches_reference(pattern)
    graph = build_hypergraph(pattern)
    assert (graph.tail_ptr, graph.head_ptr) == ((0, 1, 2), (0, 1, 3))


def test_permuted_tails_with_the_same_head_give_one_head():
    pattern = SparsityPattern(
        order=4,
        dim=4,
        inputs=1,
        tensor_support=frozenset({(1, 2, 3, 4), (2, 1, 3, 4), (3, 2, 1, 4), (2, 1, 3, 1)}),
        control_support=frozenset({(1, 1)}),
    )
    graph = build_hypergraph(pattern)
    assert graph.tail_idx == (5, 1, 2, 3)
    assert graph.head_idx == (1, 1, 4)
    assert graph.head_ptr == (0, 1, 3)
    assert_matches_reference(pattern)


def test_one_control_column_with_several_rows():
    pattern = SparsityPattern(
        order=2,
        dim=5,
        inputs=1,
        tensor_support=frozenset({(1, 2)}),
        control_support=frozenset({(5, 1), (2, 1), (4, 1)}),
    )
    graph = build_hypergraph(pattern)
    assert graph.edges == (
        Hyperedge((6,), frozenset({2, 4, 5})),
        Hyperedge((1,), frozenset({2})),
    )
    assert_matches_reference(pattern)


@pytest.mark.parametrize(
    "tensor, control, fragment",
    [
        ({(1, 1, 1, 3)}, {(1, 1)}, "outside"),
        ({(0, 1, 1, 2)}, {(1, 1)}, "outside"),
        ({(1, 1, 2)}, {(1, 1)}, "modes"),
        ({(1, 1, 1, 2), (1, 1, 1, 1, 2)}, {(1, 1)}, "modes"),
        (set(), {(3, 1)}, "out of range"),
        (set(), {(1, 2)}, "out of range"),
        (set(), {(1, 1, 1)}, "modes"),
        ({(2**70, 1, 1, 1)}, {(1, 1)}, "int64"),
    ],
)
def test_pattern_rejects_bad_indices(tensor, control, fragment):
    with pytest.raises(ValueError, match=fragment):
        SparsityPattern(4, 2, 1, frozenset(tensor), frozenset(control))


def test_pattern_normalizes_index_types():
    pattern = SparsityPattern(2, 2, 1, [[np.int64(1), 2], (True, 2.0)], [(1, 1)])
    assert pattern.tensor_support == frozenset({(1, 2)})
    assert all(type(i) is int for i in next(iter(pattern.tensor_support)))


def test_grouping_memory_does_not_grow_by_a_key_per_column():
    """Two tensor rows of width k = 10^5 group in a few MB: the rows are
    sorted by one key each, not by one sort key per column."""
    pattern = random_pattern(3, 100_000, 1, 2, 1, 9191)
    tracemalloc.start()
    try:
        graph = build_hypergraph(pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(graph.edges) == 3
    assert peak < 32 * 2**20


def test_len_of_edges_does_not_build_hyperedges():
    graph = build_hypergraph(random_pattern(50, 4, 2, 150, 5, 0))
    assert len(graph.edges) == len(graph.tail_ptr) - 1
    assert graph.edges._items is None


def test_graph_is_immutable_and_survives_pickle_and_copy():
    graph = build_hypergraph(random_pattern(6, 4, 2, 40, 3, 1))
    for clone in (pickle.loads(pickle.dumps(graph)), copy.deepcopy(graph)):
        assert clone == graph
        assert clone.edges == graph.edges
    with pytest.raises(AttributeError):
        graph.n = 3

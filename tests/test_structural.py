"""Matching-based dilation test and the firing fixed point, cross-checked."""

import io
import json
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cubic_forward_system,
    linear_chain_system,
    self_loop_system,
    shared_input_system,
)
from polyctrl.cli import run
from polyctrl.generate import random_hypergraph, random_pattern
from polyctrl.hypergraph import DirectedHypergraph, Hyperedge, build_hypergraph
from polyctrl.oracle import brute_force_dilation
from polyctrl.structural import (
    DilationResult,
    accessible_set,
    analyze_hypergraph,
    detect_dilation,
    structural_verdict,
    verdict_against_rank,
)
from polyctrl.system import SparsityPattern, sample_realization, sparsity_pattern


def graph_of(system) -> DirectedHypergraph:
    return build_hypergraph(sparsity_pattern(system))


def covering_edges(graph: DirectedHypergraph, subset) -> int:
    return sum(1 for edge in graph.edges if edge.head & subset)


# --- dilation ---


def test_shared_input_is_dilated():
    result = detect_dilation(graph_of(shared_input_system()))
    assert result.dilated
    assert result.witness == frozenset({1, 2})
    assert result.matching == ((0, 1),)


def test_chain_has_perfect_matching():
    result = detect_dilation(graph_of(linear_chain_system()))
    assert not result.dilated
    assert result.witness is None
    assert result.matching == ((0, 1), (1, 2))


def test_self_loop_leaves_second_state_uncovered():
    result = detect_dilation(graph_of(self_loop_system()))
    assert result.dilated
    assert result.witness == frozenset({2})


def test_edgeless_graph_is_fully_dilated():
    result = detect_dilation(DirectedHypergraph(2, 1, ()))
    assert result.dilated
    assert result.witness == frozenset({1, 2})
    assert result.matching == ()


def test_single_state_with_control_edge():
    graph = DirectedHypergraph(1, 1, (Hyperedge((2,), frozenset({1})),))
    result = detect_dilation(graph)
    assert not result.dilated
    assert result.matching == ((0, 1),)


def test_matching_needs_augmenting_path():
    # vertex 1 grabs the shared edge first and must be evicted to edge 1
    graph = DirectedHypergraph(
        2,
        1,
        (
            Hyperedge((3,), frozenset({1, 2})),
            Hyperedge((1,), frozenset({1})),
        ),
    )
    result = detect_dilation(graph)
    assert not result.dilated
    assert result.matching == ((0, 2), (1, 1))


@given(st.integers(0, 199))
@settings(max_examples=200, deadline=None)
def test_dilation_agrees_with_subset_enumeration(seed):
    graph = random_hypergraph(seed)
    result = detect_dilation(graph)
    dilated, oracle_witness = brute_force_dilation(graph)
    assert result.dilated == dilated
    if result.dilated:
        witness = result.witness
        assert witness and witness <= graph.state_vertices
        assert covering_edges(graph, witness) < len(witness)
        assert covering_edges(graph, oracle_witness) < len(oracle_witness)
    else:
        assert len(result.matching) == graph.n


def test_matching_pairs_are_consistent():
    for seed in range(40):
        graph = random_hypergraph(seed)
        result = detect_dilation(graph)
        edges_used = [e for e, _ in result.matching]
        vertices_used = [v for _, v in result.matching]
        assert len(set(edges_used)) == len(edges_used)
        assert len(set(vertices_used)) == len(vertices_used)
        for e, v in result.matching:
            assert v in graph.edges[e].head


def recursive_dilation(graph: DirectedHypergraph) -> DilationResult:
    """Reference: the recursive augmenting matcher detect_dilation used
    before the explicit stack.  Its depth grows with the augmenting path,
    so it only serves graphs well inside the recursion limit."""
    edges_of_vertex: dict[int, list[int]] = {v: [] for v in range(1, graph.n + 1)}
    for e, edge in enumerate(graph.edges):
        for v in sorted(edge.head):
            edges_of_vertex[v].append(e)
    edge_to_vertex: dict[int, int] = {}
    vertex_to_edge: dict[int, int] = {}

    def try_augment(v: int, visited: set[int]) -> bool:
        for e in edges_of_vertex[v]:
            if e in visited:
                continue
            visited.add(e)
            owner = edge_to_vertex.get(e)
            if owner is None or try_augment(owner, visited):
                edge_to_vertex[e] = v
                vertex_to_edge[v] = e
                return True
        return False

    for v in range(1, graph.n + 1):
        try_augment(v, set())
    matching = tuple(sorted(edge_to_vertex.items()))
    if len(matching) == graph.n:
        return DilationResult(False, None, matching)
    reach = {v for v in range(1, graph.n + 1) if v not in vertex_to_edge}
    stack = list(reach)
    while stack:
        v = stack.pop()
        for e in edges_of_vertex[v]:
            owner = edge_to_vertex.get(e)
            if owner is not None and owner not in reach:
                reach.add(owner)
                stack.append(owner)
    return DilationResult(True, frozenset(reach), matching)


def test_matching_equals_recursive_reference_on_random_hypergraphs():
    for seed in range(300):
        graph = random_hypergraph(seed)
        assert detect_dilation(graph) == recursive_dilation(graph), seed


@pytest.mark.parametrize("seed", range(6))
def test_matching_equals_recursive_reference_on_larger_patterns(seed):
    n = 150
    graph = build_hypergraph(random_pattern(n, 4 if seed % 2 else 2, 2, 2 * n, 3, seed))
    assert detect_dilation(graph) == recursive_dilation(graph)


def cli_json(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(argv) == 0
    return json.loads(out.getvalue())


def test_long_augmenting_paths_do_not_recurse(tmp_path):
    # Vertex v tries edge v-1 (owned by v-1) before its own edge, so the
    # search for vertex v walks the whole chain below it.
    n = 2000
    lines = [f"hypergraph {n} 1", f"{n + 1} -> {n}"]
    lines.extend(f"{i} -> {i},{i + 1}" for i in range(1, n))
    path = tmp_path / "chain.txt"
    path.write_text("\n".join(lines) + "\n")
    expected = [[0, n]] + [[i, i] for i in range(1, n)]

    report = cli_json(["dilation", str(path), "--json"])
    assert report["dilated"] is False
    assert report["matching"] == expected
    report = cli_json(["analyze", str(path), "--json"])
    assert report["structural"]["matching"] == expected


def test_one_augmenting_path_through_a_large_pattern(tmp_path):
    # k=2 pattern: input 1 feeds vertex 1; tail n-v feeds vertices v and v+1.
    # Vertices 2..n-1 each take the edge of tail n-v first, so vertex n
    # finds its edge only along one augmenting path through all of them.
    n = 6000
    lines = [f"tensor 2 {n}"]
    for t in range(1, n):
        lines.extend([f"{t} {n - t}", f"{t} {n - t + 1}"])
    lines.extend([f"matrix {n} 1", "1 1"])
    path = tmp_path / "pattern.txt"
    path.write_text("\n".join(lines) + "\n")

    report = cli_json(["analyze", str(path), "--json"])["structural"]
    assert report["dilated"] is False
    assert len(report["matching"]) == n
    assert report["matching"][0] == [0, 1]
    # edge e >= 1 has tail e, heads n-e and n-e+1; vertex v ends on tail n-v+1
    assert report["matching"][1:] == [[e, n - e + 1] for e in range(1, n)]


# --- accessibility ---


def rescan_accessible(graph: DirectedHypergraph) -> frozenset[int]:
    # quadratic restatement of the fixed point: rescan all edges until stable
    reached = set(graph.input_vertices)
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            if edge.tail_support <= reached and not edge.head <= reached:
                reached |= edge.head
                changed = True
    return frozenset(reached)


def test_accessible_sets_of_named_systems():
    assert accessible_set(graph_of(linear_chain_system())) == frozenset({1, 2, 3})
    assert accessible_set(graph_of(cubic_forward_system())) == frozenset({1, 2, 3})
    assert accessible_set(graph_of(self_loop_system())) == frozenset({1, 3})
    assert accessible_set(DirectedHypergraph(2, 1, ())) == frozenset({3})


def test_edge_waits_for_its_whole_tail():
    # edge (1,2) -> 2 must not fire from 1 alone
    graph = DirectedHypergraph(
        2,
        1,
        (
            Hyperedge((3,), frozenset({1})),
            Hyperedge((1, 2), frozenset({2})),
        ),
    )
    assert accessible_set(graph) == frozenset({1, 3})


@given(st.integers(0, 299))
@settings(max_examples=300, deadline=None)
def test_accessible_set_matches_rescan(seed):
    graph = random_hypergraph(seed)
    assert accessible_set(graph) == rescan_accessible(graph)


# --- combined verdict ---


def test_verdict_on_named_systems():
    verdict = structural_verdict(sparsity_pattern(cubic_forward_system()))
    assert verdict.controllable
    assert not verdict.dilated
    assert verdict.inaccessible == frozenset()

    verdict = structural_verdict(sparsity_pattern(shared_input_system()))
    assert not verdict.controllable
    assert verdict.dilation_witness == frozenset({1, 2})

    verdict = structural_verdict(sparsity_pattern(linear_chain_system()))
    assert verdict.controllable


def test_both_failures_can_coincide():
    verdict = structural_verdict(sparsity_pattern(self_loop_system()))
    assert not verdict.controllable
    assert verdict.dilated
    assert verdict.dilation_witness == frozenset({2})
    assert verdict.inaccessible == frozenset({2})


def test_verdict_depends_on_the_pattern_only():
    pattern = SparsityPattern(
        order=4,
        dim=3,
        inputs=2,
        tensor_support=frozenset({(1, 1, 2, 3), (3, 3, 3, 2)}),
        control_support=frozenset({(1, 1), (2, 2)}),
    )
    expected = structural_verdict(pattern)
    for seed in (0, 1, 2, 3):
        system = sample_realization(pattern, seed)
        assert structural_verdict(sparsity_pattern(system)) == expected


def test_verdict_against_rank_draws_by_verdict():
    # controllable: 3 draws, one at full rank suffices; not: 5, none may be
    cubic = sparsity_pattern(cubic_forward_system())
    assert verdict_against_rank(cubic, 40, 1e-10) == (True, [2, 2, 2], True)
    shared = sparsity_pattern(shared_input_system())
    assert verdict_against_rank(shared, 40, 1e-10) == (False, [1] * 5, True)


def test_analysis_scales_to_long_chains():
    n = 400
    edges = [Hyperedge((n + 1,), frozenset({1}))]
    edges.extend(Hyperedge((i,), frozenset({i + 1})) for i in range(1, n))
    graph = DirectedHypergraph(n, 1, tuple(edges))
    start = time.perf_counter()
    verdict = analyze_hypergraph(graph)
    elapsed = time.perf_counter() - start
    assert verdict.controllable
    assert elapsed < 1.0

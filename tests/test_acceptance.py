"""Acceptance battery: every release criterion, one test and one summary line each.

Criteria 1-5 and 7 are expected to hold.  Criterion 6 asserts a claim the
implementation deliberately does not weaken to meet: the set-closure oracle
is stricter than the structural verdict, and without the source's definition
of individual accessibility it is open whether the oracle or the claim is at
fault, so the test stays red and its failure output carries the
counterexamples.  Nothing here is tuned to pass.
"""

import json
import time
from itertools import combinations, product

import numpy as np
import pytest

from conftest import (
    cubic_forward_system,
    linear_chain_system,
    self_loop_system,
    shared_input_system,
)
from polyctrl.cli import run
from polyctrl.generate import (
    random_digraph_pattern,
    random_hypergraph,
    random_system_pattern,
)
from polyctrl.hypergraph import DirectedHypergraph, Hyperedge, build_hypergraph
from polyctrl.numeric import (
    explicit_controllability_matrix,
    strong_controllability,
    svd_rank,
)
from polyctrl.oracle import (
    brute_force_dilation,
    individual_accessibility_closure,
    kalman_rank,
    lie_algebra_rank_at_origin,
)
from polyctrl.structural import (
    analyze_hypergraph,
    structural_verdict,
    verdict_against_rank,
)
from polyctrl.system import Polysystem, sample_realization, sparsity_pattern
from polyctrl.tensor import SparseTensor, unfold

TOL = 1e-10


def scaled(system: Polysystem, factor: float = 1e3) -> Polysystem:
    entries = {idx: c * factor for idx, c in system.tensor.entries.items()}
    return Polysystem(
        SparseTensor(system.order, system.dim, entries),
        np.array(system.control) * factor,
    )


def column_normalized(mat: np.ndarray) -> np.ndarray:
    # rank is column-scale invariant; normalizing keeps the SVD cutoff honest
    # when block magnitudes differ by powers of the coefficient scale
    mat = np.array(mat, dtype=float)
    norms = np.linalg.norm(mat, axis=0)
    keep = norms > 0.0
    return mat[:, keep] / norms[keep]


def covering_edges(graph: DirectedHypergraph, subset) -> int:
    return sum(1 for edge in graph.edges if edge.head & subset)


# The exhaustive audit family: up to 4 state vertices, one input vertex,
# 1 to 4 hyperedges with singleton or three-element state tails plus the
# input tail.  Head pools are complete for n <= 3 and thinned to singletons
# plus the full set at n = 4 to keep the family enumerable.


def head_pool(n):
    if n <= 3:
        return [
            frozenset(c)
            for r in range(1, n + 1)
            for c in combinations(range(1, n + 1), r)
        ]
    return [frozenset({i}) for i in range(1, n + 1)] + [frozenset(range(1, n + 1))]


def tail_pool(n):
    return (
        [(i,) for i in range(1, n + 1)]
        + list(combinations(range(1, n + 1), 3))
        + [(n + 1,)]
    )


def exhaustive_family():
    for n in range(1, 5):
        for r in range(1, 5):
            for tail_combo in combinations(tail_pool(n), r):
                for head_combo in product(head_pool(n), repeat=r):
                    yield DirectedHypergraph(
                        n,
                        1,
                        tuple(Hyperedge(t, h) for t, h in zip(tail_combo, head_combo)),
                    )


@pytest.fixture(scope="module")
def family():
    return list(exhaustive_family())


def test_criterion_1_dilation_oracle_equivalence(family, acceptance):
    start = time.perf_counter()
    disagreements = 0
    checked = 0
    for graph in family:
        result = analyze_hypergraph(graph)
        dilated, oracle_witness = brute_force_dilation(graph)
        checked += 1
        if result.dilated != dilated:
            disagreements += 1
            continue
        if result.dilated:
            assert covering_edges(graph, result.dilation_witness) < len(
                result.dilation_witness
            )
            assert covering_edges(graph, oracle_witness) < len(oracle_witness)
    for seed in range(200):
        graph = random_hypergraph(seed)
        result = analyze_hypergraph(graph)
        dilated, oracle_witness = brute_force_dilation(graph)
        checked += 1
        if result.dilated != dilated:
            disagreements += 1
            continue
        if result.dilated:
            assert covering_edges(graph, result.dilation_witness) < len(
                result.dilation_witness
            )
            assert covering_edges(graph, oracle_witness) < len(oracle_witness)
    elapsed = time.perf_counter() - start
    passed = disagreements == 0 and elapsed < 5.0
    acceptance.record(
        1,
        passed,
        f"dilation matching vs subset oracle on {checked} hypergraphs: "
        f"{disagreements} disagreements, witnesses literal, {elapsed:.2f}s",
    )
    assert disagreements == 0
    assert elapsed < 5.0, f"audit took {elapsed:.2f}s, budget is 5s"


def test_criterion_2_structural_verdict_predicts_rank(acceptance):
    start = time.perf_counter()
    bad = []
    for i in range(100):
        [(_, _, agree)] = verdict_against_rank([random_system_pattern(i)], [1000 + 10 * i], TOL)
        if not agree:
            bad.append(i)
    elapsed = time.perf_counter() - start
    passed = not bad and elapsed < 60.0
    acceptance.record(
        2,
        passed,
        f"structural verdict vs sampled rank over 100 patterns: "
        f"{100 - len(bad)}/100 agree, {elapsed:.1f}s",
    )
    assert not bad, f"patterns with verdict/rank disagreement: {bad}"
    assert elapsed < 60.0


def test_criterion_3_linear_three_way_agreement(acceptance):
    bad = []
    for seed in range(50):
        pattern = random_digraph_pattern(seed)
        graph = build_hypergraph(pattern)
        verdict = structural_verdict(pattern).controllable
        dilated, _ = brute_force_dilation(graph)
        from polyctrl.structural import accessible_set

        accessible = accessible_set(graph)
        graph_clean = not dilated and all(
            v in accessible for v in range(1, pattern.dim + 1)
        )
        system = sample_realization(pattern, 2000 + seed)
        kalman_full = (
            kalman_rank(unfold(system.tensor), system.control, TOL) == pattern.dim
        )
        if not (verdict == graph_clean == kalman_full):
            bad.append((seed, verdict, graph_clean, kalman_full))
    acceptance.record(
        3,
        not bad,
        f"digraph verdict / graph test / Kalman rank over 50 seeds: "
        f"{50 - len(bad)}/50 three-way agreement",
    )
    assert not bad, f"three-way disagreements: {bad}"


def test_criterion_4_reduction_vs_explicit_matrix(acceptance):
    mismatches = []
    for seed in range(20):
        pattern = random_system_pattern(seed, n_low=1, n_high=3)
        system = sample_realization(pattern, 500 + seed)
        n = system.dim
        reduced_rank = strong_controllability(system, tol=TOL).rank
        explicit_rank = svd_rank(
            column_normalized(explicit_controllability_matrix(system, terms=n)), TOL
        )
        if reduced_rank != explicit_rank:
            mismatches.append((seed, reduced_rank, explicit_rank))
    acceptance.record(
        4,
        not mismatches,
        f"iterative reduction vs explicit matrix over 20 systems: "
        f"{20 - len(mismatches)}/20 agree"
        + (f"; mismatches (seed, reduced, explicit): {mismatches}" if mismatches else ""),
    )
    for seed, reduced_rank, explicit_rank in mismatches:
        print(
            f"seed {seed}: reduction reaches rank {reduced_rank}, the explicit "
            f"matrix after n - 1 cumulative steps spans rank {explicit_rank}"
        )
    assert not mismatches, (
        "the explicit matrix and the reduction it mirrors span different "
        f"spaces: {mismatches}"
    )


def test_criterion_5_lie_rank_consistency(acceptance):
    start = time.perf_counter()
    instances = [
        ("cubic-forward", cubic_forward_system()),
        ("self-loop", self_loop_system()),
        ("shared-input", shared_input_system()),
    ]
    for j in range(6):
        pattern = random_system_pattern(j, n_low=1, n_high=3)
        instances.append((f"seeded-{j}", sample_realization(pattern, 3000 + j)))

    rank_disagreements = []
    unsettled = []
    for name, system in instances:
        lie_rank, _, final = lie_algebra_rank_at_origin(system)
        report = strong_controllability(system, tol=TOL)
        if (lie_rank == system.dim) != report.strongly_controllable:
            rank_disagreements.append(name)
        if not final:
            unsettled.append(name)

    # k = 2 stays out of the bracket oracle; the Kalman test covers it
    chain = linear_chain_system()
    chain_ok = (
        strong_controllability(chain, tol=TOL).rank
        == kalman_rank(unfold(chain.tensor), chain.control, TOL)
    )
    elapsed = time.perf_counter() - start

    passed = not rank_disagreements and not unsettled and chain_ok and elapsed < 30.0
    acceptance.record(
        5,
        passed,
        f"Lie rank at origin vs reduction on {len(instances)} systems: "
        f"{len(rank_disagreements)} rank disagreements, "
        f"{len(unsettled)} ranks not certified final"
        + (f" ({', '.join(unsettled)})" if unsettled else "")
        + f", {elapsed:.1f}s",
    )
    assert chain_ok
    assert not rank_disagreements, rank_disagreements
    for name in unsettled:
        print(
            f"{name}: the rank at the origin at the depth cap is not certified "
            "final, so agreement with the reduction may be an artifact of the cap"
        )
    assert not unsettled, f"rank at the origin not certified final on: {unsettled}"
    assert elapsed < 30.0


def test_criterion_6_individual_accessibility_implication(family, acceptance):
    clean = 0
    forward_bad = []
    reverse_bad = []
    for graph in family:
        verdict = analyze_hypergraph(graph)
        closure = individual_accessibility_closure(graph)
        assert not closure.truncated
        all_individual = closure.individually_accessible == graph.state_vertices
        structurally_clean = not verdict.dilated and not verdict.inaccessible
        if structurally_clean:
            clean += 1
            if not all_individual:
                forward_bad.append(graph)
        if all_individual and not structurally_clean:
            reverse_bad.append(graph)

    def describe(graph):
        edges = "; ".join(
            f"{edge.tail}->{{{','.join(map(str, sorted(edge.head)))}}}"
            for edge in graph.edges
        )
        return f"n={graph.n} m={graph.m}: {edges}"

    print("individual accessibility audit")
    print(f"  family size {len(family)}, structurally clean {clean}")
    print(f"  forward violations (clean, yet some vertex never isolated): {len(forward_bad)}")
    for graph in forward_bad[:5]:
        print(f"    {describe(graph)}")
    print(f"  reverse violations (all isolated, yet not clean): {len(reverse_bad)}")
    for graph in reverse_bad[:5]:
        print(f"    {describe(graph)}")

    acceptance.record(
        6,
        not forward_bad,
        f"accessible + no dilation => individually accessible: "
        f"{len(forward_bad)} violations among {clean} clean instances "
        f"(reverse direction: {len(reverse_bad)} violations)",
    )
    assert not forward_bad, (
        f"{len(forward_bad)} structurally clean instances have a vertex the "
        f"union/difference closure cannot isolate, e.g. {describe(forward_bad[0])}"
    )


def test_criterion_7_determinism_and_scale_robustness(tmp_path, capsys, acceptance):
    path = tmp_path / "pattern.txt"
    path.write_text("tensor 4 2\n1 1 1 2\n2 2 2 1\nmatrix 2 1\n1 1\n")
    reports = []
    for _ in range(2):
        assert run(["analyze", str(path), "--json", "--numeric", "--seed", "11"]) == 0
        reports.append(capsys.readouterr().out)
    byte_identical = reports[0] == reports[1]
    json.loads(reports[0])

    flips = []
    for i in range(100):
        pattern = random_system_pattern(i)
        for t in range(3):
            system = sample_realization(pattern, 1000 + 10 * i + t)
            before = strong_controllability(system, tol=TOL).strongly_controllable
            after = strong_controllability(scaled(system), tol=TOL).strongly_controllable
            if before != after:
                flips.append(("verdict", i, t))
    for seed in range(50):
        system = sample_realization(random_digraph_pattern(seed), 2000 + seed)
        big = scaled(system)
        if kalman_rank(unfold(system.tensor), system.control, TOL) != kalman_rank(
            unfold(big.tensor), big.control, TOL
        ):
            flips.append(("kalman", seed))
    for seed in range(20):
        pattern = random_system_pattern(seed, n_low=1, n_high=3)
        system = sample_realization(pattern, 500 + seed)
        big = scaled(system)
        n = system.dim
        if (
            strong_controllability(system, tol=TOL).rank
            != strong_controllability(big, tol=TOL).rank
        ):
            flips.append(("reduction", seed))
        if svd_rank(
            column_normalized(explicit_controllability_matrix(system, terms=n)), TOL
        ) != svd_rank(
            column_normalized(explicit_controllability_matrix(big, terms=n)), TOL
        ):
            flips.append(("explicit", seed))
        if lie_algebra_rank_at_origin(system)[0] != lie_algebra_rank_at_origin(big)[0]:
            flips.append(("lie", seed))

    passed = byte_identical and not flips
    acceptance.record(
        7,
        passed,
        f"byte-identical reports: {byte_identical}; verdict flips under 1e3 "
        f"coefficient scaling: {len(flips)}",
    )
    assert byte_identical
    assert not flips, f"scale-sensitive verdicts: {flips}"

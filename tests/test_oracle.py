"""Desk-scale oracles: Lie brackets, subset enumeration, closure, Kalman."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cubic_forward_system,
    linear_chain_system,
    self_loop_system,
    shared_input_system,
)
from polyctrl import oracle
from polyctrl.formats import parse_input
from polyctrl.generate import random_digraph_pattern, random_system_pattern
from polyctrl.hypergraph import DirectedHypergraph, Hyperedge, build_hypergraph
from polyctrl.numeric import strong_controllability
from polyctrl.oracle import (
    PolyVectorField,
    brute_force_dilation,
    field_from_polysystem,
    individual_accessibility_closure,
    kalman_rank,
    lie_algebra_rank_at_origin,
    lie_bracket,
)
from polyctrl.system import Polysystem, sample_realization, sparsity_pattern
from polyctrl.tensor import CapacityError, SparseTensor, unfold


def combine(a: float, f: PolyVectorField, b: float, g: PolyVectorField) -> PolyVectorField:
    assert f.dim == g.dim
    coords = []
    for pf, pg in zip(f.coords, g.coords):
        merged = {key: a * c for key, c in pf.items()}
        for key, c in pg.items():
            merged[key] = merged.get(key, 0.0) + b * c
        coords.append(merged)
    return PolyVectorField(f.dim, tuple(coords))


# the zero field of the dimension ``fields`` draws
ZERO = PolyVectorField(2, ({},) * 2)


@st.composite
def fields(draw, dim=2, max_terms=3):
    exponent_maps = st.lists(
        st.tuples(st.integers(1, dim), st.integers(1, 2)), max_size=2
    )
    coords = []
    for _ in range(dim):
        poly = {}
        for _ in range(draw(st.integers(0, max_terms))):
            key = tuple(draw(exponent_maps))
            poly[key] = poly.get(key, 0.0) + draw(st.integers(-2, 2))
        coords.append(poly)
    return PolyVectorField(dim, tuple(coords))


# --- fields from systems ---


def test_field_from_cubic_forward():
    drift, inputs = field_from_polysystem(cubic_forward_system())
    assert drift.coords == ({}, {((1, 3),): 1.0})
    assert len(inputs) == 1
    assert inputs[0].coords == ({(): 1.0}, {})


def test_field_from_chain():
    drift, inputs = field_from_polysystem(linear_chain_system())
    assert drift.coords == ({}, {((1, 1),): 1.0})
    assert inputs[0].coords == ({(): 1.0}, {})


def test_field_merges_symmetric_entries():
    system = Polysystem(
        SparseTensor(4, 2, {(1, 1, 2, 2): 1.0, (1, 2, 1, 2): 2.0}),
        np.array([[1.0], [0.0]]),
    )
    drift, _ = field_from_polysystem(system)
    assert drift.coords == ({}, {((1, 2), (2, 1)): 3.0})


# --- brackets ---


def test_bracket_chain_of_the_cubic():
    drift, (b,) = field_from_polysystem(cubic_forward_system())
    first = lie_bracket(b, drift)
    assert first.coords == ({}, {((1, 2),): 3.0})
    second = lie_bracket(b, first)
    assert second.coords == ({}, {((1, 1),): 6.0})
    third = lie_bracket(b, second)
    assert third.coords == ({}, {(): 6.0})
    assert third.coords[1][()] == 6.0
    assert lie_bracket(b, third) == ZERO


def test_bracket_with_itself_vanishes():
    drift, _ = field_from_polysystem(cubic_forward_system())
    assert lie_bracket(drift, drift) == ZERO


def test_bracket_dimension_mismatch():
    f = PolyVectorField(2, ({}, {}))
    g = PolyVectorField(3, ({}, {}, {}))
    with pytest.raises(ValueError):
        lie_bracket(f, g)


@given(fields(), fields())
@settings(max_examples=60)
def test_bracket_antisymmetry(f, g):
    assert combine(1.0, lie_bracket(f, g), 1.0, lie_bracket(g, f)) == ZERO


@given(fields(), fields(), fields(), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=40)
def test_bracket_bilinearity(f, g, h, a, b):
    left = lie_bracket(combine(float(a), f, float(b), g), h)
    right = combine(float(a), lie_bracket(f, h), float(b), lie_bracket(g, h))
    assert left == right


@given(fields(max_terms=2), fields(max_terms=2), fields(max_terms=2))
@settings(max_examples=25, deadline=None)
def test_jacobi_identity(f, g, h):
    total = combine(
        1.0,
        combine(1.0, lie_bracket(f, lie_bracket(g, h)), 1.0, lie_bracket(g, lie_bracket(h, f))),
        1.0,
        lie_bracket(h, lie_bracket(f, g)),
    )
    assert total == ZERO


def test_field_validation():
    with pytest.raises(ValueError):
        PolyVectorField(0, ())
    with pytest.raises(ValueError):
        PolyVectorField(2, ({},))
    with pytest.raises(ValueError):
        PolyVectorField(2, ({((3, 1),): 1.0}, {}))


@pytest.mark.parametrize(
    "key, message",
    [
        (((1.5, 2),), "monomial ((1.5, 2),) has entry 1.5, which is not an integer"),
        (((2, 2.7),), "monomial ((2, 2.7),) has entry 2.7, which is not an integer"),
        ((("1", 2),), "monomial (('1', 2),) has entry '1', which is not an integer"),
        (((1, -1),), "negative exponent in monomial ((1, -1),)"),
    ],
)
def test_field_keys_follow_the_index_rule(key, message):
    with pytest.raises(ValueError) as info:
        PolyVectorField(2, ({key: 1.0}, {}))
    assert str(info.value) == message


def test_field_keys_normalize_integer_like_entries():
    field = PolyVectorField(2, ({((1, 2),): 1.0}, {}))
    for key in (((1.0, 2),), ((True, 2),), ((np.int64(1), 2.0),)):
        assert PolyVectorField(2, ({key: 1.0}, {})) == field


# --- Lie rank at the origin ---


def test_lie_rank_of_cubic_forward():
    assert lie_algebra_rank_at_origin(cubic_forward_system()) == (2, True, True)


def test_lie_rank_of_self_loop():
    # the bracket chain in coordinate 1 never closes, so no saturation,
    # but the rank at the origin is stable: coordinate 2 stays zero
    rank, saturated, _ = lie_algebra_rank_at_origin(self_loop_system())
    assert rank == 1
    assert not saturated
    rank_deeper, _, _ = lie_algebra_rank_at_origin(self_loop_system(), depth_cap=7)
    assert rank_deeper == 1


def test_lie_rank_of_shared_input():
    rank, saturated, _ = lie_algebra_rank_at_origin(shared_input_system())
    assert rank == 1
    assert saturated


def test_lie_rank_of_chain():
    rank, saturated, _ = lie_algebra_rank_at_origin(linear_chain_system())
    assert rank == 2
    assert saturated


def test_lie_rank_respects_depth_cap():
    rank, saturated, _ = lie_algebra_rank_at_origin(cubic_forward_system(), depth_cap=1)
    assert rank == 1
    assert not saturated


def test_lie_rank_guards():
    big_n = Polysystem(SparseTensor(4, 5, {(1, 1, 1, 2): 1.0}), np.ones((5, 1)))
    with pytest.raises(CapacityError):
        lie_algebra_rank_at_origin(big_n)
    big_k = Polysystem(SparseTensor(6, 2, {(1,) * 6: 1.0}), np.ones((2, 1)))
    with pytest.raises(CapacityError):
        lie_algebra_rank_at_origin(big_k)
    with pytest.raises(ValueError):
        lie_algebra_rank_at_origin(cubic_forward_system(), depth_cap=0)


def test_lie_rank_handles_non_integral_coefficients():
    rank, saturated, _ = lie_algebra_rank_at_origin(cubic_forward_system(coeff=0.75, gain=1.5))
    assert rank == 2
    assert saturated


def test_rank_is_final_without_saturation_on_self_loop():
    # V = span{e1} holds the input, and the drift x1^3 e1 maps V into itself
    _, saturated, final = lie_algebra_rank_at_origin(self_loop_system())
    assert not saturated
    assert final


def test_rank_is_final_on_closed_algebras():
    assert lie_algebra_rank_at_origin(shared_input_system())[2]
    assert lie_algebra_rank_at_origin(cubic_forward_system())[2]
    assert lie_algebra_rank_at_origin(cubic_forward_system(coeff=0.75, gain=1.5))[2]


def test_rank_is_not_final_below_the_depth_cap():
    # after one round V = span{e1}, but the drift sends e1 to e2, outside V
    assert not lie_algebra_rank_at_origin(cubic_forward_system(), depth_cap=1)[2]
    assert not lie_algebra_rank_at_origin(
        cubic_forward_system(coeff=0.75, gain=1.5), depth_cap=1
    )[2]


# a drawn n=4, k=4 system whose rank 4 a float span once read as 3, certified
N4_SYSTEM = sample_realization(random_system_pattern(224, 1, 4), 7224)
# x2' = 1e300 x1^3, x3' = 1e-300 x2^3: a power-of-two rescale of A to unit
# size once underflowed the 1e-300 entry to zero
WIDE_TEXT = "tensor 4 3\n1 1 1 2 1e300\n2 2 2 3 1e-300\nmatrix 3 1\n1 1 1.0\n"


def test_lie_rank_of_a_drawn_four_state_system():
    assert lie_algebra_rank_at_origin(N4_SYSTEM) == (4, False, True)


def test_lie_rank_over_a_wide_coefficient_range():
    # e3 first appears at the origin in the twelfth round
    wide = parse_input(WIDE_TEXT)
    assert lie_algebra_rank_at_origin(wide) == (2, False, False)
    assert lie_algebra_rank_at_origin(wide, depth_cap=12) == (3, False, True)


def test_lie_rank_does_not_depend_on_the_prime(monkeypatch):
    """The same triples, and as many fields kept, mod 2^31 - 1 as mod
    2^61 - 1; a coefficient that leaked into floats would be rounded, and
    the fields kept would then depend on the prime."""
    cases = [(N4_SYSTEM, None), (parse_input(WIDE_TEXT), None), (parse_input(WIDE_TEXT), 12)]
    cases += [
        (system, None)
        for system in (cubic_forward_system(), self_loop_system(), shared_input_system())
    ]
    cases += [
        (sample_realization(random_system_pattern(j, n_low=1, n_high=3), 3000 + j), None)
        for j in range(6)
    ]

    def answers():
        return [
            (
                lie_algebra_rank_at_origin(system, depth_cap=cap),
                len(oracle._bracket_generation(system, cap)[1].rows),
            )
            for system, cap in cases
        ]

    expected = answers()
    monkeypatch.setattr(oracle, "_P", (1 << 31) - 1)
    assert answers() == expected
    assert [triple for triple, _ in expected[:3]] == [
        (4, False, True),
        (2, False, False),
        (3, False, True),
    ]


# --- brute-force dilation ---


def graph_of(system) -> DirectedHypergraph:
    return build_hypergraph(sparsity_pattern(system))


def test_brute_force_on_named_systems():
    assert brute_force_dilation(graph_of(shared_input_system())) == (
        True,
        frozenset({1, 2}),
    )
    assert brute_force_dilation(graph_of(linear_chain_system())) == (False, None)
    assert brute_force_dilation(graph_of(self_loop_system())) == (True, frozenset({2}))


def test_brute_force_returns_first_witness():
    # both singletons are witnesses; size then lexicographic order picks {1}
    assert brute_force_dilation(DirectedHypergraph(2, 1, ())) == (True, frozenset({1}))


def test_brute_force_guard():
    with pytest.raises(CapacityError):
        brute_force_dilation(DirectedHypergraph(13, 0, ()))


# --- individual accessibility closure ---


def test_closure_cannot_split_shared_head():
    closure = individual_accessibility_closure(graph_of(shared_input_system()))
    assert closure.individually_accessible == frozenset()
    assert not closure.truncated
    assert frozenset({1, 2}) in closure.sets
    assert frozenset({3}) in closure.sets


def test_closure_isolates_chain_states():
    closure = individual_accessibility_closure(graph_of(linear_chain_system()))
    assert closure.individually_accessible == frozenset({1, 2})
    assert not closure.truncated


def test_closure_uses_set_difference():
    graph = DirectedHypergraph(
        2,
        2,
        (
            Hyperedge((3,), frozenset({1, 2})),
            Hyperedge((4,), frozenset({2})),
        ),
    )
    closure = individual_accessibility_closure(graph)
    # {1} only arises as {1,2} minus {2}
    assert closure.individually_accessible == frozenset({1, 2})


def test_closure_fires_on_covered_tail_only():
    graph = DirectedHypergraph(
        2,
        1,
        (
            Hyperedge((3,), frozenset({1})),
            Hyperedge((1, 2), frozenset({2})),
        ),
    )
    closure = individual_accessibility_closure(graph)
    assert closure.individually_accessible == frozenset({1})


def test_closure_truncates_at_cap():
    closure = individual_accessibility_closure(graph_of(linear_chain_system()), cap=4)
    assert closure.truncated
    assert len(closure.sets) <= 4


def test_closure_guard():
    with pytest.raises(CapacityError):
        individual_accessibility_closure(DirectedHypergraph(16, 1, ()))


# --- Kalman rank ---


def test_kalman_rank_frozen_examples():
    assert kalman_rank(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 0.0])) == 2
    assert kalman_rank(np.zeros((2, 2)), np.array([1.0, 0.0])) == 1
    assert kalman_rank(np.zeros((2, 2)), np.zeros((2, 1))) == 0


def test_kalman_rank_shape_checks():
    with pytest.raises(ValueError):
        kalman_rank(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        kalman_rank(np.zeros((2, 2)), np.zeros(3))


def test_kalman_rank_survives_scaling():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([1.0, 0.0])
    assert kalman_rank(a * 1e6, b * 1e-6) == 2
    assert kalman_rank(a * 1e-6, b * 1e6) == 2


@given(st.integers(0, 30))
@settings(max_examples=30, deadline=None)
def test_kalman_agrees_with_reduction_for_linear_systems(seed):
    system = sample_realization(random_digraph_pattern(seed), 4000 + seed)
    direct = kalman_rank(unfold(system.tensor), system.control, 1e-10)
    reduced = strong_controllability(system, tol=1e-10).rank
    assert direct == reduced

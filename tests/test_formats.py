"""Text format parsing, error reporting with line numbers, round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cubic_forward_system, shared_input_system
from polyctrl.formats import (
    ParseError,
    parse_hypergraph,
    parse_input,
    parse_system,
    serialize,
)
from polyctrl.generate import random_pattern
from polyctrl.hypergraph import DirectedHypergraph, Hyperedge, build_hypergraph
from polyctrl.system import Polysystem, SparsityPattern, sparsity_pattern

CUBIC_TEXT = "tensor 4 2\n1 1 1 2 1.0\nmatrix 2 1\n1 1 1.0\n"


def assert_systems_equal(a: Polysystem, b: Polysystem) -> None:
    assert a.tensor.order == b.tensor.order
    assert a.tensor.dim == b.tensor.dim
    assert a.tensor.entries == b.tensor.entries
    assert np.array_equal(a.control, b.control)


# --- system parsing ---


def test_parse_valued_system():
    parsed = parse_system(CUBIC_TEXT)
    assert isinstance(parsed, Polysystem)
    assert_systems_equal(parsed, cubic_forward_system())


def test_parse_pattern_without_values():
    parsed = parse_system("tensor 4 2\n1 1 1 2\nmatrix 2 1\n1 1\n")
    assert isinstance(parsed, SparsityPattern)
    assert parsed == sparsity_pattern(cubic_forward_system())


def test_parse_empty_tensor_section():
    parsed = parse_system("tensor 4 2\nmatrix 2 1\n1 1 1.0\n2 1 1.0\n")
    assert isinstance(parsed, Polysystem)
    assert_systems_equal(parsed, shared_input_system())


def test_comments_and_blank_lines_are_ignored():
    text = "# cubic chain\n\ntensor 4 2\n\n1 1 1 2 1.0\n# done\nmatrix 2 1\n1 1 1.0\n"
    assert_systems_equal(parse_system(text), cubic_forward_system())


def test_parse_reports_line_numbers():
    text = "# comment\n\ntensor 4 2\n1 1 1 9 1.0\nmatrix 2 1\n"
    with pytest.raises(ParseError) as info:
        parse_system(text)
    assert "line 4" in str(info.value)
    assert info.value.line_no == 4


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty input"),
        ("matrix 2 1\n", "expected header 'tensor k n'"),
        ("tensor 4\n", "expected header 'tensor k n'"),
        ("tensor x 2\nmatrix 2 1\n", "not an integer"),
        ("tensor 1 2\nmatrix 2 1\n", "order must be >= 2"),
        ("tensor 3 2\nmatrix 2 1\n", "odd"),
        ("tensor 4 0\nmatrix 0 1\n", "dimension must be >= 1"),
        ("tensor 4 2\n1 1 1 1.0\nmatrix 2 1\n", "not an integer"),
        ("tensor 4 2\n1 1 1 1 2 3 1.0\nmatrix 2 1\n", "optional value"),
        ("tensor 4 2\n1 1 1 2 0.0\nmatrix 2 1\n", "exact-zero"),
        ("tensor 4 2\n1 1 1 2 inf\nmatrix 2 1\n", "not finite"),
        ("tensor 4 2\n1 1 1 2 -inf\nmatrix 2 1\n", "not finite"),
        ("tensor 4 2\n1 1 1 2 nan\nmatrix 2 1\n", "not finite"),
        ("tensor 4 2\nmatrix 2 1\n1 1 inf\n", "not finite"),
        ("tensor 4 2\nmatrix 2 1\n1 1 NaN\n", "not finite"),
        ("tensor 4 2\n1 1 1 3 1.0\nmatrix 2 1\n", "outside [1, 2]"),
        ("tensor 4 2\n1 1 1 2\n", "missing 'matrix n m'"),
        ("tensor 4 2\nmatrix 3 1\n", "do not match tensor dimension"),
        ("tensor 4 2\nmatrix 2 0\n", "at least one input column"),
        ("tensor 4 2\nmatrix 2 1\n3 1 1.0\n", "row 3 outside"),
        ("tensor 4 2\nmatrix 2 1\n1 2 1.0\n", "column 2 outside"),
        ("tensor 4 2\nmatrix 2 1\n1 1 1.0 2.0\n", "optional value"),
        ("tensor 4 2\n1 1 1 2 1.0\nmatrix 2 1\n1 1\n", "mix valued and pattern-only"),
        ("tensor 4 2\n1 1 1 2\nmatrix 2 1\n1 1 1.0\n", "mix valued and pattern-only"),
    ],
)
def test_parse_system_errors(text, fragment):
    with pytest.raises(ParseError, match=".*" + fragment.replace("[", r"\[")):
        parse_system(text)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_value_reports_its_line(value):
    text = f"tensor 2 2\n1 2 1.0\n2 1 {value}\nmatrix 2 1\n1 1 1.0\n"
    with pytest.raises(ParseError) as info:
        parse_system(text)
    assert info.value.line_no == 3


def test_duplicate_entries_report_first_line():
    text = "tensor 4 2\n1 1 1 2 1.0\n1 1 1 2 2.0\nmatrix 2 1\n"
    with pytest.raises(ParseError) as info:
        parse_system(text)
    assert "duplicate" in str(info.value)
    assert "first at line 2" in str(info.value)

    text = "tensor 4 2\nmatrix 2 1\n1 1 1.0\n1 1 2.0\n"
    with pytest.raises(ParseError) as info:
        parse_system(text)
    assert "first at line 3" in str(info.value)


# --- hypergraph parsing ---


def test_parse_hypergraph():
    graph = parse_hypergraph("hypergraph 2 1\n3 -> 1,2\n")
    assert graph == DirectedHypergraph(2, 1, (Hyperedge((3,), frozenset({1, 2})),))


def test_parse_hypergraph_accepts_spaces_and_multisets():
    graph = parse_hypergraph("hypergraph 2 1\n1, 1, 1 -> 2\n3 -> 1\n")
    assert graph.edges == (
        Hyperedge((1, 1, 1), frozenset({2})),
        Hyperedge((3,), frozenset({1})),
    )


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty input"),
        ("hypergraph 2\n", "expected header 'hypergraph n m'"),
        ("hypergraph 2 1\n3 1,2\n", "exactly one '->'"),
        ("hypergraph 2 1\n3 -> 1 -> 2\n", "exactly one '->'"),
        ("hypergraph 2 1\n-> 1\n", "empty tail"),
        ("hypergraph 2 1\n3 ->\n", "empty head"),
        ("hypergraph 2 1\n4 -> 1\n", "tail vertex 4 outside"),
        ("hypergraph 2 1\n3 -> 3\n", "head vertex 3 outside the state range"),
        ("hypergraph 2 1\n3 -> 1\n3 -> 2\n", "duplicate tail"),
    ],
)
def test_parse_hypergraph_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment.replace("(", r"\(")):
        parse_hypergraph(text)


def test_hypergraph_duplicate_tail_reports_first_line():
    with pytest.raises(ParseError) as info:
        parse_hypergraph("hypergraph 2 1\n3 -> 1\n3 -> 2\n")
    assert "first at line 2" in str(info.value)


# --- dispatch ---


def test_parse_input_dispatch():
    assert isinstance(parse_input(CUBIC_TEXT), Polysystem)
    assert isinstance(parse_input("hypergraph 2 1\n3 -> 1\n"), DirectedHypergraph)
    with pytest.raises(ParseError, match="unknown header"):
        parse_input("graph 2 1\n")
    with pytest.raises(ParseError, match="empty input"):
        parse_input("# nothing here\n")


# --- serialization ---


def test_serialize_system_round_trip():
    system = cubic_forward_system()
    text = serialize(system)
    assert text.endswith("\n")
    assert text == CUBIC_TEXT
    assert_systems_equal(parse_system(text), system)


def test_serialize_pattern_round_trip():
    pattern = sparsity_pattern(cubic_forward_system())
    text = serialize(pattern)
    assert parse_system(text) == pattern


def test_serialize_skips_structural_zeros():
    text = serialize(shared_input_system())
    assert text == "tensor 4 2\nmatrix 2 1\n1 1 1.0\n2 1 1.0\n"


def test_serialize_rejects_hypergraphs():
    graph = build_hypergraph(sparsity_pattern(cubic_forward_system()))
    with pytest.raises(TypeError):
        serialize(graph)


@given(st.integers(0, 500))
@settings(max_examples=80, deadline=None)
def test_random_pattern_round_trip(seed):
    pattern = random_pattern(3, 4, 2, 4, 3, seed)
    assert parse_system(serialize(pattern)) == pattern


@given(st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_sampled_system_round_trip_is_exact(seed):
    from polyctrl.system import sample_realization

    system = sample_realization(random_pattern(3, 4, 2, 4, 3, seed), seed)
    assert_systems_equal(parse_system(serialize(system)), system)

"""Text format parsing, error reporting with line numbers, round-trips."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cubic_forward_system, shared_input_system
from polyctrl.formats import (
    ParseError,
    _bulk_pattern,
    _parse_lines,
    parse_hypergraph,
    parse_input,
    parse_system,
    serialize,
)
from polyctrl.generate import random_pattern
from polyctrl.hypergraph import DirectedHypergraph, Hyperedge, build_hypergraph
from polyctrl.system import Polysystem, SparsityPattern, sparsity_pattern
from polyctrl.tensor import CapacityError

CUBIC_TEXT = "tensor 4 2\n1 1 1 2 1.0\nmatrix 2 1\n1 1 1.0\n"


# --- system parsing ---


def test_parse_valued_system():
    parsed = parse_system(CUBIC_TEXT)
    assert isinstance(parsed, Polysystem)
    assert parsed == cubic_forward_system()


def test_parse_pattern_without_values():
    parsed = parse_system("tensor 4 2\n1 1 1 2\nmatrix 2 1\n1 1\n")
    assert isinstance(parsed, SparsityPattern)
    assert parsed == sparsity_pattern(cubic_forward_system())


def test_parse_empty_tensor_section():
    parsed = parse_system("tensor 4 2\nmatrix 2 1\n1 1 1.0\n2 1 1.0\n")
    assert isinstance(parsed, Polysystem)
    assert parsed == shared_input_system()


def test_comments_and_blank_lines_are_ignored():
    text = "# cubic chain\n\ntensor 4 2\n\n1 1 1 2 1.0\n# done\nmatrix 2 1\n1 1 1.0\n"
    assert parse_system(text) == cubic_forward_system()


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


# --- bulk reading against the per-line loop ---


def outcome(parse, text):
    """What a parser makes of ``text``: the pattern with its row count, the
    serialized system, or the error's type and message."""
    try:
        result = parse(text)
    except ValueError as exc:  # ParseError included
        return type(exc).__name__, str(exc)
    if isinstance(result, SparsityPattern):
        return result, len(result.tensor_index)
    return "system", serialize(result)


def assert_paths_agree(text):
    assert outcome(parse_system, text) == outcome(_parse_lines, text)


@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("tensor_nnz", [0, 1, 31, 32, 200])
def test_bulk_reads_generated_patterns_like_the_loop(k, tensor_nnz):
    for seed in range(3):
        pattern = random_pattern(16, k, 3, tensor_nnz, 5, seed)
        text = serialize(pattern)
        bulk = _bulk_pattern(text)
        assert bulk == pattern
        assert bulk.tensor_index.dtype == np.int64
        assert bulk.tensor_index.shape == (tensor_nnz, k)
        assert not bulk.tensor_index.flags.writeable
        assert_paths_agree(text)


def pattern_lines(count, k=4, n=30):
    """``count`` distinct pattern lines of order ``k``, in a fixed order."""
    return [
        " ".join(str(1 + (e // n**p) % n) for p in range(k)) for e in range(count)
    ]


def long_text(lines, k=4, n=30):
    return f"tensor {k} {n}\n" + "\n".join(lines) + f"\nmatrix {n} 2\n1 1\n{n} 2\n"


DEEP = pattern_lines(10_000)
DEEP_SHORT = DEEP[:8999] + ["1 2 3"] + DEEP[9000:]
DEEP_VALUED = DEEP[:8999] + [DEEP[8999] + " 7"] + DEEP[9000:]
DEEP_RANGE = DEEP[:8999] + ["1 2 3 31"] + DEEP[9000:]
DEEP_DUPLICATE = DEEP[:9000] + [DEEP[0]] + DEEP[9000:]

# Texts the bulk reader must take.
BULK_TEXTS = {
    "plain": "tensor 4 2\n1 1 1 2\nmatrix 2 1\n1 1\n",
    "blank-lines": "\n\n  tensor 4 2\n\n1 1 1 2\n  \n\t\n2 2 2 1\nmatrix 2 1\n \n1 1\n\n",
    "tabs-trailing-blanks": "tensor 4 2\n1\t1 1 2  \n2 2\t2 1\t\nmatrix 2 1\t\n1\t1 \n",
    "leading-zeros": "tensor 4 3\n03 1 1 2\nmatrix 3 1\n001 1\n",
    "empty-tensor-no-final-newline": "tensor 4 2\nmatrix 2 1\n1 1",
    "empty-control": "tensor 4 2\n1 1 1 2\nmatrix 2 1\n",
    "long": long_text(DEEP),
}

ADVERSARIAL_TEXTS = {
    # comments, blank and whitespace-only lines inside sections
    "comments-in-sections": "tensor 4 2\n1 1 1 2\n# note\n2 2 2 1\nmatrix 2 1\n# c\n1 1\n",
    "comment-before-header": "# head\ntensor 4 2\n1 1 1 2\nmatrix 2 1\n1 1\n",
    "comment-after-header": "tensor 4 2 # order, dimension\n1 1 1 2\nmatrix 2 1\n1 1\n",
    "comment-after-entry": "tensor 4 2\n1 1 1 2 #\nmatrix 2 1\n1 1\n",
    # CR, CRLF and the other line breaks of str.splitlines
    "crlf": "tensor 4 2\r\n1 1 1 2\r\nmatrix 2 1\r\n1 1\r\n",
    "cr": "tensor 4 2\n1 1 1 2\r2 2 2 1\nmatrix 2 1\n1 1\n",
    "ff-two-lines": "tensor 2 6\n3 4\x0c5 6\nmatrix 6 1\n1 1\n",
    "vt-in-entry": "tensor 4 2\n1 1\x0b1 2\nmatrix 2 1\n1 1\n",
    "ff-in-entry": "tensor 4 2\n1 1\x0c1 2\nmatrix 2 1\n1 1\n",
    "fs-in-entry": "tensor 4 2\n1 1\x1c1 2\nmatrix 2 1\n1 1\n",
    "gs-in-control": "tensor 4 2\n1 1 1 2\nmatrix 2 1\n1\x1d1\n",
    "rs-after-entry": "tensor 4 2\n1 1 1 2\x1e\nmatrix 2 1\n1 1\n",
    "us-in-entry": "tensor 4 2\n1 1 1\x1f2\nmatrix 2 1\n1 1\n",
    "nel-after-entry": "tensor 4 2\n1 1 1 2\x85\nmatrix 2 1\n1 1\n",
    "nbsp-after-entry": "tensor 4 2\n1 1 1 2\xa0\nmatrix 2 1\n1 1\n",
    "ff-in-tensor-header": "tensor 4\x0c2\n1 1 1 2\nmatrix 2 1\n1 1\n",
    "vt-in-tensor-header": "tensor\x0b4 2\n1 1 1 2\nmatrix 2 1\n1 1\n",
    "ff-in-matrix-header": "tensor 4 2\n1 1 1 2\nmatrix 2\x0c1\n1 1\n",
    "fs-in-matrix-header": "tensor 4 2\n1 1 1 2\nmatrix\x1c2 1\n1 1\n",
    # tokens int() reads but loadtxt reads otherwise, or not at all
    "plus-sign": "tensor 4 3\n+3 1 1 2\nmatrix 3 1\n1 1\n",
    "underscore": "tensor 2 2000\n1_000 1\nmatrix 2000 1\n1 1\n",
    "decimal-point": "tensor 4 2\n1.0 1 1 2\nmatrix 2 1\n1 1\n",
    "arabic-indic-index": "tensor 2 2\n١ 2\nmatrix 2 1\n1 1\n",
    "arabic-indic-row": "tensor 2 2\n1 2\nmatrix 2 1\n١ 1\n",
    "arabic-indic-dimension": "tensor 4 ٢\n1 1 1 2\nmatrix 2 1\n1 1\n",
    "negative-index": "tensor 4 2\n-1 1 1 2\nmatrix 2 1\n1 1\n",
    "zero-index": "tensor 4 2\n0 1 1 2\nmatrix 2 1\n1 1\n",
    # token counts, ranges and duplicates, deep in a long file
    "deep-short-line": long_text(DEEP_SHORT),
    "deep-valued-line": long_text(DEEP_VALUED),
    "deep-out-of-range": long_text(DEEP_RANGE),
    "deep-duplicate": long_text(DEEP_DUPLICATE),
    "integer-values": "tensor 4 2\n1 1 1 2 3\n2 1 1 2 3\nmatrix 2 1\n1 1 3\n",
    "short-entry": "tensor 4 2\n1 1 2\nmatrix 2 1\n1 1\n",
    "index-out-of-range": "tensor 4 2\n1 1 1 3\nmatrix 2 1\n1 1\n",
    "row-out-of-range": "tensor 4 2\nmatrix 2 1\n3 1\n",
    "column-out-of-range": "tensor 4 2\nmatrix 2 1\n1 2\n",
    "control-duplicate": "tensor 4 2\nmatrix 2 1\n1 1\n2 1\n1 1\n",
    "control-three-integers": "tensor 4 2\nmatrix 2 1\n1 1 1\n",
    # int64 overflow
    "index-overflow": "tensor 2 2\n99999999999999999999 1\nmatrix 2 1\n1 1\n",
    "dimension-overflow": "tensor 2 99999999999999999999\n1 2\nmatrix 99999999999999999999 1\n1 1\n",
    "index-overflow-in-range": "tensor 2 99999999999999999999\n9223372036854775808 2\n"
    "matrix 99999999999999999999 1\n1 1\n",
    # valued entries and mixes
    "valued-integers": "tensor 2 2\n1 2 3\nmatrix 2 1\n1 1 5\n",
    "valued-then-pattern": "tensor 4 2\n1 1 1 2 1.0\nmatrix 2 1\n1 1\n",
    "pattern-then-valued": "tensor 4 2\n1 1 1 2\nmatrix 2 1\n1 1 1.0\n",
    # headers
    "empty": "",
    "header-only": "tensor 4 2",
    "missing-matrix": "tensor 4 2\n1 1 1 2\n",
    "matrixx": "tensor 4 2\n1 1 1 2\nmatrixx 2 1\n1 1\n",
    "indented-matrix": "tensor 4 2\n1 1 1 2\n  matrix 2 1\n1 1\n",
    "second-matrix": "tensor 4 2\n1 1 1 2\nmatrix 2 1\n1 1\nmatrix 2 1\n",
    "matrix-rows": "tensor 4 2\nmatrix 3 1\n1 1\n",
    "matrix-no-columns": "tensor 4 2\nmatrix 2 0\n",
    "matrix-short-header": "tensor 4 2\nmatrix 2\n1 1\n",
    "odd-order": "tensor 3 2\nmatrix 2 1\n1 1\n",
    "matrix-first": "matrix 2 1\n1 1\n",
}


@pytest.mark.parametrize("text", BULK_TEXTS.values(), ids=BULK_TEXTS.keys())
def test_bulk_reader_takes_plain_patterns(text):
    assert _bulk_pattern(text) is not None
    assert_paths_agree(text)


@pytest.mark.parametrize("text", ADVERSARIAL_TEXTS.values(), ids=ADVERSARIAL_TEXTS.keys())
def test_bulk_reader_agrees_with_the_loop(text):
    assert_paths_agree(text)


def test_deep_errors_keep_their_line():
    for text, message in [
        (DEEP_SHORT, "line 9001: expected 4 indices with an optional value, got 3 tokens"),
        (DEEP_VALUED, "line 9001: entries mix valued and pattern-only lines"),
        (DEEP_RANGE, "line 9001: index 31 outside [1, 30]"),
        (DEEP_DUPLICATE, "line 9002: duplicate multi-index (1, 1, 1, 1) (first at line 2)"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_system(long_text(text))
        assert str(info.value) == message


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
    system = parse_input(CUBIC_TEXT)
    assert isinstance(system, Polysystem)
    # a system is a value: two parses are equal and hash alike
    again = parse_input(CUBIC_TEXT)
    assert system == again and hash(system) == hash(again)
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
    assert parse_system(text) == system


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
    assert parse_system(serialize(system)) == system


# --- a seeded corpus of mutated texts, pinned by one digest ---

_TOKENS = [
    "0", "-1", "3", "5", "x", "1.5", "+1", "1_0", "01", "1.0", "2", "-0.5", "inf", "-inf",
    "nan", "0.0", "-0.0", "0e5", "1e400", "１", "٣", "99999999999999999999",
    "matrix", "tensor", "#",
]
_LINES = [
    "", "  ", "\t", "# note", "#", "matrix", "matrix 2", "matrix 1 1", "matrix 2 0",
    "matrixx 1 1", "tensor 4 2", "1 1", "1 1 1.0", "1 2 1 2",
]


def _valid_lines(rng):
    """A valid system or pattern, as lines: order 2 or 4, n <= 4, m <= 3."""
    k, n, m = rng.choice([2, 4]), rng.randint(1, 4), rng.randint(1, 3)
    valued = rng.random() < 0.5
    tensor = {tuple(rng.randint(1, n) for _ in range(k)) for _ in range(rng.randint(0, 5))}
    control = {(rng.randint(1, n), rng.randint(1, m)) for _ in range(rng.randint(0, 3))}

    def line(idx):
        value = [rng.choice(["1.0", "-0.5", "2", "1e-3", "-7.25"])] if valued else []
        return " ".join([*map(str, idx), *value])

    return [
        f"tensor {k} {n}",
        *map(line, sorted(tensor)),
        f"matrix {n} {m}",
        *map(line, sorted(control)),
    ]


def _mutate(rng, lines):
    """One random edit of the line list, in place."""
    at = rng.randrange(len(lines)) if lines else 0
    tokens = lines[at].split() if lines else []
    kind = rng.randrange(9)
    if kind == 0 and tokens:  # drop a token
        del tokens[rng.randrange(len(tokens))]
        lines[at] = " ".join(tokens)
    elif kind == 1:  # add a token, which may give a pattern line a value
        lines[at:at + 1] = [" ".join(tokens + [rng.choice(_TOKENS)])]
    elif kind == 2 and tokens:  # replace a token, headers included
        tokens[rng.randrange(len(tokens))] = rng.choice(_TOKENS)
        lines[at] = " ".join(tokens)
    elif kind == 3 and lines:  # repeat a line further down
        lines.insert(rng.randint(at, len(lines)), lines[at])
    elif kind == 4 and lines:  # drop a line, headers included
        del lines[at]
    elif kind == 5:  # insert a blank, comment or header line
        lines.insert(rng.randint(0, len(lines)), rng.choice(_LINES))
    elif kind == 6 and tokens:  # a trailing comment or tab separators
        lines[at] = rng.choice([" ".join(tokens) + " # c", "\t".join(tokens)])
    elif kind == 7 and len(lines) > 1:  # swap two lines
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == 8 and tokens:  # the value of a valued line becomes zero or not finite
        tokens[-1] = rng.choice(["0", "0.0", "-0.0", "inf", "nan", "1e999"])
        lines[at] = " ".join(tokens)


def mutated_corpus(count=2000, seed=20231016):
    """``count`` texts, each a valid system or pattern with up to three edits."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        lines = _valid_lines(rng)
        for _ in range(rng.randint(0, 3)):
            _mutate(rng, lines)
        texts.append("\n".join(lines) + rng.choice(["\n", "", "\r\n"]))
    return texts


def corpus_outcome(text):
    """The error's type and message, or the parsed object serialized."""
    try:
        return serialize(parse_input(text))
    except (ValueError, CapacityError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_mutated_corpus_outcomes_are_pinned():
    outcomes = [corpus_outcome(text) for text in mutated_corpus()]
    for fragment in [
        "expected header 'tensor k n'",
        "is not an integer",
        "is odd",
        "with an optional value, got",
        "entries mix valued and pattern-only lines",
        "exact-zero coefficient",
        "is not finite",
        "is not a number",
        "outside [1, ",
        "duplicate multi-index",
        "duplicate entry",
        "missing 'matrix n m' section",
        "expected header 'matrix n m'",
        "do not match tensor dimension",
        "need at least one input column",
        "unknown header",
        "tensor 4 ",
        "tensor 2 ",
    ]:
        assert any(fragment in outcome for outcome in outcomes), fragment
    digest = hashlib.sha256("\0".join(outcomes).encode()).hexdigest()
    assert digest == "37f371043152ff17b4d4172cd7baf7665ab3750828d8497aea95abcbd6f3cfbb"

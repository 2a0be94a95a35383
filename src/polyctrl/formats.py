"""Plain-text formats for systems, patterns, and hypergraphs.

System format, 1-based indices, values optional but all-or-nothing::

    tensor 4 2
    1 1 1 2 1.0
    matrix 2 1
    1 1 1.0

Hypergraph format, tails comma-separated before ``->``::

    hypergraph 2 1
    3 -> 1,2

Blank lines and ``#`` comment lines are ignored.  Serializing a parsed
system reproduces an equivalent text (entry order normalized, float values
via repr).
"""

from __future__ import annotations

import io
import math

import numpy as np

from .hypergraph import DirectedHypergraph
from .system import Polysystem, SparsityPattern
from .tensor import CapacityError, SparseTensor, _check_capacity, _first_outside, _row_order

__all__ = ["ParseError", "parse_hypergraph", "parse_input", "parse_system", "serialize"]


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield line_no, tokens


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} {token!r} is not an integer") from None


def _parse_value(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"value {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"value {token!r} is not finite")
    if value == 0.0:
        raise ParseError(line_no, "exact-zero coefficient; drop the entry instead")
    return value


def _tensor_header(line_no: int, tokens: list[str]) -> tuple[int, int]:
    if len(tokens) != 3 or tokens[0] != "tensor":
        raise ParseError(line_no, "expected header 'tensor k n'")
    k = _parse_int(tokens[1], line_no, "order")
    n = _parse_int(tokens[2], line_no, "dimension")
    if k < 2:
        raise ParseError(line_no, f"tensor order must be >= 2, got {k}")
    if k % 2 != 0:
        raise ParseError(line_no, f"tensor order k={k} is odd; the drift degree k-1 must be odd")
    # the readers build a tuple of k per-column bounds
    _check_capacity(f"line {line_no}: tensor order needs", k)
    if n < 1:
        raise ParseError(line_no, f"dimension must be >= 1, got {n}")
    return k, n


def _matrix_header(line_no: int, tokens: list[str], n: int) -> int:
    if len(tokens) != 3:
        raise ParseError(line_no, "expected header 'matrix n m'")
    mat_n = _parse_int(tokens[1], line_no, "row count")
    m = _parse_int(tokens[2], line_no, "column count")
    if mat_n != n:
        raise ParseError(line_no, f"matrix rows {mat_n} do not match tensor dimension {n}")
    if m < 1:
        raise ParseError(line_no, f"need at least one input column, got {m}")
    return m


# The only bytes a section body may hold for the bulk reader.  Everything
# else (comments, CR, the other line breaks of str.splitlines, which
# loadtxt reads as blanks, signs, values) is left to the per-line loop.
_BULK_BYTES = b"0123456789 \t\n"


def _bulk_rows(block: str, highs: tuple[int, ...]) -> np.ndarray | None:
    """A section body read in one numpy pass: an int64 array with one row
    per line, column c in [1, highs[c]], rows ordered by ``_row_order``.

    None when the body holds anything but digits and blanks, a row of
    another length, an index out of range or a repeated row.
    """
    if block.encode("ascii").translate(None, _BULK_BYTES):
        return None
    if not block.strip():
        return np.empty((0, len(highs)), dtype=np.int64)
    try:
        rows = np.loadtxt(io.StringIO(block), dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        return None
    if rows.shape[1] != len(highs):
        return None
    if _first_outside(rows, highs) is not None:
        return None
    rows = rows[_row_order(rows)]
    if (rows[1:] == rows[:-1]).all(axis=1).any():
        return None
    return rows


def _bulk_pattern(text: str) -> SparsityPattern | None:
    """Read pattern-only text in one numpy pass per section.

    Returns None for any text that the per-line loop might read differently
    or reject: non-ASCII text, a header line with a control character, a
    section with anything but digits and blanks, a refused header or any
    bad entry.  The loop then reads it and words the error, so every
    message keeps its line.
    """
    if not text.isascii():
        return None
    start = len(text) - len(text.lstrip(" \t\n"))
    tensor_end = text.find("\n", start)
    matrix_start = text.find("\nmatrix", tensor_end) + 1
    if tensor_end < 0 or matrix_start == 0:
        return None
    matrix_end = text.find("\n", matrix_start)
    if matrix_end < 0:
        matrix_end = len(text)
    tensor_line = text[start:tensor_end]
    matrix_line = text[matrix_start:matrix_end]
    if not (tensor_line + matrix_line).replace("\t", " ").isprintable():
        return None
    matrix_tokens = matrix_line.split()
    if matrix_tokens[0] != "matrix":
        return None
    try:
        k, n = _tensor_header(0, tensor_line.split())
        m = _matrix_header(0, matrix_tokens, n)
    except (ParseError, CapacityError):
        return None
    tensor = _bulk_rows(text[tensor_end:matrix_start], (n,) * k)
    control = _bulk_rows(text[matrix_end:], (n, m))
    if tensor is None or control is None:
        return None
    return SparsityPattern.from_index(k, n, m, tensor, control)


def parse_system(text: str) -> Polysystem | SparsityPattern:
    """Parse the tensor/matrix format.

    Returns a Polysystem when entries carry values and a SparsityPattern
    when none do; mixing the two is an error, as are duplicate indices,
    out-of-range indices, and odd tensor order.  Pattern-only text is read
    in bulk, one numpy pass per section; anything else, and every error,
    goes through a loop that reads each line once and names the line.
    """
    pattern = _bulk_pattern(text)
    if pattern is not None:
        return pattern
    return _parse_lines(text)


def _parse_lines(text: str) -> Polysystem | SparsityPattern:
    lines = _content_lines(text)
    header = next(lines, None)
    if header is None:
        raise ParseError(1, "empty input")
    line_no, tokens = header
    k, n = _tensor_header(line_no, tokens)
    tensor, valued, line_no, tokens = _read_section(
        lines, line_no, ("index",) * k, (n,) * k, "multi-index", None, "matrix"
    )
    if tokens is None:
        raise ParseError(line_no, "missing 'matrix n m' section")
    m = _matrix_header(line_no, tokens, n)
    control, valued, *_ = _read_section(lines, line_no, ("row", "column"), (n, m), "entry", valued)
    if valued:
        _check_capacity(f"line {line_no}: control matrix needs", n * m)
        matrix = np.zeros((n, m))
        for (i, j), value in control.items():
            matrix[i - 1, j - 1] = value
        return Polysystem(SparseTensor(k, n, tensor), matrix)
    return SparsityPattern(k, n, m, tensor, control)


def _read_section(lines, line_no, names, highs, label, valued, stop=None):
    """Read entry lines, ``len(names)`` indices in [1, ``highs``] and an
    optional value each, up to a line starting with ``stop``.  Messages call
    index c ``names[c]`` and a repeat a duplicate ``label``; ``valued`` is
    whether entries so far carry values (None before the first).  Returns
    each index's value (None if it has none), ``valued``, and the stop
    line's number and tokens, or the last line's number and None."""
    width = len(names)
    first_lines: dict[tuple[int, ...], int] = {}
    entries: dict[tuple[int, ...], float | None] = {}
    for line_no, tokens in lines:
        if tokens[0] == stop:
            return entries, valued, line_no, tokens
        if len(tokens) not in (width, width + 1):
            raise ParseError(
                line_no,
                f"expected {width} indices with an optional value, got {len(tokens)} tokens",
            )
        has_value = len(tokens) == width + 1
        if valued is None:
            valued = has_value
        elif valued != has_value:
            raise ParseError(line_no, "entries mix valued and pattern-only lines")
        value = _parse_value(tokens[width], line_no) if has_value else None
        idx = tuple(_parse_int(token, line_no, name) for token, name in zip(tokens, names))
        for i, name, high in zip(idx, names, highs):
            if not 1 <= i <= high:
                raise ParseError(line_no, f"{name} {i} outside [1, {high}]")
        first = first_lines.setdefault(idx, line_no)
        if first != line_no:
            raise ParseError(line_no, f"duplicate {label} {idx} (first at line {first})")
        entries[idx] = value
    return entries, valued, line_no, None


def _vertex_group(part: str, line_no: int, what: str) -> list[int]:
    items = part.replace(",", " ").split()
    if not items:
        raise ParseError(line_no, f"empty {what}")
    return [_parse_int(p, line_no, f"{what} vertex") for p in items]


def parse_hypergraph(text: str) -> DirectedHypergraph:
    """Parse the hypergraph format: header then one 'tail -> head' line per edge.

    Edges go straight into the flat edge table, in file order.
    """
    lines = _content_lines(text)
    header = next(lines, None)
    if header is None:
        raise ParseError(1, "empty input")
    line_no, tokens = header
    if len(tokens) != 3 or tokens[0] != "hypergraph":
        raise ParseError(line_no, "expected header 'hypergraph n m'")
    n = _parse_int(tokens[1], line_no, "state count")
    m = _parse_int(tokens[2], line_no, "input count")
    if n < 1:
        raise ParseError(line_no, f"need at least one state vertex, got n={n}")
    if m < 0:
        raise ParseError(line_no, f"input count must be >= 0, got m={m}")

    tail_ptr, tail_idx, head_ptr, head_idx = [0], [], [0], []
    tails_seen: dict[tuple[int, ...], int] = {}
    for line_no, tokens in lines:
        joined = " ".join(tokens)
        if joined.count("->") != 1:
            raise ParseError(line_no, "expected exactly one '->' separator")
        tail_part, head_part = joined.split("->")
        tail = tuple(sorted(_vertex_group(tail_part, line_no, "tail")))
        head = _vertex_group(head_part, line_no, "head")
        for v in tail:
            if not 1 <= v <= n + m:
                raise ParseError(line_no, f"tail vertex {v} outside [1, {n + m}]")
        for v in head:
            if not 1 <= v <= n:
                raise ParseError(
                    line_no, f"head vertex {v} outside the state range [1, {n}]"
                )
        first = tails_seen.setdefault(tail, line_no)
        if first != line_no:
            raise ParseError(line_no, f"duplicate tail {tail} (first at line {first})")
        tail_idx.extend(tail)
        tail_ptr.append(len(tail_idx))
        head_idx.extend(sorted(set(head)))
        head_ptr.append(len(head_idx))
    return DirectedHypergraph.from_table(n, m, tail_ptr, tail_idx, head_ptr, head_idx)


def parse_input(text: str) -> Polysystem | SparsityPattern | DirectedHypergraph:
    """Dispatch on the first header token."""
    for line_no, tokens in _content_lines(text):
        if tokens[0] == "hypergraph":
            return parse_hypergraph(text)
        if tokens[0] == "tensor":
            return parse_system(text)
        raise ParseError(line_no, f"unknown header {tokens[0]!r}; expected 'tensor' or 'hypergraph'")
    raise ParseError(1, "empty input")


def serialize(obj: Polysystem | SparsityPattern) -> str:
    """System or pattern back to text; parsing the result reproduces it."""
    if isinstance(obj, Polysystem):
        k, n, m = obj.order, obj.dim, obj.inputs
        # plain float repr round-trips exactly; numpy scalars do not
        tensor = zip(obj.tensor.index.tolist(), obj.tensor.values.tolist())
        lines = [f"tensor {k} {n}"]
        lines.extend(f"{' '.join(map(str, idx))} {value!r}" for idx, value in tensor)
        lines.append(f"matrix {n} {m}")
        rows, cols = np.nonzero(obj.control)
        control = zip(rows.tolist(), cols.tolist(), obj.control[rows, cols].tolist())
        lines.extend(f"{i + 1} {j + 1} {value!r}" for i, j, value in control)
        return "\n".join(lines) + "\n"
    if isinstance(obj, SparsityPattern):
        lines = [f"tensor {obj.order} {obj.dim}"]
        lines.extend(" ".join(map(str, idx)) for idx in obj.tensor_index.tolist())
        lines.append(f"matrix {obj.dim} {obj.inputs}")
        lines.extend(f"{i} {j}" for i, j in obj.control_index.tolist())
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(obj).__name__}")

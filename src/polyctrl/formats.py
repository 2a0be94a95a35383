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

import math

import numpy as np

from .hypergraph import DirectedHypergraph, Hyperedge
from .system import Polysystem, SparsityPattern
from .tensor import SparseTensor

__all__ = ["ParseError", "parse_hypergraph", "parse_input", "parse_system", "serialize"]


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _content_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line.split()


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} {token!r} is not an integer") from None


def _parse_float(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_no, f"value {token!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(line_no, f"value {token!r} is not finite")
    return value


def parse_system(text: str) -> Polysystem | SparsityPattern:
    """Parse the tensor/matrix format.

    Returns a Polysystem when entries carry values and a SparsityPattern
    when none do; mixing the two is an error, as are duplicate indices,
    out-of-range indices, and odd tensor order.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    pos = 0

    line_no, tokens = lines[pos]
    if len(tokens) != 3 or tokens[0] != "tensor":
        raise ParseError(line_no, "expected header 'tensor k n'")
    k = _parse_int(tokens[1], line_no, "order")
    n = _parse_int(tokens[2], line_no, "dimension")
    if k < 2:
        raise ParseError(line_no, f"tensor order must be >= 2, got {k}")
    if k % 2 != 0:
        raise ParseError(line_no, f"tensor order k={k} is odd; the drift degree k-1 must be odd")
    if n < 1:
        raise ParseError(line_no, f"dimension must be >= 1, got {n}")
    pos += 1

    valued: bool | None = None

    def note_valued(has_value: bool, line_no: int) -> None:
        nonlocal valued
        if valued is None:
            valued = has_value
        elif valued != has_value:
            raise ParseError(line_no, "entries mix valued and pattern-only lines")

    tensor_entries: dict[tuple[int, ...], float] = {}
    tensor_lines: dict[tuple[int, ...], int] = {}
    while pos < len(lines) and lines[pos][1][0] != "matrix":
        line_no, tokens = lines[pos]
        if len(tokens) == k:
            note_valued(False, line_no)
            value = 1.0
        elif len(tokens) == k + 1:
            note_valued(True, line_no)
            value = _parse_float(tokens[k], line_no)
            if value == 0.0:
                raise ParseError(line_no, "exact-zero coefficient; drop the entry instead")
        else:
            raise ParseError(
                line_no, f"expected {k} indices with an optional value, got {len(tokens)} tokens"
            )
        idx = tuple(_parse_int(t, line_no, "index") for t in tokens[:k])
        for i in idx:
            if not 1 <= i <= n:
                raise ParseError(line_no, f"index {i} outside [1, {n}]")
        if idx in tensor_entries:
            raise ParseError(
                line_no, f"duplicate multi-index {idx} (first at line {tensor_lines[idx]})"
            )
        tensor_entries[idx] = value
        tensor_lines[idx] = line_no
        pos += 1

    if pos >= len(lines):
        raise ParseError(lines[-1][0], "missing 'matrix n m' section")
    line_no, tokens = lines[pos]
    if len(tokens) != 3:
        raise ParseError(line_no, "expected header 'matrix n m'")
    mat_n = _parse_int(tokens[1], line_no, "row count")
    m = _parse_int(tokens[2], line_no, "column count")
    if mat_n != n:
        raise ParseError(line_no, f"matrix rows {mat_n} do not match tensor dimension {n}")
    if m < 1:
        raise ParseError(line_no, f"need at least one input column, got {m}")
    pos += 1

    control_entries: dict[tuple[int, int], float] = {}
    control_lines: dict[tuple[int, int], int] = {}
    while pos < len(lines):
        line_no, tokens = lines[pos]
        if len(tokens) == 2:
            note_valued(False, line_no)
            value = 1.0
        elif len(tokens) == 3:
            note_valued(True, line_no)
            value = _parse_float(tokens[2], line_no)
            if value == 0.0:
                raise ParseError(line_no, "exact-zero coefficient; drop the entry instead")
        else:
            raise ParseError(
                line_no, f"expected 2 indices with an optional value, got {len(tokens)} tokens"
            )
        i = _parse_int(tokens[0], line_no, "row")
        j = _parse_int(tokens[1], line_no, "column")
        if not 1 <= i <= n:
            raise ParseError(line_no, f"row {i} outside [1, {n}]")
        if not 1 <= j <= m:
            raise ParseError(line_no, f"column {j} outside [1, {m}]")
        if (i, j) in control_entries:
            raise ParseError(
                line_no, f"duplicate entry ({i}, {j}) (first at line {control_lines[(i, j)]})"
            )
        control_entries[(i, j)] = value
        control_lines[(i, j)] = line_no
        pos += 1

    if valued:
        control = np.zeros((n, m))
        for (i, j), value in control_entries.items():
            control[i - 1, j - 1] = value
        return Polysystem(SparseTensor(k, n, tensor_entries), control)
    return SparsityPattern(
        order=k,
        dim=n,
        inputs=m,
        tensor_support=frozenset(tensor_entries),
        control_support=frozenset(control_entries),
    )


def parse_hypergraph(text: str) -> DirectedHypergraph:
    """Parse the hypergraph format: header then one 'tail -> head' line per edge."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    line_no, tokens = lines[0]
    if len(tokens) != 3 or tokens[0] != "hypergraph":
        raise ParseError(line_no, "expected header 'hypergraph n m'")
    n = _parse_int(tokens[1], line_no, "state count")
    m = _parse_int(tokens[2], line_no, "input count")

    edges = []
    tails_seen: dict[tuple[int, ...], int] = {}
    for line_no, tokens in lines[1:]:
        joined = " ".join(tokens)
        if joined.count("->") != 1:
            raise ParseError(line_no, "expected exactly one '->' separator")
        tail_part, head_part = joined.split("->")

        def read_group(part: str, what: str) -> list[int]:
            items = [p for p in part.replace(",", " ").split() if p]
            if not items:
                raise ParseError(line_no, f"empty {what}")
            return [_parse_int(p, line_no, f"{what} vertex") for p in items]

        tail = tuple(sorted(read_group(tail_part, "tail")))
        head = read_group(head_part, "head")
        for v in tail:
            if not 1 <= v <= n + m:
                raise ParseError(line_no, f"tail vertex {v} outside [1, {n + m}]")
        for v in head:
            if not 1 <= v <= n:
                raise ParseError(
                    line_no, f"head vertex {v} outside the state range [1, {n}]"
                )
        if tail in tails_seen:
            raise ParseError(
                line_no, f"duplicate tail {tail} (first at line {tails_seen[tail]})"
            )
        tails_seen[tail] = line_no
        edges.append(Hyperedge(tail, frozenset(head)))
    try:
        return DirectedHypergraph(n, m, tuple(edges))
    except ValueError as exc:
        raise ParseError(lines[0][0], str(exc)) from None


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
        lines = [f"tensor {k} {n}"]
        for idx in sorted(obj.tensor.entries):
            indices = " ".join(str(i) for i in idx)
            lines.append(f"{indices} {float(obj.tensor.entries[idx])!r}")
        lines.append(f"matrix {n} {m}")
        for i in range(n):
            for j in range(m):
                # plain float repr round-trips exactly; numpy scalars do not
                value = float(obj.control[i, j])
                if value != 0.0:
                    lines.append(f"{i + 1} {j + 1} {value!r}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, SparsityPattern):
        lines = [f"tensor {obj.order} {obj.dim}"]
        lines.extend(
            " ".join(str(i) for i in idx) for idx in sorted(obj.tensor_support)
        )
        lines.append(f"matrix {obj.dim} {obj.inputs}")
        lines.extend(f"{i} {j}" for i, j in sorted(obj.control_support))
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(obj).__name__}")

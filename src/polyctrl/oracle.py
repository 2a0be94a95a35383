"""Independent cross-checking oracles.

Everything here recomputes a verdict by a route the main modules do not
share: subset enumeration instead of matching, a set-algebra closure instead
of the flat firing fixed point, Lie brackets at the origin instead of the
iterated controllability matrix, and the classical Kalman test for the
linear case.  All of it is deliberately desk-scale and guarded.  The Lie
oracle is exact: it brackets residues mod a prime and keeps one echelon for
the span, the rank at the origin and its certificate, with no tolerance.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement
from typing import Mapping

import numpy as np

from .hypergraph import DirectedHypergraph
from .numeric import svd_rank
from .system import Polysystem
from .tensor import CapacityError, _FrozenArrays, _integer

__all__ = [
    "AccessClosure",
    "PolyVectorField",
    "brute_force_dilation",
    "field_from_polysystem",
    "individual_accessibility_closure",
    "kalman_rank",
    "lie_algebra_rank_at_origin",
    "lie_bracket",
]


# A polynomial is a dict from a powers key to a coefficient; the key is a
# tuple of (variable, exponent) pairs sorted by variable, () for constants.
Powers = tuple[tuple[int, int], ...]
Polynomial = dict[Powers, float]

# The Lie oracle's prime, 2^61 - 1: every coefficient it brackets is a residue.
_P = (1 << 61) - 1


def _canonical(powers) -> Powers:
    merged: dict[int, int] = {}
    for var, exp in powers:
        merged[int(var)] = merged.get(int(var), 0) + int(exp)
    return tuple(sorted((v, e) for v, e in merged.items() if e != 0))


def _poly_add(target: Polynomial, key: Powers, coeff: float) -> None:
    # an int default, so that residues stay exact ints
    value = target.get(key, 0) + coeff
    if value == 0:
        target.pop(key, None)
    else:
        target[key] = value


def _poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    out: Polynomial = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            _poly_add(out, _canonical(ka + kb), ca * cb)
    return out


def _poly_diff(poly: Polynomial, var: int) -> Polynomial:
    out: Polynomial = {}
    for key, coeff in poly.items():
        for v, e in key:
            if v == var:
                rest = tuple(p for p in key if p[0] != var)
                new_key = _canonical(rest + ((var, e - 1),)) if e > 1 else _canonical(rest)
                _poly_add(out, new_key, coeff * e)
                break
    return out


class PolyVectorField(_FrozenArrays):
    """Vector field with polynomial coordinates over variables 1..dim.

    Coordinates are monomial maps; duplicate exponent maps merge on
    construction and zero coefficients are dropped, so equal fields compare
    equal structurally.  Each variable and exponent must equal an int, by a
    pattern's index rule, and no exponent may be negative.
    """

    __slots__ = ("dim", "coords")

    def __init__(self, dim: int, coords: tuple[Mapping[Powers, float], ...]) -> None:
        if dim < 1:
            raise ValueError(f"field dimension must be >= 1, got {dim}")
        if len(coords) != dim:
            raise ValueError(f"expected {dim} coordinates, got {len(coords)}")
        cleaned = []
        for poly in coords:
            merged: Polynomial = {}
            for key, coeff in poly.items():
                # the index rule, behind an all-int fast path
                if set(map(type, chain.from_iterable(key))) - {int}:
                    key = tuple(tuple(_integer(v, key, "monomial") for v in pair) for pair in key)
                if any(exp < 0 for _, exp in key):
                    raise ValueError(f"negative exponent in monomial {key}")
                norm = _canonical(key)
                if any(not 1 <= var <= dim for var, _ in norm):
                    raise ValueError(f"variable out of range in monomial {norm}")
                _poly_add(merged, norm, float(coeff))
            cleaned.append(merged)
        self._fill(dim, tuple(cleaned))


def field_from_polysystem(
    system: Polysystem,
) -> tuple[PolyVectorField, tuple[PolyVectorField, ...]]:
    """Drift field from the tensor plus one constant field per input column."""
    n = system.dim
    coords: list[Polynomial] = [{} for _ in range(n)]
    for idx, coeff in zip(system.tensor.index.tolist(), system.tensor.values.tolist()):
        key = _canonical(Counter(idx[:-1]).items())
        _poly_add(coords[idx[-1] - 1], key, coeff)
    drift = PolyVectorField(n, tuple(coords))
    inputs = []
    for j in range(system.inputs):
        column: list[Polynomial] = [{} for _ in range(n)]
        for i in range(n):
            value = float(system.control[i, j])
            if value != 0.0:
                column[i][()] = value
        inputs.append(PolyVectorField(n, tuple(column)))
    return drift, tuple(inputs)


def _bracket(n: int, f, g) -> tuple[Polynomial, ...]:
    """[f, g] on coordinate tuples: (Jacobian of g) f - (Jacobian of f) g."""
    coords: list[Polynomial] = []
    for i in range(n):
        total: Polynomial = {}
        for j in range(1, n + 1):
            for key, coeff in _poly_mul(_poly_diff(g[i], j), f[j - 1]).items():
                _poly_add(total, key, coeff)
            for key, coeff in _poly_mul(_poly_diff(f[i], j), g[j - 1]).items():
                _poly_add(total, key, -coeff)
        coords.append(total)
    return tuple(coords)


def lie_bracket(f: PolyVectorField, g: PolyVectorField) -> PolyVectorField:
    """[f, g] = (Jacobian of g) f - (Jacobian of f) g, exact on monomials."""
    if f.dim != g.dim:
        raise ValueError(f"field dimensions differ: {f.dim} vs {g.dim}")
    return PolyVectorField(f.dim, _bracket(f.dim, f.coords, g.coords))


def _mod(coords) -> tuple[Polynomial, ...]:
    """Coordinates with every coefficient taken mod ``_P``, zeros dropped.  A
    float64 coefficient is a dyadic rational, so it has an exact residue."""
    out = []
    for poly in coords:
        reduced: Polynomial = {}
        for key, coeff in poly.items():
            num, den = coeff.as_integer_ratio()
            value = num * pow(den, -1, _P) % _P
            if value:
                reduced[key] = value
        out.append(reduced)
    return tuple(out)


def _flat(coords) -> dict[tuple[Powers, int], int]:
    """A field as one sparse vector keyed by (monomial, coordinate), so that
    the constant keys sort first."""
    return {(key, i): coeff for i, poly in enumerate(coords) for key, coeff in poly.items()}


def _value(coords, point: list[int]) -> dict[tuple[Powers, int], int]:
    """A field's value at a point of residues, as a constant vector like
    ``_flat``'s."""
    out = {}
    for i, poly in enumerate(coords):
        total = 0
        for key, coeff in poly.items():
            for var, exp in key:
                coeff = coeff * pow(point[var - 1], exp, _P)
            total += coeff
        total %= _P
        if total:
            out[((), i)] = total
    return out


class _Echelon:
    """Span of sparse vectors mod ``_P``, kept as (pivot, row) pairs with a 1
    at the pivot.  A vector is reduced against the rows in insertion order;
    anything left joins as a row whose pivot is its least key, so every row
    is zero before its pivot and at the pivots of the rows before it."""

    def __init__(self) -> None:
        self.rows: list[tuple[tuple, dict]] = []

    def add(self, vec: dict) -> bool:
        """True when ``vec`` extends the span; it is then retained."""
        vec = dict(vec)
        for pivot, row in self.rows:
            scale = vec.get(pivot)
            if scale:
                for key, value in row.items():
                    left = (vec.get(key, 0) - scale * value) % _P
                    if left:
                        vec[key] = left
                    else:
                        vec.pop(key, None)
        if not vec:
            return False
        pivot = min(vec)
        inverse = pow(vec[pivot], -1, _P)
        self.rows.append((pivot, {key: value * inverse % _P for key, value in vec.items()}))
        return True


def _bracket_generation(
    system: Polysystem, depth_cap: int | None
) -> tuple[list[tuple[Polynomial, ...]], _Echelon, bool]:
    """Drift and inputs mod ``_P``, the echelon of the fields they generate,
    and whether the generation closed."""
    n, k = system.dim, system.order
    if n > 4 or k > 4:
        raise CapacityError(
            f"Lie rank oracle is desk-scale only (n <= 4, k <= 4), got n={n}, k={k}"
        )
    if depth_cap is None:
        depth_cap = 2 * n
    if depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {depth_cap}")

    drift, inputs = field_from_polysystem(system)
    generators = [_mod(g.coords) for g in (drift, *inputs)]
    span = _Echelon()
    frontier = [g for g in generators if span.add(_flat(g))]
    saturated = not frontier
    for _ in range(depth_cap):
        fresh = []
        for h in frontier:
            for g in generators:
                candidate = _mod(_bracket(n, g, h))
                if span.add(_flat(candidate)):
                    fresh.append(candidate)
        if not fresh:
            saturated = True
            break
        frontier = fresh
    return generators, span, saturated


def lie_algebra_rank_at_origin(
    system: Polysystem, depth_cap: int | None = None
) -> tuple[int, bool, bool]:
    """Rank at the origin of the algebra bracket-generated by drift and
    inputs, as ``(rank, saturated, final)``, from one generation mod ``_P``.

    Breadth-first: every new independent field is bracketed with every
    generator, until no round adds a field (saturated) or ``depth_cap``
    rounds have run.  ``saturated`` therefore means the algebra closed; it
    stays False when brackets keep producing new fields that vanish at the
    origin, even though the rank there no longer changes.  Desk-scale
    guards n <= 4 and k <= 4 keep the monomial bases tiny.

    Every coefficient is an exact residue mod the prime ``_P``, so nothing
    depends on a tolerance or on the units of A and B.  Rank mod a prime
    never exceeds the rank over the rationals, so the error is one-sided:
    the rank can only come out too low, when ``_P`` happens to divide a
    quantity that is nonzero over the rationals.

    ``final`` certifies that the rank found within ``depth_cap`` rounds is
    the rank of the whole algebra.  It holds when the algebra saturated,
    when the rank already equals n, or when the span V of the found fields'
    values at the origin contains every input column and the drift maps V
    into itself.  In the last case drift and inputs are tangent to V along
    V, and brackets of tangent fields stay tangent, so every field of the
    algebra takes its value at the origin inside V: the rank is at most
    dim V, and the found fields reach it.  The drift is homogeneous of
    degree k - 1, so it maps V into itself exactly when it does at the
    points sum(t_i v_i), over a basis v of V and nonnegative integers t
    summing to k - 1; those points determine a homogeneous polynomial of
    that degree.
    """
    (drift, *inputs), span, saturated = _bracket_generation(system, depth_cap)
    n = system.dim
    # rows with a non-constant pivot vanish at the origin; the constant parts
    # of the others are independent and span V
    values = _Echelon()
    for pivot, row in span.rows:
        if pivot[0] == ():
            values.add({key: value for key, value in row.items() if key[0] == ()})
    rank = len(values.rows)
    if saturated or rank == n:
        return rank, saturated, True
    space = [[row.get(((), i), 0) for i in range(n)] for _, row in values.rows]
    tests = [_flat(b) for b in inputs]
    for combo in combinations_with_replacement(space, system.order - 1):
        point = [sum(column) % _P for column in zip(*combo)]
        tests.append(_value(drift, point))
    return rank, saturated, not any(values.add(y) for y in tests)


@lru_cache(maxsize=None)
def _subsets_by_size(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Every nonempty subset of 1..n in (size, lexicographic) order, as
    (size, bitmask with bit v set for each member v, members)."""
    vertices = range(1, n + 1)
    return tuple(
        (size, sum([1 << v for v in subset]), subset)
        for size in vertices
        for subset in combinations(vertices, size)
    )


def brute_force_dilation(
    graph: DirectedHypergraph,
) -> tuple[bool, frozenset[int] | None]:
    """Check every state vertex subset against its covering hyperedge count.

    Returns the first witness in (size, lexicographic) order.  Heads and
    subsets are compared as bitmasks.  Exponential by design; guarded to
    n <= 12.
    """
    if graph.n > 12:
        raise CapacityError(f"subset enumeration is guarded to n <= 12, got {graph.n}")
    heads = [sum([1 << v for v in edge.head]) for edge in graph.edges]
    for size, chosen, subset in _subsets_by_size(graph.n):
        covering = 0
        for head in heads:
            if head & chosen:
                covering += 1
        if covering < size:
            return True, frozenset(subset)
    return False, None


class AccessClosure(_FrozenArrays):
    """Family of vertex sets reachable by grouped firings.

    ``individually_accessible`` lists the state vertices isolated as
    singletons; ``truncated`` is set when the family hit the cap before
    reaching a fixed point, never silently.
    """

    __slots__ = ("sets", "individually_accessible", "truncated")


def _set_order(s: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    return (len(s), tuple(sorted(s)))


def individual_accessibility_closure(
    graph: DirectedHypergraph, cap: int = 4096
) -> AccessClosure:
    """Close the family of visited vertex sets under union, difference, and
    grouped hyperedge firing.

    A hyperedge fires only when its tail support is a union of family
    members each wholly inside the tail; its head then joins the family as
    one set.  This is strictly stricter than the flat fixed point in
    ``structural.accessible_set``, which is the point of the cross-check.
    """
    if graph.n + graph.m > 16:
        raise CapacityError(
            f"closure oracle is guarded to n + m <= 16, got {graph.n + graph.m}"
        )
    family: set[frozenset[int]] = {frozenset({v}) for v in graph.input_vertices}
    truncated = False

    def close_algebra() -> bool:
        nonlocal truncated
        changed = False
        while True:
            members = sorted(family, key=_set_order)
            fresh: set[frozenset[int]] = set()
            for a in members:
                for b in members:
                    if a is b:
                        continue
                    union = a | b
                    if union not in family:
                        fresh.add(union)
                    difference = a - b
                    if difference and difference not in family:
                        fresh.add(difference)
            if not fresh:
                return changed
            for candidate in sorted(fresh, key=_set_order):
                if len(family) >= cap:
                    truncated = True
                    return changed
                family.add(candidate)
                changed = True

    def fire_edges() -> bool:
        nonlocal truncated
        changed = False
        for edge in graph.edges:
            tail = edge.tail_support
            covered: set[int] = set()
            for member in family:
                if member <= tail:
                    covered |= member
            if covered == set(tail) and edge.head not in family:
                if len(family) >= cap:
                    truncated = True
                    return changed
                family.add(edge.head)
                changed = True
        return changed

    while not truncated:
        changed = close_algebra()
        changed |= fire_edges()
        if not changed:
            break

    singles = frozenset(
        v for v in graph.state_vertices if frozenset({v}) in family
    )
    return AccessClosure(frozenset(family), singles, truncated)


def kalman_rank(a: np.ndarray, b: np.ndarray, tol: float = 0.0) -> int:
    """Rank of [B, AB, ..., A^(n-1) B] for the linear case.

    A and B are each scaled to unit spectral norm up front (the span of the
    stacked blocks is unchanged), so the verdict cannot be distorted by
    powers of A dwarfing the early blocks.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"control matrix rows {b.shape[0]} do not match n={n}")
    a_norm = np.linalg.norm(a, 2)
    if a_norm > 0.0:
        a = a / a_norm
    b_norm = np.linalg.norm(b, 2)
    if b_norm > 0.0:
        b = b / b_norm
    blocks = [b]
    current = b
    for _ in range(n - 1):
        current = a @ current
        blocks.append(current)
    return svd_rank(np.hstack(blocks), tol)

"""Independent cross-checking oracles.

Everything here recomputes a verdict by a route the main modules do not
share: subset enumeration instead of matching, a set-algebra closure instead
of the flat firing fixed point, Lie brackets at the origin instead of the
iterated controllability matrix, and the classical Kalman test for the
linear case.  All of it is deliberately desk-scale and guarded.
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
from .tensor import CapacityError, SparseTensor, _FrozenArrays, _integer, _unit_scaled

__all__ = [
    "AccessClosure",
    "PolyVectorField",
    "brute_force_dilation",
    "evaluate_at_zero",
    "field_from_polysystem",
    "individual_accessibility_closure",
    "kalman_rank",
    "lie_algebra_rank_at_origin",
    "lie_bracket",
    "lie_rank_is_final",
]


# A polynomial is a dict from a powers key to a coefficient; the key is a
# tuple of (variable, exponent) pairs sorted by variable, () for constants.
Powers = tuple[tuple[int, int], ...]
Polynomial = dict[Powers, float]


def _canonical(powers) -> Powers:
    merged: dict[int, int] = {}
    for var, exp in powers:
        merged[int(var)] = merged.get(int(var), 0) + int(exp)
    return tuple(sorted((v, e) for v, e in merged.items() if e != 0))


def _poly_add(target: Polynomial, key: Powers, coeff: float) -> None:
    value = target.get(key, 0.0) + coeff
    if value == 0.0:
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


def lie_bracket(f: PolyVectorField, g: PolyVectorField) -> PolyVectorField:
    """[f, g] = (Jacobian of g) f - (Jacobian of f) g, exact on monomials."""
    if f.dim != g.dim:
        raise ValueError(f"field dimensions differ: {f.dim} vs {g.dim}")
    n = f.dim
    coords: list[Polynomial] = []
    for i in range(n):
        total: Polynomial = {}
        for j in range(1, n + 1):
            for key, coeff in _poly_mul(_poly_diff(dict(g.coords[i]), j), dict(f.coords[j - 1])).items():
                _poly_add(total, key, coeff)
            for key, coeff in _poly_mul(_poly_diff(dict(f.coords[i]), j), dict(g.coords[j - 1])).items():
                _poly_add(total, key, -coeff)
        coords.append(total)
    return PolyVectorField(n, tuple(coords))


def evaluate_at_zero(field: PolyVectorField) -> np.ndarray:
    """Constant part of each coordinate."""
    return np.array([poly.get((), 0.0) for poly in field.coords])


class _FieldSpan:
    """Span of fields over the monomial-coordinate basis, kept as orthonormal
    rows: a field extends it when its residual after two rounds of
    Gram-Schmidt exceeds ``RTOL`` times its own norm."""

    RTOL = 1e-10

    def __init__(self) -> None:
        self.index: dict[tuple[int, Powers], int] = {}
        self.rows: list[np.ndarray] = []

    def add(self, field: PolyVectorField) -> bool:
        """True when the field extends the span; it is then retained."""
        items = sorted(
            ((i, key), coeff) for i, poly in enumerate(field.coords) for key, coeff in poly.items()
        )
        for key, _ in items:
            if key not in self.index:
                self.index[key] = len(self.index)
        width = len(self.index)
        vec = np.zeros(width)
        for key, coeff in items:
            vec[self.index[key]] = coeff
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            return False
        grown = []
        for row in self.rows:
            if row.shape[0] < width:
                row = np.concatenate([row, np.zeros(width - row.shape[0])])
            grown.append(row)
        self.rows = grown
        residual = vec.copy()
        for _ in range(2):
            for row in self.rows:
                residual -= (row @ residual) * row
        res_norm = np.linalg.norm(residual)
        if res_norm <= self.RTOL * norm:
            return False
        self.rows.append(residual / res_norm)
        return True


def _bracket_generation(
    system: Polysystem, depth_cap: int | None
) -> tuple[PolyVectorField, tuple[PolyVectorField, ...], list[PolyVectorField], bool]:
    """Drift, inputs, the independent fields found, and whether they closed."""
    n, k = system.dim, system.order
    if n > 4 or k > 4:
        raise CapacityError(
            f"Lie rank oracle is desk-scale only (n <= 4, k <= 4), got n={n}, k={k}"
        )
    if depth_cap is None:
        depth_cap = 2 * n
    if depth_cap < 1:
        raise ValueError(f"depth cap must be >= 1, got {depth_cap}")

    # Drift and inputs scaled by nonzero constants generate the same algebra,
    # so A and B are each brought to a largest |entry| in [0.5, 1) first and
    # the rank does not depend on the units of the coefficients.
    tensor = SparseTensor.from_arrays(
        k, n, system.tensor.index, _unit_scaled(system.tensor.values)
    )
    drift, inputs = field_from_polysystem(Polysystem(tensor, _unit_scaled(system.control)))
    generators = [drift, *inputs]
    span = _FieldSpan()
    basis: list[PolyVectorField] = []
    for g in generators:
        if span.add(g):
            basis.append(g)

    frontier = list(basis)
    saturated = not frontier
    for _ in range(depth_cap):
        fresh: list[PolyVectorField] = []
        for h in frontier:
            for g in generators:
                candidate = lie_bracket(g, h)
                if span.add(candidate):
                    fresh.append(candidate)
        basis.extend(fresh)
        if not fresh:
            saturated = True
            break
        frontier = fresh
    return drift, inputs, basis, saturated


def _rank_at_zero(basis: list[PolyVectorField]) -> int:
    if not basis:
        return 0
    return svd_rank(np.column_stack([evaluate_at_zero(h) for h in basis]), 1e-10)


def lie_algebra_rank_at_origin(
    system: Polysystem, depth_cap: int | None = None
) -> tuple[int, bool]:
    """Rank at the origin of the algebra bracket-generated by drift and inputs.

    Breadth-first: every new independent field is bracketed with every
    generator, until no round adds a field (saturated) or ``depth_cap``
    rounds have run.  ``saturated`` therefore means the algebra closed; it
    stays False when brackets keep producing new fields that vanish at the
    origin, even though the rank there no longer changes.  Whether the rank
    is final is a separate question, answered by ``lie_rank_is_final``.
    Desk-scale guards n <= 4 and k <= 4 keep the monomial bases tiny.
    """
    _, _, basis, saturated = _bracket_generation(system, depth_cap)
    return _rank_at_zero(basis), saturated


def _constant_field(value: np.ndarray) -> PolyVectorField:
    return PolyVectorField(value.shape[0], tuple({(): float(x)} for x in value))


def _evaluate(field: PolyVectorField, point: np.ndarray) -> np.ndarray:
    out = np.zeros(field.dim)
    for i, poly in enumerate(field.coords):
        for key, coeff in poly.items():
            term = coeff
            for var, exp in key:
                term *= point[var - 1] ** exp
            out[i] += term
    return out


def lie_rank_is_final(system: Polysystem, depth_cap: int | None = None) -> bool:
    """Certificate that the rank at the origin found within ``depth_cap``
    bracket rounds is the rank of the whole algebra.

    It holds when the algebra saturated, when the rank already equals n, or
    when the span V of the found fields' values at the origin contains every
    input column and the drift maps V into itself.  In the last case drift
    and inputs are tangent to V along V, and brackets of tangent fields stay
    tangent, so every field of the algebra takes its value at the origin
    inside V: the rank is at most dim V, and the found fields reach it.
    The drift is homogeneous of degree k - 1, so it maps V into itself
    exactly when it does at the points sum(t_i v_i), over a basis v of V
    and nonnegative integers t summing to k - 1; those points determine a
    homogeneous polynomial of that degree.  The basis is taken from the
    found values themselves, of the system scaled as in the bracket
    generation, and the span test is the span's relative tolerance.
    """
    drift, inputs, basis, saturated = _bracket_generation(system, depth_cap)
    if saturated or _rank_at_zero(basis) == system.dim:
        return True
    span = _FieldSpan()
    values = [evaluate_at_zero(h) for h in basis]
    space = [v for v in values if span.add(_constant_field(v))]
    tests = [evaluate_at_zero(b) for b in inputs]
    for combo in combinations_with_replacement(range(len(space)), system.order - 1):
        tests.append(_evaluate(drift, sum(space[i] for i in combo)))
    return not any(span.add(_constant_field(y)) for y in tests)


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

"""Reduced and explicit controllability matrices.

The frozen rank values below were derived by hand from the block structure
(see the docstrings on the individual tests) before the implementation ran.
"""

from itertools import product

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
from polyctrl.generate import pattern_of_shape, random_system_pattern
from polyctrl.numeric import (
    _reduce,
    explicit_controllability_matrix,
    realization_ranks,
    strong_controllability,
    svd_rank,
)
from polyctrl.oracle import kalman_rank
from polyctrl.structural import verdict_against_rank
from polyctrl.system import Polysystem, SparsityPattern, sample_realization
from polyctrl.tensor import DEFAULT_CAP, CapacityError, SparseTensor, _field, symmetrize, unfold


def scaled(system: Polysystem, factor: float) -> Polysystem:
    entries = {idx: c * factor for idx, c in system.tensor.entries.items()}
    return Polysystem(
        SparseTensor(system.order, system.dim, entries),
        np.array(system.control) * factor,
    )


# --- svd_rank ---


def test_svd_rank_basics():
    assert svd_rank(np.eye(3)) == 3
    assert svd_rank(np.zeros((2, 4))) == 0
    assert svd_rank(np.zeros((0, 0))) == 0
    assert svd_rank(np.diag([1.0, 1e-20])) == 1


def test_svd_rank_cutoff_is_relative():
    mat = np.diag([1.0, 1e-6])
    assert svd_rank(mat, tol=1e-5) == 1
    assert svd_rank(mat, tol=1e-7) == 2
    # same matrix, huge absolute scale: verdicts unchanged
    assert svd_rank(mat * 1e12, tol=1e-5) == 1
    assert svd_rank(mat * 1e12, tol=1e-7) == 2


def test_svd_rank_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        svd_rank(np.eye(2), tol=-1e-3)


# --- reduced controllability matrix ---


def test_cubic_forward_reaches_full_rank():
    """B spans e1; the first generated block is A(e1 o e1 o e1) = e2."""
    report = strong_controllability(cubic_forward_system())
    assert report.rank == 2
    assert report.strongly_controllable
    assert report.iterations == 1
    assert report.n == 2
    assert report.tolerance > 0.0


def test_shared_input_stalls_at_rank_one():
    """Zero drift generates nothing; the span stays at B."""
    report = strong_controllability(shared_input_system())
    assert report.rank == 1
    assert not report.strongly_controllable
    assert report.iterations == 1


def test_self_loop_never_leaves_the_first_axis():
    """Row 2 of the unfolded tensor is zero, so every block lives on e1."""
    report = strong_controllability(self_loop_system())
    assert report.rank == 1
    assert not report.strongly_controllable


def test_chain_rank_matches_kalman():
    system = linear_chain_system()
    report = strong_controllability(system)
    assert report.rank == 2
    assert report.rank == kalman_rank(unfold(system.tensor), system.control)


def test_zero_control_matrix_has_rank_zero():
    system = Polysystem(SparseTensor(4, 2, {(1, 1, 1, 2): 1.0}), np.zeros((2, 1)))
    report = strong_controllability(system)
    assert report.rank == 0
    assert report.iterations == 0


@given(st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_rank_report_invariants(seed):
    system = sample_realization(random_system_pattern(seed), 7000 + seed)
    report = strong_controllability(system, tol=1e-10)
    assert 0 <= report.rank <= report.n
    assert report.iterations <= report.n
    assert report.strongly_controllable == (report.rank == report.n)


@given(st.integers(0, 40), st.sampled_from([1e-3, 1e3]))
@settings(max_examples=40, deadline=None)
def test_rank_survives_coefficient_scaling(seed, factor):
    system = sample_realization(random_system_pattern(seed), 7000 + seed)
    base = strong_controllability(system, tol=1e-10).rank
    assert strong_controllability(scaled(system, factor), tol=1e-10).rank == base


def test_negative_tolerance_is_rejected():
    with pytest.raises(ValueError):
        strong_controllability(cubic_forward_system(), tol=-1.0)


def test_invalid_system_is_rejected():
    with pytest.raises(ValueError, match="invalid system: parity"):
        Polysystem(SparseTensor(3, 2, {(1, 1, 2): 1.0}), np.ones((2, 1)))


def test_reduction_capacity_guard():
    with pytest.raises(CapacityError):
        strong_controllability(cubic_forward_system(), cap=4)


# --- field evaluation kernel ---


def kron_loop_block(tensor: SparseTensor, basis: np.ndarray) -> np.ndarray:
    """Reference: the unfolded tensor times each Kronecker column, one at a time."""
    a_mat = unfold(tensor)
    s = basis.shape[1]
    out = np.empty((tensor.dim, s ** (tensor.order - 1)))
    for pos, combo in enumerate(product(range(s), repeat=tensor.order - 1)):
        col = basis[:, combo[0]]
        for j in combo[1:]:
            col = np.kron(col, basis[:, j])
        out[:, pos] = a_mat @ col
    return out


def entry_block(tensor: SparseTensor, points: np.ndarray) -> np.ndarray:
    """The field at each column of ``points``."""
    return _field(tensor.index[None] - 1, tensor.values[None], points[None])[0]


def random_tensor(rng, k: int, n: int, nnz: int) -> SparseTensor:
    cells = rng.choice(n**k, size=nnz, replace=False)
    entries = {
        tuple(int(i) + 1 for i in np.unravel_index(cell, (n,) * k)): float(c)
        for cell, c in zip(cells, rng.choice([-1.0, 1.0], nnz) * rng.uniform(0.5, 2.0, nnz))
    }
    return SparseTensor(k, n, entries)


def assert_blocks_match(tensor: SparseTensor, points: np.ndarray) -> None:
    """Column j of the field block is A(x kron ... kron x) for x = points[:, j]."""
    got = entry_block(tensor, points)
    want = np.column_stack(
        [kron_loop_block(tensor, points[:, [j]])[:, 0] for j in range(points.shape[1])]
    )
    assert got.shape == want.shape == points.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k, n, s", [(2, 7, 4), (4, 5, 3), (6, 4, 2)])
def test_block_matches_kron_loop_on_random_tensors(seed, k, n, s):
    rng = np.random.default_rng([seed, k])
    tensor = random_tensor(rng, k, n, nnz=int(rng.integers(1, 4 * n)))
    assert_blocks_match(tensor, rng.standard_normal((n, s)))


def test_block_of_empty_tensor_is_zero():
    block = entry_block(SparseTensor(4, 3, {}), np.ones((3, 2)))
    assert block.shape == (3, 2)
    assert not block.any()


def test_block_with_repeated_tail_indices():
    tensor = SparseTensor(4, 2, {(1, 1, 1, 2): 2.0, (2, 2, 1, 1): -1.0})
    assert_blocks_match(tensor, np.array([[1.0, 0.5], [-2.0, 3.0]]))
    # f(e1) = 2 x1^3 e2 = 2 e2, and f(e2) = 0: x1 is a factor of both terms
    assert np.allclose(entry_block(tensor, np.eye(2)), [[0.0, 0.0], [2.0, 0.0]])


def test_block_ignores_tail_order():
    """(1,2,3,h) and (3,1,2,h) are the same monomial x1 x2 x3, so they give
    the same field, unlike their ordered Kronecker columns."""
    rng = np.random.default_rng(3)
    points = rng.standard_normal((3, 4))
    first = SparseTensor(4, 3, {(1, 2, 3, 2): 1.5})
    second = SparseTensor(4, 3, {(3, 1, 2, 2): 1.5})
    assert not np.array_equal(unfold(first), unfold(second))
    assert np.allclose(entry_block(first, points), entry_block(second, points))
    assert np.allclose(entry_block(first, points)[1], 1.5 * points.prod(axis=0))
    assert_blocks_match(first, points)


def test_block_sums_repeated_heads():
    """nnz > n, so many entries share a head and their terms add up."""
    rng = np.random.default_rng(11)
    tensor = random_tensor(rng, 4, 3, nnz=20)
    assert len(tensor.entries) > 2 * tensor.dim
    assert_blocks_match(tensor, rng.standard_normal((3, 3)))


def test_block_capacity_guard_is_inclusive():
    """The cap counts the n x n basis plus one batch of min(8, n) points:
    n cells each and nnz * (k-1) gathered tail cells."""
    system = Polysystem(SparseTensor(4, 3, {(1, 1, 1, 2): 1.0}), np.eye(3)[:, :1])
    cap = 3 * 3 + (3 + 3) * 3
    assert strong_controllability(system, cap=cap).rank == 2
    with pytest.raises(CapacityError, match=f"needs {cap} cells"):
        strong_controllability(system, cap=cap - 1)


def test_one_iteration_spans_several_batches():
    """B spans e1, e2, e3 and A sends the 10 cubic monomials in x1, x2, x3 to
    e4..e13, so the first iteration adds 10 directions: one batch of 8
    points, then a batch of 2 that fills the basis."""
    monomials = [t for t in product(range(1, 4), repeat=3) if list(t) == sorted(t)]
    entries = {tail + (4 + j,): 1.0 for j, tail in enumerate(monomials)}
    system = Polysystem(SparseTensor(4, 13, entries), np.eye(13)[:, :3])
    report = strong_controllability(system)
    assert (report.rank, report.iterations) == (13, 1)
    assert report.tolerance == 13 * np.finfo(float).eps


def test_rank_sees_monomials_not_tail_orderings():
    """dx1 = u, dx2 = x1^3, and dx3 holds x1 x2^2 stored twice, as tails
    (1,2,2) and (2,1,2) with opposite signs: the terms cancel and nothing
    reaches e3, though the two ordered Kronecker columns do not cancel.
    Stored once, under any ordering of its tail, the term gives rank 3."""
    control = np.array([[1.0], [0.0], [0.0]])
    cancelled = Polysystem(
        SparseTensor(4, 3, {(1, 1, 1, 2): 1.0, (1, 2, 2, 3): 1.0, (2, 1, 2, 3): -1.0}),
        control,
    )
    assert strong_controllability(cancelled).rank == 2
    assert svd_rank(explicit_controllability_matrix(cancelled, terms=3)) == 2
    for tail in [(1, 2, 2), (2, 1, 2), (2, 2, 1)]:
        system = Polysystem(
            SparseTensor(4, 3, {(1, 1, 1, 2): 1.0, tail + (3,): -0.7}), control
        )
        assert strong_controllability(system).rank == 3
        assert svd_rank(explicit_controllability_matrix(system, terms=3)) == 3


# --- the symmetrized Kronecker reference ---


def reference_rank(system: Polysystem, tol: float) -> int:
    """Rank of the Kronecker-block reduction on tail-symmetrized entries:
    compress [V, A (V kron ... kron V)] by a thin SVD, cut off relative to
    its largest singular value, until the rank stops growing.  A is scaled
    to unit spectral norm."""
    tensor = symmetrize(system.tensor)
    a_norm = np.linalg.norm(unfold(tensor), 2) or 1.0
    basis, rank = np.array(system.control), -1
    while True:
        u, sigma, _ = np.linalg.svd(basis, full_matrices=False)
        new_rank = int(np.count_nonzero(sigma > tol * sigma[0]))
        if new_rank in (0, rank, system.dim):
            return new_rank
        basis, rank = u[:, :new_rank], new_rank
        basis = np.hstack([basis, kron_loop_block(tensor, basis) / a_norm])


@pytest.mark.parametrize("n, k, m", [(5, 4, 2), (4, 4, 2), (8, 2, 2), (3, 6, 1)])
def test_rank_equals_the_symmetrized_kronecker_reduction(n, k, m):
    """Realizations drawn as ``validate`` draws them.  A rank above the
    reference is a kept noise direction, one below a lost direction."""
    rng = np.random.default_rng(1)
    differing = []
    for index in range(100):
        pattern = pattern_of_shape(rng, n, k, m)
        for j in range(3):
            system = sample_realization(pattern, 1000 + index * 10 + j)
            got = strong_controllability(system, tol=1e-10).rank
            want = reference_rank(system, 1e-10)
            if got != want:
                differing.append((index, j, got, want))
    assert not differing


@pytest.mark.parametrize("index", [25, 70, 121])
def test_seed_7_validate_trials_agree(index):
    """``validate --n 5 --k 4 --m 2 --seed 7`` trials whose ordered Kronecker
    columns gave rank 5 on each of 5 draws of an uncontrollable pattern."""
    rng = np.random.default_rng(7)
    for _ in range(index + 1):
        pattern = pattern_of_shape(rng, 5, 4, 2)
    [(controllable, ranks, agree)] = verdict_against_rank([pattern], [7000 + index * 10], 1e-10)
    assert not controllable
    assert len(ranks) == 5
    assert agree, ranks


# --- the stacked rank iteration ---


def rank_triples(reports):
    return [(r.rank, r.iterations, r.tolerance) for r in reports]


def single_runs(pattern, seeds, tol):
    return [strong_controllability(sample_realization(pattern, s), tol=tol) for s in seeds]


@pytest.mark.parametrize("tol", [1e-10, 0.0])
@pytest.mark.parametrize("n, k, m", [(5, 4, 2), (8, 2, 2), (3, 6, 1), (4, 4, 2)])
def test_stacked_ranks_equal_single_runs(n, k, m, tol):
    """Realizations of 60 patterns drawn as ``validate`` draws them, ranked
    as one stack: every member gets the rank, iteration count and cutoff of
    its own run, whatever support and control rank it starts from."""
    rng = np.random.default_rng(3)
    patterns = [pattern_of_shape(rng, n, k, m) for _ in range(60)]
    seeds = [range(3000 + 10 * index, 3005 + 10 * index) for index in range(60)]
    stacked = realization_ranks(patterns, seeds, tol)
    for index, (pattern, reports) in enumerate(zip(patterns, stacked)):
        assert rank_triples(reports) == rank_triples(
            single_runs(pattern, seeds[index], tol)
        ), index


def test_divergent_stack_splits_and_matches_single_runs():
    """``validate --n 8 --k 2 --m 2 --seed 7 --tol 0``, trial 38: realization
    3 keeps a rounding residual as a seventh direction (the automatic cutoff's
    known weakness), so the stack splits mid-iteration."""
    rng = np.random.default_rng(7)
    for _ in range(39):
        pattern = pattern_of_shape(rng, 8, 2, 2)
    seeds = range(7380, 7385)
    [stacked] = realization_ranks([pattern], [seeds], 0.0)
    assert [r.rank for r in stacked] == [6, 6, 6, 7, 6]
    assert rank_triples(stacked) == rank_triples(single_runs(pattern, seeds, 0.0))
    assert verdict_against_rank([pattern], [7380], 0.0) == [(False, [6, 6, 6, 7, 6], True)]


def test_stack_members_with_different_control_ranks():
    """Members whose B differ in rank start in different groups."""
    tensor = SparseTensor(4, 4, {(1, 1, 1, 3): 1.0, (2, 2, 2, 4): -0.5, (1, 2, 2, 4): 0.8})
    controls = np.array([np.eye(4)[:, :2], np.outer([1.0, 2.0, 0.0, 0.0], [1.0, 1.0])])
    stacked = _reduce(
        4, np.stack([tensor.index] * 2), np.stack([tensor.values] * 2), controls, 0.0, 1 << 20
    )
    singles = [strong_controllability(Polysystem(tensor, control)) for control in controls]
    assert stacked == rank_triples(singles)
    assert [rank for rank, _, _ in stacked] == [4, 2]


def test_nested_split_matches_single_runs():
    """A k=2 chain 1 -> 2 -> 3 -> 4 driven at vertex 1, with the later links
    cut one by one: the stack splits at the second iteration, when the
    member without link 2 -> 3 stops, and again inside the part that goes
    on, when the member without link 3 -> 4 stops."""
    index = np.tile([[1, 2], [2, 3], [3, 4]], (3, 1, 1))
    coeffs = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    controls = np.tile(np.eye(4)[:, :1], (3, 1, 1))
    stacked = _reduce(4, index, coeffs, controls, 0.0, 1 << 20)
    assert [(rank, iterations) for rank, iterations, _ in stacked] == [(4, 3), (3, 3), (2, 2)]
    for member, result in enumerate(stacked):
        one = slice(member, member + 1)
        assert _reduce(4, index[one], coeffs[one], controls[one], 0.0, 1 << 20) == [result]


def test_cross_support_split_matches_single_runs():
    """Chains on two supports, padded to one width: 1 -> 2 -> 3 -> 4 -> 5 and
    1 -> 3 -> 5 with its link 3 -> 5 cut in one member.  The members driven
    at vertex 1 split at the second iteration, when the cut member stops,
    and the part that goes on splits again at the third, when the short
    chain has no vertex left to reach."""
    long = [[1, 2], [2, 3], [3, 4], [4, 5]]
    short = [[1, 3], [3, 5], [1, 6], [1, 6]]
    index = np.array([long, long, short, short])
    coeffs = np.array([[1.0, -1.0, 0.5, 2.0], [1.0, 1.0, 1.0, 1.0],
                       [1.5, 1.0, 0.0, 0.0], [1.5, 0.0, 0.0, 0.0]])
    controls = np.tile(np.eye(5)[:, :1], (4, 1, 1))
    stacked = _reduce(5, index, coeffs, controls, 0.0, 1 << 20)
    assert [(rank, iterations) for rank, iterations, _ in stacked] == [
        (5, 4), (5, 4), (3, 3), (2, 2)
    ]
    for member, result in enumerate(stacked):
        one = slice(member, member + 1)
        width = 2 if member > 1 else 4
        alone = _reduce(5, index[one, :width], coeffs[one, :width], controls[one], 0.0, 1 << 20)
        assert alone == [result]


def test_reported_cutoff_with_more_inputs_than_dimensions():
    """A member that does not iterate reports the control cutoff max(n, m)
    * eps; one that iterates reports the batch cutoff n * eps."""
    eps = np.finfo(float).eps
    full = Polysystem(SparseTensor(4, 2, {(1, 1, 1, 2): 1.0}), np.array([[1, 0, 1], [0, 1, 1.0]]))
    report = strong_controllability(full)
    assert (report.rank, report.iterations, report.tolerance) == (2, 0, 3 * eps)
    tensor = SparseTensor(4, 3, {(1, 1, 1, 2): 1.0, (2, 2, 2, 3): 0.5})
    report = strong_controllability(Polysystem(tensor, np.outer([1.0, 0, 0], np.ones(5))))
    assert (report.rank, report.iterations, report.tolerance) == (3, 2, 3 * eps)


def test_stack_cap_counts_every_member():
    n = 4800
    pattern = SparsityPattern(2, n, 1, {(i, i + 1) for i in range(1, n)}, {(1, 1)})
    # one member: an n x n basis plus a batch of 8 points, n cells each and
    # n - 1 gathered tail cells; one member fits the cap, three do not
    cells = n * n + (n + n - 1) * 8
    assert 3 * cells > DEFAULT_CAP > cells
    with pytest.raises(CapacityError, match=f"needs {3 * cells} cells"):
        realization_ranks([pattern], [[1, 2, 3]])


def test_stack_refuses_an_odd_order():
    # the pattern refuses an odd order when built, so no stack receives one
    with pytest.raises(ValueError) as info:
        SparsityPattern(3, 2, 1, {(1, 1, 2)}, {(1, 1)})
    assert str(info.value) == "tensor order k=3 is odd; the drift degree k-1 must be odd"


# --- explicit controllability matrix ---


def test_explicit_first_term_is_control_matrix():
    system = cubic_forward_system()
    assert np.array_equal(explicit_controllability_matrix(system, terms=1), system.control)


def test_explicit_cubic_two_terms():
    """[B | A(B o B o B)] = [e1 | e2] for the unit cubic chain."""
    out = explicit_controllability_matrix(cubic_forward_system(), terms=2)
    assert np.array_equal(out, [[1.0, 0.0], [0.0, 1.0]])


def test_explicit_zero_tensor_pads_with_zero_blocks():
    """m = 1, k = 4: widths 1, then 1 + 1, then 2 + 2**3 columns."""
    out = explicit_controllability_matrix(shared_input_system(), terms=3)
    assert out.shape == (2, 10)
    assert np.array_equal(out[:, 0], [1.0, 1.0])
    assert not out[:, 1:].any()


def test_explicit_rejects_bad_terms():
    with pytest.raises(ValueError):
        explicit_controllability_matrix(cubic_forward_system(), terms=0)


def test_explicit_capacity_guard():
    # widths 1, 2, 10, 1010: the fifth term's Kronecker power of the
    # 2 x 1010 matrix needs 2**3 * 1010**3 cells
    with pytest.raises(CapacityError, match=f"needs {2**3 * 1010**3} cells"):
        explicit_controllability_matrix(cubic_forward_system(), terms=5)


def test_explicit_column_count_growth():
    # cumulative widths w + w**3 for k = 4: m = 1 gives 1, 2, 10; m = 2 gives 2, 10, 1010
    system = Polysystem(SparseTensor(4, 2, {(1, 1, 1, 2): 1.0}), np.ones((2, 2)))
    assert explicit_controllability_matrix(system, terms=2).shape == (2, 10)


def test_explicit_matrix_forms_cross_terms():
    """dx1 = u, dx2 = x1^3, dx3 = x1^2 x2.  B = e1, A(e1 o e1 o e1) = e2, and
    only the mixed product A(e1 o e1 o e2) reaches e3; A(e2 o e2 o e2) = 0."""
    system = Polysystem(
        SparseTensor(4, 3, {(1, 1, 1, 2): 1.0, (1, 1, 2, 3): 1.0}),
        np.array([[1.0], [0.0], [0.0]]),
    )
    assert strong_controllability(system).rank == 3
    assert svd_rank(explicit_controllability_matrix(system, terms=3)) == 3

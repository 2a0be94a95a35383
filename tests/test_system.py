"""Polysystem construction checks, sparsity projection, and realization sampling."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cubic_forward_system, linear_chain_system
from polyctrl.formats import parse_system
from polyctrl.generate import _draw_support, random_pattern, random_system_pattern
from polyctrl.hypergraph import Hyperedge
from polyctrl.system import (
    Polysystem,
    SparsityPattern,
    sample_coefficients,
    sample_realization,
    sparsity_pattern,
)
from polyctrl.tensor import SparseTensor


def test_valid_systems_report_no_violations():
    for system in (cubic_forward_system(), linear_chain_system()):
        assert Polysystem(system.tensor, system.control).control.shape == (system.dim, 1)


def construction_error(tensor, control) -> str:
    """The message ``Polysystem(tensor, control)`` raises."""
    with pytest.raises(ValueError) as info:
        Polysystem(tensor, control)
    return str(info.value)


def test_validate_flags_odd_order():
    message = construction_error(SparseTensor(3, 2, {(1, 2, 1): 1.0}), np.ones((2, 1)))
    assert message == (
        "invalid system: parity: tensor order k=3 is odd, so the drift degree k-1 is not odd"
    )


def test_validate_flags_dimension_mismatch():
    message = construction_error(SparseTensor(4, 2, {}), np.ones((3, 1)))
    assert message == (
        "invalid system: dimension: control matrix has 3 rows, tensor dimension is 2"
    )


def test_validate_flags_missing_columns():
    message = construction_error(SparseTensor(4, 2, {}), np.empty((2, 0)))
    assert message == "invalid system: dimension: control matrix needs at least one column"


def test_validate_flags_bad_axis_count():
    message = construction_error(SparseTensor(4, 2, {}), np.ones((2, 1, 1)))
    assert message == "invalid system: shape: control matrix has 3 axes"


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_validate_flags_non_finite_control(value):
    message = construction_error(SparseTensor(4, 2, {}), np.array([[1.0], [value]]))
    assert message == "invalid system: value: control matrix has non-finite entries"


def test_construction_names_every_violation():
    message = construction_error(SparseTensor(3, 2, {}), np.full((3, 0), np.nan))
    assert message.startswith("invalid system: parity: ")
    assert message.endswith(
        "; dimension: control matrix has 3 rows, tensor dimension is 2"
        "; dimension: control matrix needs at least one column"
    )


def test_one_dimensional_control_becomes_column():
    system = Polysystem(SparseTensor(4, 2, {}), np.array([1.0, 0.0]))
    assert system.control.shape == (2, 1)
    assert system.inputs == 1


def test_control_matrix_is_read_only():
    system = cubic_forward_system()
    with pytest.raises(ValueError):
        system.control[0, 0] = 5.0


def test_shape_properties():
    system = cubic_forward_system()
    assert (system.order, system.dim, system.inputs) == (4, 2, 1)


def test_sparsity_pattern_of_named_systems():
    pattern = sparsity_pattern(cubic_forward_system())
    assert pattern.tensor_support == frozenset({(1, 1, 1, 2)})
    assert pattern.control_support == frozenset({(1, 1)})
    assert (pattern.order, pattern.dim, pattern.inputs) == (4, 2, 1)


def test_pattern_validation():
    with pytest.raises(ValueError):
        SparsityPattern(1, 2, 1, frozenset(), frozenset())
    with pytest.raises(ValueError):
        SparsityPattern(4, 0, 1, frozenset(), frozenset())
    with pytest.raises(ValueError):
        SparsityPattern(4, 2, 0, frozenset(), frozenset())
    with pytest.raises(ValueError):
        SparsityPattern(4, 2, 1, frozenset({(1, 2)}), frozenset())
    with pytest.raises(ValueError):
        SparsityPattern(4, 2, 1, frozenset({(1, 1, 1, 3)}), frozenset())
    with pytest.raises(ValueError):
        SparsityPattern(4, 2, 1, frozenset(), frozenset({(1, 2)}))


@pytest.mark.parametrize(
    "entry, shown",
    [
        (1.9, "1.9"),
        (np.float64(2.5), repr(np.float64(2.5))),
        ("2", "'2'"),
        (float("inf"), "inf"),
        (float("nan"), "nan"),
        (None, "None"),
        ([1], "[1]"),
    ],
    ids=["fraction", "numpy-fraction", "string", "inf", "nan", "none", "unhashable"],
)
def test_pattern_refuses_an_entry_that_is_not_an_integer(entry, shown):
    # one index rule for every form; rows and heads are passed as lists and
    # tuples, so an unhashable entry reaches the check
    refusal = f"has entry {shown}, which is not an integer"
    with pytest.raises(ValueError) as info:
        SparsityPattern(2, 3, 1, [(entry, 2), (1, 1)], [(1, 1)])
    assert str(info.value) == f"multi-index ({shown}, 2) {refusal}"
    with pytest.raises(ValueError) as info:
        SparsityPattern(2, 3, 1, [(1, 2)], [(1, entry)])
    assert str(info.value) == f"control index (1, {shown}) {refusal}"
    with pytest.raises(ValueError) as info:
        SparseTensor(2, 3, [((entry, 2), 1.0)])
    assert str(info.value) == f"multi-index ({shown}, 2) {refusal}"
    with pytest.raises(ValueError) as info:
        Hyperedge((entry,), {1})
    assert str(info.value) == f"tail ({shown},) {refusal}"
    with pytest.raises(ValueError) as info:
        Hyperedge((1,), (entry,))
    assert str(info.value) == f"head ({shown},) {refusal}"


def test_pattern_from_index_equals_checked_pattern():
    support = frozenset({(1, 1, 1, 2), (2, 1, 2, 1), (2, 2, 2, 2)})
    checked = SparsityPattern(4, 2, 1, support, frozenset({(1, 1)}))
    index = np.array(sorted(support), dtype=np.int64)
    wrapped = SparsityPattern.from_index(4, 2, 1, index, np.array([[1, 1]], dtype=np.int64))
    assert wrapped.tensor_index is index
    assert not index.flags.writeable
    assert wrapped == checked
    assert hash(wrapped) == hash(checked)
    assert wrapped.tensor_support == support
    assert repr(wrapped) == (
        f"SparsityPattern(order=4, dim=2, inputs=1, tensor_support={wrapped.tensor_support!r}, "
        "control_support=frozenset({(1, 1)}))"
    )
    assert wrapped != SparsityPattern(4, 2, 2, support, frozenset({(1, 1)}))


def test_every_source_gives_one_canonical_support():
    entries = {(3, 2, 1, 1): -0.7, (1, 1, 1, 2): 1.0, (2, 2, 3, 3): 1.5, (1, 3, 2, 1): 0.9}
    control = np.array([[0.0, 1.0], [0.0, 0.0], [0.5, 2.0]])
    system = Polysystem(SparseTensor(4, 3, entries), control)
    tensor = sorted(entries)
    pairs = [(1, 2), (3, 1), (3, 2)]
    rng = np.random.default_rng(4)
    shuffled_tensor = [tensor[i] for i in rng.permutation(len(tensor))]
    shuffled_pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    body = "".join(" ".join(map(str, idx)) + "\n" for idx in shuffled_tensor)
    body += "matrix 3 2\n" + "".join(f"{i} {j}\n" for i, j in shuffled_pairs)
    patterns = [
        SparsityPattern(4, 3, 2, frozenset(tensor), frozenset(pairs)),
        SparsityPattern(
            4,
            3,
            2,
            [list(map(np.int64, shuffled_tensor[0])), *shuffled_tensor, shuffled_tensor[0]],
            [(float(i), j) for i, j in shuffled_pairs] + [(True, np.int32(2))],
        ),
        parse_system("tensor 4 3\n" + body),
        parse_system("tensor 4 3\n# shuffled rows\n" + body),
        sparsity_pattern(system),
    ]
    expected_tensor = np.array(tensor, dtype=np.int64)
    expected_control = np.array(pairs, dtype=np.int64)
    for pattern in patterns:
        for index, expected in (
            (pattern.tensor_index, expected_tensor),
            (pattern.control_index, expected_control),
        ):
            assert index.dtype == np.int64
            assert not index.flags.writeable
            assert np.array_equal(index, expected)
        assert pattern == patterns[0]
        assert hash(pattern) == hash(patterns[0])
        for clone in (pickle.loads(pickle.dumps(pattern)), copy.deepcopy(pattern)):
            assert clone == pattern
            assert hash(clone) == hash(pattern)
            assert not clone.tensor_index.flags.writeable
            assert not clone.control_index.flags.writeable


def test_pattern_is_immutable_and_survives_pickle_and_copy():
    pattern = random_system_pattern(5)
    with pytest.raises(AttributeError):
        pattern.dim = 3
    for clone in (pickle.loads(pickle.dumps(pattern)), copy.deepcopy(pattern)):
        assert clone == pattern


def test_sampling_is_deterministic():
    pattern = random_system_pattern(3)
    first = sample_realization(pattern, 42)
    assert first == sample_realization(pattern, 42)
    assert first != sample_realization(pattern, 43)


@given(st.integers(0, 200))
def test_sampled_coefficients_stay_away_from_zero(seed):
    pattern = random_system_pattern(seed % 20)
    system = sample_realization(pattern, seed)
    values = list(system.tensor.entries.values()) + [
        v for v in np.ravel(system.control) if v != 0.0
    ]
    assert values
    for value in values:
        assert 0.5 <= abs(value) <= 2.0


def test_sampling_draws_both_signs():
    pattern = random_system_pattern(0)
    signs = set()
    for seed in range(10):
        system = sample_realization(pattern, seed)
        signs.update(np.sign(v) for v in system.tensor.entries.values())
    assert signs == {-1.0, 1.0}


@given(st.integers(0, 50), st.integers(0, 50))
def test_realization_preserves_the_pattern(pattern_seed, draw_seed):
    pattern = random_system_pattern(pattern_seed)
    system = sample_realization(pattern, draw_seed)
    assert sparsity_pattern(system) == pattern


# --- the bulk draw ---


def scalar_realization(pattern, seed):
    """Reference draw, one coefficient at a time: ``integers(0, 2)`` for the
    sign (0 is negative), then ``uniform(0.5, 2.0)`` for the magnitude, over
    the sorted tensor support and then the sorted control support."""
    rng = np.random.default_rng(seed)

    def draw_coefficient():
        sign = -1.0 if rng.integers(0, 2) == 0 else 1.0
        return sign * rng.uniform(0.5, 2.0)

    entries = {idx: draw_coefficient() for idx in sorted(pattern.tensor_support)}
    control = np.zeros((pattern.dim, pattern.inputs))
    for i, j in sorted(pattern.control_support):
        control[i - 1, j - 1] = draw_coefficient()
    return entries, control


def sized_pattern(seed):
    """A pattern of 0 to 25 coefficients in all, split between the tensor
    (k = 2 at n = 6, or k = 4 at n = 3) and a control support of at most 12."""
    rng = np.random.default_rng([seed, 5])
    count = seed % 26
    k, n, m = (2, 6, 2) if seed % 2 else (4, 3, 4)
    tensor_nnz = int(rng.integers(max(0, count - n * m), count + 1))
    cells = rng.choice(n**k, size=tensor_nnz, replace=False)
    tensor = [tuple(int(i) + 1 for i in np.unravel_index(c, (n,) * k)) for c in cells]
    slots = rng.choice(n * m, size=count - tensor_nnz, replace=False)
    control = [(int(s) // m + 1, int(s) % m + 1) for s in slots]
    return SparsityPattern(k, n, m, tensor, control)


def test_bulk_draw_is_bit_identical_to_the_scalar_draw():
    counts, empty_tensor = set(), 0
    for seed in range(2600):
        pattern = sized_pattern(seed)
        entries, control = scalar_realization(pattern, 7 * seed + 3)
        system = sample_realization(pattern, 7 * seed + 3)
        assert list(system.tensor.entries.items()) == list(entries.items()), seed
        assert system.control.tobytes() == control.tobytes(), seed
        counts.add(len(entries) + len(pattern.control_support))
        empty_tensor += not entries
    assert counts == set(range(26))
    assert empty_tensor > 100


def scalar_support(rng, n, k, m, tensor_nnz, control_nnz):
    """Reference support draw, one row at a time: ``integers(1, n + 1,
    size=k)`` per tensor row, then two scalar calls per control entry, each
    loop until it holds the asked number of distinct rows."""
    tensor: set[tuple[int, ...]] = set()
    while len(tensor) < tensor_nnz:
        tensor.add(tuple(int(v) for v in rng.integers(1, n + 1, size=k)))
    control: set[tuple[int, int]] = set()
    while len(control) < control_nnz:
        control.add((int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1))))
    return tensor, control


@pytest.mark.parametrize(
    "shape",
    [(6, 4, 2, 6, 3), (40, 2, 3, 40, 3), (5, 4, 2, 30, 10), (3000, 4, 3, 9000, 3),
     (50, 4, 3, 0, 5), (50, 2, 5, 60, 0)],
)
def test_bulk_support_draw_keeps_the_scalar_stream(shape):
    n, k, m, tensor_nnz, control_nnz = shape
    for seed in range(50):
        reference = np.random.default_rng(seed)
        tensor, control = scalar_support(reference, *shape)
        pattern = random_pattern(*shape, seed)
        assert pattern.tensor_support == tensor and pattern.control_support == control, seed
        rng = np.random.default_rng(seed)
        _draw_support(rng, (n,) * k, tensor_nnz)
        _draw_support(rng, (n, m), control_nnz)
        assert rng.random() == reference.random(), seed


def test_sample_coefficients_stacks_one_draw_per_seed():
    pattern = random_system_pattern(4)
    seeds = [11, 12, 13, 11]
    index, coeffs, controls = sample_coefficients(pattern, seeds)
    assert index.tolist() == sorted(map(list, pattern.tensor_support))
    assert coeffs.shape == (4, len(index))
    assert controls.shape == (4, pattern.dim, pattern.inputs)
    for r, seed in enumerate(seeds):
        system = sample_realization(pattern, seed)
        assert coeffs[r].tolist() == list(system.tensor.entries.values())
        assert np.array_equal(controls[r], system.control)
    assert np.array_equal(coeffs[0], coeffs[3])
    empty = sample_coefficients(pattern, [])
    assert [a.shape for a in empty] == [index.shape, (0, len(index)), (0, *controls.shape[1:])]

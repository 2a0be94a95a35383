"""Sparse tensor kernels against a dense reshape oracle and hand values."""

import copy
import pickle
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyctrl.system import Polysystem
from polyctrl.tensor import (
    DEFAULT_CAP,
    CapacityError,
    SparseTensor,
    contract,
    kron_power,
    _check_capacity,
    _row_order,
    symmetrize,
    unfold,
)


def to_dense(tensor: SparseTensor) -> np.ndarray:
    out = np.zeros((tensor.dim,) * tensor.order)
    for idx, coeff in tensor.entries.items():
        out[tuple(i - 1 for i in idx)] = coeff
    return out


def dense_unfold(tensor: SparseTensor) -> np.ndarray:
    # Head mode to the front, tail modes flattened in order: mode 1 slowest.
    dense = to_dense(tensor)
    return np.moveaxis(dense, -1, 0).reshape(tensor.dim, tensor.dim ** (tensor.order - 1))


@st.composite
def tensors(draw, max_order=4, max_dim=3, integral=False):
    order = draw(st.integers(2, max_order))
    dim = draw(st.integers(1, max_dim))
    space = list(product(range(1, dim + 1), repeat=order))
    support = draw(st.lists(st.sampled_from(space), unique=True, max_size=5))
    if integral:
        coeffs = st.integers(-3, 3).filter(lambda c: c != 0)
    else:
        coeffs = st.floats(-2, 2, allow_nan=False).filter(lambda c: c != 0.0)
    return SparseTensor(order, dim, {idx: draw(coeffs) for idx in support})


# --- unfolding ---


def test_unfold_frozen_entries():
    out = unfold(SparseTensor(3, 2, {(1, 2, 1): 5.0}))
    assert out.shape == (2, 4)
    assert out[0, 1] == 5.0
    assert np.count_nonzero(out) == 1

    out = unfold(SparseTensor(2, 2, {(1, 2): 1.0}))
    assert np.array_equal(out, [[0.0, 0.0], [1.0, 0.0]])

    out = unfold(SparseTensor(4, 2, {(1, 1, 1, 2): 1.0}))
    assert out.shape == (2, 8)
    assert out[1, 0] == 1.0
    assert np.count_nonzero(out) == 1


def test_unfold_empty_tensor_is_zero():
    out = unfold(SparseTensor(4, 2, {}))
    assert out.shape == (2, 8)
    assert not out.any()


@given(tensors())
def test_unfold_matches_dense_reshape(tensor):
    assert np.array_equal(unfold(tensor), dense_unfold(tensor))


@given(tensors(), st.data())
def test_unfold_kron_contract_identity(tensor, data):
    x = np.array(
        data.draw(
            st.lists(
                st.floats(-2, 2, allow_nan=False),
                min_size=tensor.dim,
                max_size=tensor.dim,
            )
        )
    )
    via_unfolding = unfold(tensor) @ kron_power(x, tensor.order - 1)
    direct = contract(tensor, x)
    assert np.allclose(via_unfolding, direct, atol=1e-12 * (1.0 + np.abs(direct).max()))


def test_unfold_capacity():
    thin = SparseTensor(40, 2, {(1,) * 40: 1.0})
    with pytest.raises(CapacityError):
        unfold(thin)
    # the default cap admits it at n = 1
    assert unfold(SparseTensor(40, 1, {(1,) * 40: 2.0})).shape == (1, 1)
    # the cap counts cells, n * n**(k-1), not columns
    assert unfold(SparseTensor(4, 3, {(1, 2, 3, 1): 1.0})).shape == (3, 27)
    with pytest.raises(CapacityError, match=f"needs {91**4} cells"):
        unfold(SparseTensor(4, 91, {(1, 2, 3, 1): 1.0}))


def test_capacity_rule_refuses_only_above_the_cap():
    _check_capacity("block needs", DEFAULT_CAP)
    with pytest.raises(CapacityError) as info:
        _check_capacity("block needs", DEFAULT_CAP + 1)
    assert str(info.value) == f"block needs {DEFAULT_CAP + 1} cells, cap is {DEFAULT_CAP}"
    _check_capacity("block needs", 10, cap=10)
    with pytest.raises(CapacityError, match="^block needs 11 cells, cap is 10$"):
        _check_capacity("block needs", 11, cap=10)


# --- tail symmetrization ---


def test_symmetrize_spreads_a_coefficient_over_distinct_orderings():
    sym = symmetrize(SparseTensor(4, 3, {(1, 1, 2, 3): 3.0, (2, 2, 2, 1): -1.0}))
    assert sym.entries == {
        (1, 1, 2, 3): 1.0,
        (1, 2, 1, 3): 1.0,
        (2, 1, 1, 3): 1.0,
        (2, 2, 2, 1): -1.0,
    }


def test_symmetrize_sums_orderings_and_drops_cancelled_entries():
    # x1 x2 - x2 x1 is the zero polynomial; x1 x3 + x3 x1 is 2 x1 x3
    tensor = SparseTensor(
        3, 3, {(1, 2, 1): 1.0, (2, 1, 1): -1.0, (1, 3, 2): 1.0, (3, 1, 2): 1.0}
    )
    assert symmetrize(tensor).entries == {(1, 3, 2): 1.0, (3, 1, 2): 1.0}


@given(tensors(), st.data())
def test_symmetrize_keeps_the_field_and_makes_tails_symmetric(tensor, data):
    sym = symmetrize(tensor)
    for idx, coeff in sym.entries.items():
        for tail in permutations(idx[:-1]):
            assert sym.entries[tail + idx[-1:]] == pytest.approx(coeff)
    x = np.array(
        data.draw(st.lists(st.floats(-2, 2), min_size=tensor.dim, max_size=tensor.dim))
    )
    direct = contract(tensor, x)
    assert np.allclose(contract(sym, x), direct, atol=1e-12 * (1.0 + np.abs(direct).max()))


# --- contraction ---


def test_contract_cubic_example():
    tensor = SparseTensor(4, 2, {(1, 1, 1, 2): 1.0})
    assert np.array_equal(contract(tensor, np.array([2.0, 0.0])), [0.0, 8.0])
    assert np.array_equal(contract(tensor, np.array([0.0, 5.0])), [0.0, 0.0])


def test_contract_rejects_wrong_length():
    tensor = SparseTensor(2, 2, {(1, 2): 1.0})
    with pytest.raises(ValueError):
        contract(tensor, np.zeros(3))


@given(tensors(integral=True), st.data())
def test_contract_homogeneous_of_degree_k_minus_1(tensor, data):
    ints = st.integers(-3, 3)
    x = np.array(
        data.draw(st.lists(ints, min_size=tensor.dim, max_size=tensor.dim)), dtype=float
    )
    lam = float(data.draw(st.integers(-2, 2)))
    scaled = contract(tensor, lam * x)
    expected = lam ** (tensor.order - 1) * contract(tensor, x)
    assert np.array_equal(scaled, expected)


# --- Kronecker power ---


def test_kron_power_vector_first_factor_slowest():
    assert np.array_equal(kron_power(np.array([1.0, 2.0]), 2), [1.0, 2.0, 2.0, 4.0])
    assert np.array_equal(kron_power(np.array([2.0, 3.0]), 1), [2.0, 3.0])


def test_kron_power_matrix_matches_numpy():
    mat = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert np.array_equal(kron_power(mat, 2), np.kron(mat, mat))
    assert np.array_equal(kron_power(mat, 3), np.kron(np.kron(mat, mat), mat))


def test_kron_power_rejects_bad_input():
    with pytest.raises(ValueError):
        kron_power(np.ones(2), 0)
    with pytest.raises(ValueError):
        kron_power(np.ones((2, 2, 2)), 2)


def test_kron_power_capacity():
    with pytest.raises(CapacityError, match=f"needs {4**14} cells"):
        kron_power(np.ones(4), 14)
    assert kron_power(np.ones(4), 5).shape == (1024,)


# --- construction ---


def test_entries_accept_mapping_and_pairs():
    from_map = SparseTensor(2, 2, {(1, 2): 1.5})
    from_pairs = SparseTensor(2, 2, [((1, 2), 1.5)])
    assert from_map.entries == from_pairs.entries == {(1, 2): 1.5}
    assert from_map.index.tolist() == [[1, 2]]


ENTRIES = {(2, 1, 1, 1): -0.5, (1, 2, 2, 2): 2.0, (1, 1, 1, 2): 1.0, (2, 2, 1, 2): 0.75}


def test_every_order_of_entries_gives_one_canonical_form():
    rows = sorted(ENTRIES)
    pairs = list(ENTRIES.items())
    sources = [ENTRIES, pairs, pairs[::-1], iter(pairs[1:] + pairs[:1]), dict(sorted(pairs))]
    tensors = [SparseTensor(4, 2, source) for source in sources]
    for tensor in tensors:
        assert tensor.index.dtype == np.int64
        assert tensor.values.dtype == np.float64
        assert tensor.index.tolist() == [list(row) for row in rows]
        assert tensor.values.tolist() == [ENTRIES[row] for row in rows]
        assert not tensor.index.flags.writeable
        assert not tensor.values.flags.writeable
        assert list(tensor.entries) == rows
        assert tensor == tensors[0]
        assert hash(tensor) == hash(tensors[0])
    with pytest.raises(AttributeError, match="immutable"):
        tensors[0].index = tensors[0].index


def test_from_arrays_wraps_without_copying():
    index = np.array([[1, 1, 1, 2], [2, 1, 1, 1]], dtype=np.int64)
    values = np.array([1.0, -0.5])
    tensor = SparseTensor.from_arrays(4, 2, index, values)
    assert tensor.index is index
    assert tensor.values is values
    assert not index.flags.writeable and not values.flags.writeable
    assert tensor == SparseTensor(4, 2, {(2, 1, 1, 1): -0.5, (1, 1, 1, 2): 1.0})


def test_equality_repr_pickle_and_deepcopy():
    tensor = SparseTensor(4, 2, ENTRIES)
    assert tensor != SparseTensor(4, 2, {**ENTRIES, (1, 1, 1, 2): 1.5})
    assert tensor != SparseTensor(4, 3, ENTRIES)
    assert tensor != ENTRIES
    assert repr(tensor) == (
        "SparseTensor(order=4, dim=2, entries={(1, 1, 1, 2): 1.0, (1, 2, 2, 2): 2.0, "
        "(2, 1, 1, 1): -0.5, (2, 2, 1, 2): 0.75})"
    )
    system = Polysystem(tensor, np.array([[1.0], [0.0]]))
    for clone in (pickle.loads(pickle.dumps(system)), copy.deepcopy(system)):
        assert clone.tensor == tensor
        assert clone.tensor.index is not tensor.index
        assert not clone.tensor.index.flags.writeable
        assert not clone.tensor.values.flags.writeable
        assert np.array_equal(clone.control, system.control)
    assert pickle.loads(pickle.dumps(tensor)) == copy.deepcopy(tensor) == tensor


def test_entries_normalize_integer_like_indices():
    tensor = SparseTensor(2, 2, {(np.int64(1), np.int64(2)): 3.0})
    assert tensor.entries == {(1, 2): 3.0}
    assert SparseTensor(2, 2, {(1.0, 2): 3.0}) == SparseTensor(2, 2, {(1, 2): 3.0})


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        SparseTensor(1, 2, {})
    with pytest.raises(ValueError):
        SparseTensor(2, 0, {})
    with pytest.raises(ValueError):
        SparseTensor(3, 2, {(1, 2): 1.0})
    with pytest.raises(ValueError):
        SparseTensor(2, 2, {(1, 3): 1.0})
    with pytest.raises(ValueError):
        SparseTensor(2, 2, {(0, 1): 1.0})


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_construction_rejects_non_finite(value):
    with pytest.raises(ValueError, match="non-finite"):
        SparseTensor(2, 2, {(1, 2): value})


def test_construction_rejects_zero_and_duplicate():
    with pytest.raises(ValueError, match="exact-zero"):
        SparseTensor(2, 2, {(1, 2): 0.0})
    with pytest.raises(ValueError, match="duplicate"):
        SparseTensor(2, 2, [((1, 2), 1.0), ((1, 2), 2.0)])


def test_construction_words_range_and_duplicates_as_a_pattern_does():
    with pytest.raises(ValueError) as info:
        SparseTensor(2, 2, {(1, 3): 1.0})
    assert str(info.value) == "multi-index (1, 3) outside [1, 2]"
    with pytest.raises(ValueError) as info:
        SparseTensor(2, 2, [((1, 2), 1.0), ((1.0, 2), 2.0)])
    assert str(info.value) == "duplicate multi-index (1, 2)"


# --- the row order ---


def test_row_order_is_the_stable_lexicographic_order():
    rng = np.random.default_rng(17)
    extremes = np.array([np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max])
    for trial in range(600):
        # one to six columns; the first six trials have no rows
        width, count = 1 + trial % 6, int(rng.integers(1, 40)) if trial >= 6 else 0
        if trial % 3 == 0:
            rows = rng.choice(extremes, size=(count, width))
        else:
            # a narrow range gives many ties and equal rows
            rows = rng.integers(-3, 4, size=(count, width))
        if trial % 4 == 1:
            rows = rows[:, ::-1]
        assert _row_order(rows).tolist() == np.lexsort(rows.T[::-1]).tolist(), trial

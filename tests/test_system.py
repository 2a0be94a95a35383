"""Polysystem validation, sparsity projection, and realization sampling."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cubic_forward_system, linear_chain_system
from polyctrl.generate import random_system_pattern
from polyctrl.system import (
    Polysystem,
    SparsityPattern,
    ensure_valid,
    sample_realization,
    sparsity_pattern,
    validate,
)
from polyctrl.tensor import SparseTensor


def test_valid_systems_report_no_violations():
    assert validate(cubic_forward_system()) == []
    assert validate(linear_chain_system()) == []


def test_validate_flags_odd_order():
    system = Polysystem(SparseTensor(3, 2, {(1, 2, 1): 1.0}), np.ones((2, 1)))
    violations = validate(system)
    assert len(violations) == 1
    assert violations[0].startswith("parity:")
    with pytest.raises(ValueError, match="invalid system"):
        ensure_valid(system)


def test_validate_flags_dimension_mismatch():
    system = Polysystem(SparseTensor(4, 2, {}), np.ones((3, 1)))
    assert any(v.startswith("dimension:") for v in validate(system))


def test_validate_flags_missing_columns():
    system = Polysystem(SparseTensor(4, 2, {}), np.empty((2, 0)))
    assert any("at least one column" in v for v in validate(system))


def test_validate_flags_bad_axis_count():
    system = Polysystem(SparseTensor(4, 2, {}), np.ones((2, 1, 1)))
    violations = validate(system)
    assert len(violations) == 1
    assert violations[0].startswith("shape:")


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_validate_flags_non_finite_control(value):
    system = Polysystem(SparseTensor(4, 2, {}), np.array([[1.0], [value]]))
    violations = validate(system)
    assert len(violations) == 1
    assert violations[0].startswith("value:")
    with pytest.raises(ValueError, match="invalid system"):
        ensure_valid(system)


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


def test_pattern_from_index_equals_checked_pattern():
    support = frozenset({(1, 1, 1, 2), (2, 1, 2, 1), (2, 2, 2, 2)})
    checked = SparsityPattern(4, 2, 1, support, frozenset({(1, 1)}))
    index = np.array(sorted(support), dtype=np.int64)
    wrapped = SparsityPattern.from_index(4, 2, 1, index, frozenset({(1, 1)}))
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


def test_pattern_is_immutable_and_survives_pickle_and_copy():
    pattern = random_system_pattern(5)
    with pytest.raises(AttributeError):
        pattern.dim = 3
    for clone in (pickle.loads(pickle.dumps(pattern)), copy.deepcopy(pattern)):
        assert clone == pattern


def test_sampling_is_deterministic():
    pattern = random_system_pattern(3)
    first = sample_realization(pattern, 42)
    second = sample_realization(pattern, 42)
    assert first.tensor.entries == second.tensor.entries
    assert np.array_equal(first.control, second.control)
    other = sample_realization(pattern, 43)
    assert not np.array_equal(first.control, other.control) or (
        first.tensor.entries != other.tensor.entries
    )


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

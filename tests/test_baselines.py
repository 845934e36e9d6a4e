import numpy as np
import pytest

from symtree.baselines import fit_cart_constant, fit_cart_linear, fit_sparse
from symtree.basis import basis_from_forms, canonical_basis
from symtree.errors import ConfigError
from symtree.learner import Dataset
from symtree.tree import predict, validate


def step_data():
    return Dataset(X=[[0.1], [0.2], [0.3], [0.4]], y=[0.0, 0.0, 5.0, 5.0])


def test_cart_constant_recovers_step():
    model = fit_cart_constant(step_data(), depth=2)
    assert validate(model) == []
    assert predict(model, 0.15) == pytest.approx(0.0)
    assert predict(model, 0.35) == pytest.approx(5.0)


def test_cart_constant_leaf_is_mean():
    data = Dataset(X=[[0.5], [0.6], [0.7]], y=[1.0, 2.0, 6.0])
    model = fit_cart_constant(data, depth=1)
    leaves = {n: model.leaves[n] for n in sorted(model.leaves)}
    # the singleton split {0.7} vs {0.5, 0.6} minimizes SSE
    means = sorted(l.coefficients[0] for l in leaves.values())
    assert means == pytest.approx([1.5, 6.0])


def test_cart_linear_fits_line_without_splitting():
    data = Dataset(X=[[0.5], [1.0], [2.0], [3.0]], y=[2.0, 3.0, 5.0, 7.0])
    model = fit_cart_linear(data, depth=2)
    assert validate(model) == []
    assert sorted(model.rules) == []  # no SSE reduction available
    assert predict(model, 1.5) == pytest.approx(4.0, abs=1e-9)


def test_cart_linear_splits_piecewise_line():
    X = np.linspace(0.1, 0.9, 16).reshape(-1, 1)
    y = np.where(X[:, 0] < 0.5, X[:, 0], 2.0 - X[:, 0])
    model = fit_cart_linear(Dataset(X=X, y=y), depth=2)
    for x, target in zip(X[:, 0], y):
        assert predict(model, x) == pytest.approx(target, abs=1e-8)


def test_cart_trees_deterministic():
    rng = np.random.default_rng(101)
    data = Dataset(X=rng.uniform(0.1, 0.9, (20, 1)), y=rng.uniform(0, 5, 20))
    a = fit_cart_constant(data, depth=2)
    b = fit_cart_constant(data, depth=2)
    assert a == b


def test_sparse_exact_on_representable_target():
    basis = basis_from_forms(["1", "x"])
    data = Dataset(X=[[0.5], [1.0], [2.0]], y=[2.0, 3.0, 5.0])
    model = fit_sparse(data, basis, 0.0, (-100.0, 100.0))
    assert validate(model) == []
    for x, target in zip([0.5, 1.0, 2.0], [2.0, 3.0, 5.0]):
        assert predict(model, x) == pytest.approx(target, abs=1e-8)


def test_sparse_is_single_leaf():
    data = Dataset(X=[[0.3], [0.6]], y=[1.0, 2.0])
    model = fit_sparse(data, canonical_basis(), 1e-2, (-100.0, 100.0))
    assert model.depth == 0
    assert sorted(model.leaves) == [1]


def test_sparse_lambda_shrinks_coefficients():
    rng = np.random.default_rng(103)
    data = Dataset(X=rng.uniform(0.2, 0.9, (10, 1)), y=rng.uniform(0, 5, 10))
    basis = canonical_basis()
    small = fit_sparse(data, basis, 1e-4, (-100.0, 100.0))
    large = fit_sparse(data, basis, 1.0, (-100.0, 100.0))
    n_small = np.sum(np.abs(small.leaves[1].as_array()))
    n_large = np.sum(np.abs(large.leaves[1].as_array()))
    assert n_large <= n_small + 1e-8


def test_depth_must_be_positive():
    with pytest.raises(ConfigError, match="depth must be >= 1"):
        fit_cart_constant(step_data(), depth=0)

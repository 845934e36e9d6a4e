import hashlib
import warnings

import numpy as np
import pytest

from oracles import loop_fit_line, loop_fit_mean, loop_greedy_tree
from symtree import baselines
from symtree.baselines import fit_cart_constant, fit_cart_linear, fit_sparse
from symtree.basis import basis_from_forms, canonical_basis
from symtree.config import load_config
from symtree.errors import ConfigError
from symtree.learner import Dataset
from symtree.mpc import generate_dataset
from symtree.tree import BranchRule, LeafExpression, predict, serialize, validate


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


def test_cart_constant_splits_adjacent_floats():
    # (1.0 + nextafter(1.0, 2)) / 2 rounds onto 1.0: a midpoint threshold
    # would leave one side empty (numpy's "Mean of empty slice") and the node
    # a leaf. The split sits at the upper value.
    hi = float(np.nextafter(1.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit_cart_constant(Dataset(X=[[1.0], [hi]], y=[0.0, 1.0]), depth=1)
    assert model.rules == {1: BranchRule(feature=0, threshold=hi)}
    assert model.leaves == {2: LeafExpression(coefficients=(0.0,)),
                            3: LeafExpression(coefficients=(1.0,))}


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


def test_lstsq_that_does_not_converge_raises(monkeypatch):
    """The least-squares gufunc signals an SVD that did not converge through
    the invalid flag; the one errstate around the growth turns that into
    LinAlgError, as np.linalg.lstsq does per call."""
    class NotConverging:
        @staticmethod
        def lstsq(*args, **kwargs):
            np.sqrt(np.full(1, -1.0))

    monkeypatch.setattr(baselines, "_umath_linalg", NotConverging)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        fit_cart_linear(step_data(), depth=1)


def _random_instance(rng):
    """One seeded greedy-tree instance: N in 1..60, 1-3 features, X on a 0.1
    grid half the time, sometimes a constant column, labels at scale 1e-3, 1
    or 1e3 with offset 0 or 60, depth 1-4."""
    n, n_f = int(rng.integers(1, 61)), int(rng.integers(1, 4))
    X = rng.uniform(0.1, 0.9, (n, n_f))
    if rng.random() < 0.5:
        X = np.round(X, 1)
    if n_f > 1 and rng.random() < 0.3:
        X[:, int(rng.integers(n_f))] = 0.5
    y = rng.choice([1e-3, 1.0, 1e3]) * rng.normal(size=n) + rng.choice([0.0, 60.0])
    return Dataset(X=X, y=y), int(rng.integers(1, 5))


def test_greedy_trees_match_loop_oracle():
    """Same rules and bitwise the same leaves as the grower that gathered a
    Dataset per node and refitted each winning side; every tree validates."""
    rng = np.random.default_rng(2027)
    for case in range(200):
        data, depth = _random_instance(rng)
        for fit, fitter in ((fit_cart_constant, loop_fit_mean),
                            (fit_cart_linear, loop_fit_line)):
            model = fit(data, depth)
            ref = loop_greedy_tree(data, depth, fitter, model.basis)
            assert model.rules == ref.rules, (case, fit.__name__)
            assert {n: l.coefficients for n, l in model.leaves.items()} == \
                {n: l.coefficients for n, l in ref.leaves.items()}, (case, fit.__name__)
            assert validate(model) == [], (case, fit.__name__)


# sha256 of serialize() for each baseline on the canonical 50-point
# uniform-grid labels at depth 2.
_PINNED_BASELINES = {
    "sparse": "4173287bd10ed00265a658655370d7bcaae7bc33bdc23408df135d71a4480ee6",
    "cart": "aa91efdf16f6ff25accf89c8dec89dcbb9281229438f1dc946042e09ec8616dd",
    "lintree": "f19c61e984d466dbb2a284a0c7a700b7886694e01b27cd4bd52608989ea12ae4",
}


def test_canonical_baselines_are_pinned():
    cfg = load_config()
    lcfg = cfg.learn_config()
    data = generate_dataset(cfg.mpc_spec(), 50, 0.1, 0.9, "uniform-grid", 0)
    models = {"sparse": fit_sparse(data, canonical_basis(), lcfg.lambda_m,
                                   (lcfg.c_lb, lcfg.c_ub)),
              "cart": fit_cart_constant(data, 2),
              "lintree": fit_cart_linear(data, 2)}
    for kind, model in models.items():
        assert hashlib.sha256(serialize(model).encode()).hexdigest() == \
            _PINNED_BASELINES[kind], kind


@pytest.mark.parametrize("fit, X, y", [
    # near-duplicate x: the left leaf's slope is about 1e9
    (fit_cart_linear, [0.5, 0.5 + 1e-9, 0.9, 0.91], [0.0, 1.0, 0.0, 0.0]),
    (fit_cart_constant, [0.2, 0.4, 0.6], [2e7, 2e7, 3e7]),
])
def test_greedy_tree_bounds_hold_its_leaves(fit, X, y):
    """Leaves beyond the nominal +-1e6 widen the coefficient bounds, so the
    tree passes its own validate; both used to fail it."""
    model = fit(Dataset(X=np.reshape(X, (-1, 1)), y=y), depth=1)
    coefs = [v for leaf in model.leaves.values() for v in leaf.coefficients]
    assert max(abs(v) for v in coefs) > 1e6
    assert validate(model) == []
    assert (model.bounds.c_lb, model.bounds.c_ub) == \
        (min(-1e6, *coefs), max(1e6, *coefs))

"""Comparison models: flat sparse regression and greedy CART-style trees.

The greedy trees deliberately mirror the conventions of off-the-shelf
trainers (SSE criterion, mean or least-squares leaves) rather than the exact
enumeration used for the symbolic tree.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisFunction, BasisSet, evaluate_basis_matrix
from .errors import ConfigError
from .learner import Dataset, candidate_thresholds
from .lp import fit_l1
from .tree import (Bounds, BranchRule, LeafExpression, TreeModel, node_depth,
                   single_leaf_model)

_WIDE = 1e6  # nominal coefficient/prediction bounds for unconstrained fits


def fit_sparse(data: Dataset, basis: BasisSet, lambda_m: float, c_bounds) -> TreeModel:
    """Single global L1 expression over the basis (exact LP optimum)."""
    Phi = evaluate_basis_matrix(basis, data.X)
    c, _ = fit_l1(Phi, data.y, 1.0 / data.n_points, lambda_m, c_bounds)
    y_lo = min(float(data.y.min()), 0.0) - _WIDE
    return single_leaf_model(c, basis, Bounds(c_bounds[0], c_bounds[1], y_lo, _WIDE))


def _constant_basis() -> BasisSet:
    return BasisSet(functions=(BasisFunction(power=0),))


def _linear_basis(n_features: int) -> BasisSet:
    funcs = [BasisFunction(power=0)]
    funcs += [BasisFunction(power=1, coordinate=f) for f in range(n_features)]
    return BasisSet(functions=tuple(funcs))


def _sse(y: np.ndarray, pred: np.ndarray) -> float:
    d = y - pred
    return float(d @ d)


def _fit_mean(X, y):
    """Constant leaf: (coeff vector, SSE)."""
    c = np.array([float(np.mean(y))])
    return c, _sse(y, np.full(len(y), c[0]))


def _fit_line(X, y):
    """Least-squares affine leaf; constant fallback below two distinct points."""
    n_f = X.shape[1]
    if len(y) >= 2 and any(len(np.unique(X[:, f])) >= 2 for f in range(n_f)):
        A = np.hstack([np.ones((len(y), 1)), X])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return coef, _sse(y, A @ coef)
    c = np.zeros(n_f + 1)
    c[0] = float(np.mean(y)) if len(y) else 0.0
    return c, _sse(y, np.full(len(y), c[0]))


def _greedy_tree(data: Dataset, depth: int, leaf_fitter, basis: BasisSet) -> TreeModel:
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    rules, leaves = {}, {}

    def grow(node: int, idx: np.ndarray):
        c, sse_here = leaf_fitter(data.X[idx], data.y[idx])
        best = None
        if node_depth(node) < depth and len(idx) >= 2:
            sub = Dataset(X=data.X[idx], y=data.y[idx])
            for f in range(data.n_features):
                for thr in candidate_thresholds(sub, f):
                    mask = data.X[idx, f] < thr
                    li, ri = idx[mask], idx[~mask]
                    _, sse_l = leaf_fitter(data.X[li], data.y[li])
                    _, sse_r = leaf_fitter(data.X[ri], data.y[ri])
                    total = sse_l + sse_r
                    if best is None or total < best[0]:
                        best = (total, f, float(thr), li, ri)
        # Split only on strict SSE reduction; degenerate splits become leaves.
        if best is not None and best[0] < sse_here - 1e-12:
            _, f, thr, li, ri = best
            rules[node] = BranchRule(feature=f, threshold=thr)
            grow(2 * node, li)
            grow(2 * node + 1, ri)
        else:
            leaves[node] = LeafExpression(coefficients=tuple(float(v) for v in c))

    grow(1, np.arange(data.n_points))
    return TreeModel(depth=depth, rules=rules, leaves=leaves, basis=basis,
                     bounds=Bounds(-_WIDE, _WIDE, -_WIDE, _WIDE))


def fit_cart_constant(data: Dataset, depth: int) -> TreeModel:
    """Greedy SSE tree with mean-valued leaves."""
    return _greedy_tree(data, depth, _fit_mean, _constant_basis())


def fit_cart_linear(data: Dataset, depth: int) -> TreeModel:
    """Greedy SSE tree with least-squares affine leaves."""
    return _greedy_tree(data, depth, _fit_line, _linear_basis(data.n_features))

"""Comparison models: flat sparse regression and greedy CART-style trees.

The greedy trees deliberately mirror the conventions of off-the-shelf
trainers (SSE criterion, mean or least-squares leaves) rather than the exact
enumeration used for the symbolic tree.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .basis import BasisFunction, BasisSet, evaluate_basis_matrix
from .learner import Dataset, LearnConfig, split_thresholds
from .lp import fit_l1
from .tree import (Bounds, BranchRule, LeafExpression, TreeModel, node_depth,
                   single_leaf_model)

_WIDE = 1e6  # nominal coefficient/prediction bounds for unconstrained fits
_EPS = float(np.finfo(np.float64).eps)


def fit_sparse(data: Dataset, basis: BasisSet, lambda_m: float, c_bounds) -> TreeModel:
    """Single global L1 expression over the basis (exact LP optimum)."""
    Phi = evaluate_basis_matrix(basis, data.X)
    c, _ = fit_l1(Phi, data.y, 1.0 / data.n_points, lambda_m, c_bounds)
    y_lo = min(float(data.y.min()), 0.0) - _WIDE
    return single_leaf_model(c, basis, Bounds(c_bounds[0], c_bounds[1], y_lo, _WIDE))


def _fit_mean(A, y, rows):
    """Constant leaf over y[rows]: (coefficient vector, SSE). A is unread."""
    y = y[rows]
    c = float(y.sum()) / len(y)  # np.mean's pairwise sum and one division
    d = y - c
    return np.array([c]), float(d @ d)


def _fit_line(A, y, rows):
    """Least-squares affine leaf over the rows [1, x] of A[rows]; the mean
    when no column takes two values (column 0, all ones, never does)."""
    A, y = A[rows], y[rows]
    if len(y) >= 2 and (A.min(0) < A.max(0)).any():
        # np.linalg.lstsq(A, y, rcond=None) after its argument checks; the
        # errstate it sets per call is set once per tree by _greedy_tree.
        coef = _umath_linalg.lstsq(A, y[:, None], _EPS * max(A.shape),
                                   signature="ddd->ddid")[0][:, 0]
        d = y - A @ coef
        return coef, float(d @ d)
    c = np.zeros(A.shape[1])
    c[0] = float(y.sum()) / len(y)
    d = y - c[0]
    return c, float(d @ d)


def _raise_lstsq(err, flag):
    raise LinAlgError("least-squares leaf is not finite: its SVD did not converge "
                      "or its values left float range")


def _greedy_tree(data: Dataset, depth: int, leaf_fitter, basis: BasisSet) -> TreeModel:
    """Grow on the rows of one [1, X] matrix: a node holds its own rows and
    labels, each threshold between two distinct values is one mask over
    them, and a split's two side fits become its children's fits."""
    LearnConfig(depth=depth).check()
    rules, leaves = {}, {}

    def grow(node: int, A: np.ndarray, y: np.ndarray, fit: tuple):
        best = None
        if node_depth(node) < depth and len(y) >= 2:
            for f in range(1, A.shape[1]):
                col = A[:, f]
                vals = np.unique(col)
                for thr in split_thresholds(vals[:-1], vals[1:]):
                    mask = col < thr
                    left = leaf_fitter(A, y, mask)
                    right = leaf_fitter(A, y, ~mask)
                    total = left[1] + right[1]
                    if best is None or total < best[0]:
                        best = (total, f, thr, mask, left, right)
        # Split only on strict SSE reduction; degenerate splits become leaves.
        if best is not None and best[0] < fit[1] - 1e-12:
            _, f, thr, mask, left, right = best
            rules[node] = BranchRule(feature=f - 1, threshold=float(thr))
            grow(2 * node, A[mask], y[mask], left)
            grow(2 * node + 1, A[~mask], y[~mask], right)
        else:
            leaves[node] = LeafExpression(coefficients=tuple(float(v) for v in fit[0]))

    A, y = np.hstack([np.ones((data.n_points, 1)), data.X]), np.ascontiguousarray(data.y)
    # lstsq's own error state, entered once: an invalid value raises, from a
    # non-converging SVD or from a leaf fit that left float range.
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        grow(1, A, y, leaf_fitter(A, y, slice(None)))
    # Nominal bounds, widened to hold every leaf so the tree passes validate.
    coefs = [v for leaf in leaves.values() for v in leaf.coefficients]
    return TreeModel(depth=depth, rules=rules, leaves=leaves, basis=basis,
                     bounds=Bounds(min(-_WIDE, *coefs), max(_WIDE, *coefs), -_WIDE, _WIDE))


def fit_cart_constant(data: Dataset, depth: int) -> TreeModel:
    """Greedy SSE tree with mean-valued leaves."""
    return _greedy_tree(data, depth, _fit_mean, BasisSet(functions=(BasisFunction(power=0),)))


def fit_cart_linear(data: Dataset, depth: int) -> TreeModel:
    """Greedy SSE tree with least-squares affine leaves."""
    funcs = [BasisFunction(power=0)]
    funcs += [BasisFunction(power=1, coordinate=f) for f in range(data.n_features)]
    return _greedy_tree(data, depth, _fit_line, BasisSet(functions=tuple(funcs)))

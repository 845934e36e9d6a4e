"""Bundled depth-2 symbolic control law for the reactor case study.

A fixed tree with three splits of the concentration domain and four symbolic
leaf expressions, useful for demos and as a regression fixture: in the
saturated region (x >= 0.69) its leaf evaluates to a numerically constant
flow of about 75 L/min even though the expression itself is not constant.
"""

from __future__ import annotations

from .basis import canonical_basis
from .tree import Bounds, BranchRule, LeafExpression, TreeModel

# Leaf coefficients indexed by basis position (canonical 19-function order).
_LEAF_COEFFS = {
    4: {1: 6.241, 10: 73.186, 11: 53.793, 15: 0.012, 16: -0.262, 17: 1.426,
        18: -72.367},
    5: {10: 50.035, 15: -1.62, 16: 20.739},
    6: {9: 80.413, 10: 1.336, 15: -0.454},
    7: {1: 71.983, 7: 1.088, 9: -0.407, 15: 0.421},
}
_SPLITS = {1: 0.64, 2: 0.56, 3: 0.69}


def reference_model() -> TreeModel:
    basis = canonical_basis()
    leaves = {}
    for n, sparse in _LEAF_COEFFS.items():
        coeffs = [sparse.get(k, 0.0) for k in range(1, basis.size + 1)]
        leaves[n] = LeafExpression(coefficients=tuple(coeffs))
    return TreeModel(
        depth=2,
        rules={n: BranchRule(feature=0, threshold=t) for n, t in _SPLITS.items()},
        leaves=leaves,
        basis=basis,
        bounds=Bounds(-100.0, 100.0, -7.5, 82.5),
    )

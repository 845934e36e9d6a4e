"""Symbolic decision tree model: routing, prediction, validation, JSON I/O.

Nodes live in a depth-capped complete binary tree indexed 1..2^(D+1)-1 with
children 2n and 2n+1; pruned positions are kept as explicit 'inactive' nodes
so ids stay aligned with the optimization variable names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .basis import BasisSet, _floats, basis_from_forms, evaluate_basis
from .errors import DimensionError, ModelInvalidError, ParseError

BRANCH = "branch"
LEAF = "leaf"
INACTIVE = "inactive"
_KINDS = (BRANCH, LEAF, INACTIVE)


class Bounds(NamedTuple):
    c_lb: float
    c_ub: float
    y_lb: float
    y_ub: float


def node_depth(n: int) -> int:
    return int(math.floor(math.log2(n)))


def ancestors(n: int) -> list:
    """Ancestors of node n from the parent up to the root."""
    out = []
    while n > 1:
        n //= 2
        out.append(n)
    return out


@dataclass(frozen=True)
class TreeTopology:
    """Node kinds over the complete tree of the given depth cap."""

    depth: int
    kinds: dict  # node id -> BRANCH | LEAF | INACTIVE

    @property
    def node_ids(self) -> range:
        return range(1, 2 ** (self.depth + 1))

    def branch_nodes(self) -> list:
        return [n for n in self.node_ids if self.kinds.get(n) == BRANCH]

    def leaf_nodes(self) -> list:
        return [n for n in self.node_ids if self.kinds.get(n) == LEAF]


@dataclass(frozen=True)
class BranchRule:
    feature: int
    threshold: float


@dataclass(frozen=True)
class LeafExpression:
    coefficients: tuple
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        array = np.array(self.coefficients, dtype=float)
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)

    def as_array(self) -> np.ndarray:
        """The coefficients as a read-only float array, built once."""
        return self._array


@dataclass(frozen=True)
class TreeModel:
    topology: TreeTopology
    rules: dict    # branch node id -> BranchRule
    leaves: dict   # leaf node id -> LeafExpression
    basis: BasisSet
    bounds: Bounds


def route(model: TreeModel, x) -> int:
    """Walk the tree from the root; ties at a threshold go right."""
    v = _floats(x)
    n = 1
    while True:
        kind = model.topology.kinds.get(n)
        if kind == LEAF:
            return n
        if kind != BRANCH:
            raise ModelInvalidError(f"routing reached non-leaf node {n} ({kind})")
        rule = model.rules[n]
        try:
            n = 2 * n if v[rule.feature] < rule.threshold else 2 * n + 1
        except IndexError:
            raise DimensionError(f"node {n} splits on feature {rule.feature}, "
                                 f"but the point has {len(v)}") from None


def predict(model: TreeModel, x) -> float:
    """Inner product of the routed leaf's coefficients with the basis values."""
    leaf = route(model, x)
    phi = evaluate_basis(model.basis, x)
    return float(model.leaves[leaf].as_array() @ phi)


def validate(model: TreeModel) -> list:
    """Check every structural invariant; returns violation strings (empty = valid)."""
    v = []
    topo = model.topology
    if topo.depth < 0:
        v.append(f"depth cap {topo.depth} is negative")
        return v
    ids = set(topo.node_ids)
    if set(topo.kinds) != ids:
        v.append("node kinds must cover exactly ids 1..2^(D+1)-1")
        return v
    for n in topo.node_ids:
        kind = topo.kinds[n]
        if kind not in _KINDS:
            v.append(f"node {n}: unknown kind {kind!r}")
            continue
        is_max_depth = node_depth(n) == topo.depth
        if kind == BRANCH and is_max_depth:
            v.append(f"node {n}: branch at maximal depth")
        if not is_max_depth:
            left, right = topo.kinds.get(2 * n), topo.kinds.get(2 * n + 1)
            if kind == BRANCH:
                if left == INACTIVE or right == INACTIVE:
                    v.append(f"node {n}: branch node with inactive child")
            else:
                if left != INACTIVE or right != INACTIVE:
                    v.append(f"node {n}: non-branch node with active child")
    if topo.kinds.get(1) == INACTIVE:
        v.append("node 1 is inactive")
    branch_set = set(topo.branch_nodes())
    leaf_set = set(topo.leaf_nodes())
    if set(model.rules) != branch_set:
        v.append("rules must be defined exactly on branch nodes")
    if set(model.leaves) != leaf_set:
        v.append("leaf expressions must be defined exactly on leaf nodes")
    for n, rule in model.rules.items():
        if not np.isfinite(rule.threshold):
            v.append(f"node {n}: non-finite threshold")
        if rule.feature < 0:
            v.append(f"node {n}: negative feature index")
    c_lb, c_ub = model.bounds.c_lb, model.bounds.c_ub
    for n, leaf in model.leaves.items():
        c = leaf.as_array()
        if c.shape != (model.basis.size,):
            v.append(f"node {n}: {c.size} coefficients for {model.basis.size} basis functions")
            continue
        if not np.all(np.isfinite(c)):
            v.append(f"node {n}: non-finite coefficient")
        if np.any(c < c_lb - 1e-12) or np.any(c > c_ub + 1e-12):
            v.append(f"node {n}: coefficient outside [{c_lb}, {c_ub}]")
    return v


def serialize(model: TreeModel) -> str:
    """Model as a JSON document; numbers carry full round-trip precision."""
    nodes = []
    for n in model.topology.node_ids:
        kind = model.topology.kinds[n]
        entry = {"id": n, "kind": kind}
        if kind == BRANCH:
            rule = model.rules[n]
            entry["feature"] = rule.feature
            entry["threshold"] = rule.threshold
        elif kind == LEAF:
            entry["coeffs"] = [float(c) for c in model.leaves[n].coefficients]
        nodes.append(entry)
    doc = {
        "depth": model.topology.depth,
        "bounds": {
            "c_lb": model.bounds.c_lb, "c_ub": model.bounds.c_ub,
            "y_lb": model.bounds.y_lb, "y_ub": model.bounds.y_ub,
        },
        "basis": model.basis.forms,
        "nodes": nodes,
    }
    return json.dumps(doc, indent=2)


def _require(doc, key, kind, where):
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} has wrong type")
    return value


def deserialize(text: str) -> TreeModel:
    """Parse a serialized model; raises ParseError with field context."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    depth = _require(doc, "depth", int, "root")
    bdoc = _require(doc, "bounds", dict, "root")
    bounds = Bounds(*(_require(bdoc, k, float, "bounds")
                      for k in ("c_lb", "c_ub", "y_lb", "y_ub")))
    basis = basis_from_forms(_require(doc, "basis", list, "root"))
    nodes = _require(doc, "nodes", list, "root")
    kinds, rules, leaves = {}, {}, {}
    for entry in nodes:
        if not isinstance(entry, dict):
            raise ParseError("nodes: entries must be objects")
        n = _require(entry, "id", int, "node")
        kind = _require(entry, "kind", str, f"node {n}")
        if kind not in _KINDS:
            raise ParseError(f"node {n}: unknown kind {kind!r}")
        if n in kinds:
            raise ParseError(f"node {n}: duplicate id")
        kinds[n] = kind
        if kind == BRANCH:
            feature = _require(entry, "feature", int, f"node {n}")
            if feature < 0:
                raise ParseError(f"node {n}: negative feature index {feature}")
            rules[n] = BranchRule(
                feature=feature,
                threshold=_require(entry, "threshold", float, f"node {n}"),
            )
        elif kind == LEAF:
            coeffs = _require(entry, "coeffs", list, f"node {n}")
            leaves[n] = LeafExpression(coefficients=tuple(float(c) for c in coeffs))
    expected = set(range(1, 2 ** (depth + 1)))
    if set(kinds) != expected:
        missing = sorted(expected - set(kinds))
        extra = sorted(set(kinds) - expected)
        raise ParseError(f"nodes: missing ids {missing}, unexpected ids {extra}")
    return TreeModel(
        topology=TreeTopology(depth=depth, kinds=kinds),
        rules=rules, leaves=leaves, basis=basis, bounds=bounds,
    )


def single_leaf_model(coefficients, basis: BasisSet, bounds: Bounds) -> TreeModel:
    """Depth-0 tree holding one expression; used by the flat-regression baseline."""
    topo = TreeTopology(depth=0, kinds={1: LEAF})
    leaf = LeafExpression(coefficients=tuple(float(c) for c in coefficients))
    return TreeModel(topology=topo, rules={}, leaves={1: leaf},
                     basis=basis, bounds=bounds)

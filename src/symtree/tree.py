"""Symbolic decision tree model: routing, prediction, validation, JSON I/O.

Nodes live in a depth-capped complete binary tree indexed 1..2^(D+1)-1 with
children 2n and 2n+1. A node is a branch if it has a rule, a leaf if it has
an expression, and inactive (pruned) otherwise; the JSON file lists inactive
nodes explicitly so ids stay aligned with the optimization variable names.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .basis import BasisSet, _floats, basis_from_forms, evaluate_basis
from .errors import DimensionError, DomainError, ModelInvalidError, ParseError

BRANCH = "branch"
LEAF = "leaf"
INACTIVE = "inactive"


class Bounds(NamedTuple):
    c_lb: float
    c_ub: float
    y_lb: float
    y_ub: float


def node_depth(n: int) -> int:
    return int(n).bit_length() - 1


def ancestors(n: int) -> list:
    """Ancestors of node n from the parent up to the root."""
    out = []
    while n > 1:
        n //= 2
        out.append(n)
    return out


def child_toward(m: int, n: int) -> int:
    """The child of ancestor m on the path from m down to node n."""
    return n >> (node_depth(n) - node_depth(m) - 1)


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
    depth: int     # depth cap D: node ids run over 1..2^(D+1)-1
    rules: dict    # branch node id -> BranchRule
    leaves: dict   # leaf node id -> LeafExpression
    basis: BasisSet
    bounds: Bounds

    def kind(self, n: int) -> str:
        """BRANCH, LEAF or INACTIVE; a node's kind is where it is stored."""
        if n in self.rules:
            return BRANCH
        if n in self.leaves:
            return LEAF
        return INACTIVE


def route(model: TreeModel, x) -> int:
    """Walk the tree from the root; ties at a threshold go right. A point with
    a coordinate that is not finite is refused: every threshold would send
    NaN right, and a leaf of constants would answer it."""
    v = _floats(x)
    # One sum checks every coordinate; finite ones can overflow it, so only a
    # failed sum is scanned. A float start keeps sum on its float path.
    if not math.isfinite(sum(v, 0.0)):
        for k, c in enumerate(v):
            if not math.isfinite(c):
                raise DomainError(f"input coordinate {k} is {c!r}, not a finite number")
    n = 1
    while (rule := model.rules.get(n)) is not None:
        try:
            n = 2 * n if v[rule.feature] < rule.threshold else 2 * n + 1
        except IndexError:
            raise DimensionError(f"node {n} splits on feature {rule.feature}, "
                                 f"but the point has {len(v)}") from None
    if n not in model.leaves:
        raise ModelInvalidError(f"routing reached node {n}, which is not a leaf")
    return n


def predict(model: TreeModel, x) -> float:
    """Inner product of the routed leaf's coefficients with the basis values."""
    leaf = route(model, x)
    phi = evaluate_basis(model.basis, x)
    return float(model.leaves[leaf].as_array().dot(phi))


def _shape_violations(depth: int, branches, leaves) -> list:
    """Where the branch and leaf ids do not form a tree of depth cap ``depth``
    rooted at node 1: a branch sits above the cap with two active children,
    and every other active node hangs under a branch."""
    v = []
    last = 2 ** (depth + 1) - 1
    active = {*branches, *leaves}
    for n in sorted(active):
        if not 1 <= n <= last:
            v.append(f"node {n}: id outside 1..{last}")
            continue
        if n in branches and n in leaves:
            v.append(f"node {n}: both a branch and a leaf")
        if n in branches:
            if node_depth(n) == depth:
                v.append(f"node {n}: branch at maximal depth")
            elif 2 * n not in active or 2 * n + 1 not in active:
                v.append(f"node {n}: branch node with inactive child")
        if n > 1 and n // 2 not in branches:
            v.append(f"node {n // 2}: non-branch node with active child {n}")
    if 1 not in active:
        v.append("node 1 is inactive")
    return v


def validate(model: TreeModel) -> list:
    """Check every structural invariant; returns violation strings (empty = valid)."""
    if model.depth < 0:
        return [f"depth cap {model.depth} is negative"]
    v = _shape_violations(model.depth, model.rules, model.leaves)
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
    for n in range(1, 2 ** (model.depth + 1)):
        kind = model.kind(n)
        entry = {"id": n, "kind": kind}
        if kind == BRANCH:
            rule = model.rules[n]
            entry["feature"] = rule.feature
            entry["threshold"] = rule.threshold
        elif kind == LEAF:
            entry["coeffs"] = [float(c) for c in model.leaves[n].coefficients]
        nodes.append(entry)
    doc = {
        "depth": model.depth,
        "bounds": {
            "c_lb": model.bounds.c_lb, "c_ub": model.bounds.c_ub,
            "y_lb": model.bounds.y_lb, "y_ub": model.bounds.y_ub,
        },
        "basis": model.basis.forms,
        "nodes": nodes,
    }
    return json.dumps(doc, indent=2)


def _is_number(value) -> bool:
    """A real number that is not a boolean (JSON true/false)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require(doc, key, kind, where):
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is float and _is_number(value):
        value = float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ParseError(f"{where}: field {key!r} has wrong type")
    return value


def _json_object(text: str, where: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: must be a JSON object")
    return doc


def deserialize(text: str) -> TreeModel:
    """Parse a serialized model; raises ParseError with field context, and on
    a node layout that is not a tree. Coefficients may sit outside the file's
    bounds (an imported solution meets them only to a solver's tolerance)."""
    doc = _json_object(text, "model")
    depth = _require(doc, "depth", int, "root")
    if depth < 0:
        raise ParseError(f"root: depth {depth} is negative")
    bdoc = _require(doc, "bounds", dict, "root")
    bounds = Bounds(*(_require(bdoc, k, float, "bounds") for k in Bounds._fields))
    # +-Infinity is a box a config may ask for; NaN would turn validate's
    # coefficient-box check off, since every comparison with it is false, and
    # a crossed box holds no value at all.
    ends = bounds._asdict()
    for k, value in ends.items():
        if math.isnan(value):
            raise ParseError(f"bounds: field {k!r} is NaN")
    for lb, ub in (("c_lb", "c_ub"), ("y_lb", "y_ub")):
        if ends[lb] > ends[ub]:
            raise ParseError(f"bounds: {lb} {ends[lb]!r} exceeds {ub} {ends[ub]!r}")
    basis = basis_from_forms(_require(doc, "basis", list, "root"))
    nodes = _require(doc, "nodes", list, "root")
    ids, rules, leaves = set(), {}, {}
    for entry in nodes:
        if not isinstance(entry, dict):
            raise ParseError("nodes: entries must be objects")
        n = _require(entry, "id", int, "node")
        kind = _require(entry, "kind", str, f"node {n}")
        if kind not in (BRANCH, LEAF, INACTIVE):
            raise ParseError(f"node {n}: unknown kind {kind!r}")
        if n in ids:
            raise ParseError(f"node {n}: duplicate id")
        ids.add(n)
        if kind == BRANCH:
            feature = _require(entry, "feature", int, f"node {n}")
            if feature < 0:
                raise ParseError(f"node {n}: negative feature index {feature}")
            threshold = _require(entry, "threshold", float, f"node {n}")
            if not math.isfinite(threshold):
                raise ParseError(f"node {n}: threshold {threshold} is not finite")
            rules[n] = BranchRule(feature=feature, threshold=threshold)
        elif kind == LEAF:
            coeffs = _require(entry, "coeffs", list, f"node {n}")
            if not all(_is_number(c) for c in coeffs):
                raise ParseError(f"node {n}: coefficients must be numbers")
            if not all(math.isfinite(c) for c in coeffs):
                raise ParseError(f"node {n}: coefficients must be finite")
            if len(coeffs) != basis.size:
                raise ParseError(f"node {n}: {len(coeffs)} coefficients for "
                                 f"{basis.size} basis functions")
            leaves[n] = LeafExpression(coefficients=tuple(float(c) for c in coeffs))
    # Count before listing: the file's depth alone must not size an id set.
    last = 2 ** (depth + 1) - 1
    extra = sorted(n for n in ids if not 1 <= n <= last)
    n_missing = last - (len(ids) - len(extra))
    if extra or n_missing:
        missing = (sorted(set(range(1, last + 1)) - ids) if last <= 2 * len(nodes) + 1
                   else f"{n_missing} of 1..{last}")
        raise ParseError(f"nodes: missing ids {missing}, unexpected ids {extra}")
    shape = _shape_violations(depth, rules, leaves)
    if shape:
        raise ParseError("nodes: " + "; ".join(shape))
    return TreeModel(depth=depth, rules=rules, leaves=leaves, basis=basis, bounds=bounds)


def single_leaf_model(coefficients, basis: BasisSet, bounds: Bounds) -> TreeModel:
    """Depth-0 tree holding one expression; used by the flat-regression baseline."""
    leaf = LeafExpression(coefficients=tuple(float(c) for c in coefficients))
    return TreeModel(depth=0, rules={}, leaves={1: leaf}, basis=basis, bounds=bounds)

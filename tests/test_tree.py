import json

import numpy as np
import pytest

from symtree.basis import basis_from_forms, canonical_basis, evaluate_basis
from symtree.errors import ParseError
from symtree.reference import reference_model
from symtree.tree import (BRANCH, INACTIVE, LEAF, Bounds, BranchRule,
                          LeafExpression, TreeModel, TreeTopology, ancestors,
                          deserialize, node_depth, predict, route, serialize,
                          single_leaf_model, validate)

from oracles import reference_basis_row


def depth1_model(thr=1.5, left=0.0, right=5.0):
    basis = basis_from_forms(["1"])
    return TreeModel(
        topology=TreeTopology(depth=1, kinds={1: BRANCH, 2: LEAF, 3: LEAF}),
        rules={1: BranchRule(feature=0, threshold=thr)},
        leaves={2: LeafExpression(coefficients=(left,)),
                3: LeafExpression(coefficients=(right,))},
        basis=basis,
        bounds=Bounds(-100.0, 100.0, -10.0, 10.0),
    )


def test_node_indexing():
    assert [node_depth(n) for n in range(1, 8)] == [0, 1, 1, 2, 2, 2, 2]
    assert ancestors(7) == [3, 1]
    assert ancestors(1) == []


def test_route_tie_goes_right():
    m = depth1_model(thr=1.5)
    assert route(m, 1.4999) == 2
    assert route(m, 1.5) == 3
    assert route(m, 1.5001) == 3


def test_route_is_total_on_grid():
    m = reference_model()
    for x in np.linspace(0.1, 0.9, 401):
        leaf = route(m, x)
        assert m.topology.kinds[leaf] == LEAF


def test_predict_is_plain_inner_product():
    # no clamping or post-processing, even outside the y bounds
    m = depth1_model(right=5.0)
    m2 = TreeModel(topology=m.topology, rules=m.rules,
                   leaves={2: LeafExpression(coefficients=(50.0,)),
                           3: LeafExpression(coefficients=(-50.0,))},
                   basis=m.basis, bounds=m.bounds)
    phi = evaluate_basis(m2.basis, 2.0)
    assert predict(m2, 2.0) == pytest.approx(float(phi[0] * -50.0), abs=0)


def test_predict_matches_oracle_bitwise():
    m = reference_model()
    xs = np.concatenate([np.random.default_rng(7).uniform(0.1, 0.9, 300),
                         [0.56, 0.64, 0.69]])
    for x in xs:
        row = reference_basis_row(m.basis.functions, x)
        assert predict(m, x) == m.leaves[route(m, x)].as_array() @ row
    # ties at a threshold go right
    assert [route(m, x) for x in (0.56, 0.64, 0.69)] == [5, 6, 7]


def test_piecewise_constancy_of_leaf_choice():
    m = reference_model()
    l1, l2 = route(m, 0.70), route(m, 0.89)
    assert l1 == l2 == 7


def test_validate_reference_model_clean():
    assert validate(reference_model()) == []


def test_validate_flags_broken_parent_child():
    basis = basis_from_forms(["1"])
    m = TreeModel(
        topology=TreeTopology(depth=1, kinds={1: LEAF, 2: BRANCH, 3: LEAF}),
        rules={2: BranchRule(feature=0, threshold=0.5)},
        leaves={1: LeafExpression(coefficients=(1.0,)),
                3: LeafExpression(coefficients=(1.0,))},
        basis=basis, bounds=Bounds(-1.0, 1.0, -1.0, 1.0),
    )
    assert any("active child" in v for v in validate(m))


def test_validate_flags_out_of_bounds_coefficient():
    m = depth1_model(left=1e6)
    assert any("outside" in v for v in validate(m))


def test_validate_flags_branch_at_max_depth():
    basis = basis_from_forms(["1"])
    m = TreeModel(
        topology=TreeTopology(depth=1, kinds={1: BRANCH, 2: BRANCH, 3: LEAF}),
        rules={1: BranchRule(feature=0, threshold=0.5),
               2: BranchRule(feature=0, threshold=0.2)},
        leaves={3: LeafExpression(coefficients=(1.0,))},
        basis=basis, bounds=Bounds(-1.0, 1.0, -1.0, 1.0),
    )
    assert any("maximal depth" in v for v in validate(m))


def test_serialize_round_trip_reference():
    m = reference_model()
    m2 = deserialize(serialize(m))
    assert m2 == m
    assert serialize(m2) == serialize(m)


def test_round_trip_preserves_threshold_bits():
    thr = 0.1 + 0.2  # not exactly representable as a short decimal
    m = depth1_model(thr=thr)
    m2 = deserialize(serialize(m))
    assert m2.rules[1].threshold == thr


def test_deserialize_missing_node_one():
    doc = json.loads(serialize(depth1_model()))
    doc["nodes"] = [e for e in doc["nodes"] if e["id"] != 1]
    with pytest.raises(ParseError, match="missing ids"):
        deserialize(json.dumps(doc))


def test_deserialize_reports_field_context():
    doc = json.loads(serialize(depth1_model()))
    del doc["nodes"][0]["threshold"]
    with pytest.raises(ParseError, match="threshold"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_bad_json():
    with pytest.raises(ParseError):
        deserialize("{not json")


def test_single_leaf_model_valid_and_constant_routing():
    basis = canonical_basis()
    m = single_leaf_model(np.zeros(basis.size), basis,
                          Bounds(-100.0, 100.0, -1.0, 1.0))
    assert validate(m) == []
    assert route(m, 0.5) == 1
    assert predict(m, 0.5) == 0.0

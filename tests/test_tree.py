import dataclasses
import functools
import hashlib
import json
import math
import re

import numpy as np
import pytest

from symtree.baselines import fit_cart_constant, fit_cart_linear, fit_sparse
from symtree.basis import basis_from_forms, canonical_basis, evaluate_basis
from symtree.config import load_config
from symtree.errors import DimensionError, DomainError, ModelInvalidError, ParseError
from symtree.learner import Dataset, LearnConfig, fit_tree
from symtree.milp import read_solution
from symtree.mpc import generate_dataset
from symtree.reference import reference_model
from symtree.tree import (BRANCH, INACTIVE, LEAF, Bounds, BranchRule,
                          LeafExpression, TreeModel, ancestors, child_toward,
                          deserialize, node_depth, predict, route, serialize,
                          single_leaf_model, validate)

from oracles import embed_model, reference_basis_row


def depth1_model(thr=1.5, left=0.0, right=5.0):
    basis = basis_from_forms(["1"])
    return TreeModel(
        depth=1,
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


def test_child_toward_walks_the_path():
    """The child of each ancestor on the way down is the node one parent
    step below it, for every node of a depth-6 tree."""
    for n in range(2, 2 ** 7):
        below = [n, *ancestors(n)]
        assert [child_toward(m, n) for m in ancestors(n)] == below[:-1]


def test_node_depth_exact_below_powers_of_two():
    # floor(log2(n)) in floats rounds 2**49 - 1 up to 49.
    assert node_depth(2 ** 49 - 1) == 48
    assert node_depth(2 ** 53 - 1) == 52
    assert node_depth(2 ** 53) == 53


def test_route_tie_goes_right():
    m = depth1_model(thr=1.5)
    assert route(m, 1.4999) == 2
    assert route(m, 1.5) == 3
    assert route(m, 1.5001) == 3


@pytest.mark.parametrize("x, k, text", [
    (float("nan"), 0, "nan"), (float("inf"), 0, "inf"), (-float("inf"), 0, "-inf"),
    ([0.5, float("nan")], 1, "nan"), (np.array([-float("inf"), float("inf")]), 0, "-inf")],
    ids=["nan", "inf", "-inf", "second-nan", "opposite-infs"])
def test_route_refuses_non_finite_coordinate(x, k, text):
    """Every threshold test is false for NaN, so it used to route right; the
    coordinate is named on entry, on either model and before any split."""
    for model in (depth1_model(), two_feature_model()):
        with pytest.raises(DomainError, match=f"^input coordinate {k} is {text}, not a finite"):
            route(model, x)


def test_route_keeps_finite_point_whose_sum_overflows():
    # 1e308 + 1e308 is inf: the failed sum is scanned, and no coordinate is.
    assert route(two_feature_model(), [1e308, 1e308]) == 3
    assert route(two_feature_model(), [-1e308, -1e308]) == 4


def test_predict_refuses_nan_on_constant_basis():
    """A model whose basis is only 1 (the CART baseline's) evaluates at NaN
    without error, since nan ** 0 == 1.0: the right leaf's value came back."""
    model = depth1_model()
    assert predict(model, 2.0) == 5.0
    with pytest.raises(DomainError, match="^input coordinate 0 is nan"):
        predict(model, float("nan"))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_predict_refuses_an_overflowing_leaf():
    """Finite coefficients whose inner product with the basis overflows give
    DomainError naming the leaf and the point, not inf."""
    m = reference_model()
    huge = TreeModel(depth=m.depth, rules=m.rules, basis=m.basis, bounds=m.bounds,
                     leaves={n: LeafExpression(coefficients=(1e308,) * len(leaf.coefficients))
                             for n, leaf in m.leaves.items()})
    with pytest.raises(DomainError, match=rf"^leaf {route(huge, 0.9)} .*inf.* x=0\.9$"):
        predict(huge, 0.9)


def test_route_is_total_on_grid():
    m = reference_model()
    for x in np.linspace(0.1, 0.9, 401):
        leaf = route(m, x)
        assert m.kind(leaf) == LEAF


def test_predict_is_plain_inner_product():
    # no clamping or post-processing, even outside the y bounds
    m = depth1_model(right=5.0)
    m2 = TreeModel(depth=m.depth, rules=m.rules,
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


def oracle_leaf(model, x):
    """Routed leaf by an independent walk: a point at or above a threshold goes right."""
    xs = np.asarray(x, dtype=float).reshape(-1)
    n = 1
    while model.kind(n) == BRANCH:
        rule = model.rules[n]
        n = 2 * n + int(xs[rule.feature] >= rule.threshold)
    return n


def oracle_prediction(model, x):
    """Coefficients read from the tuple, not the leaf's cached array."""
    coeffs = np.array(model.leaves[oracle_leaf(model, x)].coefficients, dtype=float)
    return coeffs @ reference_basis_row(model.basis.functions, x)


@pytest.mark.parametrize("kind", [float, np.float64, lambda x: [x], lambda x: np.array([x]),
                                  lambda x: np.array([[x]])],
                         ids=["float", "float64", "list", "array", "array_1x1"])
def test_predict_matches_oracle_bitwise_for_each_input_kind(kind):
    m = reference_model()
    xs = np.concatenate([np.random.default_rng(8).uniform(0.1, 0.9, 60),
                         [0.56, 0.64, 0.69]])
    for x in xs:
        assert predict(m, kind(x)) == oracle_prediction(m, x)
        assert route(m, kind(x)) == oracle_leaf(m, x)


def two_feature_model():
    """Depth 2, splitting on feature 1 at the root and on feature 0 below it."""
    basis = basis_from_forms(["1", "x", "x@1", "exp(-x)@1", "x*exp(1/x)",
                              "x^2*exp(-1/x)@1", "x^3*exp(x)"])
    rng = np.random.default_rng(9)
    return TreeModel(
        depth=2,
        rules={1: BranchRule(feature=1, threshold=0.5),
               2: BranchRule(feature=0, threshold=0.3)},
        leaves={n: LeafExpression(coefficients=tuple(rng.uniform(-5, 5, basis.size)))
                for n in (3, 4, 5)},
        basis=basis, bounds=Bounds(-5.0, 5.0, -100.0, 100.0),
    )


def test_two_feature_predict_matches_oracle_bitwise():
    m = two_feature_model()
    assert validate(m) == []
    X = np.random.default_rng(10).uniform(0.1, 0.9, (200, 2))
    X = np.vstack([X, [[0.3, 0.2], [0.2, 0.5], [0.3, 0.5], [0.2, 0.4999]]])  # ties included
    for x in X:
        assert predict(m, x) == oracle_prediction(m, x)
        assert predict(m, [list(x)]) == oracle_prediction(m, x)
    assert [route(m, x) for x in X[-4:]] == [5, 3, 3, 4]
    assert {route(m, x) for x in X} == {3, 4, 5}


def test_leaf_array_is_built_once_and_read_only():
    leaf = LeafExpression(coefficients=(1.0, -2.0, 0.5))
    a = leaf.as_array()
    assert a is leaf.as_array()
    assert a.dtype == float and np.array_equal(a, [1.0, -2.0, 0.5])
    with pytest.raises(ValueError):
        a[0] = 3.0
    twin = LeafExpression(coefficients=(1.0, -2.0, 0.5))
    assert twin == leaf and hash(twin) == hash(leaf)
    assert twin != LeafExpression(coefficients=(1.0, -2.0, 0.25))
    assert repr(leaf) == "LeafExpression(coefficients=(1.0, -2.0, 0.5))"


def test_array_coefficients_are_copied():
    coeffs = np.array([1.0, 2.0])
    leaf = LeafExpression(coefficients=coeffs)
    coeffs[0] = 7.0
    assert coeffs.flags.writeable
    assert np.array_equal(leaf.as_array(), [1.0, 2.0])


def narrow_point_model(feature):
    """Valid two-feature model; predict gets a one-coordinate point."""
    basis = basis_from_forms(["1", "x@1"])
    return TreeModel(
        depth=1,
        rules={1: BranchRule(feature=feature, threshold=0.5)},
        leaves={2: LeafExpression(coefficients=(1.0, 2.0)),
                3: LeafExpression(coefficients=(-1.0, 0.5))},
        basis=basis, bounds=Bounds(-5.0, 5.0, -10.0, 10.0),
    )


def test_point_with_too_few_coordinates_raises_dimension_error():
    by_rule, by_basis = narrow_point_model(1), narrow_point_model(0)
    assert validate(by_rule) == validate(by_basis) == []
    for x in (0.3, np.float64(0.3), [0.3], np.array([[0.3]])):
        with pytest.raises(DimensionError, match="node 1 splits on feature 1"):
            predict(by_rule, x)
        with pytest.raises(DimensionError, match=r"'x@1' reads coordinate 1"):
            predict(by_basis, x)
    assert predict(by_rule, [0.3, 0.6]) == -1.0 + 0.5 * 0.6
    assert predict(by_basis, [0.3, 0.6]) == 1.0 + 2.0 * 0.6


def test_piecewise_constancy_of_leaf_choice():
    m = reference_model()
    l1, l2 = route(m, 0.70), route(m, 0.89)
    assert l1 == l2 == 7


def test_validate_reference_model_clean():
    assert validate(reference_model()) == []


def test_validate_flags_broken_parent_child():
    basis = basis_from_forms(["1"])
    m = TreeModel(
        depth=1,
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
        depth=1,
        rules={1: BranchRule(feature=0, threshold=0.5),
               2: BranchRule(feature=0, threshold=0.2)},
        leaves={3: LeafExpression(coefficients=(1.0,))},
        basis=basis, bounds=Bounds(-1.0, 1.0, -1.0, 1.0),
    )
    assert any("maximal depth" in v for v in validate(m))


def test_kind_reads_rules_and_leaves():
    m = two_feature_model()
    assert [m.kind(n) for n in range(1, 8)] == [BRANCH, BRANCH, LEAF, LEAF, LEAF,
                                               INACTIVE, INACTIVE]
    assert m.kind(8) == INACTIVE


def test_route_to_missing_node_raises_model_invalid():
    m = depth1_model()
    pruned = TreeModel(depth=1, rules=m.rules, leaves={2: m.leaves[2]},
                       basis=m.basis, bounds=m.bounds)
    assert route(pruned, 1.0) == 2
    with pytest.raises(ModelInvalidError, match="node 3"):
        route(pruned, 2.0)
    assert any("inactive child" in v for v in validate(pruned))


def test_validate_flags_node_both_branch_and_leaf():
    m = depth1_model()
    both = TreeModel(depth=1, rules=m.rules,
                     leaves={**m.leaves, 1: LeafExpression(coefficients=(0.0,))},
                     basis=m.basis, bounds=m.bounds)
    assert "node 1: both a branch and a leaf" in validate(both)


def test_validate_flags_id_outside_range():
    m = depth1_model()
    for n in (0, 4):
        stray = TreeModel(depth=1, rules=m.rules,
                          leaves={**m.leaves, n: LeafExpression(coefficients=(0.0,))},
                          basis=m.basis, bounds=m.bounds)
        assert f"node {n}: id outside 1..3" in validate(stray)


def test_validate_flags_inactive_root():
    m = depth1_model()
    empty = TreeModel(depth=1, rules={}, leaves={}, basis=m.basis, bounds=m.bounds)
    assert validate(empty) == ["node 1 is inactive"]


@pytest.mark.parametrize("change, message", [
    ({"bounds": Bounds(math.nan, math.nan, -1.0, 1.0),
      "leaves": {2: LeafExpression((0.0,)), 3: LeafExpression((1e300,))}},
     "bounds: field 'c_lb' is NaN"),
    ({"bounds": Bounds(5.0, -5.0, -10.0, 10.0)}, "bounds: c_lb 5.0 exceeds c_ub -5.0"),
    ({"depth": 17}, "depth 17 exceeds the maximum 16")],
    ids=["nan-box", "crossed-box", "depth-17"])
def test_validate_reports_what_deserialize_refuses(change, message):
    """validate passed each model, whose own file deserialize refuses: a NaN
    turned the box check off, a crossed box showed only as coefficients
    outside it, and the depth cap was checked only for a negative value."""
    model = dataclasses.replace(depth1_model(), **change)
    assert message in validate(model)
    with pytest.raises(ParseError, match=re.escape(message)):
        deserialize(serialize(model))


@pytest.mark.parametrize("feature", [0.0, True], ids=["float", "bool"])
def test_validate_flags_a_feature_that_is_not_an_integer(feature):
    """A float feature passed validate, and deserialize refused the file that
    serialize wrote for it; a bool is no feature index either."""
    model = reference_model()
    rules = {**model.rules, 1: dataclasses.replace(model.rules[1], feature=feature)}
    model = dataclasses.replace(model, rules=rules)
    assert validate(model) == [f"node 1: feature index {feature!r} is not an integer"]


def test_numpy_integer_feature_saves_as_int():
    # json.dumps raised "Object of type int64 is not JSON serializable".
    model = reference_model()
    rules = {n: dataclasses.replace(r, feature=np.int64(r.feature))
             for n, r in model.rules.items()}
    numpy_model = dataclasses.replace(model, rules=rules)
    assert validate(numpy_model) == []
    assert serialize(numpy_model) == serialize(model)


@functools.cache
def _written_models() -> dict:
    """A model of every kind the commands write, on the canonical N=50 labels:
    train's, the three baselines, the reference tree and an imported one."""
    cfg = load_config()
    lcfg, basis = cfg.learn_config(), canonical_basis()
    data = generate_dataset(cfg.mpc_spec(), 50, 0.1, 0.9, "uniform-grid", 0)
    tree = fit_tree(data, basis, lcfg).model
    return {"train": tree,
            "sparse": fit_sparse(data, basis, lcfg.lambda_m, (lcfg.c_lb, lcfg.c_ub)),
            "cart": fit_cart_constant(data, 2), "lintree": fit_cart_linear(data, 2),
            "reference": reference_model(),
            "import-sol": read_solution(data, basis, lcfg,
                                        embed_model(data, basis, lcfg, tree)).model}


@pytest.mark.parametrize("kind", ["train", "sparse", "cart", "lintree", "reference",
                                  "import-sol"])
def test_valid_model_loads_and_saves_the_same_bytes(kind):
    model = _written_models()[kind]
    assert validate(model) == []
    text = serialize(model)
    assert serialize(deserialize(text)) == text


def test_numpy_integer_depth_saves_as_int():
    """A numpy-integer depth fits; saving its model raised "Object of type
    int64 is not JSON serializable"."""
    data = Dataset(X=np.linspace(0.2, 1.0, 6)[:, None], y=[0.0, 0.1, 0.3, 1.0, 1.1, 1.3])
    basis = basis_from_forms(["1", "x"])
    assert serialize(fit_tree(data, basis, LearnConfig(depth=np.int64(2))).model) == \
        serialize(fit_tree(data, basis, LearnConfig(depth=2)).model)
    assert serialize(fit_cart_constant(data, np.int64(2))) == \
        serialize(fit_cart_constant(data, 2))


def test_reference_model_json_is_pinned():
    text = serialize(reference_model())
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "f2869dd9232081d7ef517e6e5801331b42123bb85a91c12914467d68d83597a8"


def test_serialize_pruned_depth2_nodes_literal():
    basis = basis_from_forms(["1", "x"])
    m = TreeModel(
        depth=2,
        rules={1: BranchRule(feature=0, threshold=0.5),
               2: BranchRule(feature=0, threshold=0.25)},
        leaves={3: LeafExpression(coefficients=(1.0, -2.0)),
                4: LeafExpression(coefficients=(0.5, 0.0)),
                5: LeafExpression(coefficients=(-1.5, 3.0))},
        basis=basis, bounds=Bounds(-5.0, 5.0, -10.0, 10.0),
    )
    doc = json.loads(serialize(m))
    assert doc["depth"] == 2
    assert doc["nodes"] == [
        {"id": 1, "kind": "branch", "feature": 0, "threshold": 0.5},
        {"id": 2, "kind": "branch", "feature": 0, "threshold": 0.25},
        {"id": 3, "kind": "leaf", "coeffs": [1.0, -2.0]},
        {"id": 4, "kind": "leaf", "coeffs": [0.5, 0.0]},
        {"id": 5, "kind": "leaf", "coeffs": [-1.5, 3.0]},
        {"id": 6, "kind": "inactive"},
        {"id": 7, "kind": "inactive"},
    ]
    assert deserialize(serialize(m)) == m


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


@pytest.mark.parametrize("depth, match", [(16, r"missing ids \d+ of 1\.\.\d+"),
                                          (60, "depth 60 exceeds the maximum 16"),
                                          (20_000, "depth 20000 exceeds the maximum 16"),
                                          (-1, "depth -1 is negative")],
                         ids=["depth-16", "depth-60", "depth-20000", "depth-negative"])
def test_deserialize_rejects_depth_not_matching_nodes(depth, match):
    # Depth 16 must be refused from the node count, without listing 131 071
    # ids; a deeper cap before 2^(depth + 1) is computed, which from depth
    # 14 284 on has too many digits for int-to-str conversion.
    doc = json.loads(serialize(depth1_model()))
    doc["depth"] = depth
    with pytest.raises(ParseError, match=match):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("coeffs, match", [
    (["a"], "node 2: coefficients must be numbers"),
    ([True], "node 2: coefficients must be numbers"),
    ([None], "node 2: coefficients must be numbers"),
    ([1.0, 2.0], "node 2: 2 coefficients for 1 basis functions"),
    ([], "node 2: 0 coefficients for 1 basis functions"),
    ([float("inf")], "node 2: coefficients must be finite"),
    ([float("nan")], "node 2: coefficients must be finite")],
    ids=["string", "bool", "null", "too-many", "empty", "inf", "nan"])
def test_deserialize_rejects_bad_coefficients(coeffs, match):
    doc = json.loads(serialize(depth1_model()))
    doc["nodes"][1]["coeffs"] = coeffs
    with pytest.raises(ParseError, match=match):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("threshold", [float("nan"), float("-inf")])
def test_deserialize_rejects_non_finite_threshold(threshold):
    # Python's json reads NaN and Infinity; a NaN threshold routes every point right.
    doc = json.loads(serialize(depth1_model()))
    doc["nodes"][0]["threshold"] = threshold
    with pytest.raises(ParseError, match=f"node 1: threshold {threshold} is not finite"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_boolean_depth_and_threshold():
    doc = json.loads(serialize(depth1_model()))
    doc["depth"] = True
    with pytest.raises(ParseError, match="'depth' has wrong type"):
        deserialize(json.dumps(doc))
    doc = json.loads(serialize(depth1_model()))
    doc["nodes"][0]["threshold"] = False
    with pytest.raises(ParseError, match="node 1: field 'threshold' has wrong type"):
        deserialize(json.dumps(doc))


def test_deserialize_reports_field_context():
    doc = json.loads(serialize(depth1_model()))
    del doc["nodes"][0]["threshold"]
    with pytest.raises(ParseError, match="threshold"):
        deserialize(json.dumps(doc))


def test_deserialize_rejects_negative_feature():
    # A negative index would make route read the point from its end.
    doc = json.loads(serialize(reference_model()))
    doc["nodes"][0]["feature"] = -1
    with pytest.raises(ParseError, match="node 1: negative feature index -1"):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("node, entry, match", [
    (2, {"kind": "leaf", "coeffs": [0.0] * 19}, "node 2: non-branch node with active child 4"),
    (5, {"kind": "inactive"}, "node 2: branch node with inactive child"),
    (4, {"kind": "branch", "feature": 0, "threshold": 0.3}, "node 4: branch at maximal depth"),
    (1, {"kind": "inactive"}, "node 1 is inactive")],
    ids=["leaf-over-leaves", "branch-missing-child", "branch-at-depth-cap", "inactive-root"])
def test_deserialize_rejects_broken_tree_shape(node, entry, match):
    """A node layout that is not a tree is refused on load with the message
    validate gives; the leaf over leaves used to load and predict 7.0 at 0.3."""
    doc = json.loads(serialize(reference_model()))
    doc["nodes"][node - 1] = {"id": node, **entry}
    with pytest.raises(ParseError, match=match):
        deserialize(json.dumps(doc))


def test_deserialize_keeps_coefficients_outside_bounds():
    # An imported solution meets the coefficient box only to the solver's
    # tolerance, so a load does not enforce it; validate still reports it.
    doc = json.loads(serialize(depth1_model()))
    doc["nodes"][1]["coeffs"] = [100.0 + 1e-9]
    model = deserialize(json.dumps(doc))
    assert predict(model, 1.0) == 100.0 + 1e-9
    assert any("outside" in v for v in validate(model))


@pytest.mark.parametrize("key", ["c_lb", "c_ub", "y_lb", "y_ub"])
def test_deserialize_rejects_nan_bound(key):
    # Every comparison with NaN is false, so validate's box check would pass
    # any coefficient.
    doc = json.loads(serialize(depth1_model()))
    doc["bounds"][key] = float("nan")
    with pytest.raises(ParseError, match=f"bounds: field '{key}' is NaN"):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("lb, ub", [("c_lb", "c_ub"), ("y_lb", "y_ub")])
def test_deserialize_rejects_crossed_bounds(lb, ub):
    # No coefficient or prediction lies in a box whose lower end passes its
    # upper one; equal ends are a box of one value and load.
    doc = json.loads(serialize(depth1_model()))
    doc["bounds"].update({lb: 5.0, ub: -5.0})
    with pytest.raises(ParseError, match=f"bounds: {lb} 5.0 exceeds {ub} -5.0"):
        deserialize(json.dumps(doc))
    doc["bounds"].update({lb: -5.0, ub: -5.0})
    assert getattr(deserialize(json.dumps(doc)).bounds, lb) == -5.0


def test_deserialize_keeps_infinite_bounds():
    # train accepts c_bounds of [-Infinity, Infinity] from a config, so a
    # trained model may carry them.
    doc = json.loads(serialize(depth1_model()))
    doc["bounds"].update(c_lb=-float("inf"), c_ub=float("inf"))
    model = deserialize(json.dumps(doc))
    assert model.bounds.c_lb == -float("inf") and model.bounds.c_ub == float("inf")
    assert validate(model) == []


@pytest.mark.parametrize("form", [1, None, ["x"]])
def test_deserialize_rejects_non_string_basis_form(form):
    doc = json.loads(serialize(depth1_model()))
    doc["basis"] = [form]
    with pytest.raises(ParseError, match=re.escape(f"basis form {form!r} is not a string")):
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

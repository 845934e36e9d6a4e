import functools
import hashlib

import numpy as np
import pytest

from oracles import brute_force_depth1, candidate_thresholds, exhaustive_fit_tree
from symtree import learner, lp
from symtree.basis import basis_from_forms, canonical_basis, evaluate_basis_matrix
from symtree.config import load_config
from symtree.errors import ConfigError, ParseError
from symtree.learner import (Dataset, LearnConfig, default_y_bounds, fit_tree,
                             mean_abs_error, objective_of)
from symtree.milp import build_milp
from symtree.mpc import generate_dataset
from symtree.reference import reference_model
from symtree.tree import (Bounds, BranchRule, LeafExpression, TreeModel, predict,
                          route, serialize, validate)


def random_instance(rng):
    n = int(rng.integers(3, 9))
    forms = [["1"], ["1", "x"]][int(rng.integers(0, 2))]
    X = np.round(rng.uniform(0.2, 2.0, (n, 1)), 2)
    y = np.round(rng.uniform(-2.0, 2.0, n), 2)
    cfg = LearnConfig(depth=1,
                      lambda_c=float(rng.choice([0.0, 1e-2])),
                      lambda_m=float(rng.choice([0.0, 1e-2, 0.2])),
                      c_lb=-10.0, c_ub=10.0)
    return Dataset(X=X, y=y), basis_from_forms(forms), cfg


def test_fit_tree_matches_brute_force():
    rng = np.random.default_rng(23)
    for trial in range(20):
        data, basis, cfg = random_instance(rng)
        rep = fit_tree(data, basis, cfg)
        ref = brute_force_depth1(data, basis, cfg)
        assert rep.objective == pytest.approx(ref, abs=1e-8), f"trial {trial}"


def _oracle_case(name):
    rng = np.random.default_rng(59)
    if name == "1d-duplicates":
        x = np.round(rng.uniform(0.2, 1.0, 9), 2)
        x[3] = x[1]                 # duplicate
        x[5] = x[2] + 1e-12         # near-duplicate
        return (Dataset(X=x.reshape(-1, 1), y=rng.uniform(-1, 1, 9)),
                basis_from_forms(["1", "x"]), LearnConfig(lambda_c=1e-2, lambda_m=1e-2))
    if name == "2-features":
        X = np.round(rng.uniform(0.2, 1.0, (7, 2)), 2)
        y = np.where(X[:, 0] > 0.6, 1.0, -1.0) + X[:, 1] + rng.normal(0, 0.1, 7)
        return (Dataset(X=X, y=y), basis_from_forms(["1", "x@1"]),
                LearnConfig(lambda_c=1e-2, lambda_m=1e-2))
    if name == "lambda_c-0":
        x = rng.uniform(0.2, 1.0, 8)
        return (Dataset(X=x.reshape(-1, 1), y=np.sin(8 * x)),
                basis_from_forms(["1"]), LearnConfig(lambda_c=0.0, lambda_m=1e-2))
    # A nearly constant label: one leaf pays the large coefficient penalty
    # once, so the root's best split sends every point one way, and the large
    # branch cost keeps the children leaves.
    x = rng.uniform(0.2, 1.0, 8)
    return (Dataset(X=x.reshape(-1, 1), y=1.0 + rng.normal(0, 0.01, 8)),
            basis_from_forms(["1"]), LearnConfig(lambda_c=1.0, lambda_m=0.5))


# Leaf LPs the search solves on each _oracle_case, by depth 1, 2, 3. The
# counts are deterministic, so a weaker bound or a changed split order fails
# here rather than only showing as a slower benchmark. A tighter bound need
# not solve fewer LPs on every instance: at lambda_c 0, depth 3 solves 20
# where a weaker bound solved 19, because a smaller budget can skip a child's
# leaf LP and the child then explores its splits instead.
_ORACLE_CASE_LPS = {"1d-duplicates": (10, 19, 19), "2-features": (12, 21, 23),
                    "lambda_c-0": (15, 20, 20), "empty-side": (15, 15, 15)}


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("name", ["1d-duplicates", "2-features", "lambda_c-0", "empty-side"])
def test_fit_tree_matches_exhaustive_oracle(name, depth):
    data, basis, cfg = _oracle_case(name)
    cfg.depth = depth
    rep = fit_tree(data, basis, cfg)
    assert rep.subproblems_solved == _ORACLE_CASE_LPS[name][depth - 1]
    cost, n_branch, rules, kinds = exhaustive_fit_tree(data, basis, cfg)
    model = rep.model
    assert {n: (r.feature, r.threshold) for n, r in model.rules.items()} == rules
    assert {n: model.kind(n) for n in (*model.rules, *model.leaves)} == kinds
    assert len(model.rules) == n_branch
    assert rep.objective == pytest.approx(cost, abs=1e-9)
    if name == "empty-side":
        assert not data.X[:, 0].min() < rules[1][1] <= data.X[:, 0].max()


def _memo_case(rng, trial):
    """A depth-3 instance whose search meets the same (set, depth) from many
    parents: 1-D data with a duplicate and a near-duplicate x on even trials,
    two features on a coarse grid on odd ones. Each (lambda_c, lambda_m) pair
    comes up once with each kind of data."""
    lambda_c, lambda_m = [(c, m) for c in (0.0, 1e-2, 1.0) for m in (0.0, 1e-2)][trial // 2]
    cfg = LearnConfig(depth=3, lambda_c=lambda_c, lambda_m=lambda_m, c_lb=-10.0, c_ub=10.0)
    if trial % 2 == 0:
        x = np.round(rng.uniform(0.2, 1.0, 8), 2)
        x[4] = x[1]
        x[6] = x[2] + 1e-12
        y = np.round(rng.uniform(-1.0, 1.0, 8), 2)
        return Dataset(X=x.reshape(-1, 1), y=y), basis_from_forms(["1", "x"]), cfg
    X = np.round(rng.uniform(0.2, 1.0, (6, 2)), 1)
    y = np.where(X[:, 0] > 0.6, 1.0, -1.0) + X[:, 1] + rng.normal(0, 0.1, 6)
    return Dataset(X=X, y=y), basis_from_forms(["1", "x@1"]), cfg


def test_memoised_subtrees_match_exhaustive_oracle():
    """A subtree reused from the (set, depth) memo is relocated under its new
    parent and wins ties as a fresh search would: equal rules, kinds and
    branch counts to full enumeration, over every lambda_c regime."""
    rng = np.random.default_rng(67)
    for trial in range(12):
        data, basis, cfg = _memo_case(rng, trial)
        rep = fit_tree(data, basis, cfg)
        cost, n_branch, rules, kinds = exhaustive_fit_tree(data, basis, cfg)
        model = rep.model
        where = f"trial {trial}, lambda_c {cfg.lambda_c}, lambda_m {cfg.lambda_m}"
        assert {n: (r.feature, r.threshold) for n, r in model.rules.items()} == rules, where
        assert {n: model.kind(n) for n in (*model.rules, *model.leaves)} == kinds, where
        assert len(model.rules) == n_branch, where
        assert rep.objective == pytest.approx(cost, abs=1e-9), where


def _kept_model_case(name):
    if name == "1d-step":
        # A +-1 step on one feature. At HiGHS's default 1e-7 tolerances some
        # warm re-solves of the kept model ended with status Solve error here;
        # at lp.FEASIBILITY_TOL none does.
        rng = np.random.default_rng(0)
        x = rng.uniform(-2.0, 1.5, 20)
        y = np.where(x > -0.25, 1.0, -1.0) + x + rng.normal(0, 0.1, 20)
        return Dataset(X=x.reshape(-1, 1), y=y), basis_from_forms(["1", "x"])
    rng = np.random.default_rng(61)
    if name == "50-points":
        x = np.sort(rng.uniform(0.1, 0.9, 50))
        y = np.clip(54.0 + 160.0 * (0.6 - x), 0.0, 75.0) + rng.normal(0, 0.5, 50)
        return Dataset(X=x.reshape(-1, 1), y=y), canonical_basis()
    X = rng.uniform(0.2, 1.0, (20, 2))
    y = np.where(X[:, 0] > 0.6, 1.0, -1.0) + X[:, 1] + rng.normal(0, 0.1, 20)
    return Dataset(X=X, y=y), basis_from_forms(["1", "x", "x@1"])


@pytest.mark.parametrize("name", ["50-points", "2-features", "1d-step"])
def test_kept_leaf_model_matches_cold_fit(monkeypatch, name):
    """Every leaf loss the search takes from the kept model, which frees and
    restores rows as the sets change, equals a cold fit_l1 on that set."""
    data, basis = _kept_model_case(name)
    cfg = LearnConfig(depth=2, lambda_c=1e-2, lambda_m=1e-4, c_lb=-1000.0, c_ub=1000.0)
    seen = []

    class Recording(lp.LeafLosses):
        def loss(self, mask):
            value = super().loss(mask)
            seen.append((mask.copy(), value))
            return value

    monkeypatch.setattr(learner, "LeafLosses", Recording)
    rep = fit_tree(data, basis, cfg)
    assert len(seen) == rep.subproblems_solved > 20
    Phi = evaluate_basis_matrix(basis, data.X)
    yb = cfg.resolved_y_bounds(data.y)
    for mask, value in seen:
        _, cold = lp.fit_l1(Phi[mask], data.y[mask], 1.0 / data.n_points, cfg.lambda_m,
                            (cfg.c_lb, cfg.c_ub), y_bounds=yb)
        assert value == pytest.approx(cold, abs=1e-9)


def test_pruned_search_solves_fewer_lps():
    # The count is deterministic, so losing or weakening the bounds fails
    # here (full enumeration solves one LP per interval: N(N+1)/2 = 325)
    # rather than only showing as a slower benchmark.
    x = np.linspace(0.1, 0.9, 25)
    data = Dataset(X=x.reshape(-1, 1), y=60 + 15 * np.sin(6 * x))
    rep = fit_tree(data, basis_from_forms(["1", "x"]), LearnConfig(depth=2, lambda_m=1e-4))
    assert rep.subproblems_solved == 100


@pytest.mark.parametrize("depth", [2, 3])
def test_set_bounds_are_the_subset_bounds(monkeypatch, depth):
    """Two features with repeated coordinates: box containment stands in for
    mask inclusion, so after the fit every registered set's bound is the
    largest solved loss over the solved sets whose masks lie inside its mask,
    and no two ids share a mask."""
    rng = np.random.default_rng(5)
    X = np.round(rng.uniform(0.2, 1.0, (16, 2)), 1)
    y = np.where(X[:, 0] > 0.6, 1.0, -1.0) + X[:, 1] + rng.normal(0, 0.1, 16)
    registries = []

    class Kept(learner._PointSets):
        def __init__(self, *args):
            super().__init__(*args)
            registries.append(self)

    monkeypatch.setattr(learner, "_PointSets", Kept)
    rep = fit_tree(Dataset(X=X, y=y), basis_from_forms(["1", "x@1"]), LearnConfig(depth=depth))
    lps = {2: 45, 3: 65}[depth]
    assert rep.subproblems_solved == lps
    sets, = registries
    masks = [sets.mask(s) for s in range(len(sets.masks))]
    assert len({mask.tobytes() for mask in masks}) == len(masks)
    solved = [(masks[s], loss) for s, loss in enumerate(sets.losses)
              if loss is not None and masks[s].any()]
    assert len(solved) == lps
    for s, mask in enumerate(masks):
        inside = [loss for sub, loss in solved if not (sub & ~mask).any()]
        assert sets.bound(s) == max([0.0] + inside)


@functools.cache
def _labels(n, mode):
    """MPC labels of the default run configuration on [0.1, 0.9], seed 0."""
    return generate_dataset(load_config().mpc_spec(), n, 0.1, 0.9, mode, 0)


# sha256 of the serialized canonical model and the leaf LPs its search solves,
# by (number of uniform-grid states, depth): the search's bounds may change
# what it solves, never what it returns.
_CANONICAL_MODELS = {
    (50, 2): ("8d6ec6bd296884a394b5b54116d39e5c11122f520c26912ba530fc603e8f8367", 205),
    (50, 3): ("6579fa8c3ac415317bfd500471efee49ed1d0c4950845095bd0e21223f9016e5", 217),
    # At depth 4 the (set, depth) memo matters: 582 LPs without it.
    (50, 4): ("3398511e01923cfa605d04c80357d9cc316ed1915b21bb8ac981cad9c8e66264", 330),
    (200, 2): ("eb70640d8c1cd9ca873816141193ba10ecde0088cae5b405cbd1f490efa5e0a4", 1927),
}


# The N = 50 cases keep the ids they had when depth was the only parameter.
@pytest.mark.parametrize("n, depth", _CANONICAL_MODELS,
                         ids=[str(d) if n == 50 else f"n{n}-{d}" for n, d in _CANONICAL_MODELS])
def test_canonical_models_are_pinned(n, depth):
    cfg = load_config().learn_config()
    cfg.depth = depth
    rep = fit_tree(_labels(n, "uniform-grid"), canonical_basis(), cfg)
    sha, lps = _CANONICAL_MODELS[n, depth]
    assert hashlib.sha256(serialize(rep.model).encode()).hexdigest() == sha
    assert rep.subproblems_solved == lps


def test_search_keeps_optimum_where_kept_leaf_loss_is_high():
    """With lambda_m 0 and HiGHS's default tolerances, the kept leaf model
    returned 0.38005 on the set of the 11 largest states, where the optimum is
    0.36662. A loss above the optimum raises every bound over that set, so it
    could prune the best tree; here the search returns the enumerated optimum,
    a single split, at its objective, at depths 2 and 3 alike."""
    data = _labels(25, "seeded-random")
    cfg = load_config().learn_config()
    cfg.lambda_m = 0.0
    cfg.depth = 3
    cost, n_branch, rules, kinds = exhaustive_fit_tree(data, canonical_basis(), cfg)
    assert n_branch == 1   # also the optimum over the depth-2 trees, which it is one of
    for depth in (2, 3):
        cfg.depth = depth
        rep = fit_tree(data, canonical_basis(), cfg)
        assert {n: (r.feature, r.threshold) for n, r in rep.model.rules.items()} == rules
        assert {n: rep.model.kind(n) for n in (*rep.model.rules, *rep.model.leaves)} == kinds
        assert rep.objective == pytest.approx(cost, abs=1e-9)


def test_step_function_recovered_exactly():
    data = Dataset(X=[[0.0], [1.0], [2.0], [3.0]], y=[0.0, 0.0, 5.0, 5.0])
    cfg = LearnConfig(depth=1, lambda_c=0.0, lambda_m=0.0)
    rep = fit_tree(data, basis_from_forms(["1"]), cfg)
    assert rep.objective == pytest.approx(0.0, abs=1e-10)
    assert rep.model.rules[1].threshold == pytest.approx(1.5)
    assert predict(rep.model, 0.5) == pytest.approx(0.0, abs=1e-9)
    assert predict(rep.model, 2.5) == pytest.approx(5.0, abs=1e-9)


def test_adjacent_floats_are_split_apart():
    # (1.0 + nextafter(1.0, 2)) / 2 rounds onto 1.0, so that midpoint would
    # send both points right; the threshold is the upper value instead.
    hi = float(np.nextafter(1.0, 2.0))
    data = Dataset(X=[[1.0], [hi]], y=[0.0, 1.0])
    basis = basis_from_forms(["1"])
    cfg = LearnConfig(depth=1, lambda_c=0.0)
    split = TreeModel(depth=1, rules={1: BranchRule(feature=0, threshold=hi)},
                      leaves={2: LeafExpression(coefficients=(0.0,)),
                              3: LeafExpression(coefficients=(1.0,))},
                      basis=basis, bounds=Bounds(-100, 100, -1, 2))
    expected, _ = objective_of(split, data, cfg)
    assert expected == pytest.approx(0.01)
    rep = fit_tree(data, basis, cfg)
    assert rep.model.rules == split.rules
    assert [route(rep.model, x) for x in data.X] == [2, 3]
    assert rep.objective == pytest.approx(expected, abs=1e-9)


def test_line_is_in_model_class():
    data = Dataset(X=[[0.0], [1.0], [2.0], [3.0]], y=[0.0, 1.0, 2.0, 3.0])
    cfg = LearnConfig(depth=1, lambda_c=0.0, lambda_m=0.0)
    rep = fit_tree(data, basis_from_forms(["1", "x"]), cfg)
    assert rep.objective == pytest.approx(0.0, abs=1e-9)


def test_report_self_consistency():
    rng = np.random.default_rng(29)
    data = Dataset(X=rng.uniform(0.1, 0.9, (10, 1)), y=rng.uniform(0, 1, 10))
    cfg = LearnConfig(depth=2)
    rep = fit_tree(data, basis_from_forms(["1", "x"]), cfg)
    objective, _ = objective_of(rep.model, data, cfg)
    assert objective == pytest.approx(rep.objective, abs=1e-10)
    assert validate(rep.model) == []


def test_objective_counts_branch_nodes():
    basis = basis_from_forms(["1"])
    model = TreeModel(
        depth=1,
        rules={1: BranchRule(feature=0, threshold=0.5)},
        leaves={2: LeafExpression(coefficients=(0.0,)),
                3: LeafExpression(coefficients=(0.0,))},
        basis=basis, bounds=Bounds(-1, 1, -1, 1),
    )
    data = Dataset(X=[[0.0], [1.0]], y=[0.0, 0.0])
    cfg = LearnConfig(depth=1, lambda_c=1.0, lambda_m=0.0)
    objective, (l_acc, l_c, l_m) = objective_of(model, data, cfg)
    assert objective == pytest.approx(1.0)
    assert (l_acc, l_c, l_m) == (0.0, 1.0, 0.0)


def test_random_trees_never_beat_optimum():
    rng = np.random.default_rng(31)
    data = Dataset(X=rng.uniform(0.1, 0.9, (8, 1)), y=rng.uniform(-1, 1, 8))
    basis = basis_from_forms(["1"])
    cfg = LearnConfig(depth=1, lambda_c=1e-2, lambda_m=1e-2)
    opt = fit_tree(data, basis, cfg).objective
    for _ in range(50):
        thr = float(rng.uniform(0.0, 1.0))
        c2, c3 = rng.uniform(-1, 1, 2)
        model = TreeModel(
            depth=1,
            rules={1: BranchRule(feature=0, threshold=thr)},
            leaves={2: LeafExpression(coefficients=(float(c2),)),
                    3: LeafExpression(coefficients=(float(c3),))},
            basis=basis, bounds=Bounds(-100, 100, -100, 100),
        )
        objective, _ = objective_of(model, data, cfg)
        assert objective >= opt - 1e-8


def test_deeper_trees_never_worse():
    rng = np.random.default_rng(37)
    data = Dataset(X=rng.uniform(0.1, 0.9, (9, 1)),
                   y=np.sin(6 * rng.uniform(0.1, 0.9, 9)))
    basis = basis_from_forms(["1"])
    o1 = fit_tree(data, basis, LearnConfig(depth=1)).objective
    o2 = fit_tree(data, basis, LearnConfig(depth=2)).objective
    assert o2 <= o1 + 1e-9


def test_in_class_recovery():
    rng = np.random.default_rng(41)
    basis = basis_from_forms(["1", "x"])
    truth = TreeModel(
        depth=2,
        rules={1: BranchRule(feature=0, threshold=0.6),
               2: BranchRule(feature=0, threshold=0.3)},
        leaves={3: LeafExpression(coefficients=(1.0, -2.0)),
                4: LeafExpression(coefficients=(0.5, 3.0)),
                5: LeafExpression(coefficients=(-1.5, 0.0))},
        basis=basis, bounds=Bounds(-100, 100, -100, 100),
    )
    X = rng.uniform(0.1, 0.9, (12, 1))
    y = np.array([predict(truth, x) for x in X])
    rep = fit_tree(Dataset(X=X, y=y), basis,
                   LearnConfig(depth=2, lambda_c=0.0, lambda_m=0.0))
    assert rep.objective <= 1e-8


def test_training_predictions_respect_y_bounds():
    rng = np.random.default_rng(43)
    data = Dataset(X=rng.uniform(0.1, 0.9, (10, 1)), y=rng.uniform(40, 80, 10))
    cfg = LearnConfig(depth=2)
    rep = fit_tree(data, basis_from_forms(["1", "x"]), cfg)
    y_lb, y_ub = cfg.resolved_y_bounds(data.y)
    for i in range(data.n_points):
        p = predict(rep.model, data.X[i])
        assert y_lb - 1e-6 <= p <= y_ub + 1e-6


def test_candidate_thresholds():
    data = Dataset(X=[[0.1], [0.5], [0.9]], y=[0, 0, 0])
    assert np.allclose(candidate_thresholds(data, 0), [0.3, 0.7])
    same = Dataset(X=[[0.4], [0.4]], y=[0, 0])
    assert candidate_thresholds(same, 0).size == 0
    rng = np.random.default_rng(47)
    big = Dataset(X=rng.uniform(0.1, 0.9, (50, 1)), y=np.zeros(50))
    thrs = candidate_thresholds(big, 0)
    assert thrs.size == 49
    assert np.all(np.diff(thrs) > 0)
    with pytest.raises(IndexError):
        candidate_thresholds(data, 3)


def test_default_y_bounds():
    lo, hi = default_y_bounds([0.0, 10.0])
    assert (lo, hi) == (-1.0, 11.0)
    lo, hi = default_y_bounds([5.0, 5.0])
    assert lo < 5.0 < hi


def test_dataset_csv_round_trip_and_hash():
    rng = np.random.default_rng(53)
    data = Dataset(X=rng.uniform(0, 1, (5, 1)), y=rng.uniform(0, 1, 5))
    again = Dataset.from_csv(data.to_csv())
    assert np.array_equal(again.X, data.X)
    assert np.array_equal(again.y, data.y)
    assert again.sha256() == data.sha256()


def test_dataset_rejects_bad_input():
    with pytest.raises(ConfigError):
        Dataset(X=[[1.0], [2.0]], y=[1.0])
    with pytest.raises(ConfigError):
        Dataset(X=[[np.nan]], y=[1.0])
    # A label-only CSV once loaded as X of shape (3, 0), and every basis
    # form then failed to read coordinate 0.
    with pytest.raises(ConfigError, match="at least one feature column"):
        Dataset.from_csv("y\n1\n2\n3\n")
    with pytest.raises(ConfigError, match="at least one feature column"):
        Dataset(X=np.zeros((3, 0)), y=[1.0, 2.0, 3.0])


@pytest.mark.parametrize("fit", [fit_tree, build_milp])
def test_coefficient_box_must_contain_zero(fit):
    """A branch node's coefficients and an empty leaf's are 0. With c in
    [1, 2], fit_tree's empty-side split left a leaf of zeros that failed
    validate, and the MILP, whose branch rows force c = 0, had no feasible
    point."""
    x = np.linspace(0.2, 0.8, 6)
    data = Dataset(X=x.reshape(-1, 1), y=3 + 0.5 * x)
    cfg = LearnConfig(depth=1, lambda_c=0, lambda_m=0.5, c_lb=1, c_ub=2, y_lb=-10, y_ub=10)
    with pytest.raises(ConfigError, match=r"coefficient bounds \[1, 2\] must contain 0"):
        fit(data, basis_from_forms(["1", "x"]), cfg)


@pytest.mark.parametrize("text", ["x,y\n", "x,y\n\n", "x,y\n0.5,one\n",
                                  "x,y\n0.5,1.0\n0.7\n", "x,y\n0.5,1.0,2.0\n"])
def test_dataset_csv_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        Dataset.from_csv(text)


def test_mean_abs_error_matches_point_loop_bitwise():
    rng = np.random.default_rng(59)
    data = Dataset(X=rng.uniform(0.1, 0.9, (40, 1)), y=rng.uniform(40, 80, 40))
    model = reference_model()
    loop = float(np.mean([abs(data.y[i] - predict(model, data.X[i]))
                          for i in range(data.n_points)]))
    assert mean_abs_error(model, data) == loop
    assert objective_of(model, data, LearnConfig())[1][0] == loop

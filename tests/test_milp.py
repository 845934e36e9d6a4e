import hashlib
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp

from oracles import (embed_model, loop_build_milp, loop_fmt12, loop_mps_text, max_violation,
                     milp_optimum_depth1, objective_value, read_mps_arrays)
from symtree import milp
from symtree.basis import basis_from_forms, canonical_basis, evaluate_basis_matrix
from symtree.config import load_config
from symtree.errors import ConfigError, IntegralityError, ParseError, StructureError
from symtree.learner import Dataset, LearnConfig, fit_tree, objective_of
from symtree.milp import (BINARY, CONTINUOUS, build_milp, expected_counts,
                          mps_text, name_map, parse_mps_counts,
                          parse_solution_text, read_solution, write_mps)
from symtree.mpc import generate_dataset
from symtree.tree import BRANCH, route, validate


def tiny_instance():
    basis = basis_from_forms(["x"])
    data = Dataset(X=[[0.5]], y=[0.2])
    cfg = LearnConfig(depth=1, y_lb=-1.0, y_ub=1.0)
    return data, basis, cfg


def test_count_formulas_for_random_sizes():
    rng = np.random.default_rng(61)
    for _ in range(6):
        n_d = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 3))
        n_k = int(rng.integers(1, 4))
        forms = ["1", "x", "x^2"][:n_k]
        data = Dataset(X=rng.uniform(0.2, 1.0, (n_d, 1)),
                       y=rng.uniform(-1, 1, n_d))
        art = build_milp(data, basis_from_forms(forms), LearnConfig(depth=depth))
        n_vars, n_bin, n_rows = expected_counts(n_d, 1, depth, n_k)
        assert (art.n_vars, art.n_binary, art.n_rows) == (n_vars, n_bin, n_rows)


def test_canonical_counts_near_reported():
    rng = np.random.default_rng(67)
    data = Dataset(X=np.sort(rng.uniform(0.1, 0.9, 50)).reshape(-1, 1),
                   y=rng.uniform(40, 80, 50))
    art = build_milp(data, canonical_basis(), LearnConfig())
    assert (art.n_vars, art.n_binary, art.n_rows) == (1612, 360, 3663)
    assert abs(art.n_vars - 1615) <= 5
    assert abs(art.n_binary - 363) <= 5
    assert abs(art.n_rows - 3662) <= 10


def test_tiny_instance_counts():
    data, basis, cfg = tiny_instance()
    art = build_milp(data, basis, cfg)
    assert art.n_binary == 7
    assert art.n_vars - art.n_binary == 19


def test_zero_penalties_strip_objective():
    data, basis, cfg = tiny_instance()
    cfg.lambda_c = cfg.lambda_m = 0.0
    art = build_milp(data, basis, cfg)
    names = {art.var_names[i].split("[")[0] for i in np.flatnonzero(art.cost)}
    assert names == {"epos", "eneg"}


def test_constants_derived_from_data():
    """b's bounds hold fit_tree's empty-side splits (1.0 beyond the data) and
    an unused b's 0; the routing constant is the smallest that leaves both
    routing rows slack at z = 0 for every feasible a and b."""
    for X in ([[0.3], [0.7]], [[-2.0], [-0.5]], [[-1.5, 0.25], [1.0, 0.5]]):
        data = Dataset(X=X, y=[0.0, 1.0])
        cfg = LearnConfig(depth=1)
        art = build_milp(data, basis_from_forms(["1"]), cfg)
        s_lo, s_hi = min(0.0, np.min(X)), max(0.0, np.max(X))
        b = art.index["b[1]"]
        assert (art.lo[b], art.hi[b]) == (s_lo - 1.0, s_hi + 1.0)
        # The routing sum is one coordinate of x, or 0 when the node does not branch.
        worst = max(abs(v - t) for v in (s_lo, s_hi) for t in (art.lo[b], art.hi[b]))
        for i, (side, leaf, sign) in itertools.product((1, 2), (("left", 2, 1),
                                                              ("right", 3, -1))):
            r = art.row_names.index(f"route_{side}[{i},{leaf},1]")
            M = sign * art.A[r, art.index[f"z[{i},{leaf}]"]]
            assert M == pytest.approx(worst + milp.EPS_ROUTING, abs=1e-12)


def test_mps_round_trip_counts(tmp_path):
    rng = np.random.default_rng(71)
    data = Dataset(X=rng.uniform(0.2, 1.0, (5, 1)), y=rng.uniform(-1, 1, 5))
    art = build_milp(data, basis_from_forms(["1", "x"]), LearnConfig(depth=2))
    path = tmp_path / "prob.mps"
    write_mps(art, path)
    counts = parse_mps_counts(path.read_text())
    assert counts == {"n_rows": art.n_rows, "n_vars": art.n_vars,
                      "n_binary": art.n_binary}
    sidecar = json.loads((tmp_path / "prob.names.json").read_text())
    assert len(sidecar["variables"]) == art.n_vars
    assert len(sidecar["rows"]) == art.n_rows
    assert sidecar["variables"]["D1"] == "d[1]"


def test_mps_deterministic():
    data, basis, cfg = tiny_instance()
    assert mps_text(build_milp(data, basis, cfg)) == \
        mps_text(build_milp(data, basis, cfg))


def test_empty_artifact_rejected():
    data, basis, cfg = tiny_instance()
    art = build_milp(data, basis, cfg)
    art.row_names = []
    with pytest.raises(ConfigError):
        mps_text(art)


def test_columns_cover_every_variable():
    data, basis, cfg = tiny_instance()
    art = build_milp(data, basis, cfg)
    text = mps_text(art)
    in_columns = set()
    section = None
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        if section == "COLUMNS":
            fields = line.split()
            in_columns.add(fields[0])
    assert in_columns == set(art.var_mps)


def test_machine_names_are_short_and_unique():
    rng = np.random.default_rng(73)
    data = Dataset(X=rng.uniform(0.2, 1.0, (9, 1)), y=rng.uniform(-1, 1, 9))
    art = build_milp(data, basis_from_forms(["1", "x"]), LearnConfig(depth=2))
    names = art.var_mps
    assert len(set(names)) == len(names)
    assert all(len(n) <= 8 for n in names)


def test_machine_name_width_refused_before_rows(monkeypatch):
    """At N=1000, depth 3, the first name over fixed-format MPS's 8 characters
    is YH1000_10. It is refused once the variables are named, before any
    constraint row is built."""
    rng = np.random.default_rng(79)
    data = Dataset(X=rng.uniform(0.1, 0.9, (1000, 1)), y=rng.uniform(-1, 1, 1000))
    basis, cfg = basis_from_forms(["1", "x"]), LearnConfig(depth=3)
    with pytest.raises(ConfigError, match="'YH1000_10' exceeds"):
        loop_build_milp(data, basis, cfg)

    def no_rows(*args):
        raise AssertionError("a constraint row was built")
    monkeypatch.setattr(milp, "_rows", no_rows)
    with pytest.raises(ConfigError, match="'YH1000_10' exceeds"):
        build_milp(data, basis, cfg)


def test_duplicate_variable_name_refused():
    assert milp._name_index(["x[1]", "x[2]"], ["X1", "X2"]) == \
        {"x[1]": 0, "X1": 0, "x[2]": 1, "X2": 1}
    with pytest.raises(ConfigError, match="duplicate variable name 'X1'"):
        milp._name_index(["x[1]", "x[2]"], ["X1", "X1"])
    with pytest.raises(ConfigError, match="duplicate variable name 'x\\[1\\]'"):
        milp._name_index(["x[1]", "x[1]"], ["X1", "X2"])


def test_row_names_built_once(tmp_path):
    """write_mps reads the row names twice (MPS text and sidecar); both see
    the one list the artifact built."""
    data, basis, cfg = tiny_instance()
    art = build_milp(data, basis, cfg)
    assert art.row_mps is art.row_mps
    assert art.row_mps == [f"R{j:07d}" for j in range(1, art.n_rows + 1)]
    write_mps(art, tmp_path / "prob.mps")
    sidecar = json.loads((tmp_path / "prob.names.json").read_text())
    assert list(sidecar["rows"]) == art.row_mps


def assert_same_artifact(got, want):
    """Every array, name list and name map of two artifacts, and their MPS
    text, equal exactly (dtypes, and the sign of every zero, included)."""
    for key in ("indptr", "indices", "data"):
        g, w = getattr(got.A, key), getattr(want.A, key)
        assert g.dtype == w.dtype and np.array_equal(g, w), key
    assert got.A.shape == want.A.shape
    for key in ("row_lo", "row_hi", "lo", "hi", "integrality", "cost"):
        g, w = getattr(got, key), getattr(want, key)
        assert g.dtype == w.dtype and np.array_equal(g, w), key
        assert np.array_equal(np.signbit(g), np.signbit(w)), key
    for key in ("var_names", "var_mps", "row_names", "index", "y_bounds"):
        assert getattr(got, key) == getattr(want, key), key
    assert list(got.index) == list(want.index)
    assert mps_text(got) == mps_text(want)


def random_milp_instances(n, seed):
    """1-2 features with exact zeros and negative coordinates, N 1-12, depths
    1-3, bases with and without x@1, y bounds set or taken from the data, and
    lambda_c and lambda_m sometimes 0."""
    rng = np.random.default_rng(seed)
    forms = ["1", "x", "x^2", "x*exp(x)", "x@1", "x^2@1"]
    for _ in range(n):
        n_f, n_d = int(rng.integers(1, 3)), int(rng.integers(1, 13))
        X = np.round(rng.uniform(-2, 1.5, (n_d, n_f)), 1)
        X[rng.random((n_d, n_f)) < 0.25] = 0.0
        picked = [f for f in forms[:4 if n_f == 1 else 6] if rng.random() < 0.5]
        kw = {"depth": int(rng.integers(1, 4))}
        if rng.random() < 0.5:
            kw.update(y_lb=-1.5, y_ub=float(rng.choice([0.0, 1.5])))
        if rng.random() < 0.3:
            kw["lambda_c"] = 0.0
        if rng.random() < 0.3:
            kw["lambda_m"] = 0.0
        yield (Dataset(X=X, y=np.round(rng.uniform(-1, 1, n_d), 2)),
               basis_from_forms(picked or ["1"]), LearnConfig(**kw))


def test_build_matches_row_by_row_oracle():
    instances = list(random_milp_instances(220, 101))
    assert {cfg.depth for _, _, cfg in instances} == {1, 2, 3}
    assert {data.n_features for data, _, _ in instances} == {1, 2}
    for data, basis, cfg in instances:
        assert_same_artifact(build_milp(data, basis, cfg), loop_build_milp(data, basis, cfg))


@pytest.mark.parametrize("n", [50, 200])
def test_build_matches_row_by_row_oracle_at_scale(n):
    """The canonical uniform-grid training set, and the same at N=200."""
    cfg = load_config()
    data = generate_dataset(cfg.mpc_spec(), n, 0.1, 0.9, "uniform-grid", 0)
    cfg = cfg.learn_config()
    assert_same_artifact(build_milp(data, canonical_basis(), cfg),
                         loop_build_milp(data, canonical_basis(), cfg))


def test_fitted_tree_embeds_feasibly():
    # Negative x moves the threshold bounds and the routing constant off the
    # positive-only ranges the canonical data gives.
    basis = basis_from_forms(["1", "x"])
    for (lo, hi), depth in itertools.product([(0.2, 1.0), (-2.0, -0.5), (-1.5, 1.0)],
                                             [1, 2]):
        rng = np.random.default_rng(79)
        data = Dataset(X=np.round(rng.uniform(lo, hi, (6, 1)), 2),
                       y=rng.uniform(-1, 1, 6))
        cfg = LearnConfig(depth=depth)
        art = build_milp(data, basis, cfg)
        rep = fit_tree(data, basis, cfg)
        assign = embed_model(art, rep.model)
        assert max_violation(art, assign) <= 1e-9, (lo, hi, depth)
        assert objective_value(art, assign) == pytest.approx(rep.objective, abs=1e-8)


def test_max_violation_reads_both_row_bounds():
    data, basis, cfg = tiny_instance()
    art = build_milp(data, basis, cfg)
    # All zeros: struct_root (d[1] = 1) and assign_once fall short by 1.
    assert max_violation(art, {}) == 1.0
    # d[2] = 3 overshoots coef_ub[1,2] (c + c_ub*d <= c_ub) by 2*c_ub.
    assert max_violation(art, {"d[1]": 1.0, "z[1,2]": 1.0, "d[2]": 3.0}) == 2 * cfg.c_ub
    assert objective_value(art, {"EP1": 0.5, "d[1]": 1.0}) == \
        pytest.approx(0.5 + cfg.lambda_c, abs=1e-15)


def test_cross_solver_consistency():
    rng = np.random.default_rng(83)
    for trial in range(5):
        n = int(rng.integers(3, 7))
        data = Dataset(X=np.round(rng.uniform(0.2, 1.0, (n, 1)), 2),
                       y=np.round(rng.uniform(-1, 1, n), 2))
        basis = basis_from_forms(["1", "x"][: int(rng.integers(1, 3))])
        cfg = LearnConfig(depth=1, lambda_m=float(rng.choice([0.0, 1e-2])))
        art = build_milp(data, basis, cfg)
        ref = milp_optimum_depth1(art)
        rep = fit_tree(data, basis, cfg)
        assert rep.objective == pytest.approx(ref, abs=1e-6), f"trial {trial}"


def test_read_solution_round_trip():
    rng = np.random.default_rng(89)
    data = Dataset(X=np.round(rng.uniform(0.2, 1.0, (6, 1)), 2),
                   y=rng.uniform(-1, 1, 6))
    basis = basis_from_forms(["1", "x"])
    cfg = LearnConfig(depth=2)
    art = build_milp(data, basis, cfg)
    rep = fit_tree(data, basis, cfg)
    assign = embed_model(art, rep.model)
    decoded = read_solution(art, assign)
    assert validate(decoded.model) == []
    assert decoded.objective == pytest.approx(rep.objective, abs=1e-8)
    # binaries only: coefficients must be refitted
    binaries = {k: v for k, v in assign.items()
                if k.split("[")[0] in ("d", "z", "a")}
    decoded2 = read_solution(art, binaries)
    assert validate(decoded2.model) == []
    assert decoded2.objective == pytest.approx(rep.objective, abs=1e-8)


def test_read_solution_rejects_leaf_root():
    data, basis, cfg = tiny_instance()
    art = build_milp(data, basis, cfg)
    assign = {"d[1]": 0.0, "d[2]": 0.0, "d[3]": 0.0}
    with pytest.raises(StructureError):
        read_solution(art, assign)


def test_read_solution_rejects_fractional_binary():
    data, basis, cfg = tiny_instance()
    art = build_milp(data, basis, cfg)
    assign = {"d[1]": 0.4, "d[2]": 0.0, "d[3]": 0.0}
    with pytest.raises(IntegralityError):
        read_solution(art, assign)


def test_read_solution_missing_binary():
    data, basis, cfg = tiny_instance()
    art = build_milp(data, basis, cfg)
    with pytest.raises(StructureError):
        read_solution(art, {"d[1]": 1.0})


def _three_point_split(leaf_of):
    """Depth 1, basis {"1"}, x = 0.3, 0.7, 0.5, node 1 split on the one
    feature, and point i's z set on node leaf_of[i - 1]."""
    data = Dataset(X=[[0.3], [0.7], [0.5]], y=[0.0, 1.0, 1.0])
    art = build_milp(data, basis_from_forms(["1"]), LearnConfig(depth=1))
    assign = {"d[1]": 1.0, "d[2]": 0.0, "d[3]": 0.0, "a[1,1]": 1.0}
    for i, leaf in enumerate(leaf_of, start=1):
        assign.update({f"z[{i},{n}]": float(n == leaf) for n in (1, 2, 3)})
    return art, assign


def test_read_solution_refuses_point_on_branch():
    """A point whose z selects the branch node would drop out of every leaf fit."""
    art, assign = _three_point_split([2, 3, 1])
    with pytest.raises(StructureError, match=r"data point 3 selects nodes \[1\]"):
        read_solution(art, assign)


def test_read_solution_refuses_unroutable_assignment():
    """0.7 and 0.5 sent left and 0.3 right: no threshold on x does that, so the
    decoded tree would route the points otherwise than z."""
    art, assign = _three_point_split([3, 2, 2])
    with pytest.raises(StructureError, match="data point 1 is assigned to leaf 3"):
        read_solution(art, assign)
    art, assign = _three_point_split([2, 3, 2])
    assert read_solution(art, assign).model.rules[1].threshold == pytest.approx(0.6)


def test_read_solution_decodes_split_between_adjacent_floats():
    """The midpoint of two adjacent floats rounds onto the lower one, which
    x < threshold would then send right; the decoder places the threshold as
    fit_tree does, on the upper one."""
    data = Dataset(X=[[1.0], [np.nextafter(1.0, 2.0)]], y=[0.0, 1.0])
    basis, cfg = basis_from_forms(["1"]), LearnConfig(depth=1, lambda_c=0.0)
    model = fit_tree(data, basis, cfg).model
    art = build_milp(data, basis, cfg)
    decoded = read_solution(art, embed_model(art, model)).model
    assert decoded.rules == model.rules
    assert [route(decoded, x) for x in data.X] == [2, 3]


def test_all_zero_solution_objective():
    data = Dataset(X=[[0.3], [0.7]], y=[0.0, 0.0])
    basis = basis_from_forms(["1"])
    cfg = LearnConfig(depth=1, lambda_c=1e-2, y_lb=-1.0, y_ub=1.0)
    art = build_milp(data, basis, cfg)
    assign = {"d[1]": 1.0, "d[2]": 0.0, "d[3]": 0.0, "a[1,1]": 1.0,
              "b[1]": 0.5,
              "z[1,1]": 0.0, "z[1,2]": 1.0, "z[1,3]": 0.0,
              "z[2,1]": 0.0, "z[2,2]": 0.0, "z[2,3]": 1.0}
    for n in (1, 2, 3):
        assign[f"c[1,{n}]"] = 0.0
    decoded = read_solution(art, assign)
    assert decoded.objective == pytest.approx(cfg.lambda_c, abs=1e-12)


def test_solution_text_parsing():
    text = "# comment\nd[1] 1\nZ1_2 0.0  # trailing\n\nb[1] 0.55\n"
    parsed = parse_solution_text(text)
    assert parsed == {"d[1]": 1.0, "Z1_2": 0.0, "b[1]": 0.55}


def test_solution_text_refuses_repeated_name():
    with pytest.raises(ParseError, match="line 3: 'd\\[1\\]' already given on line 1"):
        parse_solution_text("d[1] 1\nb[1] 0.5\nd[1] 0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_solution_text_rejects_non_finite(value):
    with pytest.raises(ParseError):
        parse_solution_text(f"d[1] 1\nb[1] {value}\n")


@pytest.mark.parametrize("kind", ["LE", "EG", "NLEG", "X"])
def test_mps_counts_reject_unknown_row_type(kind):
    with pytest.raises(ParseError):
        parse_mps_counts(f"NAME          T\nROWS\n N  OBJ\n {kind}  R0000001\nENDATA\n")


@pytest.mark.parametrize("line", [" BV", " BV BND", " UP BND"])
def test_mps_counts_reject_short_bound(line):
    with pytest.raises(ParseError):
        parse_mps_counts(f"NAME          T\nROWS\n N  OBJ\nBOUNDS\n{line}\nENDATA\n")


def test_mps_values_read_back():
    """The written numbers, not only the counts: a fixed-format reader gets
    back every array of the artifact, each as _fmt12 rounded it."""
    rng = np.random.default_rng(97)
    data = Dataset(X=np.sort(rng.uniform(0.1, 0.9, 12)).reshape(-1, 1),
                   y=rng.uniform(40, 80, 12))
    art = build_milp(data, canonical_basis(), load_config(None).learn_config())
    got = read_mps_arrays(mps_text(art))
    rounded = np.vectorize(lambda v: float(milp._fmt12([v])[0]), otypes=[float])
    assert got["var_mps"] == art.var_mps and got["row_mps"] == art.row_mps
    for key in ("cost", "row_lo", "row_hi", "lo", "hi"):
        assert np.array_equal(got[key], rounded(getattr(art, key))), key
    assert np.array_equal(got["integrality"], art.integrality)
    A = art.A.copy()
    A.data = rounded(A.data)
    assert not np.array_equal(A.data, art.A.data)  # some entries do round
    assert (got["A"] != A).nnz == 0


@pytest.mark.parametrize("v", [
    0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, -2 / 3, 1e-4, 123456789012.5, -123456789012.5,
    1.2345678901234e-5, -9.87654321e10, 1.5e300, -1.23456789e-300, 5e-324, -5e-324,
    1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
    -1.2345678901e-308])
def test_fmt12_fits_and_rounds(v):
    """At most 12 characters, reading back as v rounded to 12 or fewer
    significant digits: at 3 digits even -1.23e-308 takes only 10."""
    s = milp._fmt12([v])[0]
    assert len(s) <= 12
    assert any(float(s) == float(f"{v:.{p}g}") for p in range(3, 13)), s


def _pinned_instances():
    """(a) the canonical 50-point uniform-grid training set at depth 2; (b) two
    features with negative coordinates at depth 3. build_milp's finite
    constants never leave a variable bounded above only, so (b) opens one
    bound by hand for an MI line, and sets two more to 0.0 and -0.0."""
    train = generate_dataset(load_config().mpc_spec(), 50, 0.1, 0.9, "uniform-grid", 0)
    yield "canonical", build_milp(train, canonical_basis(), load_config().learn_config())
    rng = np.random.default_rng(43)
    data = Dataset(X=np.round(rng.uniform(-2, 1.5, (6, 2)), 2),
                   y=np.round(rng.uniform(-1, 1, 6), 2))
    art = build_milp(data, basis_from_forms(["1", "x", "x@1"]), LearnConfig(depth=3))
    art.lo[art.index["ypred[1]"]] = -np.inf
    art.hi[art.index["ypred[2]"]] = 0.0
    art.hi[art.index["ypred[3]"]] = -0.0
    yield "negative", art


# sha256 of mps_text on each pinned instance: the writer's line pairing,
# padding and number formatting may get faster, never different.
_PINNED_MPS = {
    "canonical": "fcfb0965987564440d5a542416c3b1728cbea123ceb538e567fa324ecdbf6422",
    "negative": "9577c7dc31fa1ea3e165c4ba89374010c9e59681e9ebf29555ad1e81cfc38c77",
}


def test_mps_text_is_pinned():
    for name, art in _pinned_instances():
        text = mps_text(art)
        if name == "negative":
            kinds = {line[:4] for line in text.splitlines()}
            assert {" LO ", " UP ", " MI ", " FR ", " BV "} <= kinds
        assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_MPS[name], name


def test_mps_text_matches_loop_oracle():
    """The fixed-width writer against the one-string-per-line loop, byte for
    byte, on random artifacts (1-2 features, depths 1-3, negative X). Each
    has one bound opened, two UP bounds set to 0.0 and -0.0 and a few values
    that _fmt12 writes in exponent form, so every kind of line and value is
    met; the sets below check that they were."""
    rng = np.random.default_rng(113)
    kinds, parities, forms = set(), set(), set()
    for data, basis, cfg in random_milp_instances(40, 109):
        art = build_milp(data, basis, cfg)
        cont = rng.permutation(np.flatnonzero(art.integrality == CONTINUOUS))
        art.lo[cont[0]] = -np.inf
        art.hi[cont[1]], art.hi[cont[2]] = 0.0, -0.0
        art.lo[cont[3]], art.hi[cont[3]] = -1.23e-308, 1e15
        art.cost[cont[4]] = 1e-5
        art.A.data[rng.integers(art.A.nnz)] = -1.23e-308
        eq = np.flatnonzero(art.row_lo == art.row_hi)
        art.row_lo[eq[-1]] = art.row_hi[eq[-1]] = 1e15
        text = mps_text(art)
        assert text == loop_mps_text(art)
        kinds |= {line[:4] for line in text.splitlines()}
        forms |= {f for f in ("e-05", "e+15", "e-308", " -0\n", " 0\n") if f in text}
        parities |= set((np.diff(art.A.indptr) + (art.cost != 0)) % 2)
    assert {" LO ", " UP ", " MI ", " FR ", " BV ", " E  ", " L  ", " G  "} <= kinds
    assert forms == {"e-05", "e+15", "e-308", " -0\n", " 0\n"}
    assert parities == {0, 1}


def test_fmt12_matches_descending_precision_loop():
    """_fmt12 formats a batch one precision at a time; each string must be
    the one the per-value loop picks. The doubles cover every binary
    exponent (random bit patterns, subnormals, inf and NaN included), short
    decimals whose trailing zeros are dropped, and values just below a power
    of ten that round up to it."""
    rng = np.random.default_rng(131)
    exps = rng.integers(-310, 309, 20_000)
    values = np.concatenate([
        rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(float),
        rng.integers(-10**6, 10**6, 20_000) * 10.0 ** rng.integers(-24, 20, 20_000),
        (1 - 10.0 ** -rng.integers(5, 17, 20_000)) * 10.0 ** exps * rng.choice([-1, 1], 20_000),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-5, 1e15, -1.23e-308]]).tolist()
    assert len(values) >= 100_000
    assert milp._fmt12(values) == [loop_fmt12(v) for v in values]


def test_row_labels_are_fixed_format_names():
    """R and seven digits, computed column by column, read as "R%07d"; the
    10 millionth row would need a ninth character and is refused."""
    labels = milp.MilpArtifact.row_labels.func(SimpleNamespace(n_rows=1_000_000))
    for j in (1, 9, 10, 99_999, 100_000, 999_999, 1_000_000):
        assert labels[j - 1].tobytes() == b"R%07d  " % j
    with pytest.raises(ConfigError, match="10000000 rows exceed fixed-format row names"):
        milp.MilpArtifact.row_labels.func(SimpleNamespace(n_rows=10_000_000))


@pytest.mark.parametrize("X, bounds, constant", [
    ([[0.3], [0.9]], {"c_lb": -1e308, "c_ub": 1e308}, "tie_M"),  # 1e308 * 1.9
    ([[0.3], [0.9]], {"c_lb": -np.inf, "c_ub": np.inf}, "c_lb"),
    ([[0.3], [0.9]], {"y_lb": -1.0, "y_ub": np.inf}, "y_ub"),
    ([[-1e308], [1e308]], {}, "M")], ids=["tie_M", "c_lb", "y_ub", "M"])
def test_non_finite_constant_refused(X, bounds, constant):
    """An MPS file cannot hold inf: each non-finite constant is named."""
    data = Dataset(X=X, y=[0.0, 1.0])
    with pytest.raises(ConfigError, match=f"constant {constant} = "):
        build_milp(data, basis_from_forms(["1", "x"]), LearnConfig(depth=1, **bounds))


def highs_instances():
    """Depth-2 instances: one feature with basis {1, x}, then two features with
    negative coordinates and basis {1, x, x@1}."""
    one = basis_from_forms(["1", "x"])
    yield (Dataset(X=[[.74], [.25], [.64], [.42], [.9], [.25], [.74], [.9]],
                   y=[-.55, .79, .74, -.96, .41, -1, .01, -.13]),
           one, LearnConfig(depth=2, lambda_m=0.0))
    for seed in (2, 7, *range(20, 32)):
        rng = np.random.default_rng(seed)
        n = 8 if seed < 20 else int(rng.integers(6, 12))
        yield (Dataset(X=np.round(rng.uniform(0.2, 1.0, (n, 1)), 2),
                       y=np.round(rng.uniform(-1, 1, n), 2)), one, LearnConfig(depth=2))
    rng = np.random.default_rng(40)
    yield (Dataset(X=np.round(rng.uniform(-2, 1.5, (7, 2)), 2),
                   y=np.round(rng.uniform(-1, 1, 7), 2)),
           basis_from_forms(["1", "x", "x@1"]), LearnConfig(depth=2))


def test_highs_solves_exported_arrays():
    """The artifact's arrays go to HiGHS as they are, and its proven optimum is
    the enumerator's. The routing constant is small enough that a z within
    HiGHS's integrality tolerance cannot carry a point across EPS_ROUTING, and
    the decoded tree, whose thresholds come from z, re-scores to the same
    value. Keyed by the machine names, as a solver reading prob.mps reports
    it, the solution decodes to the same tree."""
    for data, basis, cfg in highs_instances():
        art = build_milp(data, basis, cfg)
        res = scipy_milp(art.cost, integrality=art.integrality,
                         constraints=LinearConstraint(art.A, art.row_lo, art.row_hi),
                         bounds=Bounds(art.lo, art.hi), options={"mip_rel_gap": 0})
        assert res.status == 0, res.message
        rep = fit_tree(data, basis, cfg)
        assert res.fun == pytest.approx(rep.objective, abs=1e-9)
        decoded = read_solution(art, dict(zip(art.var_names, res.x)))
        assert validate(decoded.model) == []
        assert decoded.objective == pytest.approx(rep.objective, abs=1e-9)
        by_mps = read_solution(art, dict(zip(art.var_mps, res.x)))
        assert (by_mps.model, by_mps.objective) == (decoded.model, decoded.objective)


@pytest.mark.parametrize("gap", [0.5 * milp.EPS_ROUTING, milp.EPS_ROUTING,
                                 2 * milp.EPS_ROUTING], ids=["half", "equal", "double"])
def test_routing_margin_separates_values_at_least_eps_apart(gap):
    """The routing rows send a point left only EPS_ROUTING below its
    threshold. Two values closer than that cannot be split, so HiGHS's
    optimum rises above the enumerator's, which splits them at the midpoint;
    from EPS_ROUTING apart on, the two optima agree."""
    data = Dataset(X=[[0.3], [0.3 + gap], [0.7], [0.71]], y=[0.0, 1.0, 1.0, 1.0])
    basis, cfg = basis_from_forms(["1"]), LearnConfig(depth=1, lambda_c=1e-3, lambda_m=1e-3)
    art = build_milp(data, basis, cfg)
    res = scipy_milp(art.cost, integrality=art.integrality,
                     constraints=LinearConstraint(art.A, art.row_lo, art.row_hi),
                     bounds=Bounds(art.lo, art.hi), options={"mip_rel_gap": 0})
    assert res.status == 0, res.message
    enumerated = fit_tree(data, basis, cfg).objective
    assert enumerated == pytest.approx(0.002, abs=1e-9)
    if gap < milp.EPS_ROUTING:
        assert res.fun > enumerated + 0.1
    else:
        assert res.fun == pytest.approx(enumerated, abs=1e-9)

import json
import platform
import warnings

import numpy as np
import pytest
import scipy

from symtree import mpc
from symtree.basis import basis_from_forms
from symtree.cli import run
from symtree.config import DEFAULTS, load_config
from symtree.errors import ConfigError
from symtree.learner import Dataset
from symtree.reference import reference_model
from symtree.tree import (BRANCH, Bounds, BranchRule, LeafExpression,
                          TreeModel, deserialize, serialize)


def test_defaults_are_canonical():
    cfg = load_config(None)
    assert cfg["mpc"]["T"] == 10 and cfg["mpc"]["h"] == 0.5
    assert cfg["learn"]["depth"] == 2
    assert cfg["learn"]["lambda_c"] == 1e-2
    assert cfg["learn"]["lambda_m"] == 1e-4
    assert cfg["data"]["n_train"] == 50 and cfg["data"]["range"] == [0.1, 0.9]
    spec = cfg.mpc_spec()
    assert spec.plant.V == 50.0 and spec.x_sp == 0.6
    lc = cfg.learn_config()
    assert (lc.c_lb, lc.c_ub) == (-1000.0, 1000.0)


def test_unknown_keys_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"plant": {"volume": 50}}))
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text(json.dumps({"reactor": {}}))
    with pytest.raises(ConfigError):
        load_config(str(bad))
    # The MILP's constants are derived from the data; the old knob is gone.
    bad.write_text(json.dumps({"learn": {"big_M": 1000}}))
    with pytest.raises(ConfigError, match="big_M"):
        load_config(str(bad))
    # The routing margin is the constant milp.EPS_ROUTING.
    bad.write_text(json.dumps({"learn": {"eps": 1e-4}}))
    with pytest.raises(ConfigError, match="unknown key 'eps'"):
        load_config(str(bad))


@pytest.mark.parametrize("section, key, value", [
    ("learn", "lambda_c", float("nan")), ("learn", "lambda_m", float("nan")),
    ("learn", "c_bounds", [float("nan"), 1.0]), ("learn", "y_bounds", [0.0, float("nan")]),
    ("mpc", "x_sp", float("nan")), ("plant", "V", float("nan")),
    ("data", "range", [0.1, float("nan")]), ("sim", "x0", float("nan"))],
    ids=["lambda_c", "lambda_m", "c_bounds", "y_bounds", "x_sp", "V", "range", "x0"])
def test_nan_config_value_rejected(tmp_path, section, key, value):
    """Python's json reads NaN; a NaN weight left every tree's cost NaN and a
    NaN set-point made every MPC start fail, so the loader refuses it."""
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({section: {key: value}}))
    with pytest.raises(ConfigError, match=f"{section}.{key} must not be NaN"):
        load_config(str(path))


def test_config_hash_stable_and_sensitive(tmp_path):
    a = load_config(None).config_hash()
    assert a == load_config(None).config_hash()
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"mpc": {"T": 12}}))
    assert load_config(str(p)).config_hash() != a


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny end-to-end CLI run shared by the tests below."""
    ws = tmp_path_factory.mktemp("cli")
    cfg = ws / "cfg.json"
    cfg.write_text(json.dumps({"data": {"n_train": 6, "n_test": 4},
                               "sim": {"t_final": 1.0}}))
    assert run(["gen-data", "--config", str(cfg), "--out-dir", str(ws)]) == 0
    return ws, cfg


def test_gen_data_outputs(workspace):
    ws, cfg = workspace
    train = Dataset.from_csv((ws / "train.csv").read_text())
    assert train.n_points == 6
    meta = json.loads((ws / "datasets.json").read_text())
    assert meta["train_sha256"] == train.sha256()
    assert meta["provenance"]["config_hash"] == load_config(str(cfg)).config_hash()
    assert set(meta["provenance"]) == {"tool_version", "python_version", "numpy_version",
                                       "scipy_version", "config_hash"}


def test_gen_data_reproducible(workspace, tmp_path):
    ws, cfg = workspace
    assert run(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "train.csv").read_text() == (ws / "train.csv").read_text()
    assert (tmp_path / "test.csv").read_text() == (ws / "test.csv").read_text()


def test_train_and_predict(workspace, capsys):
    ws, cfg = workspace
    out = ws / "model.tree.json"
    assert run(["train", "--config", str(cfg), "--data", str(ws / "train.csv"),
                "--out", str(out)]) == 0
    model = deserialize(out.read_text())
    report = json.loads((ws / "model.report.json").read_text())
    assert report["kind"] == "symbolic"
    prov = report["provenance"]
    assert set(prov) == {"tool_version", "python_version", "numpy_version",
                         "scipy_version", "config_hash", "dataset_sha256"}
    assert (prov["python_version"], prov["numpy_version"], prov["scipy_version"]) == \
        (platform.python_version(), np.__version__, scipy.__version__)
    assert prov["config_hash"] == load_config(str(cfg)).config_hash()
    assert prov["dataset_sha256"] == Dataset.from_csv((ws / "train.csv").read_text()).sha256()
    capsys.readouterr()
    assert run(["predict", "--model", str(out), "--x", "0.6"]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert 0.0 <= printed <= 100.0


def test_baselines_and_report(workspace, capsys):
    ws, cfg = workspace
    reports = [str(ws / "model.report.json")]
    for kind in ["sparse", "cart", "lintree"]:
        out = ws / f"{kind}.tree.json"
        assert run(["baseline", "--kind", kind, "--config", str(cfg),
                    "--data", str(ws / "train.csv"), "--out", str(out)]) == 0
        reports.append(str(ws / f"{kind}.report.json"))
    capsys.readouterr()
    assert run(["report", "--test", str(ws / "test.csv"),
                "--reports", *reports, "--out", str(ws / "cmp.json")]) == 0
    cmp_doc = json.loads((ws / "cmp.json").read_text())
    assert len(cmp_doc["models"]) == 4
    maes = [m["test_mae"] for m in cmp_doc["models"]]
    assert maes == sorted(maes)


def test_report_refuses_mixed_datasets(workspace, tmp_path, capsys):
    ws, cfg = workspace
    tampered = json.loads((ws / "sparse.report.json").read_text())
    tampered["provenance"]["dataset_sha256"] = "0" * 64
    alt = tmp_path / "sparse.report.json"
    alt.write_text(json.dumps(tampered))
    (tmp_path / "sparse.tree.json").write_text((ws / "sparse.tree.json").read_text())
    code = run(["report", "--test", str(ws / "test.csv"),
                "--reports", str(ws / "model.report.json"), str(alt),
                "--out", str(tmp_path / "cmp.json")])
    assert code == 2
    assert "different datasets" in capsys.readouterr().err


def test_export_milp_counts(workspace):
    ws, cfg = workspace
    out = ws / "prob.mps"
    assert run(["export-milp", "--config", str(cfg),
                "--data", str(ws / "train.csv"), "--out", str(out)]) == 0
    counts = json.loads((ws / "prob.counts.json").read_text())
    # N_d = 6, N_f = 1, D = 2, N_K = 19
    assert counts["n_binary"] == 7 * 7 + 3
    assert (ws / "prob.names.json").exists()


@pytest.mark.parametrize("bounds, constant", [("[-1e308, 1e308]", "tie_M"),
                                              ("[-Infinity, Infinity]", "c_lb")])
def test_export_milp_non_finite_constant_exit_code(workspace, tmp_path, capsys,
                                                   bounds, constant):
    # tie_M overflowed, or json's Infinity passed through, and the MPS file
    # was written with inf in it.
    ws, _ = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"learn": {"c_bounds": %s}}' % bounds)
    out = tmp_path / "prob.mps"
    assert run(["export-milp", "--config", str(cfg),
                "--data", str(ws / "train.csv"), "--out", str(out)]) == 2
    assert f"MILP constant {constant} = " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, name", [("export-milp", "prob.mps"),
                                           ("train", "model.tree.json")])
def test_box_without_zero_refused(workspace, tmp_path, capsys, command, name):
    # Branch rows force c = 0, so c in [1, 2] left the MILP infeasible:
    # export-milp wrote its MPS file with exit 0, and train blamed an
    # infeasible leaf LP instead of the box.
    ws, _ = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"learn": {"c_bounds": [1.0, 2.0]}}')
    out = tmp_path / name
    assert run([command, "--config", str(cfg),
                "--data", str(ws / "train.csv"), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: coefficient bounds [1.0, 2.0] must contain 0"]
    assert not out.exists()


@pytest.mark.parametrize("spec, errors", [
    ({"mpc": {"u_bounds": [0.0, 1e6]}}, []),
    ({"plant": {"k": 1e200}}, ["error: x0=0.1: no start converged for x0=0.1"]),
    ({"mpc": {"h": 1e6}}, ["error: x0=0.1: no start converged for x0=0.1"])],
    ids=["u_bounds", "k", "h"])
def test_gen_data_survives_an_overflowing_start(tmp_path, capsys, spec, errors):
    # Each ended in an OverflowError traceback (exit 1) from the MPC sweep.
    # A start that overflows has not converged: past a flow of 1e6 the other
    # starts solve, and the other two specs converge from no start.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**spec, "data": {"n_train": 3, "n_test": 2}}))
    code = run(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err.splitlines()) == (2 if errors else 0, errors)


@pytest.mark.parametrize("command", ["export-milp", "train"])
def test_label_only_csv_exit_code(tmp_path, capsys, command):
    # export-milp ended in a numpy traceback (exit 1) and train blamed the
    # basis form '1' for reading coordinate 0.
    data = tmp_path / "train.csv"
    data.write_text("y\n1\n2\n3\n")
    out = tmp_path / ("prob.mps" if command == "export-milp" else "model.tree.json")
    assert run([command, "--data", str(data), "--out", str(out)]) == 2
    assert "at least one feature column" in capsys.readouterr().err
    assert not out.exists()


def test_import_solution_round_trip(workspace):
    ws, cfg = workspace
    model = deserialize((ws / "model.tree.json").read_text())
    from symtree.basis import canonical_basis
    from symtree.milp import build_milp, node_sets
    from symtree.tree import BRANCH, route

    data = Dataset.from_csv((ws / "train.csv").read_text())
    lcfg = load_config(str(cfg)).learn_config()
    nn, _, internal = node_sets(lcfg.depth)
    lines = []
    for n in nn:
        lines.append(f"d[{n}] {1 if model.kind(n) == BRANCH else 0}")
    for n in internal:
        lines.append(f"a[1,{n}] {1 if n in model.rules else 0}")
        if n in model.rules:
            lines.append(f"b[{n}] {model.rules[n].threshold!r}")
    for i in range(1, data.n_points + 1):
        leaf = route(model, data.X[i - 1])
        for n in nn:
            lines.append(f"z[{i},{n}] {1 if n == leaf else 0}")
    sol = ws / "fit.sol"
    sol.write_text("\n".join(lines) + "\n")
    out = ws / "imported.tree.json"
    assert run(["import-sol", "--config", str(cfg), "--data",
                str(ws / "train.csv"), "--sol", str(sol),
                "--out", str(out)]) == 0
    report = json.loads((ws / "imported.report.json").read_text())
    own = json.loads((ws / "model.report.json").read_text())
    assert report["recomputed_objective"] == pytest.approx(own["objective"],
                                                           abs=1e-8)


def test_simulate_constant_controller(workspace):
    ws, cfg = workspace
    out = ws / "trace.csv"
    assert run(["simulate", "--config", str(cfg), "--controller", "const:54",
                "--out", str(out)]) == 0
    metrics = json.loads((ws / "trace.metrics.json").read_text())
    assert metrics["iae"] >= 0.0
    assert set(metrics) == {"provenance", "controller", "iae", "latency_mean_s",
                            "latency_max_s", "latency_p50_s", "latency_p99_s",
                            "trace_file"}
    assert 0.0 <= metrics["latency_p50_s"] <= metrics["latency_p99_s"] \
        <= metrics["latency_max_s"]
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,u,latency_s"
    assert len(lines) == 12  # 10 steps + terminal row + header


def test_simulate_model_controller(workspace, tmp_path):
    ws, cfg = workspace
    mpath = tmp_path / "ref.tree.json"
    mpath.write_text(serialize(reference_model()))
    assert run(["simulate", "--config", str(cfg),
                "--controller", f"model:{mpath}",
                "--out", str(tmp_path / "trace.csv")]) == 0


def test_usage_error_exit_code(capsys):
    assert run(["train"]) == 1  # missing --data
    assert run(["bogus-command"]) == 1
    capsys.readouterr()


def test_runtime_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert run(["train", "--data", str(missing),
                "--out", str(tmp_path / "m.json")]) == 2
    assert run(["simulate", "--controller", "warp-drive",
                "--out", str(tmp_path / "t.csv")]) == 2
    for n_train in (-1, 2.5):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"n_train": n_train}}))
        assert run(["gen-data", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "data")]) == 2
    capsys.readouterr()
    # A negative rate limit is named, not left to fail every MPC start.
    cfg.write_text(json.dumps({"mpc": {"u_rate_max": -5}}))
    assert run(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path / "data")]) == 2
    assert "u_rate_max" in capsys.readouterr().err


def _gen_data_refused(tmp_path, capsys, monkeypatch, data) -> str:
    """Runs gen-data with the data section given; checks that it exits 2 with
    one error line, writes nothing and solves no MPC; returns that line."""
    solves = []
    monkeypatch.setattr(mpc, "solve_mpc", lambda *a, **k: solves.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": data}))
    out = tmp_path / "data"
    assert run(["gen-data", "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() and not solves
    return err


def test_gen_data_negative_seed_exit_code(tmp_path, capsys, monkeypatch):
    # The test set is drawn with seed + 1, so seed -2 would reach the seeded
    # draw as -1; it is refused first, as the user wrote it.
    err = _gen_data_refused(tmp_path, capsys, monkeypatch, {"seed": -2})
    assert "data.seed" in err and err.endswith("got -2\n")


@pytest.mark.parametrize("data, shown", [
    ({"seed": -1, "mode": "seeded-random"}, "data.seed"), ({"n_test": 0}, "got 0"),
    ({"n_train": 0}, "data.n_train"), ({"n_test": -1}, "data.n_test")])
def test_gen_data_refuses_a_bad_draw_before_any_solve(tmp_path, capsys, monkeypatch,
                                                      data, shown):
    """A train set that cannot be drawn, and a test set that cannot, are
    both refused before the train set is labelled, a bad count by its key."""
    assert shown in _gen_data_refused(tmp_path, capsys, monkeypatch, data)


def test_gen_data_seed_minus_one_draws_a_uniform_grid_train_set(tmp_path):
    # Its test set is drawn with seed 0.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"seed": -1, "n_train": 3, "n_test": 2}}))
    assert run(["gen-data", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    assert len((tmp_path / "test.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("text", ["x,y\n", "x,y\n0.5,1.0\n0.6,abc\n",
                                  "x,y\n0.5,1.0\n0.6\n", "x,y\n0.5,1.0,2.0\n"])
def test_malformed_dataset_exit_code(tmp_path, capsys, text):
    """Header only, a non-numeric cell, a short row and a long row."""
    data = tmp_path / "train.csv"
    data.write_text(text)
    assert run(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_import_non_finite_solution_exit_code(workspace, tmp_path, capsys):
    ws, cfg = workspace
    sol = tmp_path / "bad.sol"
    for value in ("nan", "inf"):
        sol.write_text(f"d[1] {value}\n")
        assert run(["import-sol", "--config", str(cfg), "--data", str(ws / "train.csv"),
                    "--sol", str(sol), "--out", str(tmp_path / "i.tree.json")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_predict_outside_basis_domain_exit_code(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text(serialize(reference_model()))
    for x in ("0.001", "-0.001", "800", "0"):
        assert run(["predict", "--model", str(mpath), "--x", x]) == 2
    assert "overflowed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["predict", "--model", "{d}/overflow.tree.json", "--x", "0.9"],
    ["simulate", "--controller", "model:{d}/overflow.tree.json", "--out", "{d}/t.csv"],
    ["report", "--test", "{d}/test.csv", "--reports", "{d}/r.json", "--out", "{d}/c.json"]],
    ids=["predict", "simulate", "report"])
def test_overflowing_leaf_refused_in_one_line(tmp_path, capsys, argv):
    """Every leaf's coefficients 1e308: the inner product overflows, and the
    refusal is the one error line, with no RuntimeWarning from numpy."""
    doc = json.loads(serialize(reference_model()))
    for node in doc["nodes"]:
        if "coeffs" in node:
            node["coeffs"] = [1e308] * len(node["coeffs"])
    (tmp_path / "overflow.tree.json").write_text(json.dumps(doc))
    (tmp_path / "test.csv").write_text("x,y\n0.9,75.0\n")
    (tmp_path / "r.json").write_text(json.dumps(
        {"provenance": {}, "kind": "symbolic", "model_file": "overflow.tree.json"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([a.format(d=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err


def test_baseline_leaf_out_of_float_range_refused_in_one_line(tmp_path, capsys):
    """Labels of +-1e308: the linear-leaf tree's residuals leave float range.
    The refusal is one error line, not numpy's RuntimeWarnings or a
    LinAlgError traceback."""
    data = tmp_path / "huge.csv"
    data.write_text("x,y\n0.1,1e308\n0.2,-1e308\n0.3,1e308\n0.4,-1e308\n")
    out = tmp_path / "lintree.tree.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["baseline", "--kind", "lintree", "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_predict_takes_dash_led_floats(tmp_path, capsys):
    """A dash-led --x is a value, not an option: '--x -1e-3' and '--x -inf'
    were usage errors (exit 1) where '--x=-1e-3' and '--x -0.5' worked."""
    mpath = tmp_path / "m.json"
    mpath.write_text(serialize(reference_model()))
    assert run(["predict", "--model", str(mpath), "--x=-5e-2"]) == 0
    joined = capsys.readouterr()
    assert run(["predict", "--model", str(mpath), "--x", "-5e-2"]) == 0
    assert capsys.readouterr() == joined
    assert run(["predict", "--model", str(mpath), "--x", "-inf"]) == 2
    assert capsys.readouterr().err == \
        "error: input coordinate 0 is -inf, not a finite number\n"
    assert run(["predict", "--model", str(mpath), "--x", "-1e-3"]) == 2
    assert capsys.readouterr().err == \
        "error: basis form 'exp(-1/x)' overflowed at x=-0.001\n"


@pytest.mark.parametrize("kind", ["model", "cart"])
@pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
def test_predict_non_finite_input_exit_code(workspace, tmp_path, capsys, kind, x):
    """The input is refused by name: the reference model blamed basis form
    'x' for an overflow, and the CART baseline (basis 1) answered NaN with
    its right leaf, exit 0."""
    ws, cfg = workspace
    mpath = tmp_path / "m.json"
    if kind == "model":
        mpath.write_text(serialize(reference_model()))
    else:
        assert run(["baseline", "--kind", "cart", "--config", str(cfg),
                    "--data", str(ws / "train.csv"), "--out", str(mpath)]) == 0
        capsys.readouterr()
    assert run(["predict", "--model", str(mpath), f"--x={x}"]) == 2
    assert capsys.readouterr().err == \
        f"error: input coordinate 0 is {float(x)!r}, not a finite number\n"


@pytest.mark.parametrize("sim", ['{"t_final": NaN}', '{"t_final": Infinity}',
                                 '{"x0": NaN}', '{"x0": 50}'])
def test_simulate_bad_sim_section_exit_code(tmp_path, capsys, sim):
    # json.loads accepts NaN and Infinity, so they reach simulate.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sim": %s}' % sim)
    assert run(["simulate", "--config", str(cfg), "--controller", "const:54",
                "--out", str(tmp_path / "trace.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
def test_simulate_non_finite_constant_refused(tmp_path, capsys, value):
    # Refused as configuration, before any loop runs or any file is written.
    out = tmp_path / "trace.csv"
    assert run(["simulate", "--controller", f"const:{value}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: constant control must be a finite number, got 'const:{value}'\n"
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"sim": {"t_final": "ten"}}, {"mpc": {"T": "10"}}, {"sim": {"dt_sample": True}},
    {"mpc": {"x_bounds": [0.0, "1"]}}, {"mpc": {"u_bounds": [0.0, 75.0, 1.0]}},
    {"mpc": {"T": 10.5}}, {"data": {"seed": 1.5}},
    {"learn": {"y_bounds": 5.0}}, {"learn": {"y_bounds": [True, 1.0]}}])
def test_wrongly_typed_config_exit_code(tmp_path, capsys, doc):
    # A string or bool where a number belongs, a malformed pair, a fraction
    # where an integer belongs, and a y_bounds that is neither null nor a pair.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run(["simulate", "--config", str(cfg), "--controller", "const:54",
                "--out", str(tmp_path / "trace.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_typed_config_values_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mpc": {"T": 12, "x_bounds": [0, 1]},
                               "learn": {"y_bounds": [-1, 80.5]}}))
    lc = load_config(str(cfg)).learn_config()
    assert (lc.y_lb, lc.y_ub) == (-1, 80.5)
    cfg.write_text(json.dumps({"learn": {"y_bounds": None}}))
    assert load_config(str(cfg)).learn_config().y_lb is None


def test_negative_feature_model_exit_code(workspace, tmp_path, capsys):
    ws, cfg = workspace
    doc = json.loads(serialize(reference_model()))
    doc["nodes"][0]["feature"] = -1
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(doc))
    assert run(["predict", "--model", str(mpath), "--x", "0.5"]) == 2
    assert run(["simulate", "--config", str(cfg), "--controller", f"model:{mpath}",
                "--out", str(tmp_path / "trace.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("negative feature index") == 2
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("feature", [0, 1])
def test_predict_too_few_coordinates_exit_code(tmp_path, capsys, feature):
    """A two-feature model read at a one-coordinate point: the branch rule
    (feature 1) or the basis form x@1 (feature 0) finds no coordinate 1."""
    model = TreeModel(
        depth=1,
        rules={1: BranchRule(feature=feature, threshold=0.5)},
        leaves={2: LeafExpression(coefficients=(1.0, 2.0)),
                3: LeafExpression(coefficients=(-1.0, 0.5))},
        basis=basis_from_forms(["1", "x@1"]), bounds=Bounds(-5.0, 5.0, -10.0, 10.0))
    mpath = tmp_path / "m.json"
    mpath.write_text(serialize(model))
    assert run(["predict", "--model", str(mpath), "--x", "0.3"]) == 2
    assert "but the point has 1" in capsys.readouterr().err


def test_defaults_document_shape():
    assert set(DEFAULTS) == {"plant", "mpc", "learn", "data", "sim"}


@pytest.mark.parametrize("change, match", [
    ({"depth": 60}, "missing ids"), ({"depth": -1}, "depth -1 is negative"),
    ({"coeffs": ["a"]}, "node 4: coefficients must be numbers"),
    ({"coeffs": [6.241]}, "node 4: 1 coefficients for 19 basis functions"),
    ({"coeffs": [float("inf")] * 19}, "node 4: coefficients must be finite"),
    ({"threshold": float("nan")}, "node 1: threshold nan is not finite"),
    ({"leaf": 2}, "node 2: non-branch node with active child 4"),
    ({"basis": [1] * 19}, "basis form 1 is not a string"),
    ({"bounds": {"c_lb": float("nan")}}, "bounds: field 'c_lb' is NaN"),
    ({"bounds": {"c_lb": 5.0, "c_ub": -5.0}}, "bounds: c_lb 5.0 exceeds c_ub -5.0")],
    ids=["depth-60", "depth-negative", "coeff-string", "coeff-count", "coeff-inf",
         "threshold-nan", "leaf-over-leaves", "basis-non-string", "bound-nan",
         "bound-crossed"])
def test_malformed_model_file_exit_code(workspace, tmp_path, capsys, change, match):
    """A depth the nodes do not fill, a non-numeric or infinite coefficient, a
    leaf shorter than the basis, a NaN threshold (which sent every point
    right), a leaf with active children (which predict served), a basis form
    that is not a string (an AttributeError traceback), a NaN bound (which
    turned validate's box check off) and a crossed bound (which both commands
    served) are refused on load, by predict and simulate alike."""
    ws, cfg = workspace
    doc = json.loads(serialize(reference_model()))
    if "depth" in change:
        doc["depth"] = change["depth"]
    elif "coeffs" in change:
        doc["nodes"][3]["coeffs"] = change["coeffs"]
    elif "leaf" in change:
        n = change["leaf"]
        doc["nodes"][n - 1] = {"id": n, "kind": "leaf", "coeffs": [0.0] * 19}
    elif "basis" in change:
        doc["basis"] = change["basis"]
    elif "bounds" in change:
        doc["bounds"].update(change["bounds"])
    else:
        doc["nodes"][0]["threshold"] = change["threshold"]
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(doc))
    assert run(["predict", "--model", str(mpath), "--x", "0.5"]) == 2
    assert run(["simulate", "--config", str(cfg), "--controller", f"model:{mpath}",
                "--out", str(tmp_path / "trace.csv")]) == 2
    assert capsys.readouterr().err.count(match) == 2
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("kind", ["cart", "lintree"])
def test_baseline_depth_zero_exit_code(workspace, tmp_path, capsys, kind):
    ws, _ = workspace
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learn": {"depth": 0}}))
    assert run(["baseline", "--kind", kind, "--config", str(cfg),
                "--data", str(ws / "train.csv"), "--out", str(tmp_path / "b.tree.json")]) == 2
    assert "depth must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("text, match", [
    ("{not json", "invalid JSON"), ("[1, 2]", "must be a JSON object"),
    ('{"kind": "cart", "model_file": "cart.tree.json"}', "missing field 'provenance'"),
    ('{"provenance": {}, "model_file": "cart.tree.json"}', "missing field 'kind'"),
    ('{"provenance": {}, "kind": "cart"}', "missing field 'model_file'"),
    ('{"provenance": {}, "kind": "cart", "model_file": 3}', "'model_file' has wrong type")],
    ids=["not-json", "not-object", "no-provenance", "no-kind", "no-model-file",
         "model-file-number"])
def test_report_malformed_report_exit_code(workspace, tmp_path, capsys, text, match):
    ws, _ = workspace
    bad = tmp_path / "bad.report.json"
    bad.write_text(text)
    assert run(["report", "--test", str(ws / "test.csv"), "--reports", str(bad),
                "--out", str(tmp_path / "cmp.json")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and match in err

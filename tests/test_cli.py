import json
import platform

import numpy as np
import pytest
import scipy

from symtree.basis import basis_from_forms
from symtree.cli import run
from symtree.config import DEFAULTS, load_config
from symtree.errors import ConfigError
from symtree.learner import Dataset
from symtree.reference import reference_model
from symtree.tree import (BRANCH, LEAF, Bounds, BranchRule, LeafExpression,
                          TreeModel, TreeTopology, deserialize, serialize)


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
    assert lc.big_M == 1000.0


def test_unknown_keys_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"plant": {"volume": 50}}))
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text(json.dumps({"reactor": {}}))
    with pytest.raises(ConfigError):
        load_config(str(bad))


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
        lines.append(f"d[{n}] {1 if model.topology.kinds[n] == BRANCH else 0}")
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


@pytest.mark.parametrize("sim", ['{"t_final": NaN}', '{"t_final": Infinity}',
                                 '{"x0": NaN}', '{"x0": 50}'])
def test_simulate_bad_sim_section_exit_code(tmp_path, capsys, sim):
    # json.loads accepts NaN and Infinity, so they reach simulate.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sim": %s}' % sim)
    assert run(["simulate", "--config", str(cfg), "--controller", "const:54",
                "--out", str(tmp_path / "trace.csv")]) == 2
    assert "error:" in capsys.readouterr().err


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
        topology=TreeTopology(depth=1, kinds={1: BRANCH, 2: LEAF, 3: LEAF}),
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

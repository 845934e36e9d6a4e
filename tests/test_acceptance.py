"""End-to-end acceptance checks.

One test per criterion, each printing a single pass/fail line.  The module
shares a single canonical pipeline run (MPC labeling of 100 states, all four
model fits, four closed-loop simulations), so the full module takes several
minutes of compute.
"""

import time

import numpy as np
import pytest

from oracles import brute_force_depth1, milp_optimum_depth1
from test_lp import oracle_solve, random_lp
from symtree import mpc
from symtree.baselines import fit_cart_constant, fit_cart_linear, fit_sparse
from symtree.basis import basis_from_forms, canonical_basis
from symtree.cli import run
from symtree.closed_loop import (Controller, integrate_hold, iae,
                                 latency_stats, model_controller, simulate)
from symtree.config import load_config
from symtree.learner import Dataset, LearnConfig, fit_tree
from symtree.lp import fit_l1, solve_lp
from symtree.milp import build_milp, expected_counts
from symtree.mpc import generate_dataset, solve_mpc
from symtree.reference import reference_model
from symtree.tree import (Bounds, BranchRule, LeafExpression, TreeModel,
                          deserialize, predict, route, serialize)


def _verdict(capsys, num, name, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def canonical():
    """Canonical datasets: MPC-labeled train (grid) and test (random)."""
    cfg = load_config(None)
    spec = cfg.mpc_spec()
    d = cfg["data"]
    t0 = time.perf_counter()
    train = generate_dataset(spec, d["n_train"], *d["range"], mode=d["mode"],
                             seed=d["seed"])
    test = generate_dataset(spec, d["n_test"], *d["range"],
                            mode="seeded-random", seed=d["seed"] + 1)
    gen_time = time.perf_counter() - t0
    return {"cfg": cfg, "train": train, "test": test, "gen_time": gen_time}


@pytest.fixture(scope="module")
def models(canonical):
    """All four models fitted on the canonical training set."""
    cfg = canonical["cfg"]
    train = canonical["train"]
    lcfg = cfg.learn_config()
    t0 = time.perf_counter()
    rep = fit_tree(train, canonical_basis(), lcfg)
    out = {
        "symbolic": rep.model,
        "sparse": fit_sparse(train, canonical_basis(), lcfg.lambda_m,
                             (lcfg.c_lb, lcfg.c_ub)),
        "cart": fit_cart_constant(train, lcfg.depth),
        "lintree": fit_cart_linear(train, lcfg.depth),
    }
    out["fit_time"] = time.perf_counter() - t0
    out["report"] = rep
    return out


@pytest.fixture(scope="module")
def sims(canonical, models):
    """Closed-loop traces from the canonical scenario for MPC + 3 surrogates."""
    cfg = canonical["cfg"]
    plant = cfg.plant_spec()
    spec = cfg.mpc_spec()
    sim = cfg["sim"]

    def mpc_fn(x):
        return solve_mpc(spec, float(x)).first_action

    controllers = {
        "mpc": Controller(u_bounds=spec.u_bounds, fn=mpc_fn),
        "symbolic": model_controller(models["symbolic"], spec.u_bounds),
        "lintree": model_controller(models["lintree"], spec.u_bounds),
        "sparse": model_controller(models["sparse"], spec.u_bounds),
    }
    return {name: simulate(plant, ctrl, sim["x0"], sim["t_final"],
                           sim["dt_sample"])
            for name, ctrl in controllers.items()}


def test_criterion_1_milp_fidelity(canonical, tmp_path, capsys):
    (tmp_path / "train.csv").write_text(canonical["train"].to_csv())
    out = tmp_path / "prob.mps"
    t0 = time.perf_counter()
    code = run(["export-milp", "--data", str(tmp_path / "train.csv"),
                "--out", str(out)])
    elapsed = time.perf_counter() - t0
    import json
    counts = json.loads((tmp_path / "prob.counts.json").read_text())
    got = (counts["n_vars"], counts["n_binary"], counts["n_rows"])
    ok = (code == 0
          and got == expected_counts(50, 1, 2, 19) == (1612, 360, 3663)
          and abs(got[0] - 1615) <= 5 and abs(got[1] - 363) <= 5
          and abs(got[2] - 3662) <= 10
          and elapsed < 5.0)
    _verdict(capsys, 1, "MILP fidelity", ok,
             f"counts {got}, {elapsed:.2f} s")


def test_criterion_2_learner_oracle_equivalence(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_bf = worst_milp = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        forms = [["1"], ["1", "x"]][int(rng.integers(0, 2))]
        data = Dataset(X=np.round(rng.uniform(0.2, 1.0, (n, 1)), 2),
                       y=np.round(rng.uniform(-1.0, 1.0, n), 2))
        cfg = LearnConfig(depth=1,
                          lambda_c=float(rng.choice([0.0, 1e-2])),
                          lambda_m=float(rng.choice([0.0, 1e-2])))
        rep = fit_tree(data, basis_from_forms(forms), cfg)
        bf = brute_force_depth1(data, basis_from_forms(forms), cfg)
        milp_opt = milp_optimum_depth1(
            build_milp(data, basis_from_forms(forms), cfg), n)
        worst_bf = max(worst_bf, abs(rep.objective - bf))
        worst_milp = max(worst_milp, abs(rep.objective - milp_opt))
    elapsed = time.perf_counter() - t0
    ok = worst_bf <= 1e-8 and worst_milp <= 1e-6 and elapsed < 120.0
    _verdict(capsys, 2, "exact-learner oracle equivalence", ok,
             f"|d| vs brute force {worst_bf:.2e}, vs MILP {worst_milp:.2e}, "
             f"{elapsed:.0f} s")


def test_criterion_3_in_class_recovery(capsys):
    rng = np.random.default_rng(103)
    basis = basis_from_forms(["1", "x", "exp(x)"])
    truth = TreeModel(
        depth=2,
        rules={1: BranchRule(feature=0, threshold=0.45),
               3: BranchRule(feature=0, threshold=0.7)},
        leaves={2: LeafExpression(coefficients=(2.0, -1.0, 0.5)),
                6: LeafExpression(coefficients=(0.0, 4.0, -0.3)),
                7: LeafExpression(coefficients=(-1.0, 0.0, 1.2))},
        basis=basis, bounds=Bounds(-100, 100, -100, 100),
    )
    X = rng.uniform(0.1, 0.9, (14, 1))
    y = np.array([predict(truth, x) for x in X])
    rep = fit_tree(Dataset(X=X, y=y), basis,
                   LearnConfig(depth=2, lambda_c=0.0, lambda_m=0.0))
    ok = rep.objective <= 1e-8
    _verdict(capsys, 3, "in-class depth-2 recovery", ok,
             f"objective {rep.objective:.2e}")


def test_criterion_4_stored_model_saturated_region(capsys):
    model = reference_model()
    grid = np.linspace(0.70, 0.89, 200)
    worst = max(abs(predict(model, float(x)) - 75.0) for x in grid)
    ok = worst <= 0.1
    _verdict(capsys, 4, "published model constant-75 region", ok,
             f"max |pred - 75| = {worst:.4f}")


def test_criterion_5_mpc_oracle_sanity(capsys):
    spec = load_config(None).mpc_spec()
    sol = solve_mpc(spec, 0.6)
    first_ok = abs(sol.first_action - 54.0) <= 2.0

    rng = np.random.default_rng(107)
    worst_grad = 0.0
    for _ in range(100):
        x0 = float(rng.uniform(0.1, 0.9))
        u = rng.uniform(0.0, 75.0, spec.T - 1)
        # The closure of a solve's first subproblem: zero multipliers, rho 10.
        sweep = mpc._sweeper(spec, x0, np.zeros(4 * spec.T - 6), 10.0)
        grad = sweep(u)[1]
        h = 1e-6
        for t in range(spec.T - 1):
            up, um = u.copy(), u.copy()
            up[t] += h
            um[t] -= h
            fd = (sweep(up)[0] - sweep(um)[0]) / (2 * h)
            worst_grad = max(worst_grad,
                             abs(grad[t] - fd) / max(1.0, abs(fd)))

    worst_viol = 0.0
    for x0 in [0.1, 0.35, 0.6, 0.75, 0.9]:
        s = solve_mpc(spec, x0)
        u = s.controls
        worst_viol = max(
            worst_viol,
            float(np.max(spec.u_bounds[0] - u, initial=0.0)),
            float(np.max(u - spec.u_bounds[1], initial=0.0)),
            float(np.max(np.abs(np.diff(u)) - spec.h * spec.u_rate_max,
                         initial=0.0)),
            float(np.max(spec.x_bounds[0] - s.states, initial=0.0)),
            float(np.max(s.states - spec.x_bounds[1], initial=0.0)))
    ok = first_ok and worst_grad <= 1e-5 and worst_viol <= 1e-6
    _verdict(capsys, 5, "MPC oracle sanity", ok,
             f"u(0.6) = {sol.first_action:.2f}, grad err {worst_grad:.2e}, "
             f"constraint viol {worst_viol:.2e}")


def test_criterion_6_accuracy_ordering(canonical, models, capsys):
    test = canonical["test"]

    def mae(model):
        return float(np.mean([abs(predict(model, x) - y)
                              for x, y in zip(test.X, test.y)]))

    m = {name: mae(models[name])
         for name in ("symbolic", "lintree", "sparse", "cart")}
    pipeline_time = canonical["gen_time"] + models["fit_time"]
    ok = (m["symbolic"] < m["lintree"] < m["sparse"] < m["cart"]
          and m["symbolic"] <= 0.15
          and pipeline_time <= 15 * 60)
    _verdict(capsys, 6, "test-MAE ordering", ok,
             "MAE " + " < ".join(f"{m[k]:.4f}" for k in
                                 ("symbolic", "lintree", "sparse", "cart"))
             + f", pipeline {pipeline_time:.0f} s")


def test_criterion_7_closed_loop(canonical, sims, capsys):
    x_sp = canonical["cfg"]["mpc"]["x_sp"]
    iaes = {name: iae(tr, x_sp) for name, tr in sims.items()}
    tree_mean, _ = latency_stats(sims["symbolic"])
    mpc_mean, _ = latency_stats(sims["mpc"])
    ok = (iaes["symbolic"] <= 1.10 * iaes["mpc"]
          and iaes["lintree"] > iaes["symbolic"]
          and iaes["sparse"] > iaes["symbolic"]
          and tree_mean <= 1e-3
          and tree_mean <= mpc_mean)
    _verdict(capsys, 7, "closed-loop performance", ok,
             f"IAE mpc {iaes['mpc']:.3f} tree {iaes['symbolic']:.3f} "
             f"lintree {iaes['lintree']:.3f} sparse {iaes['sparse']:.3f}; "
             f"latency tree {tree_mean:.2e} s, mpc {mpc_mean:.2e} s")


def test_criterion_8_property_suites(capsys):
    # routing totality and the tie rule: x == threshold goes right
    basis = basis_from_forms(["1"])
    tie = TreeModel(
        depth=1,
        rules={1: BranchRule(feature=0, threshold=0.5)},
        leaves={2: LeafExpression(coefficients=(0.0,)),
                3: LeafExpression(coefficients=(1.0,))},
        basis=basis, bounds=Bounds(-1, 1, -1, 1),
    )
    routing_ok = (route(tie, 0.5) == 3 and route(tie, 0.499) == 2
                  and all(route(tie, float(x)) in (2, 3)
                          for x in np.linspace(-5, 5, 101)))

    # serialization round-trip on the richest model available
    model = reference_model()
    again = deserialize(serialize(model))
    serial_ok = (serialize(again) == serialize(model)
                 and all(predict(again, x) == predict(model, x)
                         for x in np.linspace(0.1, 0.9, 33)))

    # HiGHS-backed solve_lp vs the solver-free vertex-enumeration oracle
    rng = np.random.default_rng(109)
    lp_ok, checked = True, 0
    for _ in range(30):
        lp = random_lp(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        sol = solve_lp(*lp)
        ref = oracle_solve(*lp)
        if ref is None:
            lp_ok &= sol.status == "infeasible"
        else:
            lp_ok &= (sol.status == "optimal"
                      and abs(sol.objective - ref) <= 1e-6)
            checked += 1
    lp_ok &= checked >= 5

    # RK4 order: step halving must shrink the error 8-32x
    from symtree.mpc import PlantSpec
    plant = PlantSpec()
    x1 = integrate_hold(plant, 0.3, 60.0, 0.5, h_int=0.1)
    x2 = integrate_hold(plant, 0.3, 60.0, 0.5, h_int=0.05)
    x3 = integrate_hold(plant, 0.3, 60.0, 0.5, h_int=0.025)
    ratio = (x1 - x2) / (x2 - x3)
    rk4_ok = 8.0 <= ratio <= 32.0

    # lambda_m monotonicity of fit_l1
    rng = np.random.default_rng(113)
    Phi = rng.uniform(-1, 1, (12, 3))
    y = rng.uniform(-2, 2, 12)
    mono_ok = True
    prev_l1 = None
    for lam in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
        c, _ = fit_l1(Phi, y, 1.0 / 12, lam, (-10.0, 10.0))
        l1 = float(np.sum(np.abs(c)))
        if prev_l1 is not None:
            mono_ok &= l1 <= prev_l1 + 1e-9
        prev_l1 = l1

    ok = routing_ok and serial_ok and lp_ok and rk4_ok and mono_ok
    _verdict(capsys, 8, "property suites", ok,
             f"routing {routing_ok}, serialization {serial_ok}, "
             f"LP oracle {lp_ok}, RK4 ratio {ratio:.1f}, "
             f"lambda_m monotone {mono_ok}")

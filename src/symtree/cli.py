"""Batch command-line front-end for the control-law learning pipeline.

Subcommands cover dataset generation, training, baselines, MILP export and
solution import, point prediction, closed-loop simulation, and report
merging. Every written artifact records provenance (config hash, dataset
hash, tool, Python, numpy and scipy versions) so downstream steps can refuse
mismatched inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .basis import canonical_basis
from .baselines import fit_cart_constant, fit_cart_linear, fit_sparse
from .closed_loop import (constant_controller, iae, latency_stats,
                          model_controller, mpc_controller, simulate)
from .config import load_config
from .errors import ConfigError, SymtreeError
from .learner import Dataset, fit_tree, mean_abs_error, objective_of
from .milp import build_milp, parse_solution_text, read_solution, write_mps
from .mpc import label_states, sample_states
from .tree import _json_object, _require, deserialize, predict, serialize

USAGE_ERROR = 1
RUNTIME_ERROR = 2


def _provenance(cfg, data=None) -> dict:
    out = {"tool_version": __version__, "python_version": platform.python_version(),
           "numpy_version": np.__version__, "scipy_version": scipy.__version__,
           "config_hash": cfg.config_hash()}
    if data is not None:
        out["dataset_sha256"] = data.sha256()
    return out


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _read_dataset(path) -> Dataset:
    with open(path) as fh:
        return Dataset.from_csv(fh.read())


def _sibling(path, suffix) -> str:
    base = path[: -len(".tree.json")] if path.endswith(".tree.json") else \
        os.path.splitext(path)[0]
    return base + suffix


def _write_model(path, model, kind, cfg, data, **fields) -> dict:
    """Write the model JSON and its .report.json: provenance, kind, model
    file and training metrics, then the command's own fields."""
    with open(path, "w") as fh:
        fh.write(serialize(model))
    objective, (l_acc, l_c, l_m) = objective_of(model, data, cfg.learn_config())
    doc = {"provenance": _provenance(cfg, data), "kind": kind,
           "model_file": os.path.basename(path),
           "objective": objective, "train_mae": l_acc,
           "n_branch": int(l_c), "coeff_l1": l_m, **fields}
    _write_json(_sibling(path, ".report.json"), doc)
    return doc


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.mpc_spec()
    d = cfg["data"]
    lo, hi = d["range"]
    # Both sets are drawn, and every bad draw refused, before the first MPC
    # solve. The test set is drawn with seed + 1, so a seed is refused under
    # the key and value the user wrote, and so is a count.
    if d["seed"] < (0 if d["mode"] == "seeded-random" else -1):
        raise ConfigError(f"data.seed must be at least 0, or -1 with a uniform-grid train "
                          f"set (the test set is drawn with data.seed + 1), got {d['seed']!r}")
    for key in ("n_train", "n_test"):
        if d[key] < 1:
            raise ConfigError(f"data.{key} must be a positive integer, got {d[key]!r}")
    train_x = sample_states(spec, d["n_train"], lo, hi, d["mode"], d["seed"])
    test_x = sample_states(spec, d["n_test"], lo, hi, "seeded-random", d["seed"] + 1)
    train, test = label_states(spec, train_x), label_states(spec, test_x)
    os.makedirs(args.out_dir, exist_ok=True)
    for name, ds in (("train", train), ("test", test)):
        with open(os.path.join(args.out_dir, f"{name}.csv"), "w") as fh:
            fh.write(ds.to_csv())
    _write_json(os.path.join(args.out_dir, "datasets.json"), {
        "provenance": _provenance(cfg),
        "train_sha256": train.sha256(),
        "test_sha256": test.sha256(),
        "n_train": train.n_points, "n_test": test.n_points,
    })
    print(f"wrote train.csv ({train.n_points} pts), test.csv ({test.n_points} pts)"
          f" to {args.out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    data = _read_dataset(args.data)
    lcfg = cfg.learn_config()
    rep = fit_tree(data, canonical_basis(), lcfg)
    doc = _write_model(
        args.out, rep.model, "symbolic", cfg, data,
        splits=[{"node": n, "feature": r.feature, "threshold": r.threshold}
                for n, r in sorted(rep.model.rules.items())],
        subproblems_solved=rep.subproblems_solved, wall_time_s=rep.wall_time)
    print(f"objective {rep.objective:.6g} with {doc['n_branch']} branch nodes"
          f" ({rep.subproblems_solved} leaf LPs solved, {rep.wall_time:.1f} s)")
    return 0


def cmd_baseline(args) -> int:
    cfg = load_config(args.config)
    data = _read_dataset(args.data)
    lcfg = cfg.learn_config()
    if args.kind == "sparse":
        model = fit_sparse(data, canonical_basis(), lcfg.lambda_m,
                           (lcfg.c_lb, lcfg.c_ub))
    elif args.kind == "cart":
        model = fit_cart_constant(data, lcfg.depth)
    else:
        model = fit_cart_linear(data, lcfg.depth)
    doc = _write_model(args.out, model, args.kind, cfg, data)
    print(f"{args.kind}: train MAE {doc['train_mae']:.6g}")
    return 0


def cmd_export_milp(args) -> int:
    cfg = load_config(args.config)
    data = _read_dataset(args.data)
    art = build_milp(data, canonical_basis(), cfg.learn_config())
    write_mps(art, args.out)
    _write_json(_sibling(args.out, ".counts.json"), {
        "provenance": _provenance(cfg, data),
        "n_vars": art.n_vars, "n_binary": art.n_binary, "n_rows": art.n_rows,
    })
    print(f"{art.n_vars} variables ({art.n_binary} binary), {art.n_rows} rows"
          f" -> {args.out}")
    return 0


def cmd_import_sol(args) -> int:
    cfg = load_config(args.config)
    data = _read_dataset(args.data)
    art = build_milp(data, canonical_basis(), cfg.learn_config())
    with open(args.sol) as fh:
        assignments = parse_solution_text(fh.read())
    decoded = read_solution(art, assignments)
    _write_model(args.out, decoded.model, "milp-import", cfg, data,
                 claimed_objective=decoded.claimed_objective,
                 recomputed_objective=decoded.objective)
    claimed = ("none" if decoded.claimed_objective is None
               else f"{decoded.claimed_objective:.6g}")
    print(f"recomputed objective {decoded.objective:.6g} (claimed: {claimed})")
    return 0


# A leaf whose inner product overflows is refused with one error line (the
# DomainError that tree.predict raises), not after numpy's RuntimeWarning.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def cmd_predict(args) -> int:
    with open(args.model) as fh:
        model = deserialize(fh.read())
    print(repr(predict(model, args.x)))
    return 0


def _make_controller(spec, name):
    if name == "mpc":
        return mpc_controller(spec)
    if name.startswith("model:"):
        with open(name[len("model:"):]) as fh:
            return model_controller(deserialize(fh.read()), spec.u_bounds)
    if name.startswith("const:"):
        try:
            value = float(name[len("const:"):])
        except ValueError:  # not a number: refused with the non-finite ones
            value = math.nan
        if not math.isfinite(value):
            raise ConfigError(f"constant control must be a finite number, got {name!r}")
        return constant_controller(value, spec.u_bounds)
    raise ConfigError(f"unknown controller {name!r} "
                      "(expected mpc, model:<path>, or const:<value>)")


@_quiet_overflow
def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.mpc_spec()
    sim = cfg["sim"]
    ctrl = _make_controller(spec, args.controller)
    trace = simulate(cfg.plant_spec(), ctrl, sim["x0"], sim["t_final"],
                     sim["dt_sample"])
    with open(args.out, "w") as fh:
        fh.write(trace.to_csv())
    lat_mean, lat_max = latency_stats(trace)
    lat_p50, lat_p99 = np.percentile(trace.latencies, [50, 99])
    doc = {
        "provenance": _provenance(cfg),
        "controller": args.controller,
        "iae": iae(trace, spec.x_sp),
        "latency_mean_s": lat_mean, "latency_max_s": lat_max,
        "latency_p50_s": float(lat_p50), "latency_p99_s": float(lat_p99),
        "trace_file": os.path.basename(args.out),
    }
    _write_json(_sibling(args.out, ".metrics.json"), doc)
    print(f"IAE {doc['iae']:.6g}, mean latency {lat_mean:.3g} s")
    return 0


@_quiet_overflow
def cmd_report(args) -> int:
    test = _read_dataset(args.test)
    entries = []
    train_hashes = set()
    for rpath in args.reports:
        with open(rpath) as fh:
            rep = _json_object(fh.read(), rpath)
        for key, kind in (("provenance", dict), ("kind", str), ("model_file", str)):
            _require(rep, key, kind, rpath)
        train_hashes.add(rep["provenance"].get("dataset_sha256"))
        mpath = os.path.join(os.path.dirname(rpath) or ".", rep["model_file"])
        with open(mpath) as fh:
            model = deserialize(fh.read())
        entries.append({"kind": rep["kind"], "model_file": rep["model_file"],
                        "train_mae": rep.get("train_mae"),
                        "test_mae": mean_abs_error(model, test)})
    if len(train_hashes) != 1:
        raise ConfigError(
            f"refusing to compare models trained on different datasets: "
            f"{sorted(str(h) for h in train_hashes)}")
    entries.sort(key=lambda e: e["test_mae"])
    doc = {"test_sha256": test.sha256(),
           "train_sha256": train_hashes.pop(),
           "models": entries}
    _write_json(args.out, doc)
    for e in entries:
        print(f"{e['kind']:<12} test MAE {e['test_mae']:.6g}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="symtree", description=__doc__)
    p.add_argument("--version", action="version", version=f"symtree {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext):
        sp = sub.add_parser(name, help=helptext)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", default=None, help="JSON config file")
        return sp

    sp = add("gen-data", cmd_gen_data, "generate MPC-labeled train/test data")
    sp.add_argument("--out-dir", default=".")
    sp = add("train", cmd_train, "fit the symbolic decision tree")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", default="model.tree.json")
    sp = add("baseline", cmd_baseline, "fit a comparison model")
    sp.add_argument("--kind", required=True, choices=["sparse", "cart", "lintree"])
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", default="baseline.tree.json")
    sp = add("export-milp", cmd_export_milp, "write the learning problem as MPS")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", default="learning.mps")
    sp = add("import-sol", cmd_import_sol, "decode an external solver solution")
    sp.add_argument("--data", required=True)
    sp.add_argument("--sol", required=True)
    sp.add_argument("--out", default="imported.tree.json")
    sp = add("predict", cmd_predict, "evaluate a model at one point")
    sp.add_argument("--model", required=True)
    sp.add_argument("--x", type=float, required=True)
    sp = add("simulate", cmd_simulate, "closed-loop run under a controller")
    sp.add_argument("--controller", required=True,
                    help="mpc | model:<path> | const:<value>")
    sp.add_argument("--out", default="trace.csv")
    sp = add("report", cmd_report, "merge model metrics into one comparison")
    sp.add_argument("--test", required=True)
    sp.add_argument("--reports", nargs="+", required=True)
    sp.add_argument("--out", default="comparison.json")
    return p


def _join_x_values(argv: list) -> list:
    """'--x V' as '--x=V' where V parses as a float: argparse reads a dash-led
    token as a value only when it looks like -1 or -.5, not -1e-3 or -inf."""
    out = []
    for token in argv:
        out.append(token)
        if out[-2:-1] == ["--x"]:
            try:
                float(token)
            except ValueError:
                continue
            out[-2:] = [f"--x={token}"]
    return out


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_x_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    # LinAlgError: a greedy baseline's least-squares leaf whose values left
    # float range (or whose SVD did not converge).
    except (SymtreeError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()

"""The benchmark's three workloads: set-up, one timed pass, correctness checks.

Every workload runs the same three stages, so every end-to-end metric is
measured on every workload; what differs is which stage runs at full size:

- learn stage: depth-2 and depth-3 ``fit_tree`` on MPC labels cached at
  set-up, the three baselines, ``build_milp`` + ``mps_text``;
- label stage: ``generate_dataset`` (cold multi-start solves spread over the
  range), then ``simulate`` under ``mpc_controller`` from one seeded state
  over the configured horizon (solves along a trajectory);
- control stage: ``simulate`` under the bundled tree from many initial
  states, then ``predict`` on many points.

Each workload is a closed loop: one caller waits for every call, no threads.
The workload seed picks the sampled states; symtree only sees the generated
inputs. Every call goes through a module attribute (``learner.fit_tree``, not
a bound name) so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import linprog

from symtree import baselines, basis, closed_loop, learner, milp, mpc, tree
from symtree.config import load_config
from symtree.reference import reference_model

from tracer import patched

X_RANGE = (0.1, 0.9)      # the case study's sampling range
PREDICT_BATCH = 200       # points per interleaved predict unit
LEAF_TOL = 1e-7           # leaf loss vs an independent HiGHS solve


@dataclass(frozen=True)
class Sizes:
    n_fit: int        # points of the depth-2 fit; baselines and export use them too
    n_deep: int       # points of the depth-3 fit
    fit_reps: int     # repetitions of each fit per pass
    reps: int         # baseline and export repetitions per pass (each is ~40 ms)
    n_label: int      # states labelled by generate_dataset, one call per stratum
    n_sims: int       # closed-loop runs under the bundled tree
    n_points: int     # point predictions


# Each workload runs its own stage at full size and the other two small, so
# its own stage takes most of its time. Every workload runs the one MPC closed
# loop of the label stage, and every closed loop uses the configured sim
# horizon (t_final / dt_sample = 100 steps).
SIZES = {
    "learn": Sizes(n_fit=25, n_deep=20, fit_reps=1, reps=10, n_label=48, n_sims=20, n_points=6000),
    "label": Sizes(n_fit=6, n_deep=5, fit_reps=3, reps=10, n_label=60, n_sims=20, n_points=6000),
    "control": Sizes(n_fit=6, n_deep=5, fit_reps=3, reps=10, n_label=48, n_sims=200, n_points=20000),
}


class Interval:
    t0 = t1 = float("nan")


@contextlib.contextmanager
def phase(tracer, name):
    """Span the block as 'phase.<name>'; the yielded interval gets its
    perf_counter start and end."""
    iv = Interval()
    with tracer.span("phase." + name):
        iv.t0 = time.perf_counter()
        yield iv
        iv.t1 = time.perf_counter()


def jittered(rng, n, lo, hi):
    """One uniform draw in each of n equal strata of [lo, hi]: seeded, but
    spread evenly, so the work per run depends little on the seed."""
    return lo + (np.arange(n) + rng.uniform(0.0, 1.0, n)) * (hi - lo) / n


def leaf_loss_highs(Phi, y, w, lambda_m, c_bounds, y_bounds) -> float:
    """Optimal  w*sum|y - Phi c| + lambda_m*sum|c|  by scipy's HiGHS.

    Posed with epigraph variables (r >= |y - Phi c|, a >= |c|) rather than
    fit_l1's split variables, so it shares no formulation with the solver
    under test. The cost is scaled so its smallest weight is 1 and the
    tolerances tightened: HiGHS's absolute defaults (1e-7) let it stop about
    5e-6 short of the optimum when lambda_m is 1e-4.
    """
    n, K = Phi.shape
    if n == 0:
        return 0.0
    I_n, I_K = np.eye(n), np.eye(K)
    Z_nK, Z_Kn, Z_nn = np.zeros((n, K)), np.zeros((K, n)), np.zeros((n, n))
    A = np.block([
        [Phi, -I_n, Z_nK], [-Phi, -I_n, Z_nK],
        [I_K, Z_Kn, -I_K], [-I_K, Z_Kn, -I_K],
        [Phi, Z_nn, Z_nK], [-Phi, Z_nn, Z_nK],
    ])
    b = np.concatenate([y, -y, np.zeros(2 * K),
                        np.full(n, y_bounds[1]), np.full(n, -y_bounds[0])])
    cost = np.concatenate([np.zeros(K), np.full(n, w), np.full(K, lambda_m)])
    scale = min(v for v in (w, lambda_m) if v > 0)
    bounds = [tuple(c_bounds)] * K + [(0.0, None)] * (n + K)
    res = linprog(cost / scale, A_ub=A, b_ub=b, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"reference leaf LP failed: {res.message}")
    return float(res.fun) * scale


def _pooled(latencies, q) -> float:
    return float(np.percentile(np.concatenate(latencies), q))


class Pipeline:
    """One workload: inputs made at set-up, then timed passes over the stages."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.size = SIZES[workload]
        cfg = load_config()
        self.spec = cfg.mpc_spec()
        self.sim = cfg["sim"]
        self.basis = basis.canonical_basis()
        self.cfg = cfg.learn_config()
        self.cfg_deep = cfg.learn_config()
        self.cfg_deep.depth = 3
        self.model = reference_model()
        self.ctrl = closed_loop.model_controller(self.model, self.spec.u_bounds)
        # One generator per stage, so one stage's sizes never move another's draws.
        r_fit, r_label, r_ctrl = (np.random.default_rng(s)
                                  for s in np.random.SeedSequence(seed).spawn(3))
        z = self.size
        # Labelled here, outside the timed passes; the first solve also pays
        # scipy's lazy set-up.
        self.data = self._label(jittered(r_fit, z.n_fit, *X_RANGE))
        self.data_deep = self._label(jittered(r_fit, z.n_deep, *X_RANGE))
        # One generate_dataset call per equal stratum spreads the states
        # evenly; solve time depends strongly on the state.
        edges = np.linspace(*X_RANGE, z.n_label + 1)
        self.strata = [(float(lo), float(hi), int(r_label.integers(2**31)))
                       for lo, hi in zip(edges[:-1], edges[1:])]
        self.mpc_x0 = float(r_label.uniform(*X_RANGE))
        self.x0s = jittered(r_ctrl, z.n_sims, *X_RANGE)
        self.points = r_ctrl.uniform(*X_RANGE, z.n_points)
        self._simulate(self.ctrl, self.x0s[0])
        for x in self.points[:100]:
            tree.predict(self.model, x)

    def _label(self, xs):
        ys = [mpc.solve_mpc(self.spec, float(x)).first_action for x in xs]
        return learner.Dataset(X=xs.reshape(-1, 1), y=np.asarray(ys))

    def _simulate(self, ctrl, x0):
        return closed_loop.simulate(self.spec.plant, ctrl, float(x0),
                                    self.sim["t_final"], self.sim["dt_sample"])

    def sizes(self) -> dict:
        return {**asdict(self.size), "mpc_x0": self.mpc_x0,
                "sim_steps": round(self.sim["t_final"] / self.sim["dt_sample"]),
                "n_basis": self.basis.size}

    def data_sha256(self, out) -> dict:
        return {"fit": self.data.sha256(), "fit_deep": self.data_deep.sha256(),
                "labels": out["labels"].sha256(),
                "predictions": learner.Dataset(X=self.points.reshape(-1, 1),
                                               y=out["preds"]).sha256()}

    # ---- one pass ---------------------------------------------------------

    def _stages(self):
        """Every unit of work of one pass, as (stage, [unit(out), ...])."""
        z, cfg, d = self.size, self.cfg, self.data

        def fit(o):
            o["fit"] = learner.fit_tree(d, self.basis, cfg)

        def fit_deep(o):
            o["deep"] = learner.fit_tree(self.data_deep, self.basis, self.cfg_deep)

        def fit_baselines(o):
            o["models"] = (
                baselines.fit_sparse(d, self.basis, cfg.lambda_m, (cfg.c_lb, cfg.c_ub)),
                baselines.fit_cart_constant(d, cfg.depth),
                baselines.fit_cart_linear(d, cfg.depth))

        def export(o):
            o["art"] = milp.build_milp(d, self.basis, cfg)
            o["text"] = milp.mps_text(o["art"])

        def label(lo, hi, seed):
            return lambda o: o["parts"].append(
                mpc.generate_dataset(self.spec, 1, lo, hi, "seeded-random", seed))

        def mpc_sim(o):
            o["mpc_traces"].append(
                self._simulate(closed_loop.mpc_controller(self.spec), self.mpc_x0))

        def ctrl_sim(x0):
            return lambda o: o["traces"].append(self._simulate(self.ctrl, x0))

        def predict(batch):
            return lambda o: o["preds"].extend(tree.predict(self.model, x) for x in batch)

        return [
            ("fit", [fit] * z.fit_reps),
            ("fit_deep", [fit_deep] * z.fit_reps),
            ("baselines", [fit_baselines] * z.reps),
            ("export", [export] * z.reps),
            ("label", [label(*s) for s in self.strata]),
            ("mpc_sim", [mpc_sim]),
            ("ctrl_sim", [ctrl_sim(x0) for x0 in self.x0s]),
            ("predict", [predict(b) for b in
                         np.array_split(self.points, len(self.points) // PREDICT_BATCH)]),
        ]

    def run(self, tracer):
        """One pass: (unit intervals by stage, latency samples, outputs).

        The units of all stages are interleaved, unit i of a k-unit stage at
        (i + 0.5) / k of the pass, so every stage is timed across the whole
        pass; on a machine whose speed drifts, no stage sees only a fast or
        only a slow stretch. The intervals are raw perf_counter readings;
        ``summarize`` turns them into reference seconds once the run is over.
        """
        plan = sorted(((i + 0.5) / len(units), order, i, stage, unit)
                      for order, (stage, units) in enumerate(self._stages())
                      for i, unit in enumerate(units))
        out = {"parts": [], "mpc_traces": [], "traces": [], "preds": [], "solves": []}
        times = {}

        def capture(fn):
            def captured(*args, **kwargs):
                sol = fn(*args, **kwargs)
                out["solves"].append(sol)
                return sol
            return captured

        with contextlib.ExitStack() as stack:
            # Keeps each solve's result for the KKT check; reads no clock.
            stack.enter_context(patched("symtree.mpc", "solve_mpc", capture))
            stack.enter_context(patched("symtree.closed_loop", "solve_mpc", capture))
            for *_, stage, unit in plan:
                with phase(tracer, stage) as iv:
                    unit(out)
                times.setdefault(stage, []).append((iv.t0, iv.t1))
        out["preds"] = np.asarray(out["preds"])
        out["labels"] = learner.Dataset(X=np.vstack([p.X for p in out["parts"]]),
                                        y=np.concatenate([p.y for p in out["parts"]]))
        # One trace per mpc_sim / ctrl_sim unit, in unit order.
        lat = {"mpc_s": [tr.latencies for tr in out["mpc_traces"]],
               "ctrl_s": [tr.latencies for tr in out["traces"]]}
        times = {k: np.asarray(v) for k, v in times.items()}
        return times, lat, out

    def summarize(self, passes, clock) -> dict:
        """End-to-end metrics of a run in reference seconds (``clock`` is the
        run's ``RefClock``): medians over passes of the stage timings, of the
        repeated fit, baseline and export units over every repetition of every
        pass, and of the latencies over every sample of every pass. Each latency sample is
        scaled by the mean scale over the closed loop it came from."""
        def ref(iv):
            return clock.ref_seconds(iv[:, 0], iv[:, 1])

        def scaled(iv, samples):
            return [x * k for x, k in zip(samples, clock.scale(iv[:, 0], iv[:, 1]))]

        reps = {"fit": [], "fit_deep": [], "baselines": [], "export": []}
        per_pass, mpc_lat, ctrl_lat = [], [], []
        for times, lat in passes:
            n_steps = sum(len(x) for x in lat["ctrl_s"])
            per_pass.append({
                "label_s": float(np.sum(ref(times["label"]))),
                "sim_steps_per_s": n_steps / float(np.sum(ref(times["ctrl_sim"]))),
                "predict_points_per_s": self.size.n_points / float(np.sum(ref(times["predict"]))),
            })
            for stage, samples in reps.items():
                samples.extend(ref(times[stage]))
            mpc_lat += scaled(times["mpc_sim"], lat["mpc_s"])
            ctrl_lat += scaled(times["ctrl_sim"], lat["ctrl_s"])
        out = {k: float(statistics.median(p[k] for p in per_pass)) for k in per_pass[0]}
        out.update({f"{stage}_s": float(np.median(samples)) for stage, samples in reps.items()})
        out["mpc_latency_p50_ms"] = _pooled(mpc_lat, 50) * 1e3
        out["ctrl_latency_p50_us"] = _pooled(ctrl_lat, 50) * 1e6
        return out

    @staticmethod
    def tails(passes) -> dict:
        """Tail latencies, in wall time, over every sample of every pass.
        They do not repeat within a tenth on a noisy machine, so they are
        per-layer numbers (taken from the untraced passes of a traced run),
        not gated ones."""
        return {"mpc_latency_p90_ms": _pooled([x for _, lat in passes for x in lat["mpc_s"]], 90) * 1e3,
                "ctrl_latency_p99_us": _pooled([x for _, lat in passes for x in lat["ctrl_s"]], 99) * 1e6}

    # ---- correctness ------------------------------------------------------

    def check(self, out):
        """(operations attempted, operations failed) for one pass.

        Operations: the two fits, the three baseline models and the export,
        each of the last repetition, every solve_mpc call, the labelled dataset, every
        simulation under either controller and every point prediction.
        """
        ok = [self._fit_ok(out["fit"], self.data, self.cfg),
              self._fit_ok(out["deep"], self.data_deep, self.cfg_deep)]
        ok += [not tree.validate(m) for m in out["models"]]
        ok.append(self._export_ok(out["art"], out["text"]))
        u_lo, u_hi = self.spec.u_bounds
        ok += [sol.kkt_residual <= mpc.KKT_TOL and u_lo <= sol.first_action <= u_hi
               for sol in out["solves"]]
        labels = out["labels"]
        ok.append(labels.n_points == self.size.n_label
                  and bool(np.all((labels.y >= u_lo) & (labels.y <= u_hi))))
        ok += [self._trace_ok(tr) for tr in out["mpc_traces"] + out["traces"]]
        # Raw predictions are held to the model's own prediction bounds: the
        # bundled tree predicts up to about 75.84 (just below its 0.69 split)
        # and a little over 75 above it, above u_max = 75; the controller
        # clips that to u_bounds.
        p, b = out["preds"], self.model.bounds
        good = np.isfinite(p) & (p >= b.y_lb) & (p <= b.y_ub)
        return len(ok) + len(p), ok.count(False) + int(np.count_nonzero(~good))

    def _fit_ok(self, rep, data, cfg) -> bool:
        """Valid tree, objective_of agrees, every leaf is an optimal L1 fit."""
        model = rep.model
        if tree.validate(model):
            return False
        objective, _ = learner.objective_of(model, data, cfg)
        if not math.isclose(objective, rep.objective, rel_tol=1e-12, abs_tol=1e-12):
            return False
        Phi = basis.evaluate_basis_matrix(model.basis, data.X)
        leaf_of = np.array([tree.route(model, x) for x in data.X])
        w = 1.0 / data.n_points
        b = model.bounds
        for node, leaf in model.leaves.items():
            idx = leaf_of == node
            c = leaf.as_array()
            loss = (w * float(np.sum(np.abs(data.y[idx] - Phi[idx] @ c)))
                    + cfg.lambda_m * float(np.sum(np.abs(c))))
            ref = leaf_loss_highs(Phi[idx], data.y[idx], w, cfg.lambda_m,
                                  (b.c_lb, b.c_ub), (b.y_lb, b.y_ub))
            if abs(loss - ref) > LEAF_TOL:
                return False
        return True

    def _export_ok(self, art, text) -> bool:
        n_vars, n_binary, n_rows = milp.expected_counts(
            self.data.n_points, self.data.n_features, self.cfg.depth, self.basis.size)
        expected = {"n_vars": n_vars, "n_binary": n_binary, "n_rows": n_rows}
        return (milp.parse_mps_counts(text) == expected
                == {"n_vars": art.n_vars, "n_binary": art.n_binary, "n_rows": art.n_rows})

    def _trace_ok(self, tr) -> bool:
        x_lo, x_hi = self.spec.x_bounds
        u_lo, u_hi = self.spec.u_bounds
        return (bool(np.all(np.isfinite(tr.states)))
                and bool(np.all((tr.states >= x_lo) & (tr.states <= x_hi)))
                and bool(np.all((tr.controls >= u_lo) & (tr.controls <= u_hi))))

    def facts(self, out) -> dict:
        """Per-layer numbers read from results rather than spans."""
        n = self.data.n_points
        art = out["art"]
        return {"learner.fit.lp_calls": out["fit"].subproblems_solved,
                "learner.fit_deep.lp_calls": out["deep"].subproblems_solved,
                "learner.fit.lp_call_ratio": out["fit"].subproblems_solved / (n * (n + 1) / 2),
                "milp.mps_bytes": len(out["text"].encode()),
                "milp.n_vars": art.n_vars, "milp.n_binary": art.n_binary,
                "milp.n_rows": art.n_rows}

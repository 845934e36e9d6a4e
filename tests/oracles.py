"""Independent verification routes shared by the test suite.

Everything here deliberately avoids the package's own LP formulation and
tree search: leaf fits go through scipy's linprog on a different LP layout,
and optima are found by exhaustive enumeration. Basis values come from each
function's closed form on its own, with no sharing between functions. MPC
solves, warm or cold, are held to the best of every distinct start at their
state, with no early stop.
The exported MPS text is read back by a fixed-format reader of its own.
"""

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog
from scipy.optimize import milp as scipy_milp

from symtree import milp, mpc
from symtree.basis import evaluate_basis_matrix
from symtree.learner import Dataset, candidate_thresholds
from symtree.milp import BINARY
from symtree.mpc import KKT_TOL
from symtree.tree import BRANCH, LEAF, node_depth, route

_EXP_ARGUMENT = {
    "x": lambda v: v,
    "-x": lambda v: -v,
    "1/x": lambda v: 1.0 / v,
    "-1/x": lambda v: -1.0 / v,
}


def reference_basis_row(functions, x):
    """Every basis function x^p * exp(arg) evaluated on its own at point x,
    reading only each function's power, exponential argument and coordinate."""
    xs = [float(v) for v in np.asarray(x, dtype=float).reshape(-1)]
    row = []
    for f in functions:
        v = xs[f.coordinate]
        e = math.exp(_EXP_ARGUMENT[f.exp_arg](v)) if f.exp_arg else 1.0
        row.append(v ** f.power * e)
    return np.array(row)


def scipy_leaf_fit(Phi, y, w, lam, c_bounds, y_bounds):
    """L1 leaf objective by scipy linprog; mirrors the leaf LP contract.

    The cost is divided by its least positive weight and the tolerances are
    tightened: at HiGHS's defaults (1e-7) and lambda_m 0, the best single split
    of 25 seeded-random MPC labels came out 7.2e-5 above its optimum."""
    if len(y) == 0:
        return 0.0
    N, K = Phi.shape
    # variables: c, e+ (N), e- (N), c+ (K), c- (K)
    cost = np.concatenate([np.zeros(K), w * np.ones(2 * N), lam * np.ones(2 * K)])
    A_eq = np.zeros((N + K, K + 2 * N + 2 * K))
    b_eq = np.zeros(N + K)
    A_eq[:N, :K] = Phi
    A_eq[:N, K : K + N] = np.eye(N)
    A_eq[:N, K + N : K + 2 * N] = -np.eye(N)
    b_eq[:N] = y
    A_eq[N:, :K] = np.eye(K)
    A_eq[N:, K + 2 * N : K + 2 * N + K] = -np.eye(K)
    A_eq[N:, K + 2 * N + K :] = np.eye(K)
    A_ub = np.vstack([np.hstack([Phi, np.zeros((N, 2 * N + 2 * K))]),
                      np.hstack([-Phi, np.zeros((N, 2 * N + 2 * K))])])
    b_ub = np.concatenate([np.full(N, y_bounds[1]), np.full(N, -y_bounds[0])])
    bounds = [c_bounds] * K + [(0, None)] * (2 * N + 2 * K)
    scale = min(v for v in (w, lam) if v > 0)
    res = linprog(cost / scale, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun * scale


def brute_force_depth1(data, basis, cfg):
    """Exhaustive depth-1 optimum over every threshold-realizable partition."""
    Phi = evaluate_basis_matrix(basis, data.X)
    yb = cfg.resolved_y_bounds(data.y)
    w = 1.0 / data.n_points
    order = np.argsort(data.X[:, 0], kind="stable")
    xs = data.X[order, 0]
    best = None
    for j in range(data.n_points + 1):
        if 0 < j < data.n_points and xs[j - 1] == xs[j]:
            continue  # no continuous threshold separates equal values
        cost = cfg.lambda_c
        for side in (order[:j], order[j:]):
            cost += scipy_leaf_fit(Phi[side], data.y[side], w, cfg.lambda_m,
                                   (cfg.c_lb, cfg.c_ub), yb)
        if best is None or cost < best:
            best = cost
    return best


def exhaustive_fit_tree(data, basis, cfg):
    """Best tree by full enumeration, with no pruning: every topology, every
    midpoint threshold plus the two empty-side splits at every node, a
    scipy_leaf_fit per distinct leaf set. Ties are broken as in fit_tree
    (cost within 1e-12, then fewer branches, then the lexicographic order of
    the (feature, threshold) splits in preorder: node, left subtree, right
    subtree).
    Returns (cost, n_branch, rules {node: (feature, threshold)}, kinds {node:
    kind} for active nodes)."""
    Phi = evaluate_basis_matrix(basis, data.X)
    yb = cfg.resolved_y_bounds(data.y)
    w = 1.0 / data.n_points
    losses = {}

    def leaf_loss(idx):
        if idx not in losses:
            rows = list(idx)
            losses[idx] = scipy_leaf_fit(Phi[rows], data.y[rows], w, cfg.lambda_m,
                                         (cfg.c_lb, cfg.c_ub), yb)
        return losses[idx]

    def better(a, b):
        if abs(a[0] - b[0]) > 1e-12:
            return a[0] < b[0]
        return (a[1], a[2]) < (b[1], b[2])

    def search(node, idx, must_branch):
        # (cost, n_branch, seq, rules, kinds)
        best = None if must_branch else (leaf_loss(idx), 0, (), {}, {node: LEAF})
        if node_depth(node) < cfg.depth and idx:
            sub = Dataset(X=data.X[list(idx)], y=data.y[list(idx)])
            for f in range(data.n_features):
                vals = sub.X[:, f]
                thrs = list(candidate_thresholds(sub, f))
                thrs += [float(vals.min()) - 1.0, float(vals.max()) + 1.0]
                for thr in thrs:
                    left = search(2 * node, tuple(i for i in idx if data.X[i, f] < thr), False)
                    right = search(2 * node + 1, tuple(i for i in idx if data.X[i, f] >= thr), False)
                    cand = (cfg.lambda_c + left[0] + right[0], 1 + left[1] + right[1],
                            ((f, float(thr)),) + left[2] + right[2],
                            {node: (f, float(thr)), **left[3], **right[3]},
                            {node: BRANCH, **left[4], **right[4]})
                    if best is None or better(cand, best):
                        best = cand
        return best

    cost, n_branch, _, rules, kinds = search(1, tuple(range(data.n_points)), True)
    return cost, n_branch, rules, kinds


def lp_with_fixed_binaries(art, fixed):
    """scipy LP over the continuous variables, binaries pinned to `fixed`
    ({variable index: value}, one entry per binary)."""
    binary = art.integrality == BINARY
    x_bin = np.array([fixed[i] for i in np.flatnonzero(binary)], dtype=float)
    shift = art.A[:, binary] @ x_bin
    rows = LinearConstraint(art.A[:, ~binary], art.row_lo - shift, art.row_hi - shift)
    res = scipy_milp(art.cost[~binary], constraints=rows,
                     bounds=Bounds(art.lo[~binary], art.hi[~binary]))
    if res.status != 0:
        return None
    return res.fun + float(art.cost[binary] @ x_bin)


def read_mps_arrays(text):
    """Fixed-format MPS reader that shares no code with the writer: every
    field is read at its column position. Returns the arrays of the problem as
    a dict keyed like the artifact's attributes (A as a CSC array, names in
    file order); a variable or row absent from a section takes the MPS
    default (cost 0, rhs 0, bounds [0, inf))."""
    section, obj, senses, rows, cols = None, None, [], {}, {}
    cost, entries, rhs, bounds = {}, [], {}, []
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        f = [line[a:b].strip()
             for a, b in ((1, 3), (4, 12), (14, 22), (24, 36), (39, 47), (49, 61))]
        if section == "ROWS" and f[0] == "N":
            obj = f[1]
        elif section == "ROWS":
            rows[f[1]] = len(senses)
            senses.append(f[0])
        elif section in ("COLUMNS", "RHS"):
            j = cols.setdefault(f[1], len(cols)) if section == "COLUMNS" else None
            for name, value in ((f[2], f[3]), (f[4], f[5])):
                if not name:
                    continue
                if section == "RHS":
                    rhs[rows[name]] = float(value)
                elif name == obj:
                    cost[j] = float(value)
                else:
                    entries.append((rows[name], j, float(value)))
        elif section == "BOUNDS":
            bounds.append((f[0], cols.setdefault(f[2], len(cols)), f[3]))
    n, m = len(cols), len(senses)
    out = {"var_mps": list(cols), "row_mps": list(rows), "cost": np.zeros(n),
           "lo": np.zeros(n), "hi": np.full(n, np.inf), "integrality": np.zeros(n, int)}
    for j, v in cost.items():
        out["cost"][j] = v
    r, c, v = zip(*entries)
    out["A"] = sparse.csc_array((v, (r, c)), shape=(m, n))
    b = np.zeros(m)
    for i, v in rhs.items():
        b[i] = v
    sense = np.array(senses)
    out["row_lo"] = np.where(sense == "L", -np.inf, b)
    out["row_hi"] = np.where(sense == "G", np.inf, b)
    for kind, j, value in bounds:
        if kind == "BV":
            out["lo"][j], out["hi"][j], out["integrality"][j] = 0.0, 1.0, 1
        elif kind == "FR":
            out["lo"][j], out["hi"][j] = -np.inf, np.inf
        elif kind == "MI":
            out["lo"][j] = -np.inf
        elif kind == "LO":
            out["lo"][j] = float(value)
        elif kind == "UP":
            out["hi"][j] = float(value)
        else:
            raise ValueError(f"unknown bound type {kind!r}")
    return out


def milp_optimum_depth1(art):
    """Exhaustive binary enumeration + LP; depth-1, one feature only."""
    idx = art.index
    n_pts = art.data.n_points
    best = None
    for leaves in itertools.product([2, 3], repeat=n_pts):
        fixed = {idx["d[1]"]: 1.0, idx["d[2]"]: 0.0, idx["d[3]"]: 0.0,
                 idx["a[1,1]"]: 1.0}
        for i, leaf in enumerate(leaves, start=1):
            for n in (1, 2, 3):
                fixed[idx[f"z[{i},{n}]"]] = 1.0 if n == leaf else 0.0
        val = lp_with_fixed_binaries(art, fixed)
        if val is not None and (best is None or val < best):
            best = val
    return best


def embed_model(art, model):
    """Full MILP assignment realizing a tree model on the artifact's data."""
    data, cfg, basis = art.data, art.cfg, art.basis
    Phi = evaluate_basis_matrix(basis, data.X)
    nn, _, internal = milp.node_sets(cfg.depth)
    K = basis.size
    coeffs = {n: (np.asarray(model.leaves[n].coefficients)
                  if n in model.leaves else np.zeros(K)) for n in nn}
    assign = {}
    for n in nn:
        assign[f"d[{n}]"] = 1.0 if model.kind(n) == BRANCH else 0.0
    for n in internal:
        assign[f"a[1,{n}]"] = assign[f"d[{n}]"]
        assign[f"b[{n}]"] = model.rules[n].threshold if n in model.rules else 0.0
    for n in nn:
        for k in range(1, K + 1):
            v = float(coeffs[n][k - 1])
            assign[f"c[{k},{n}]"] = v
            assign[f"cpos[{k},{n}]"] = max(v, 0.0)
            assign[f"cneg[{k},{n}]"] = max(-v, 0.0)
    for i in range(1, data.n_points + 1):
        leaf = route(model, data.X[i - 1])
        pred = 0.0
        for n in nn:
            yh = float(Phi[i - 1] @ coeffs[n])
            assign[f"z[{i},{n}]"] = 1.0 if n == leaf else 0.0
            assign[f"yhat[{i},{n}]"] = yh
            assign[f"delta[{i},{n}]"] = yh if n == leaf else 0.0
            if n == leaf:
                pred = yh
        assign[f"ypred[{i}]"] = pred
        r = float(data.y[i - 1]) - pred
        assign[f"epos[{i}]"] = max(r, 0.0)
        assign[f"eneg[{i}]"] = max(-r, 0.0)
    return assign


def distinct_starts(spec, x0):
    """The constant flows a cold solve may start from: low, high and the
    steady-state flow at x0 (clipped to the flow bounds), each once."""
    u_lo, u_hi = spec.u_bounds
    flows = [u_lo, u_hi]
    if x0 < spec.plant.x_f:
        flows.append(float(np.clip(mpc.steady_state_flow(spec.plant, x0), u_lo, u_hi)))
    return list(dict.fromkeys(flows))


def all_starts_best(spec, x0):
    """Exhaustive multi-start: every distinct start runs through
    ``_solve_from``, and the first strictly lowest objective is kept."""
    n = spec.T - 1
    best = None
    for flow in distinct_starts(spec, x0):
        sol = mpc._solve_from(spec, x0, np.full(n, flow))
        if sol is not None and (best is None or sol.objective < best.objective):
            best = sol
    assert best is not None, f"no start converged for x0={x0}"
    return best


def within_objective_gate(objective, reference):
    """The objective is at most 1e-8 relative (1e-10 absolute) above the
    reference; the absolute floor covers set-point objectives of about 1e-12."""
    return objective <= reference + 1e-8 * abs(reference) + 1e-10


def record_mpc_solves(monkeypatch, module):
    """Record every call of ``module.solve_mpc`` as (x0, warm, solution,
    starts), where starts counts the ``_solve_from`` runs inside the call."""
    solves, starts = [], []
    real_solve, real_solve_from = module.solve_mpc, mpc._solve_from

    def recording_solve(spec, x0, warm=None):
        starts.clear()
        sol = real_solve(spec, x0, warm=warm)
        solves.append((x0, warm, sol, len(starts)))
        return sol

    def counting_solve_from(*args):
        starts.append(1)
        return real_solve_from(*args)

    monkeypatch.setattr(module, "solve_mpc", recording_solve)
    monkeypatch.setattr(mpc, "_solve_from", counting_solve_from)
    return solves


def assert_warm_chain_matches_cold(spec, solves):
    """Every solve after the first starts from the previous one's controls,
    converges from that one start, and is held to the all-starts solution at
    its state.

    The objective must pass ``within_objective_gate`` against the all-starts
    one. The first action is held to 1e-3: the cold starts themselves
    disagree on it by up to 3.2e-4 on the canonical grid, because the
    objective is flat in u_0 and KKT_TOL on the projected gradient pins it no
    tighter than that.
    """
    assert solves[0][1] is None
    for (_, _, prev, _), (x0, warm, sol, n_starts) in zip(solves, solves[1:]):
        assert warm is prev.controls
        assert n_starts == 1
        cold = all_starts_best(spec, x0)
        assert sol.kkt_residual <= KKT_TOL
        assert within_objective_gate(sol.objective, cold.objective)
        assert abs(sol.first_action - cold.first_action) <= 1e-3

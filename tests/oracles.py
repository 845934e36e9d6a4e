"""Independent verification routes shared by the test suite.

Everything here deliberately avoids the package's own LP formulation and
tree search: leaf fits go through scipy's linprog on a different LP layout,
and optima are found by exhaustive enumeration or, on one feature, by a
dynamic program over intervals of the sorted values. Basis values come from
each function's closed form on its own, with no sharing between functions,
and the compiled basis program is held to the per-term loop it replaced. MPC
solves, warm or cold, are held to the best of every distinct start at their
state, with no early stop.
The exported MPS text is read back by a fixed-format reader of its own and
held byte for byte to the one-string-per-line writer it replaced, and the
MILP arrays are checked against a builder that emits one row at a time.
The closed loop's held-control integration is checked against one RK4 step
per substep over plant_rhs, the plant's right-hand side written as a function
of its own, and the MPC's rollout/adjoint closures against the sweep that read
the spec and called plant_rhs on every evaluation.
The greedy CART baselines are held to the grower that built a Dataset per
node and refitted every winning side.
"""

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog
from scipy.optimize import milp as scipy_milp

from symtree import milp, mpc
from symtree.basis import X_GUARD, BasisSet, evaluate_basis_matrix
from symtree.errors import ConfigError, DimensionError, DomainError
from symtree.learner import EMPTY_SIDE_OFFSET, Dataset, LearnConfig
from symtree.milp import BINARY, CONTINUOUS, EPS_ROUTING, EQ, GE, LE, MilpArtifact, node_sets
from symtree.mpc import KKT_TOL
from symtree.tree import (BRANCH, LEAF, BranchRule, LeafExpression, TreeModel, ancestors,
                          node_depth, route)
from symtree.tree import Bounds as TreeBounds

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


def loop_basis_program(functions, v):
    """The values of every function at the coordinates v, by the per-term
    loop the compiled basis program must match bitwise, errors included.

    Each distinct exponential (coordinate, argument) is computed once, as
    exp(sign * x) or, for a reciprocal argument, exp(sign / x); each function
    then reads its coordinate, its power and the slot of its exponential
    (slot -1 holds the constant 1.0 of exp-free forms). Raises DomainError
    inside the 1/x guard and on overflow, naming the form, and DimensionError
    when v has fewer coordinates than a form reads."""
    def overflow(f, x):
        return DomainError(f"basis form {f.form!r} overflowed at x={x!r}")

    def power_overflows(x, p):
        try:
            x**p
        except OverflowError:
            return True
        return False

    slots = {}
    exps = []   # (coordinate, sign, reciprocal, first function using it)
    terms = []  # (coordinate, power, exponential slot) per function
    for f in functions:
        slot = -1
        if f.exp_arg:
            key = (f.coordinate, f.exp_arg)
            if key not in slots:
                slots[key] = len(exps)
                sign = -1.0 if f.exp_arg.startswith("-") else 1.0
                exps.append((f.coordinate, sign, "/" in f.exp_arg, f))
            slot = slots[key]
        terms.append((f.coordinate, f.power, slot))
    try:
        es = []
        for c, sign, reciprocal, f in exps:
            x = v[c]
            if not reciprocal:
                a = sign * x
            elif abs(x) < X_GUARD:
                raise DomainError(
                    f"basis form {f.form!r} undefined for |x| < {X_GUARD:g} (got {x!r})"
                )
            else:
                a = sign / x
            try:
                es.append(math.exp(a))
            except OverflowError:
                raise overflow(f, x) from None
        es.append(1.0)
        out = [v[c] ** p * es[s] for c, p, s in terms]
    except OverflowError:
        f = next(f for f in functions if power_overflows(v[f.coordinate], f.power))
        raise overflow(f, v[f.coordinate]) from None
    except IndexError:
        f = next(f for f in functions if f.coordinate >= len(v))
        raise DimensionError(f"basis form {f.form!r} reads coordinate {f.coordinate}, "
                             f"but the point has {len(v)}") from None
    if not math.isfinite(sum(out)):
        for f, value in zip(functions, out):
            if not math.isfinite(value):
                raise overflow(f, v[f.coordinate])
    return out


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


def interval_dp(data, basis, cfg, losses=None):
    """Optimal objective over trees of depth cap cfg.depth on one-feature
    data, by dynamic programming over intervals (Bellman, CACM 1961; Jackson
    et al., IEEE SPL 2005), with no bound, point-set registry or memo of
    fit_tree's.

    On one feature every set a tree can route to a leaf is an interval
    [i, j) of the sorted groups of equal x. f_D(i, j) is its leaf loss by
    scipy_leaf_fit, and f_d(i, j) = min(leaf, lambda_c + min over i <= k <= j
    of f_{d+1}(i, k) + f_{d+1}(k, j)), where k = i and k = j are the
    empty-side splits. The root must branch. ``losses`` maps (i, j) to the
    leaf loss; calls on the same data, penalties and bounds may share it."""
    if data.n_features != 1:
        raise ValueError(f"interval_dp needs one feature, got {data.n_features}")
    Phi = evaluate_basis_matrix(basis, data.X)
    yb = cfg.resolved_y_bounds(data.y)
    order = np.argsort(data.X[:, 0], kind="stable")
    _, starts = np.unique(data.X[order, 0], return_index=True)
    cut, G = np.append(starts, data.n_points), len(starts)
    losses = {} if losses is None else losses
    leaf = np.zeros((G + 1, G + 1))
    for i, j in itertools.combinations(range(G + 1), 2):
        if (i, j) not in losses:
            rows = order[cut[i]:cut[j]]
            losses[i, j] = scipy_leaf_fit(Phi[rows], data.y[rows], 1.0 / data.n_points,
                                          cfg.lambda_m, (cfg.c_lb, cfg.c_ub), yb)
        leaf[i, j] = losses[i, j]
    f = leaf
    for _ in range(cfg.depth - 1):   # f_{d+1} to f_d, for d = D - 1 down to 1
        f = np.array([[min(leaf[i, j], cfg.lambda_c + np.min(f[i, i:j + 1] + f[i:j + 1, j]))
                       if i <= j else 0.0 for j in range(G + 1)] for i in range(G + 1)])
    return cfg.lambda_c + float(np.min(f[0, :] + f[:, G]))


def candidate_thresholds(data: Dataset, feature: int) -> np.ndarray:
    """Midpoints between consecutive distinct sorted values of one feature."""
    if not 0 <= feature < data.n_features:
        raise IndexError(f"feature {feature} out of range for {data.n_features} features")
    vals = np.unique(data.X[:, feature])
    return (vals[:-1] + vals[1:]) / 2.0


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


def assignment_vector(art, assign):
    """The assignment as a point x, each variable read by its structured name,
    else its machine name, with 0 for every variable it omits."""
    values = (assign.get(name, assign.get(mps)) for name, mps in zip(art.var_names, art.var_mps))
    return np.array([0.0 if v is None else float(v) for v in values])


def objective_value(art, assign):
    return float(art.cost @ assignment_vector(art, assign))


def max_violation(art, assign):
    """Largest constraint violation of a full assignment (bounds included)."""
    x = assignment_vector(art, assign)
    act = art.A @ x
    return float(max(0.0, np.max(act - art.row_hi), np.max(art.row_lo - act),
                     np.max(art.lo - x), np.max(x - art.hi)))


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


def left_right_ancestors(n: int):
    """Ancestors split by branch direction on the path from the root to n,
    walked one parent at a time (``build_milp`` uses ``tree.child_toward``)."""
    lefts, rights = [], []
    cur = n
    while cur > 1:
        parent = cur // 2
        (lefts if cur % 2 == 0 else rights).append(parent)
        cur = parent
    return lefts, rights


def loop_build_milp(data: Dataset, basis: BasisSet, cfg: LearnConfig) -> MilpArtifact:
    """``milp.build_milp`` as it was written with one ``add_row`` call per
    row, kept to check the family-at-a-time builder field by field.

    Emit the full variable/constraint representation of the learning problem.

    Its constants come from the data (as in Bertsimas & Dunn, "Optimal
    classification trees", Mach. Learn. 2017) and hold for every feasible
    tree. The routing sum sum_f a[f,m] x[i,f] is one coordinate of x_i, or 0
    where m does not branch, so it lies in [s_lo, s_hi] = [min(0, min X),
    max(0, max X)]. With o = EMPTY_SIDE_OFFSET:

    - b lies in [s_lo - o, s_hi + o]. That holds every threshold ``fit_tree``
      emits (midpoints, and empty-side splits o beyond one feature's values)
      and the 0 of an unused b; a threshold beyond it routes as its end does.
    - Routing M = (s_hi - s_lo) + o + eps, the smallest constant that leaves
      both routing rows slack at z = 0, as |sum_f a x - b| <= (s_hi - s_lo) + o.
      A z within a solver's integrality tolerance of 1 thus moves a point by
      that tolerance times M, far below eps.
    - tie_M = c_mag max_i sum_k |phi_ik| + max |y bound| bounds every node
      expression |phi_i . c| over the coefficient box, so the tie rows are
      slack at z = 0 and cut off no tree whose leaves are large elsewhere.

    A constant that is not finite (c_bounds of +-1e308 overflow tie_M) is
    refused with a ConfigError, since an MPS file cannot hold it.
    """
    cfg.check()
    y_lb, y_ub = cfg.resolved_y_bounds(data.y)
    # delta = yhat*z vanishes wherever z = 0, so its bounds must admit 0 even
    # when the prediction range itself excludes it.
    d_lb, d_ub = min(y_lb, 0.0), max(y_ub, 0.0)
    s_lo, s_hi = min(0.0, float(np.min(data.X))), max(0.0, float(np.max(data.X)))
    b_lo, b_hi = s_lo - EMPTY_SIDE_OFFSET, s_hi + EMPTY_SIDE_OFFSET
    M, eps = (s_hi - s_lo) + EMPTY_SIDE_OFFSET + EPS_ROUTING, EPS_ROUTING
    Phi = evaluate_basis_matrix(basis, data.X)
    c_mag = max(abs(cfg.c_lb), abs(cfg.c_ub))
    tie_M = (c_mag * float(np.max(np.sum(np.abs(Phi), axis=1)))
             + max(abs(y_lb), abs(y_ub)))
    for name, v in (("c_lb", cfg.c_lb), ("c_ub", cfg.c_ub), ("y_lb", y_lb),
                    ("y_ub", y_ub), ("M", M), ("tie_M", tie_M)):
        if not np.isfinite(v):
            raise ConfigError(f"MILP constant {name} = {v!r} is not finite")
    nn, terminal, internal = node_sets(cfg.depth)
    N_d, N_f, N_K = data.n_points, data.n_features, basis.size

    variables, index = [], {}   # (name, mps, integrality, lo, hi) per variable

    def add_var(name, mps, kind, lo, hi):
        if len(mps) > 8:
            raise ConfigError(f"machine name {mps!r} exceeds fixed-format width")
        if mps in index or name in index:
            raise ConfigError(f"duplicate variable name {mps!r}")
        index[name] = index[mps] = len(variables)
        variables.append((name, mps, kind, lo, hi))
        return len(variables) - 1

    d = {n: add_var(f"d[{n}]", f"D{n}", BINARY, 0.0, 1.0) for n in nn}
    z = {(i, n): add_var(f"z[{i},{n}]", f"Z{i}_{n}", BINARY, 0.0, 1.0)
         for i in range(1, N_d + 1) for n in nn}
    a = {(f, n): add_var(f"a[{f},{n}]", f"A{f}_{n}", BINARY, 0.0, 1.0)
         for f in range(1, N_f + 1) for n in internal}
    b = {n: add_var(f"b[{n}]", f"B{n}", CONTINUOUS, b_lo, b_hi) for n in internal}
    c = {(k, n): add_var(f"c[{k},{n}]", f"C{k}_{n}", CONTINUOUS, cfg.c_lb, cfg.c_ub)
         for k in range(1, N_K + 1) for n in nn}
    yhat = {(i, n): add_var(f"yhat[{i},{n}]", f"YH{i}_{n}", CONTINUOUS,
                            -np.inf, np.inf)
            for i in range(1, N_d + 1) for n in nn}
    delta = {(i, n): add_var(f"delta[{i},{n}]", f"DL{i}_{n}", CONTINUOUS, d_lb, d_ub)
             for i in range(1, N_d + 1) for n in nn}
    epos = {i: add_var(f"epos[{i}]", f"EP{i}", CONTINUOUS, 0.0, np.inf)
            for i in range(1, N_d + 1)}
    eneg = {i: add_var(f"eneg[{i}]", f"EN{i}", CONTINUOUS, 0.0, np.inf)
            for i in range(1, N_d + 1)}
    cpos = {(k, n): add_var(f"cpos[{k},{n}]", f"CP{k}_{n}", CONTINUOUS, 0.0, np.inf)
            for k in range(1, N_K + 1) for n in nn}
    cneg = {(k, n): add_var(f"cneg[{k},{n}]", f"CN{k}_{n}", CONTINUOUS, 0.0, np.inf)
            for k in range(1, N_K + 1) for n in nn}
    ypred = {i: add_var(f"ypred[{i}]", f"YP{i}", CONTINUOUS, y_lb, y_ub)
             for i in range(1, N_d + 1)}

    row_names, row_lo, row_hi = [], [], []
    rows, cols, vals = [], [], []   # coordinates and values of A's entries

    def add_row(name, sense, rhs, terms):
        for i, coef in terms:
            rows.append(len(row_names))
            cols.append(i)
            vals.append(coef)
        row_names.append(name)
        row_lo.append(-np.inf if sense == LE else float(rhs))
        row_hi.append(np.inf if sense == GE else float(rhs))

    # Tree structure: children branch only under a branching parent; the root
    # branches; maximal-depth nodes never branch.
    for n in internal:
        add_row(f"struct_left[{n}]", LE, 0.0, [(d[2 * n], 1.0), (d[n], -1.0)])
        add_row(f"struct_right[{n}]", LE, 0.0, [(d[2 * n + 1], 1.0), (d[n], -1.0)])
    add_row("struct_root", EQ, 1.0, [(d[1], 1.0)])
    for n in terminal:
        add_row(f"struct_leaf[{n}]", EQ, 0.0, [(d[n], 1.0)])
    # No data on branching nodes.
    for i in range(1, N_d + 1):
        for n in nn:
            add_row(f"no_branch_data[{i},{n}]", LE, 1.0,
                    [(z[i, n], 1.0), (d[n], 1.0)])
    # Every data point assigned exactly once.
    for i in range(1, N_d + 1):
        add_row(f"assign_once[{i}]", EQ, 1.0, [(z[i, n], 1.0) for n in nn])
    # No data on inactive nodes: assignment implies branching ancestors.
    for i in range(1, N_d + 1):
        for n in nn:
            for m in ancestors(n):
                add_row(f"active_path[{i},{n},{m}]", LE, 0.0,
                        [(z[i, n], 1.0), (d[m], -1.0)])
    # Exactly one branching feature at each branching node.
    for n in internal:
        add_row(f"one_feature[{n}]", EQ, 0.0,
                [(a[f, n], 1.0) for f in range(1, N_f + 1)] + [(d[n], -1.0)])
    # Big-M routing along the path of the assigned node.
    for i in range(1, N_d + 1):
        xi = data.X[i - 1]
        for n in nn:
            lefts, rights = left_right_ancestors(n)
            for m in lefts:
                terms = [(a[f, m], float(xi[f - 1])) for f in range(1, N_f + 1)]
                terms += [(b[m], -1.0), (z[i, n], M)]
                add_row(f"route_left[{i},{n},{m}]", LE, M - eps, terms)
            for m in rights:
                terms = [(a[f, m], float(xi[f - 1])) for f in range(1, N_f + 1)]
                terms += [(b[m], -1.0), (z[i, n], -M)]
                add_row(f"route_right[{i},{n},{m}]", GE, -M, terms)
    # Node expression values.
    for i in range(1, N_d + 1):
        for n in nn:
            terms = [(yhat[i, n], 1.0)]
            terms += [(c[k, n], -float(Phi[i - 1, k - 1])) for k in range(1, N_K + 1)]
            add_row(f"node_value[{i},{n}]", EQ, 0.0, terms)
    # Branch nodes carry zero coefficients.
    for k in range(1, N_K + 1):
        for n in nn:
            add_row(f"coef_ub[{k},{n}]", LE, cfg.c_ub,
                    [(c[k, n], 1.0), (d[n], cfg.c_ub)])
            add_row(f"coef_lb[{k},{n}]", GE, cfg.c_lb,
                    [(c[k, n], 1.0), (d[n], cfg.c_lb)])
    # Linearized product delta = yhat * z.
    for i in range(1, N_d + 1):
        for n in nn:
            add_row(f"prod_ub[{i},{n}]", LE, 0.0,
                    [(delta[i, n], 1.0), (z[i, n], -y_ub)])
            add_row(f"prod_lb[{i},{n}]", GE, 0.0,
                    [(delta[i, n], 1.0), (z[i, n], -y_lb)])
            add_row(f"prod_tie_ub[{i},{n}]", LE, tie_M,
                    [(delta[i, n], 1.0), (yhat[i, n], -1.0), (z[i, n], tie_M)])
            add_row(f"prod_tie_lb[{i},{n}]", GE, -tie_M,
                    [(delta[i, n], 1.0), (yhat[i, n], -1.0), (z[i, n], -tie_M)])
    # Tree output is the assigned node's expression value.
    for i in range(1, N_d + 1):
        add_row(f"output[{i}]", EQ, 0.0,
                [(ypred[i], 1.0)] + [(delta[i, n], -1.0) for n in nn])
    # Absolute-value splits for residuals and coefficients.
    for i in range(1, N_d + 1):
        add_row(f"resid_split[{i}]", EQ, float(data.y[i - 1]),
                [(epos[i], 1.0), (eneg[i], -1.0), (ypred[i], 1.0)])
    for k in range(1, N_K + 1):
        for n in nn:
            add_row(f"coef_split[{k},{n}]", EQ, 0.0,
                    [(cpos[k, n], 1.0), (cneg[k, n], -1.0), (c[k, n], -1.0)])

    cost = np.zeros(len(variables))
    cost[list(epos.values()) + list(eneg.values())] = 1.0 / N_d
    cost[list(d.values())] = cfg.lambda_c
    cost[list(cpos.values()) + list(cneg.values())] = cfg.lambda_m

    A = sparse.csc_array((vals, (rows, cols)), shape=(len(row_names), len(variables)))
    A.eliminate_zeros()
    var_names, var_mps, integrality, lo, hi = map(list, zip(*variables))
    return MilpArtifact(cost=cost, A=A, row_lo=np.array(row_lo), row_hi=np.array(row_hi),
                        lo=np.array(lo), hi=np.array(hi), integrality=np.array(integrality),
                        var_names=var_names, var_mps=var_mps, row_names=row_names)


def milp_optimum_depth1(art, n_pts):
    """Exhaustive binary enumeration + LP over n_pts points; depth-1, one
    feature only."""
    idx = {name: i for i, name in enumerate(art.var_names)}
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


def embed_model(data, basis, cfg, model):
    """Full MILP assignment realizing a tree model on the data."""
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


def plant_rhs(plant, x: float, u: float) -> float:
    """dx/dt = (u/V)(x_f - x) - k x^3."""
    return (u / plant.V) * (plant.x_f - x) - plant.k_rate * x**3


def _rk4_step(plant, x, u, h):
    k1 = plant_rhs(plant, x, u)
    k2 = plant_rhs(plant, x + 0.5 * h * k1, u)
    k3 = plant_rhs(plant, x + 0.5 * h * k2, u)
    k4 = plant_rhs(plant, x + h * k3, u)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def loop_integrate_hold(plant, x, u, dt, h_int):
    """The plant advanced by dt under a held u, one RK4 step call per substep."""
    n_sub = max(1, round(dt / h_int))
    h = dt / n_sub
    for _ in range(n_sub):
        x = _rk4_step(plant, x, u, h)
    return x


def loop_sweep(spec, x0: float, u: np.ndarray, mu=None, rho: float = 0.0):
    """One forward Euler pass and one adjoint pass, on Python floats, reading
    the spec and calling plant_rhs on every call: the sweep ``mpc._sweeper``'s
    closures must match bitwise.

    Returns the states (list), the value, its gradient w.r.t. u (array) and
    the constraint values g (list, or None without ``mu``). Without ``mu``
    the value is the tracking objective. With multipliers ``mu`` and penalty
    ``rho`` it is the augmented Lagrangian of the rate and state constraints
    g <= 0 (box bounds excluded), laid out as the rate pairs
    u_{t+1} - u_t - lim, then u_t - u_{t+1} - lim, then the state bound pairs
    x - x_hi, then x_lo - x for x_2..x_T (x_1 is pinned to x0). The returned
    g is in these native units; the penalty term and ``mu`` take each row
    divided by its _con_scale unit.
    """
    plant = spec.plant
    h, V, x_f, k = spec.h, plant.V, plant.x_f, plant.k_rate
    us = u.tolist()
    x = float(x0)
    xs = [x]
    for ut in us:
        x = x + h * plant_rhs(plant, x, ut)
        xs.append(x)
    dev = [xt - spec.x_sp for xt in xs]
    # Left to right, as sum() adds floats before Python 3.12; from 3.12 on
    # sum() rounds differently.
    value = 0.0
    for d in dev:
        value += d * d
    value += spec.P * dev[-1] ** 2
    dldx = [2.0 * d for d in dev]
    dldx[-1] += 2.0 * spec.P * dev[-1]
    g = coef = None
    n_rate = len(us) - 1
    if mu is not None:
        lim = h * spec.u_rate_max
        x_lo, x_hi = spec.x_bounds
        du = [b - a for a, b in zip(us, us[1:])]
        g = ([d - lim for d in du] + [-d - lim for d in du]
             + [xt - x_hi for xt in xs[1:]] + [x_lo - xt for xt in xs[1:]])
        # d(penalty)/dg, zero for inactive terms.
        coef = []
        for gi, mi, si in zip(g, mu.tolist(), mpc._con_scale(spec, len(us))):
            s = gi / si + mi / rho
            if s > 0.0:
                value += 0.5 * rho * s * s
                coef.append(rho * s / si)
            else:
                coef.append(0.0)
        c_hi = coef[2 * n_rate : 2 * n_rate + len(us)]
        c_lo = coef[2 * n_rate + len(us) :]
        for t, (ch, cl) in enumerate(zip(c_hi, c_lo), start=1):
            dldx[t] += ch - cl
    grad = [0.0] * len(us)
    lam = dldx[-1]
    for t in range(len(us) - 1, -1, -1):
        xt = xs[t]
        grad[t] = lam * h * ((x_f - xt) / V)
        lam = dldx[t] + lam * (1.0 + h * (-us[t] / V - 3.0 * k * xt**2))
    if coef is not None:
        # Rate-constraint terms act directly on u.
        for t in range(n_rate):
            c = coef[t] - coef[n_rate + t]
            grad[t + 1] += c
            grad[t] -= c
    return xs, value, np.array(grad), g


def loop_sweeper(spec, x0: float, mu, rho: float):
    """``mpc._sweeper``'s calling convention answered by ``loop_sweep``, so it
    can stand in for the closure factory (monkeypatch ``mpc._sweeper``). A
    full sweep holds the tracking objective, ``loop_sweep``'s value without
    ``mu``, in place of the value."""

    def sweep(u, full=False):
        xs, value, grad, g = loop_sweep(spec, x0, u, mu, rho)
        if full:
            return xs, loop_sweep(spec, x0, u)[1], grad, g
        return value, grad

    return sweep


def _loop_pair_lines(label: str, cells: list) -> list:
    """Data lines holding ready-made (row name, value) cells two to a line."""
    head = f"    {label:<10}"
    lines = [f"{head}{a}   {b}".rstrip() for a, b in zip(cells[0::2], cells[1::2])]
    if len(cells) % 2:
        lines.append(f"{head}{cells[-1]}".rstrip())
    return lines


def loop_fmt12(v: float) -> str:
    """v in at most 12 characters, to as many significant digits as fit: the
    first precision from 12 down whose 'g' form is short enough."""
    for prec in range(12, 3, -1):
        s = f"{float(v):.{prec}g}"
        if len(s) <= 12:
            return s
    return f"{float(v):.3g}"


def loop_mps_text(art):
    """The fixed-format MPS document written one Python string per line and
    per nonzero, the writer ``milp.mps_text`` must match byte for byte."""
    row_mps, le = ["R%07d" % j for j in range(1, art.n_rows + 1)], np.isinf(art.row_lo)
    sense = np.where(art.row_lo == art.row_hi, "E", np.where(le, "L", "G")).tolist()
    lines = ["NAME          SYMTREE", "ROWS", " N  OBJ"]
    lines += [f" {t}  {name}" for t, name in zip(sense, row_mps)]
    # Column-major entries of [cost; A]: variable order, then row order.
    cols = sparse.vstack([sparse.csc_array(art.cost[None, :]), art.A], format="csc")
    vals = cols.data.tolist()
    rhs = np.where(le, art.row_hi, art.row_lo).tolist()
    lo, hi = art.lo.tolist(), art.hi.tolist()
    # Zeros stay out: 0.0 and -0.0 are one key but print apart, and only an
    # UP bound writes a zero.
    fmt = {v: f"{loop_fmt12(v):<12}" for v in {*vals, *rhs, *lo, *hi} if v}
    labels = [f"{name:<10}" for name in ["OBJ"] + row_mps]
    cells = [labels[r] + fmt[v] for r, v in zip(cols.indices.tolist(), vals)]
    ptr = cols.indptr.tolist()
    lines.append("COLUMNS")
    for j, mps in enumerate(art.var_mps):
        lines += _loop_pair_lines(mps, cells[ptr[j]:ptr[j + 1]])
    lines.append("RHS")
    lines += _loop_pair_lines("RHS", [labels[r] + fmt[v]
                                      for r, v in enumerate(rhs, start=1) if v != 0.0])
    lines.append("BOUNDS")
    for mps, kind, v_lo, v_hi in zip(art.var_mps, art.integrality.tolist(), lo, hi):
        if kind == BINARY:
            lines.append(f" BV {'BND':<10}{mps}")
        elif v_lo == -np.inf and v_hi == np.inf:
            lines.append(f" FR {'BND':<10}{mps}")
        else:
            if v_lo == -np.inf:
                lines.append(f" MI {'BND':<10}{mps}")
            elif v_lo != 0.0:
                lines.append(f" LO {'BND':<10}{mps:<10}{fmt[v_lo]}".rstrip())
            if v_hi != np.inf:
                lines.append(f" UP {'BND':<10}{mps:<10}"
                             f"{fmt[v_hi] if v_hi else loop_fmt12(v_hi)}".rstrip())
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


_WIDE = 1e6


def _loop_sse(y: np.ndarray, pred: np.ndarray) -> float:
    d = y - pred
    return float(d @ d)


def loop_fit_mean(X, y):
    """Constant leaf: (coeff vector, SSE)."""
    c = np.array([float(np.mean(y))])
    return c, _loop_sse(y, np.full(len(y), c[0]))


def loop_fit_line(X, y):
    """Least-squares affine leaf; constant fallback below two distinct points."""
    n_f = X.shape[1]
    if len(y) >= 2 and any(len(np.unique(X[:, f])) >= 2 for f in range(n_f)):
        A = np.hstack([np.ones((len(y), 1)), X])
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        return coef, _loop_sse(y, A @ coef)
    c = np.zeros(n_f + 1)
    c[0] = float(np.mean(y)) if len(y) else 0.0
    return c, _loop_sse(y, np.full(len(y), c[0]))


def loop_greedy_tree(data: Dataset, depth: int, leaf_fitter, basis: BasisSet) -> TreeModel:
    """The greedy SSE tree grown from index arrays: a Dataset per node, each
    side fitted from a fresh gather, and every winning side fitted again as
    its child. ``baselines.fit_cart_*`` must match its rules and leaves."""
    if depth < 1:
        raise ConfigError("depth must be >= 1")
    rules, leaves = {}, {}

    def grow(node: int, idx: np.ndarray):
        c, sse_here = leaf_fitter(data.X[idx], data.y[idx])
        best = None
        if node_depth(node) < depth and len(idx) >= 2:
            sub = Dataset(X=data.X[idx], y=data.y[idx])
            for f in range(data.n_features):
                for thr in candidate_thresholds(sub, f):
                    mask = data.X[idx, f] < thr
                    li, ri = idx[mask], idx[~mask]
                    _, sse_l = leaf_fitter(data.X[li], data.y[li])
                    _, sse_r = leaf_fitter(data.X[ri], data.y[ri])
                    total = sse_l + sse_r
                    if best is None or total < best[0]:
                        best = (total, f, float(thr), li, ri)
        # Split only on strict SSE reduction; degenerate splits become leaves.
        if best is not None and best[0] < sse_here - 1e-12:
            _, f, thr, li, ri = best
            rules[node] = BranchRule(feature=f, threshold=thr)
            grow(2 * node, li)
            grow(2 * node + 1, ri)
        else:
            leaves[node] = LeafExpression(coefficients=tuple(float(v) for v in c))

    grow(1, np.arange(data.n_points))
    return TreeModel(depth=depth, rules=rules, leaves=leaves, basis=basis,
                     bounds=TreeBounds(-_WIDE, _WIDE, -_WIDE, _WIDE))

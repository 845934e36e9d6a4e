"""Small dense linear programs and exact L1 leaf fitting.

Every LP goes through scipy's bundled HiGHS solver (Huangfu & Hall, "Parallelizing
the dual revised simplex method", Math. Prog. Comp. 2018), called through
`scipy.optimize.milp` with no integer variables: the same solve as `linprog`
behind a thinner wrapper, which matters because a leaf LP is small enough for
the per-call overhead to dominate. `solve_lp` takes an LP as arrays;
`fit_l1` poses the leaf fit as one LP with split residual and coefficient
variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import DimensionError, NumericalError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}  # scipy milp status codes


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    objective: float = None


def solve_lp(cost, A, row_lo, row_hi, lo, hi) -> LpSolution:
    """min cost @ x  s.t.  row_lo <= A x <= row_hi, lo <= x <= hi, by HiGHS.

    A is dense or sparse; an infinite row or variable bound is absent.
    Statuses: optimal, infeasible, unbounded.
    """
    n, m = len(cost), A.shape[0]
    if A.shape[1] != n or not len(lo) == len(hi) == n or not len(row_lo) == len(row_hi) == m:
        raise DimensionError(f"A of shape {A.shape}, {len(row_lo)}/{len(row_hi)} row and "
                             f"{len(lo)}/{len(hi)} variable bounds for {n} costs")
    rows = LinearConstraint(A, row_lo, row_hi) if m else None
    res = milp(cost, constraints=rows, bounds=Bounds(lo, hi))
    status = _STATUS.get(res.status)
    if status is None:
        raise NumericalError(f"HiGHS stopped with status {res.status}: {res.message}")
    if status != OPTIMAL:
        return LpSolution(status=status)
    return LpSolution(status=OPTIMAL, x=res.x, objective=float(res.fun))


def fit_l1(Phi, y, w: float, lambda_m: float, c_bounds, y_bounds=None):
    """L1 fit of coefficients c minimizing  w*sum|y - Phi c| + lambda_m*sum|c|.

    Posed as one LP over split coefficients c = c+ - c- and split residuals
    y - Phi c = e+ - e-, with one equality row per data point. The coefficient
    bounds become bounds on c+ and c-; the optional y_bounds, which keep
    Phi @ c inside [y_lb, y_ub], become bounds on e+ and e- (the residual must
    lie in [y - y_ub, y - y_lb]). Empty data returns zero coefficients and zero
    loss.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if Phi.ndim != 2 or Phi.shape[0] != len(y):
        raise DimensionError(f"basis matrix of shape {Phi.shape} for {len(y)} labels")
    if w <= 0:
        raise DimensionError("weight w must be positive")
    if lambda_m < 0:
        raise DimensionError("lambda_m must be nonnegative")
    c_lo, c_hi = (float(v) for v in c_bounds)
    y_lb, y_ub = (-np.inf, np.inf) if y_bounds is None else (float(v) for v in y_bounds)
    if c_lo > c_hi or y_lb > y_ub:
        # HiGHS would call these infeasible, as if the data were at fault.
        raise DimensionError(f"crossed bounds: c in [{c_lo}, {c_hi}], y in [{y_lb}, {y_ub}]")
    N, K = Phi.shape
    if N == 0:
        return np.zeros(K), 0.0
    # Layout: c+ (K), c- (K), e+ (N), e- (N).
    I_N = np.eye(N)
    A = np.hstack([Phi, -Phi, I_N, -I_N])
    cost = np.concatenate([np.full(2 * K, lambda_m), np.full(2 * N, w)])
    r_lo, r_hi = y - y_ub, y - y_lb
    lo = np.concatenate([np.full(K, max(c_lo, 0.0)), np.full(K, max(-c_hi, 0.0)),
                         np.maximum(r_lo, 0.0), np.maximum(-r_hi, 0.0)])
    hi = np.concatenate([np.full(K, max(c_hi, 0.0)), np.full(K, max(-c_lo, 0.0)),
                         np.maximum(r_hi, 0.0), np.maximum(-r_lo, 0.0)])
    sol = solve_lp(cost, A, y, y, lo, hi)
    if sol.status != OPTIMAL:
        raise NumericalError(f"L1 fitting LP terminated with status {sol.status}")
    return sol.x[:K] - sol.x[K:2 * K], sol.objective

"""Small dense linear programs and exact L1 leaf fitting.

Every LP goes through scipy's bundled HiGHS solver (Huangfu & Hall, "Parallelizing
the dual revised simplex method", Math. Prog. Comp. 2018). `solve_lp` takes a
row-list problem; `fit_l1` poses the leaf fit as one LP with split residual and
coefficient variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .errors import DimensionError, NumericalError

LE, EQ, GE = "<=", "=", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_STATUS = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}  # scipy linprog status codes


@dataclass
class LpProblem:
    """min objective @ x  s.t.  rows (coeffs, relation, rhs) and variable bounds."""

    objective: np.ndarray
    rows: list = field(default_factory=list)     # (coeffs, "<="|"="|">=", rhs)
    bounds: list = field(default_factory=list)   # (lo, hi), +-inf allowed

    def check(self):
        n = len(self.objective)
        if len(self.bounds) != n:
            raise DimensionError(f"{len(self.bounds)} bounds for {n} variables")
        for i, (coeffs, rel, rhs) in enumerate(self.rows):
            if len(coeffs) != n:
                raise DimensionError(f"row {i}: {len(coeffs)} coefficients for {n} variables")
            if rel not in (LE, EQ, GE):
                raise DimensionError(f"row {i}: unknown relation {rel!r}")
            if not np.isfinite(rhs):
                raise DimensionError(f"row {i}: non-finite rhs")


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    objective: float = None


def _highs(cost, A_ub, b_ub, A_eq, b_eq, bounds) -> LpSolution:
    """min cost @ x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, bounds, by HiGHS."""
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    status = _STATUS.get(res.status)
    if status is None:
        raise NumericalError(f"HiGHS stopped with status {res.status}: {res.message}")
    if status != OPTIMAL:
        return LpSolution(status=status)
    return LpSolution(status=OPTIMAL, x=res.x, objective=float(res.fun))


def solve_lp(p: LpProblem) -> LpSolution:
    """Solve a small dense LP; statuses: optimal, infeasible, unbounded."""
    p.check()
    c = np.asarray(p.objective, dtype=float)
    sign = np.array([-1.0 if rel == GE else 1.0 for _, rel, _ in p.rows])
    eq = np.array([rel == EQ for _, rel, _ in p.rows], dtype=bool)
    A = np.array([coeffs for coeffs, _, _ in p.rows], dtype=float).reshape(len(p.rows), len(c))
    A *= sign[:, None]
    b = np.array([rhs for _, _, rhs in p.rows], dtype=float) * sign
    return _highs(c, A[~eq], b[~eq], A[eq], b[eq], p.bounds)


def fit_l1(Phi, y, w: float, lambda_m: float, c_bounds, y_bounds=None):
    """L1 fit of coefficients c minimizing  w*sum|y - Phi c| + lambda_m*sum|c|.

    Posed as an LP with split residual and coefficient variables. Optional
    y_bounds adds rows keeping Phi @ c inside [y_lb, y_ub]. Empty data returns
    zero coefficients and zero loss.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if Phi.ndim != 2 or Phi.shape[0] != len(y):
        raise DimensionError(f"basis matrix of shape {Phi.shape} for {len(y)} labels")
    if w <= 0:
        raise DimensionError("weight w must be positive")
    if lambda_m < 0:
        raise DimensionError("lambda_m must be nonnegative")
    N, K = Phi.shape
    if N == 0:
        return np.zeros(K), 0.0
    # Layout: c (K), eps+ (N), eps- (N), c+ (K), c- (K).
    I_N, I_K = np.eye(N), np.eye(K)
    Z_NK, Z_KN = np.zeros((N, K)), np.zeros((K, N))
    A_eq = np.block([[Phi, I_N, -I_N, Z_NK, Z_NK],
                     [I_K, Z_KN, Z_KN, -I_K, I_K]])
    b_eq = np.concatenate([y, np.zeros(K)])
    cost = np.concatenate([np.zeros(K), np.full(2 * N, w), np.full(2 * K, lambda_m)])
    bounds = [tuple(c_bounds)] * K + [(0.0, np.inf)] * (2 * N + 2 * K)
    A_ub = b_ub = None
    if y_bounds is not None:
        y_lb, y_ub = y_bounds
        Z = np.zeros((N, 2 * N + 2 * K))
        A_ub = np.block([[Phi, Z], [-Phi, Z]])
        b_ub = np.concatenate([np.full(N, float(y_ub)), np.full(N, -float(y_lb))])
    sol = _highs(cost, A_ub, b_ub, A_eq, b_eq, bounds)
    if sol.status != OPTIMAL:
        raise NumericalError(f"L1 fitting LP terminated with status {sol.status}")
    return sol.x[:K].copy(), sol.objective

"""Small dense linear programs and exact L1 leaf fitting.

Every LP is solved by the HiGHS solver that scipy bundles (Huangfu & Hall,
"Parallelizing the dual revised simplex method", Math. Prog. Comp. 2018),
called through scipy's own bindings to it, `scipy.optimize._highspy._core`,
rather than through `scipy.optimize.milp`: a leaf LP is small enough that
milp's input checks and per-column result loop cost more than the simplex.
Those bindings first ship in scipy 1.15, hence the floor in pyproject.toml.
`solve_lp` takes an LP as arrays; `fit_l1` poses the leaf fit as one LP with
split residual and coefficient variables; `LeafLosses` keeps that LP over a
whole dataset as one HiGHS model and re-solves it in place, from the last
basis, for each point set the tree search asks about. Every model runs at
primal and dual feasibility tolerances of 1e-10 rather than HiGHS's 1e-7, so
a cold leaf fit stops at its optimum, not up to about 2e-5 above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core
from scipy.sparse import csc_array

from .errors import DimensionError, NumericalError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MS = _core.HighsModelStatus
_STATUS = {_MS.kOptimal: OPTIMAL, _MS.kInfeasible: INFEASIBLE, _MS.kUnbounded: UNBOUNDED}


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    objective: float = None


FEASIBILITY_TOL = 1e-10   # primal and dual; at HiGHS's 1e-7 a leaf LP stops short


def _highs(cost, A, row_lo, row_hi, lo, hi):
    """min cost @ x  s.t.  row_lo <= A x <= row_hi, lo <= x <= hi  as a HiGHS
    model with output off and FEASIBILITY_TOL, or None when HiGHS refuses to
    load it (a lower bound of +inf, say)."""
    A = csc_array(A, dtype=float)
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    for option in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
        highs.setOptionValue(option, FEASIBILITY_TOL)
    continuous = np.zeros(len(cost), dtype=np.int32)   # integrality, one code per column
    loaded = highs.passModel(len(cost), A.shape[0], A.nnz, _core.MatrixFormat.kColwise,
                             _core.ObjSense.kMinimize, 0.0, cost, lo, hi, row_lo, row_hi,
                             A.indptr, A.indices, A.data, continuous)
    return None if loaded == _core.HighsStatus.kError else highs


def solve_lp(cost, A, row_lo, row_hi, lo, hi) -> LpSolution:
    """min cost @ x  s.t.  row_lo <= A x <= row_hi, lo <= x <= hi, by HiGHS.

    A is dense or sparse; an infinite row or variable bound is absent.
    Statuses: optimal, infeasible, unbounded.
    """
    cost, row_lo, row_hi, lo, hi = (np.asarray(v, dtype=float)
                                    for v in (cost, row_lo, row_hi, lo, hi))
    n, m = len(cost), A.shape[0]
    if A.shape[1] != n or not len(lo) == len(hi) == n or not len(row_lo) == len(row_hi) == m:
        raise DimensionError(f"A of shape {A.shape}, {len(row_lo)}/{len(row_hi)} row and "
                             f"{len(lo)}/{len(hi)} variable bounds for {n} costs")
    if not np.all(np.isfinite(cost)):
        raise DimensionError("costs must be finite")
    highs = _highs(cost, A, row_lo, row_hi, lo, hi)
    if highs is None:  # no point meets a refused bound; milp says infeasible too
        return LpSolution(status=INFEASIBLE)
    highs.run()
    model_status = highs.getModelStatus()
    status = _STATUS.get(model_status)
    if status is None:
        raise NumericalError(f"HiGHS stopped with status {highs.modelStatusToString(model_status)}")
    if status != OPTIMAL:
        return LpSolution(status=status)
    return LpSolution(status=OPTIMAL, x=np.array(highs.getSolution().col_value),
                      objective=highs.getObjectiveValue())


def _l1_lp(Phi, y, w, lambda_m, c_bounds, y_bounds):
    """fit_l1's LP over every row of Phi, as solve_lp's arrays.

    Columns: c+ (K), c- (K), e+ (N), e- (N); one equality row
    Phi_i (c+ - c-) + e+_i - e-_i = y_i per point.
    """
    Phi = np.asarray(Phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if Phi.ndim != 2 or Phi.shape[0] != len(y):
        raise DimensionError(f"basis matrix of shape {Phi.shape} for {len(y)} labels")
    if not w > 0:
        raise DimensionError("weight w must be positive")
    if not lambda_m >= 0:
        raise DimensionError("lambda_m must be nonnegative")
    c_lo, c_hi = (float(v) for v in c_bounds)
    y_lb, y_ub = (-np.inf, np.inf) if y_bounds is None else (float(v) for v in y_bounds)
    if c_lo > c_hi or y_lb > y_ub:
        # HiGHS would call these infeasible, as if the data were at fault.
        raise DimensionError(f"crossed bounds: c in [{c_lo}, {c_hi}], y in [{y_lb}, {y_ub}]")
    N, K = Phi.shape
    I_N = np.eye(N)
    A = np.hstack([Phi, -Phi, I_N, -I_N])
    cost = np.concatenate([np.full(2 * K, lambda_m), np.full(2 * N, w)])
    r_lo, r_hi = y - y_ub, y - y_lb
    lo = np.concatenate([np.full(K, max(c_lo, 0.0)), np.full(K, max(-c_hi, 0.0)),
                         np.maximum(r_lo, 0.0), np.maximum(-r_hi, 0.0)])
    hi = np.concatenate([np.full(K, max(c_hi, 0.0)), np.full(K, max(-c_lo, 0.0)),
                         np.maximum(r_hi, 0.0), np.maximum(-r_lo, 0.0)])
    return cost, A, y, y, lo, hi


def fit_l1(Phi, y, w: float, lambda_m: float, c_bounds, y_bounds=None):
    """L1 fit of coefficients c minimizing  w*sum|y - Phi c| + lambda_m*sum|c|.

    Posed as one LP over split coefficients c = c+ - c- and split residuals
    y - Phi c = e+ - e-, with one equality row per data point. The coefficient
    bounds become bounds on c+ and c-; the optional y_bounds, which keep
    Phi @ c inside [y_lb, y_ub], become bounds on e+ and e- (the residual must
    lie in [y - y_ub, y - y_lb]). Empty data returns zero coefficients and zero
    loss.
    """
    lp = _l1_lp(Phi, y, w, lambda_m, c_bounds, y_bounds)
    N, K = np.shape(Phi)
    if N == 0:
        return np.zeros(K), 0.0
    sol = solve_lp(*lp)
    if sol.status != OPTIMAL:
        raise NumericalError(f"L1 fitting LP terminated with status {sol.status}")
    return sol.x[:K] - sol.x[K:2 * K], sol.objective


class LeafLosses:
    """fit_l1's loss on any subset of one dataset, from one kept HiGHS model.

    The model is fit_l1's LP over all N points. A point outside the asked-for
    set has only its row freed to (-inf, inf): its e+ and e- then sit in no
    constraint, so at cost w they rest on their lower bounds (0 unless the
    label lies outside y_bounds), and subtracting that resting cost leaves
    the set's own loss. Each call changes only the rows whose membership
    changed since the last one and re-solves from the kept basis. A warm
    re-solve that stops short of optimal is run once more from a cleared
    solver before it counts as a failure.

    A loss agrees with a cold fit_l1 to HiGHS's tolerances (about 1e-10), not
    bitwise, so take coefficients from fit_l1.
    """

    def __init__(self, Phi, y, w: float, lambda_m: float, c_bounds, y_bounds=None):
        cost, A, self._y, _, lo, hi = _l1_lp(Phi, y, w, lambda_m, c_bounds, y_bounds)
        N = len(self._y)
        self._resting = w * lo[len(lo) - 2 * N:].reshape(2, N).sum(axis=0)  # freed e+, e-
        self._inside = np.ones(N, dtype=bool)
        self._highs = _highs(cost, A, self._y, self._y, lo, hi)
        if self._highs is None:
            raise NumericalError("HiGHS refused the leaf LP")

    def loss(self, mask) -> float:
        """Optimal  w*sum|y - Phi c| + lambda_m*sum|c|  over the points in mask."""
        mask = np.asarray(mask, dtype=bool)
        for i in np.flatnonzero(mask != self._inside).tolist():
            if mask[i]:
                self._highs.changeRowBounds(i, self._y[i], self._y[i])
            else:
                self._highs.changeRowBounds(i, -np.inf, np.inf)
        self._inside = mask.copy()
        self._highs.run()
        status = self._highs.getModelStatus()
        if status != _MS.kOptimal:   # seen as Solve error or Unknown on valid data
            self._highs.clearSolver()
            self._highs.run()
            status = self._highs.getModelStatus()
        if status != _MS.kOptimal:
            raise NumericalError(f"leaf LP over {int(mask.sum())} points stopped with "
                                 f"status {self._highs.modelStatusToString(status)}")
        return self._highs.getObjectiveValue() - self._resting[~mask].sum()

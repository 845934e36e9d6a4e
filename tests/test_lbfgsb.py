"""mpc.minimize drives scipy's L-BFGS-B routine (setulb) itself; it must take
the same iterates as scipy.optimize.minimize(method="L-BFGS-B"), which these
tests keep as the reference."""

import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from symtree import mpc
from symtree.closed_loop import mpc_controller, simulate
from symtree.mpc import KKT_TOL, MpcSpec, generate_dataset

# The options mpc._solve_from passes.
_OPTIONS = dict(maxiter=mpc._MAX_INNER, ftol=1e-16, gtol=0.01 * KKT_TOL)


def scipy_lbfgsb(fun, x0, bounds, maxiter, ftol, gtol):
    """mpc.minimize's contract, answered by scipy's own L-BFGS-B."""
    return scipy_minimize(fun, x0, jac=True, method="L-BFGS-B",
                          bounds=[bounds] * len(x0),
                          options=dict(maxiter=maxiter, ftol=ftol, gtol=gtol))


def subproblem(i):
    """Case i: an augmented-Lagrangian subproblem of the canonical spec and a
    start. The starts cycle through both flow bounds, the steady-state flow
    at x0 and a point outside the box; rho cycles through 10, 160 and 1e4;
    every fifth case has mu = 0, as in a solve's first outer iteration."""
    spec = MpcSpec()
    rng = np.random.default_rng(1000 + i)
    n = spec.T - 1
    x0 = float(rng.uniform(0.1, 0.9))
    n_con = len(mpc._con_scale(spec, n))
    mu = rng.exponential(1.0, n_con) * (rng.random(n_con) < 0.3)
    if i % 5 == 0:
        mu[:] = 0.0
    rho = (10.0, 160.0, 1e4)[i % 3]
    u_lo, u_hi = spec.u_bounds
    u0 = {0: np.full(n, u_lo), 1: np.full(n, u_hi),
          2: np.full(n, mpc.steady_state_flow(spec.plant, x0)),
          3: rng.uniform(u_lo - 30.0, u_hi + 30.0, n)}[i % 4]
    return spec, mpc._sweeper(spec, x0, mu, rho), u0


@pytest.mark.parametrize("i", range(20))
def test_minimize_takes_scipys_iterates(i):
    # A few of these cases evaluate their last point again, which scipy's
    # memo answers without counting, so nfev checks that minimize does too.
    spec, fun, u0 = subproblem(i)
    options = dict(_OPTIONS, maxiter=3) if i == 19 else _OPTIONS
    res = mpc.minimize(fun, u0, spec.u_bounds, **options)
    ref = scipy_lbfgsb(fun, u0, spec.u_bounds, **options)
    assert np.array_equal(res.x, ref.x)
    assert (res.nit, res.nfev) == (ref.nit, ref.nfev)
    if i == 19:
        assert res.nit == 3   # stopped by maxiter
    if i % 4 == 3:   # the start is outside the box
        assert np.any((u0 < spec.u_bounds[0]) | (u0 > spec.u_bounds[1]))


def labels_and_loop():
    spec = MpcSpec()
    data = [generate_dataset(spec, 12, 0.1, 0.9, "seeded-random", s) for s in (3, 4)]
    trace = simulate(spec.plant, mpc_controller(spec), 0.3, 10.0, 0.1)
    assert len(trace.controls) == 100
    return data, trace


def test_labels_and_mpc_loop_match_scipy_lbfgsb(monkeypatch):
    data, trace = labels_and_loop()
    monkeypatch.setattr(mpc, "minimize", scipy_lbfgsb)
    ref_data, ref_trace = labels_and_loop()
    for d, r in zip(data, ref_data):
        assert np.array_equal(d.X, r.X)
        assert np.array_equal(d.y, r.y)
    assert np.array_equal(trace.states, ref_trace.states)
    assert np.array_equal(trace.controls, ref_trace.controls)

"""Ground-truth control actions for the reactor case study.

Solves the finite-horizon tracking problem (single shooting, explicit Euler
inside the horizon) with an augmented-Lagrangian outer loop for rate and
state constraints and an L-BFGS-B inner loop that keeps the flow box bounds.
The inner loop drives scipy's L-BFGS-B routine ``scipy.optimize._lbfgsb.setulb``
directly, as ``scipy.optimize.minimize`` does but without its per-evaluation
bookkeeping.
The penalty and its multipliers read each constraint in its own unit (the rate
limit for rate rows, the state range for state rows), so the penalty's
curvature does not swamp the tracking objective's; a solution is accepted on
its violation in flow and concentration.
A solve starts cold from up to three constant flows and stops early once a
start reaches the objective's lower bound, its pinned first term
(x0 - x_sp)^2; or it starts from a warm start (the previous solution's
controls) and falls back to the cold starts only when that one solve does not
converge. Also generates MPC-labeled datasets, with each sorted state
warm-started from the previous state's solution.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import _lbfgsb

from .errors import ConfigError, ConvergenceError
from .learner import Dataset

KKT_TOL = 1e-6
CON_TOL = 1e-6
_MAX_OUTER = 50
_MAX_INNER = 2000


@dataclass(frozen=True)
class PlantSpec:
    """Isothermal CSTR: volume (L), feed concentration (mol/L), rate constant."""

    V: float = 50.0
    x_f: float = 1.0
    k_rate: float = 2.0

    def __post_init__(self):
        if min(self.V, self.x_f, self.k_rate) <= 0:
            raise ConfigError("plant parameters must be positive")


@dataclass(frozen=True)
class MpcSpec:
    T: int = 10
    h: float = 0.5
    P: float = 100.0
    x_sp: float = 0.6
    u_rate_max: float = 50.0
    x_bounds: tuple = (0.0, 1.0)
    u_bounds: tuple = (0.0, 75.0)
    plant: PlantSpec = field(default_factory=PlantSpec)

    def __post_init__(self):
        if self.T < 2:
            raise ConfigError("horizon T must be >= 2")
        if self.h <= 0:
            raise ConfigError("step h must be positive")
        if self.u_rate_max < 0:
            raise ConfigError(f"u_rate_max must be nonnegative, got {self.u_rate_max}")
        if not (self.x_bounds[0] < self.x_bounds[1] and self.u_bounds[0] < self.u_bounds[1]):
            raise ConfigError("bounds must be ordered lo < hi")


@dataclass
class MpcSolution:
    controls: np.ndarray   # u_1..u_{T-1}
    states: np.ndarray     # x_1..x_T
    objective: float
    kkt_residual: float
    first_action: float


def steady_state_flow(plant: PlantSpec, x: float) -> float:
    """Flow that holds concentration x: F = V k x^3 / (x_f - x)."""
    return plant.V * plant.k_rate * x**3 / (plant.x_f - x)


def _sweeper(spec: MpcSpec, x0: float, mu, rho: float):
    """One subproblem's forward Euler pass and adjoint pass, on Python floats,
    with its constants bound once: sweep(u) returns the value and its
    gradient w.r.t. the T - 1 controls u (list); sweep(u, full=True) returns
    the states (list), the tracking objective, the value's gradient (array)
    and the constraint values g (list).

    With multipliers ``mu`` and penalty ``rho`` the value is the augmented
    Lagrangian of the rate and state constraints g <= 0 (box bounds
    excluded), laid out as the rate pairs u_{t+1} - u_t - lim, then
    u_t - u_{t+1} - lim, then the state bound pairs x - x_hi, then x_lo - x
    for x_2..x_T (x_1 is pinned to x0). The returned g is in these native
    units; the penalty term and ``mu`` take each row divided by its
    _con_scale unit.
    """
    plant = spec.plant
    h, V, x_f, k = spec.h, plant.V, plant.x_f, plant.k_rate
    x_sp, P = spec.x_sp, spec.P
    # Each constant bound here is a product or quotient the sweep's
    # expressions form first (2.0 * P * d is (2.0 * P) * d), so binding it
    # once changes no value; the plant's right-hand side
    # (u / V)(x_f - x) - k x^3 is written out in that operation order.
    P2, k3 = 2.0 * P, 3.0 * k
    x_init = float(x0)
    n = spec.T - 1
    n_rate = n - 1
    lim = h * spec.u_rate_max
    x_lo, x_hi = spec.x_bounds
    half_rho = 0.5 * rho
    scale = _con_scale(spec, n)
    mu_rho = [mi / rho for mi in mu.tolist()]
    rate_rows = (scale[: 2 * n_rate], mu_rho[: 2 * n_rate])
    state_rows = (scale[2 * n_rate :], mu_rho[2 * n_rate :])
    # A row's penalty argument is s = g / unit + mu / rho, with a positive
    # unit. In a group with no mu / rho above zero, s > 0 needs g > 0: a rate
    # step beyond lim or a state outside its bounds, which the sweep reads off
    # the steps and states without forming g. A group with no such row is
    # skipped: each of its coefficients would be 0.0 and the value would take
    # none of its terms.
    rate_quiet = not any(m > 0.0 for m in rate_rows[1])
    state_quiet = not any(m > 0.0 for m in state_rows[1])
    # The zero coefficients of a skipped state group would turn a -0.0 in
    # dldx into +0.0. A deviation x - x_sp, and so its dldx entry, is -0.0
    # only where x is -0.0 and x_sp is +0.0; with a zero x_sp the skip still
    # adds them.
    signed_dev = x_sp == 0.0

    def rows(value, g, units, mu_rho):
        """The coefficients d(penalty)/dg of one row group, zero for inactive
        rows, and the value with the group's penalty terms added."""
        coef = []
        for gi, si, mr in zip(g, units, mu_rho):
            s = gi / si + mr
            if s > 0.0:
                value += half_rho * s * s
                coef.append(rho * s / si)
            else:
                coef.append(0.0)
        return coef, value

    def sweep(u, full=False):
        us = u.tolist()
        x = x_init
        xs = [x]
        for ut in us:
            x = x + h * ((ut / V) * (x_f - x) - k * x**3)
            xs.append(x)
        dev = [xt - x_sp for xt in xs]
        # Left to right, as sum() adds floats before Python 3.12; from 3.12
        # on sum() rounds differently, and the labels were pinned before.
        value = 0.0
        for d in dev:
            value += d * d
        value += P * dev[-1] ** 2
        objective = value
        dldx = [2.0 * d for d in dev]
        dldx[-1] += P2 * dev[-1]
        c_rate = None
        du = [b - a for a, b in zip(us, us[1:])]
        xs1 = xs[1:]
        if full or not rate_quiet or (du and (max(du) > lim or min(du) < -lim)):
            g = [d - lim for d in du] + [-d - lim for d in du]
            c_rate, value = rows(value, g, *rate_rows)
        if full or not state_quiet or max(xs1) > x_hi or min(xs1) < x_lo:
            g_state = [xt - x_hi for xt in xs1] + [x_lo - xt for xt in xs1]
            c_state, value = rows(value, g_state, *state_rows)
            for t, (ch, cl) in enumerate(zip(c_state, c_state[n:]), start=1):
                dldx[t] += ch - cl
            if full:
                g += g_state
        elif signed_dev:
            for t in range(1, n + 1):
                dldx[t] += 0.0
        grad = []
        lam = dldx[-1]
        for t in range(n - 1, -1, -1):
            xt = xs[t]
            grad.append(lam * h * ((x_f - xt) / V))
            lam = dldx[t] + lam * (1.0 + h * (-us[t] / V - k3 * xt**2))
        grad.reverse()
        if c_rate is not None:
            # Rate-constraint terms act directly on u.
            for t in range(n_rate):
                c = c_rate[t] - c_rate[n_rate + t]
                grad[t + 1] += c
                grad[t] -= c
        else:
            # The zero coefficients of a skipped rate group, as the loop above
            # applies them: grad[t] -= 0.0 changes nothing, grad[t + 1] += 0.0
            # turns a -0.0 into +0.0.
            for t in range(1, n):
                grad[t] += 0.0
        if full:
            return xs, objective, np.array(grad), g
        return value, grad

    return sweep


def _con_scale(spec: MpcSpec, n: int) -> list:
    """Unit of each constraint row in _sweeper's layout, for n controls: the
    rate limit h * u_rate_max for the rate rows, x_hi - x_lo for the state
    rows. A zero rate limit (constant flow) has no unit of its own, so its
    rows stay in flow units."""
    lim = spec.h * spec.u_rate_max
    return ([lim if lim > 0 else 1.0] * (2 * (n - 1))
            + [spec.x_bounds[1] - spec.x_bounds[0]] * (2 * n))


@dataclass(frozen=True)
class LbfgsbResult:
    x: np.ndarray
    nit: int    # iterations
    nfev: int   # evaluations of fun


def minimize(fun, x0, bounds, maxiter: int, ftol: float, gtol: float) -> LbfgsbResult:
    """L-BFGS-B over the box bounds = (lo, hi) in every coordinate.

    Runs scipy's reverse-communication loop over ``_lbfgsb.setulb`` as
    ``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` does (memory 10,
    at most 20 line-search steps, at most 15000 evaluations), so it takes the
    same iterates; fun(x) returns the value and its gradient (a sequence of
    floats), from which each request builds the one array setulb reads.
    """
    m, n = 10, len(x0)
    x = np.clip(np.asarray(x0, dtype=float), bounds[0], bounds[1])
    lo, hi = np.full(n, float(bounds[0])), np.full(n, float(bounds[1]))
    nbd = np.full(n, 2, dtype=np.int32)   # bounded below and above
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    factr = ftol / np.finfo(float).eps
    nit = nfev = 0
    last_x = None
    while True:
        _lbfgsb.setulb(m, x, lo, hi, nbd, f, g, factr, gtol, wa, iwa, task,
                       lsave, isave, dsave, 20, ln_task)
        code = task.item(0)
        if code == 3:      # f and g at x
            # Like scipy's memo, a repeat of the last point evaluated is
            # answered from a new array and not counted; setulb may since
            # have overwritten g with a restored gradient.
            xs = x.tolist()
            if xs != last_x:
                last_x, (last_f, last_g) = xs, fun(x)
                nfev += 1
            f, g = last_f, np.array(last_g, dtype=float)
        elif code == 1:    # a new iterate; stop as scipy does
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504
            elif nfev > 15000:
                task[:] = 5, 502
        else:
            return LbfgsbResult(x=x, nit=nit, nfev=nfev)


def _solve_from(spec: MpcSpec, x0: float, u: np.ndarray):
    """Augmented-Lagrangian outer loop from the controls u. Each subproblem
    ends with one full sweep at its L-BFGS-B result, which accepts it or
    updates the multipliers: after a failed line search L-BFGS-B returns the
    previous iterate, not the last point it evaluated. None when the start
    does not converge, a subproblem that overflows included."""
    scale = np.array(_con_scale(spec, spec.T - 1))
    mu = np.zeros(len(scale))
    rho = 10.0
    prev_viol = np.inf
    for _ in range(_MAX_OUTER):
        sweep = _sweeper(spec, x0, mu, rho)
        try:
            u = minimize(sweep, u, spec.u_bounds, maxiter=_MAX_INNER, ftol=1e-16,
                         gtol=0.01 * KKT_TOL).x
            x, obj, grad, g = sweep(u, full=True)
        except OverflowError:  # a state past float range: this start failed
            return None
        g = np.array(g)
        viol = float(np.max(np.maximum(g, 0.0), initial=0.0))
        pg = np.linalg.norm(u - np.clip(u - grad, *spec.u_bounds))
        if viol <= CON_TOL and pg <= KKT_TOL:
            return MpcSolution(controls=u, states=np.array(x), objective=obj,
                               kkt_residual=float(pg), first_action=float(u[0]))
        mu = np.maximum(0.0, mu + rho * g / scale)
        if viol > 0.25 * prev_viol:
            rho = min(rho * 4.0, 1e10)
        prev_viol = viol
    return None


def solve_mpc(spec: MpcSpec, x0: float, warm=None) -> MpcSolution:
    """Multi-start solve from high flow, low flow, then steady-state flow.

    A start equal to an earlier one is not solved again. No control sequence
    gets the objective below its pinned first term (x0 - x_sp)^2, so once a
    converged start is within 1e-8 relative (1e-10 absolute) of that floor,
    no other start can beat it by more, and the remaining starts are skipped.
    With ``warm`` (T-1 finite controls, e.g. a nearby state's optimum) one solve
    starts from it instead, and its solution is returned when it converges;
    otherwise the cold starts run as without ``warm``.
    """
    if not spec.x_bounds[0] <= x0 <= spec.x_bounds[1]:
        raise ConfigError(f"initial state {x0} outside bounds {spec.x_bounds}")
    n = spec.T - 1
    if warm is not None:
        warm = np.asarray(warm, dtype=float)
        if warm.shape != (n,):
            raise ConfigError(f"expected {n} warm-start controls, got {warm.shape}")
        if not np.isfinite(warm).all():
            raise ConfigError(f"warm-start controls must be finite, got {warm}")
        sol = _solve_from(spec, x0, warm)
        if sol is not None:
            return sol
    u_lo, u_hi = spec.u_bounds
    flows = [u_hi, u_lo]
    if x0 < spec.plant.x_f:
        flows.append(np.clip(steady_state_flow(spec.plant, x0), u_lo, u_hi))
    # The first term of the objective, computed as the sweep computes it; the
    # rest of its sum is nonnegative, so no start can go below it.
    d = float(x0) - spec.x_sp
    floor = d * d
    best = None
    for i, flow in enumerate(flows):
        # The steady-state flow clips to u_hi for high x0; a repeated start
        # would return the same solution, which cannot replace the first.
        if flow in flows[:i]:
            continue
        sol = _solve_from(spec, x0, np.full(n, flow))
        if sol is not None and (best is None or sol.objective < best.objective):
            best = sol
            if best.objective <= floor + 1e-8 * floor + 1e-10:
                break
    if best is None:
        raise ConvergenceError(f"no start converged for x0={x0}")
    return best


def sample_states(spec: MpcSpec, n: int, lo: float, hi: float,
                  mode: str = "uniform-grid", seed: int = 0) -> np.ndarray:
    """The n sorted initial states on [lo, hi] that generate_dataset labels,
    drawn without solving anything; raises ConfigError on a bad draw."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigError(f"number of states must be a positive integer, got {n!r}")
    if not (spec.x_bounds[0] <= lo <= hi <= spec.x_bounds[1]):
        raise ConfigError(f"sampling range [{lo}, {hi}] invalid within {spec.x_bounds}")
    if mode == "uniform-grid":
        return np.linspace(lo, hi, n)
    if mode == "seeded-random":
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
        return np.sort(np.random.default_rng(seed).uniform(lo, hi, size=n))
    raise ConfigError(f"unknown sampling mode {mode!r}")


def label_states(spec: MpcSpec, xs: np.ndarray) -> Dataset:
    """Sorted initial states xs labeled with the first optimal control.

    Each solve is warm-started from the previous state's optimal controls
    (continuation); the first one starts cold.
    """
    labels = np.empty(len(xs))
    warm = None
    for i, x0 in enumerate(xs):
        try:
            sol = solve_mpc(spec, float(x0), warm=warm)
        except ConvergenceError as exc:
            raise ConvergenceError(f"x0={x0}: {exc}") from exc
        labels[i] = sol.first_action
        warm = sol.controls
    return Dataset(X=xs.reshape(-1, 1), y=labels)


def generate_dataset(spec: MpcSpec, n: int, lo: float, hi: float,
                     mode: str = "uniform-grid", seed: int = 0) -> Dataset:
    """n initial states on [lo, hi] labeled with the first optimal control."""
    return label_states(spec, sample_states(spec, n, lo, hi, mode, seed))

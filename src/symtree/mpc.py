"""Ground-truth control actions for the reactor case study.

Solves the finite-horizon tracking problem (single shooting, explicit Euler
inside the horizon) with an augmented-Lagrangian outer loop for rate and
state constraints and an L-BFGS-B inner loop that keeps the flow box bounds.
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
from scipy.optimize import minimize

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
        if not (self.x_bounds[0] < self.x_bounds[1] and self.u_bounds[0] < self.u_bounds[1]):
            raise ConfigError("bounds must be ordered lo < hi")


@dataclass
class MpcSolution:
    controls: np.ndarray   # u_1..u_{T-1}
    states: np.ndarray     # x_1..x_T
    objective: float
    kkt_residual: float
    first_action: float


def plant_rhs(plant: PlantSpec, x: float, u: float) -> float:
    """dx/dt = (u/V)(x_f - x) - k x^3."""
    return (u / plant.V) * (plant.x_f - x) - plant.k_rate * x**3


def steady_state_flow(plant: PlantSpec, x: float) -> float:
    """Flow that holds concentration x: F = V k x^3 / (x_f - x)."""
    return plant.V * plant.k_rate * x**3 / (plant.x_f - x)


def rollout(spec: MpcSpec, x0: float, u_seq):
    """Euler states, tracking objective, and its exact gradient w.r.t. u_seq.

    The gradient is the reverse-mode chain rule through the discrete rollout,
    so it is exact for the Euler system (not an ODE approximation).
    """
    u = np.asarray(u_seq, dtype=float)
    if u.shape != (spec.T - 1,):
        raise ConfigError(f"expected {spec.T - 1} controls, got {u.shape}")
    x, objective, grad, _ = _sweep(spec, x0, u)
    return np.array(x), objective, grad


def _sweep(spec: MpcSpec, x0: float, u: np.ndarray, mu=None, rho: float = 0.0):
    """One forward Euler pass and one adjoint pass, on Python floats.

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
    value = sum([d * d for d in dev]) + spec.P * dev[-1] ** 2
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
        for gi, mi, si in zip(g, mu.tolist(), _con_scale(spec, len(us))):
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


def _con_scale(spec: MpcSpec, n: int) -> list:
    """Unit of each constraint row in _sweep's layout, for n controls: the
    rate limit h * u_rate_max for the rate rows, x_hi - x_lo for the state
    rows. A zero rate limit (constant flow) has no unit of its own, so its
    rows stay in flow units."""
    lim = spec.h * spec.u_rate_max
    return ([lim if lim > 0 else 1.0] * (2 * (n - 1))
            + [spec.x_bounds[1] - spec.x_bounds[0]] * (2 * n))


def _project(spec: MpcSpec, u: np.ndarray) -> np.ndarray:
    return np.clip(u, spec.u_bounds[0], spec.u_bounds[1])


def _inner_minimize(spec: MpcSpec, x0: float, u: np.ndarray, mu: np.ndarray,
                    rho: float, bounds):
    """Box-bounded minimization of the augmented Lagrangian subproblem.

    L-BFGS-B keeps the flow bounds exact by projection; the gradient is the
    exact adjoint from _sweep.
    """
    res = minimize(
        lambda uu: _sweep(spec, x0, uu, mu, rho)[1:3],
        u, jac=True, method="L-BFGS-B", bounds=bounds,
        options=dict(maxiter=_MAX_INNER, ftol=1e-16, gtol=0.01 * KKT_TOL),
    )
    _, _, grad, g = _sweep(spec, x0, res.x, mu, rho)
    return res.x, grad, np.array(g)


def _solve_from(spec: MpcSpec, x0: float, u0: np.ndarray, bounds):
    u = _project(spec, u0.astype(float))
    scale = np.array(_con_scale(spec, spec.T - 1))
    mu = np.zeros(len(scale))
    rho = 10.0
    prev_viol = np.inf
    for _ in range(_MAX_OUTER):
        u, grad, g = _inner_minimize(spec, x0, u, mu, rho, bounds)
        viol = float(np.max(np.maximum(g, 0.0), initial=0.0))
        pg = np.linalg.norm(u - _project(spec, u - grad))
        if viol <= CON_TOL and pg <= KKT_TOL:
            x, obj, _ = rollout(spec, x0, u)
            return MpcSolution(controls=u, states=x, objective=obj,
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
    With ``warm`` (T-1 controls, e.g. a nearby state's optimum) one solve
    starts from it instead, and its solution is returned when it converges;
    otherwise the cold starts run as without ``warm``.
    """
    if not spec.x_bounds[0] <= x0 <= spec.x_bounds[1]:
        raise ConfigError(f"initial state {x0} outside bounds {spec.x_bounds}")
    n = spec.T - 1
    bounds = [spec.u_bounds] * n
    if warm is not None:
        warm = np.asarray(warm, dtype=float)
        if warm.shape != (n,):
            raise ConfigError(f"expected {n} warm-start controls, got {warm.shape}")
        sol = _solve_from(spec, x0, warm, bounds)
        if sol is not None:
            return sol
    u_lo, u_hi = spec.u_bounds
    flows = [u_hi, u_lo]
    if x0 < spec.plant.x_f:
        flows.append(np.clip(steady_state_flow(spec.plant, x0), u_lo, u_hi))
    # The first term of the objective, computed as _sweep computes it; the
    # rest of its sum is nonnegative, so no start can go below it.
    d = float(x0) - spec.x_sp
    floor = d * d
    best = None
    for i, flow in enumerate(flows):
        # The steady-state flow clips to u_hi for high x0; a repeated start
        # would return the same solution, which cannot replace the first.
        if flow in flows[:i]:
            continue
        sol = _solve_from(spec, x0, np.full(n, flow), bounds)
        if sol is not None and (best is None or sol.objective < best.objective):
            best = sol
            if best.objective <= floor + 1e-8 * floor + 1e-10:
                break
    if best is None:
        raise ConvergenceError(f"no start converged for x0={x0}")
    return best


def generate_dataset(spec: MpcSpec, n: int, lo: float, hi: float,
                     mode: str = "uniform-grid", seed: int = 0) -> Dataset:
    """n initial states on [lo, hi] labeled with the first optimal control.

    The states are sorted, and each solve is warm-started from the previous
    state's optimal controls (continuation); the first one starts cold.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigError(f"number of states must be a positive integer, got {n!r}")
    if not (spec.x_bounds[0] <= lo <= hi <= spec.x_bounds[1]):
        raise ConfigError(f"sampling range [{lo}, {hi}] invalid within {spec.x_bounds}")
    if mode == "uniform-grid":
        xs = np.linspace(lo, hi, n)
    elif mode == "seeded-random":
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(lo, hi, size=n))
    else:
        raise ConfigError(f"unknown sampling mode {mode!r}")
    labels = np.empty(n)
    warm = None
    for i, x0 in enumerate(xs):
        try:
            sol = solve_mpc(spec, float(x0), warm=warm)
        except ConvergenceError as exc:
            raise ConvergenceError(f"x0={x0}: {exc}") from exc
        labels[i] = sol.first_action
        warm = sol.controls
    return Dataset(X=xs.reshape(-1, 1), y=labels)

"""Closed-loop plant simulation under any controller, plus evaluation metrics.

The plant ODE is integrated with RK4 at a fine internal step while the
controller output is held constant between sampling instants (zero-order
hold). The controller inside the loop may be the receding-horizon optimizer,
a learned tree model, or a constant.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ControllerError, SymtreeError
from .mpc import MpcSpec, PlantSpec, solve_mpc
from .tree import TreeModel, predict

H_INT_DEFAULT = 0.01  # internal RK4 step, minutes


@dataclass
class Controller:
    """Uniform state -> control map. A finite output is clipped to u_bounds;
    a non-finite one is returned as it is, for simulate to refuse."""

    u_bounds: tuple
    fn: object  # callable state -> raw control

    def __call__(self, x: float) -> float:
        u = float(self.fn(float(x)))
        if not math.isfinite(u):
            return u
        return float(min(max(u, self.u_bounds[0]), self.u_bounds[1]))


def mpc_controller(spec: MpcSpec) -> Controller:
    """Receding-horizon controller that warm-starts each solve from the last
    one's optimal controls, unshifted (the sampling interval is a fraction of
    the MPC step). It keeps that state, so use one controller per run."""
    last = None

    def fn(x):
        nonlocal last
        sol = solve_mpc(spec, x, warm=last)
        last = sol.controls
        return sol.first_action

    return Controller(u_bounds=spec.u_bounds, fn=fn)


def model_controller(model: TreeModel, u_bounds) -> Controller:
    return Controller(u_bounds=tuple(u_bounds), fn=lambda x: predict(model, x))


def constant_controller(value: float, u_bounds) -> Controller:
    return Controller(u_bounds=tuple(u_bounds), fn=lambda x: value)


@dataclass
class SimTrace:
    times: np.ndarray      # sample instants, length n_steps + 1
    states: np.ndarray     # states at sample instants, length n_steps + 1
    controls: np.ndarray   # control applied over each interval, length n_steps
    latencies: np.ndarray  # controller call latency per step, seconds

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "x", "u", "latency_s"])
        for i, (t, x) in enumerate(zip(self.times, self.states)):
            t, x = float(t), float(x)
            if i < len(self.controls):
                w.writerow([repr(t), repr(x), repr(float(self.controls[i])),
                            repr(float(self.latencies[i]))])
            else:
                w.writerow([repr(t), repr(x), "", ""])
        return buf.getvalue()


def integrate_hold(plant: PlantSpec, x: float, u: float, dt: float,
                   h_int: float = H_INT_DEFAULT) -> float:
    """Advance the plant by dt with the control held constant: classical RK4
    in n = max(1, round(dt / h_int)) substeps of h = dt / n, each stage
    written out as (u / V)(x_f - x) - k x^3 in that operation order.
    round() halves to even, so h nears 1.5 * h_int as dt / h_int nears 1.5
    from below and is 1.25 * h_int at dt / h_int = 2.5."""
    n_sub = max(1, round(dt / h_int))
    h = dt / n_sub
    a, x_f, k_rate = u / plant.V, plant.x_f, plant.k_rate
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(n_sub):
        k1 = a * (x_f - x) - k_rate * x**3
        x1 = x + half * k1
        k2 = a * (x_f - x1) - k_rate * x1**3
        x2 = x + half * k2
        k3 = a * (x_f - x2) - k_rate * x2**3
        x3 = x + h * k3
        k4 = a * (x_f - x3) - k_rate * x3**3
        x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def simulate(plant: PlantSpec, ctrl: Controller, x0: float, t_final: float,
             dt_sample: float) -> SimTrace:
    """Zero-order-hold closed loop; latency is measured around the controller call.

    Non-finite inputs, a non-positive step, a non-finite control and a plant
    state that diverges raise ControllerError.
    """
    if not all(math.isfinite(v) for v in (x0, t_final, dt_sample)):
        raise ControllerError(f"non-finite simulation input (x0={x0}, "
                              f"t_final={t_final}, dt_sample={dt_sample})")
    if dt_sample <= 0 or t_final < dt_sample:
        raise ControllerError(f"invalid horizon/sampling ({t_final}, {dt_sample})")
    n_steps = round(t_final / dt_sample)
    times = np.arange(n_steps + 1) * dt_sample
    x = float(x0)
    states, controls, lats = [x], [], []
    clock, isfinite = time.perf_counter, math.isfinite
    for i in range(n_steps):
        t0 = clock()
        try:
            u = ctrl(x)
        except SymtreeError as exc:
            raise ControllerError(
                f"controller failed at t={times[i]:.4g}, x={x!r}: {exc}") from exc
        lats.append(clock() - t0)
        if not isfinite(u):
            raise ControllerError(
                f"controller gave non-finite control u={u!r} at t={times[i]:.4g}, x={x!r}")
        controls.append(u)
        try:
            x = integrate_hold(plant, x, u, dt_sample)
        except OverflowError:
            x = math.inf
        if not isfinite(x):
            raise ControllerError(f"plant state diverged after t={times[i]:.4g}, "
                                  f"x={states[-1]!r}, u={u!r}")
        states.append(x)
    return SimTrace(times=times, states=np.array(states, dtype=float),
                    controls=np.array(controls, dtype=float),
                    latencies=np.array(lats, dtype=float))


def iae(trace: SimTrace, x_sp: float) -> float:
    """Sum of |x_t - x_sp| over the sample instants (discrete sum, not integral)."""
    return float(np.sum(np.abs(trace.states - x_sp)))


def latency_stats(trace: SimTrace):
    """(mean, max) of the per-step controller latencies in seconds."""
    if len(trace.latencies) == 0:
        raise ControllerError("empty trace")
    return float(np.mean(trace.latencies)), float(np.max(trace.latencies))

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import (assert_warm_chain_matches_cold, loop_integrate_hold,
                     record_mpc_solves)

from symtree import closed_loop
from symtree.closed_loop import (Controller, constant_controller, iae,
                                 integrate_hold, latency_stats,
                                 model_controller, mpc_controller, simulate)
from symtree.errors import ControllerError, DimensionError
from symtree.learner import Dataset
from symtree.mpc import MpcSpec, PlantSpec, steady_state_flow
from symtree.reference import reference_model
from symtree.tree import BranchRule


def test_rk4_order_ratio():
    plant = PlantSpec()
    x1 = integrate_hold(plant, 0.3, 60.0, 0.5, h_int=0.1)
    x2 = integrate_hold(plant, 0.3, 60.0, 0.5, h_int=0.05)
    x3 = integrate_hold(plant, 0.3, 60.0, 0.5, h_int=0.025)
    ratio = (x1 - x2) / (x2 - x3)
    assert 8.0 <= ratio <= 32.0  # classical fourth-order step halving


def test_rk4_matches_dense_reference():
    plant = PlantSpec()
    coarse = integrate_hold(plant, 0.2, 70.0, 1.0, h_int=0.01)
    fine = integrate_hold(plant, 0.2, 70.0, 1.0, h_int=0.0005)
    assert coarse == pytest.approx(fine, abs=1e-8)


# (dt, h_int, substeps) at dt / h_int = 10, 1, 0.6 (one substep of length dt)
# and 2.5, which round() halves to even: two substeps of 1.25 * h_int.
HOLD_STEPS = [(0.1, 0.01, 10), (0.1, 0.1, 1), (0.06, 0.1, 1), (0.5, 0.2, 2)]


def test_integrate_hold_matches_per_substep_loop():
    assert 0.5 / 0.2 == 2.5  # an exact tie, so round() really halves to even
    plant = PlantSpec()
    rng = np.random.default_rng(21)
    cases = 0
    for dt, h_int, n_sub in HOLD_STEPS:
        assert max(1, round(dt / h_int)) == n_sub
        xs = np.concatenate([[1e-3, 1.5], rng.uniform(1e-3, 1.5, 598)])
        us = np.concatenate([np.zeros(200), np.full(200, 75.0),
                             rng.uniform(0.0, 75.0, 200)])
        for x, u in zip(xs.tolist(), us.tolist()):
            assert integrate_hold(plant, x, u, dt, h_int) == \
                loop_integrate_hold(plant, x, u, dt, h_int)
            cases += 1
    assert cases == 2400


@pytest.mark.parametrize("dt, h_int, n_sub", HOLD_STEPS)
def test_integrate_hold_overflow_matches_per_substep_loop(dt, h_int, n_sub):
    for hold in (integrate_hold, loop_integrate_hold):
        with pytest.raises(OverflowError):
            hold(PlantSpec(), 1e103, 40.0, dt, h_int)


# sha256 of states.tobytes() + controls.tobytes() over 10 min at 0.1-min
# samples, as one RK4 step call per substep over oracles.plant_rhs produced them.
TRACE_PINS = {
    ("model", 0.1): "db78e8708cd089af78f31123edfb6a3c30ebb8cfb6a9c90cc61a0495ee765541",
    ("model", 0.45): "81180294c9409b40f219e418eee1914179af79e339cfe35648d78acc11f0e0f5",
    ("model", 0.75): "4b0440159696aab825d27c5761e7f0aeee3dff3f6b60d3e553ed4f22e5ec29f4",
    ("model", 0.9): "43c7396c48c18ae1ec52e39c8b4ee2a609d0a2848eed01e662fe4d15ce6bf613",
    ("const", 0.3): "0bb3f247d76534e5717a674a90b8b28e875f02895ae7517c4fc55b1a3608493b",
}


@pytest.mark.parametrize("kind, x0", sorted(TRACE_PINS))
def test_closed_loop_bytes_pinned(kind, x0):
    ctrl = (model_controller(reference_model(), (0.0, 75.0)) if kind == "model"
            else constant_controller(54.0, (0.0, 75.0)))
    trace = simulate(PlantSpec(), ctrl, x0, 10.0, 0.1)
    digest = hashlib.sha256(trace.states.tobytes() + trace.controls.tobytes())
    assert digest.hexdigest() == TRACE_PINS[kind, x0]


def test_plain_callable_int_control_gives_float_trace():
    trace = simulate(PlantSpec(), lambda x: 54, 0.3, 1.0, 0.1)
    ref = simulate(PlantSpec(), constant_controller(54.0, (0.0, 75.0)), 0.3, 1.0, 0.1)
    for got, want in ((trace.states, ref.states), (trace.controls, ref.controls)):
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    assert trace.latencies.dtype == np.float64


@pytest.mark.parametrize("ctrl, shown", [
    (constant_controller(math.nan, (0.0, 75.0)), "nan"),
    (lambda x: math.inf, "inf"), (lambda x: -math.inf, "-inf")])
def test_non_finite_control_blamed_before_integration(monkeypatch, ctrl, shown):
    # Controller's clip passes NaN through; a plain callable can return inf.
    def no_hold(*args):
        raise AssertionError("a non-finite control reached the plant")

    monkeypatch.setattr(closed_loop, "integrate_hold", no_hold)
    with pytest.raises(ControllerError,
                       match=rf"non-finite control u={shown} at t=0, x=0\.75$"):
        simulate(PlantSpec(), ctrl, 0.75, 1.0, 0.1)


def test_non_finite_control_names_its_step():
    controls = iter([54.0, 54.0, math.nan])
    ref = simulate(PlantSpec(), constant_controller(54.0, (0.0, 75.0)), 0.75, 0.2, 0.1)
    with pytest.raises(ControllerError, match=r"u=nan at t=0\.2, x=") as info:
        simulate(PlantSpec(), lambda x: next(controls), 0.75, 1.0, 0.1)
    assert str(info.value).endswith(f"x={float(ref.states[-1])!r}")


def test_equilibrium_is_preserved():
    plant = PlantSpec()
    u_eq = steady_state_flow(plant, 0.6)
    ctrl = constant_controller(u_eq, (0.0, 75.0))
    trace = simulate(plant, ctrl, 0.6, 5.0, 0.1)
    assert np.max(np.abs(trace.states - 0.6)) <= 1e-9
    assert iae(trace, 0.6) <= 1e-7


def test_trace_shapes_and_times():
    plant = PlantSpec()
    ctrl = constant_controller(10.0, (0.0, 75.0))
    trace = simulate(plant, ctrl, 0.5, 1.0, 0.1)
    assert len(trace.times) == 11
    assert len(trace.states) == 11
    assert len(trace.controls) == 10
    assert len(trace.latencies) == 10
    assert trace.times[-1] == pytest.approx(1.0)


def test_simulation_deterministic_except_latency():
    plant = PlantSpec()
    model = reference_model()
    t1 = simulate(plant, model_controller(model, (0.0, 75.0)), 0.75, 2.0, 0.1)
    t2 = simulate(plant, model_controller(model, (0.0, 75.0)), 0.75, 2.0, 0.1)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.controls, t2.controls)


@pytest.mark.parametrize("x0", [0.12, 0.45, 0.88])
def test_mpc_controller_warm_starts_match_cold_solves(monkeypatch, x0):
    # Each step after the first starts from the previous step's controls,
    # unshifted.
    spec = MpcSpec()
    solves = record_mpc_solves(monkeypatch, closed_loop)
    trace = simulate(spec.plant, mpc_controller(spec), x0, 2.0, 0.1)
    monkeypatch.undo()
    assert len(solves) == len(trace.controls) == 20
    assert [x for x, *_ in solves] == trace.states[:-1].tolist()
    assert_warm_chain_matches_cold(spec, solves)


def test_mpc_controller_loops_deterministic():
    spec = MpcSpec()
    t1 = simulate(spec.plant, mpc_controller(spec), 0.45, 2.0, 0.1)
    t2 = simulate(spec.plant, mpc_controller(spec), 0.45, 2.0, 0.1)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.controls, t2.controls)


def test_controller_output_clipped():
    ctrl = constant_controller(500.0, (0.0, 75.0))
    assert ctrl(0.5) == 75.0
    ctrl = constant_controller(-3.0, (0.0, 75.0))
    assert ctrl(0.5) == 0.0


def test_controller_nan_passes_through_clip():
    ctrl = constant_controller(float("nan"), (0.0, 75.0))
    assert math.isnan(ctrl(0.5))
    assert type(constant_controller(10.0, (0, 75))(0.5)) is float


@pytest.mark.parametrize("u", [math.inf, -math.inf])
def test_controller_returns_infinite_output_unclipped(u):
    # Clipped to a bound, it would reach the plant past simulate's check.
    out = Controller((0.0, 75.0), lambda x: u)(0.3)
    assert type(out) is float and out == u


@pytest.mark.parametrize("x0", [0.001, -0.001, 800.0])
def test_model_controller_overflow_wrapped(x0):
    ctrl = model_controller(reference_model(), (0.0, 75.0))
    with pytest.raises(ControllerError, match="overflowed"):
        simulate(PlantSpec(), ctrl, x0, 1.0, 0.1)


def test_controller_failure_is_wrapped_with_context():
    def broken(x):
        raise ValueError("boom")

    ctrl = Controller(u_bounds=(0.0, 75.0), fn=broken)
    with pytest.raises((ControllerError, ValueError)):
        simulate(PlantSpec(), ctrl, 0.5, 1.0, 0.1)


def test_model_controller_domain_error_wrapped():
    # reference model basis is undefined at x = 0; the loop reports time/state
    ctrl = model_controller(reference_model(), (0.0, 75.0))
    with pytest.raises(ControllerError, match="t="):
        simulate(PlantSpec(), ctrl, 0.0, 1.0, 0.1)


def test_model_controller_dimension_error_wrapped():
    # a rule on feature 1 finds no second coordinate in the scalar state
    m = reference_model()
    rules = {**m.rules, 1: BranchRule(feature=1, threshold=0.64)}
    ctrl = model_controller(replace(m, rules=rules), (0.0, 75.0))
    with pytest.raises(ControllerError, match="splits on feature 1") as info:
        simulate(PlantSpec(), ctrl, 0.5, 1.0, 0.1)
    assert isinstance(info.value.__cause__, DimensionError)


def test_invalid_sampling_rejected():
    ctrl = constant_controller(10.0, (0.0, 75.0))
    with pytest.raises(ControllerError):
        simulate(PlantSpec(), ctrl, 0.5, 0.05, 0.1)


# The ids are those the cases had when simulate also took an internal step
# h_int, given 0.01 in each.
@pytest.mark.parametrize("x0, t_final, dt_sample", [
    (0.5, math.nan, 0.1), (0.5, math.inf, 0.1), (math.nan, 1.0, 0.1), (0.5, 1.0, math.nan)],
    ids=["0.5-nan-0.1-0.01", "0.5-inf-0.1-0.01", "nan-1.0-0.1-0.01", "0.5-1.0-nan-0.01"])
def test_invalid_inputs_rejected(x0, t_final, dt_sample):
    ctrl = constant_controller(10.0, (0.0, 75.0))
    with pytest.raises(ControllerError):
        simulate(PlantSpec(), ctrl, x0, t_final, dt_sample)


def test_divergent_plant_raises_with_time_and_state():
    # From x0 = 50 the cubic reaction term makes the RK4 steps blow up.
    ctrl = constant_controller(10.0, (0.0, 75.0))
    with pytest.raises(ControllerError, match=r"diverged after t=0, x=50\.0"):
        simulate(PlantSpec(), ctrl, 50.0, 1.0, 0.1)


def test_iae_discrete_sum():
    plant = PlantSpec()
    ctrl = constant_controller(0.0, (0.0, 75.0))
    trace = simulate(plant, ctrl, 0.5, 1.0, 0.5)
    assert iae(trace, 0.6) == pytest.approx(
        float(np.sum(np.abs(trace.states - 0.6))))


def test_latency_stats():
    plant = PlantSpec()
    ctrl = constant_controller(10.0, (0.0, 75.0))
    trace = simulate(plant, ctrl, 0.5, 1.0, 0.1)
    mean, worst = latency_stats(trace)
    assert 0.0 <= mean <= worst


def test_trace_csv():
    plant = PlantSpec()
    ctrl = constant_controller(10.0, (0.0, 75.0))
    trace = simulate(plant, ctrl, 0.5, 0.3, 0.1)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "t,x,u,latency_s"
    assert len(lines) == 5
    assert lines[-1].endswith(",,")  # terminal state row has no control

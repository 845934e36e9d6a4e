import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import assert_warm_chain_matches_cold, record_mpc_solves

from symtree import closed_loop
from symtree.closed_loop import (Controller, constant_controller, iae,
                                 integrate_hold, latency_stats,
                                 model_controller, mpc_controller, rk4_step,
                                 simulate)
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


@pytest.mark.parametrize("x0, t_final, dt_sample, h_int", [
    (0.5, math.nan, 0.1, 0.01), (0.5, math.inf, 0.1, 0.01),
    (math.nan, 1.0, 0.1, 0.01), (0.5, 1.0, math.nan, 0.01),
    (0.5, 1.0, 0.1, math.nan), (0.5, 1.0, 0.1, 0.0), (0.5, 1.0, 0.1, -0.01)])
def test_invalid_inputs_rejected(x0, t_final, dt_sample, h_int):
    ctrl = constant_controller(10.0, (0.0, 75.0))
    with pytest.raises(ControllerError):
        simulate(PlantSpec(), ctrl, x0, t_final, dt_sample, h_int)


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

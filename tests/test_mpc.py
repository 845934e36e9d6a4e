import numpy as np
import pytest
from oracles import (all_starts_best, assert_warm_chain_matches_cold,
                     distinct_starts, record_mpc_solves, within_objective_gate)

from symtree import mpc
from symtree.errors import ConfigError
from symtree.mpc import (CON_TOL, KKT_TOL, MpcSpec, PlantSpec, generate_dataset,
                         plant_rhs, rollout, solve_mpc, steady_state_flow)


def canonical_spec():
    return MpcSpec()


def objective_floor(spec, x0):
    """The objective's pinned first term (x0 - x_sp)^2."""
    d = float(x0) - spec.x_sp
    return d * d


def test_plant_rhs_and_steady_state():
    plant = PlantSpec()
    # F = V k x^3 / (x_f - x): at the setpoint this is 54 L/min
    assert steady_state_flow(plant, 0.6) == pytest.approx(54.0)
    assert plant_rhs(plant, 0.6, 54.0) == pytest.approx(0.0, abs=1e-12)


def test_rollout_gradient_matches_finite_differences():
    spec = canonical_spec()
    rng = np.random.default_rng(97)
    worst = 0.0
    for _ in range(100):
        x0 = float(rng.uniform(0.1, 0.9))
        u = rng.uniform(0.0, 75.0, spec.T - 1)
        _, _, grad = rollout(spec, x0, u)
        h = 1e-6
        for t in rng.choice(spec.T - 1, size=3, replace=False):
            up, um = u.copy(), u.copy()
            up[t] += h
            um[t] -= h
            _, fp, _ = rollout(spec, x0, up)
            _, fm, _ = rollout(spec, x0, um)
            fd = (fp - fm) / (2 * h)
            denom = max(1.0, abs(fd))
            worst = max(worst, abs(grad[t] - fd) / denom)
    assert worst <= 1e-5


def test_augmented_lagrangian_gradient_matches_finite_differences():
    # Tight state bounds and large flow jumps make rate and state-bound
    # penalty terms active next to the tracking objective.
    spec = MpcSpec(x_bounds=(0.45, 0.7))
    rng = np.random.default_rng(5)
    n_con = 2 * (spec.T - 2) + 2 * (spec.T - 1)
    n_rate = 2 * (spec.T - 2)
    scale = np.array(mpc._con_scale(spec, spec.T - 1))
    assert scale.shape == (n_con,)
    active_rate = active_state = 0
    worst = 0.0
    for rho in (1.0, 10.0, 1e3, 1e5):
        for _ in range(25):
            x0 = float(rng.uniform(0.45, 0.7))
            u = rng.uniform(0.0, 75.0, spec.T - 1)
            mu = rng.uniform(0.0, 5.0, n_con)
            _, _, grad, g = mpc._sweep(spec, x0, u, mu, rho)
            # The penalty argument is g in units of each row's scale.
            active = np.asarray(g) / scale + mu / rho > 0.0
            active_rate += int(active[:n_rate].sum())
            active_state += int(active[n_rate:].sum())
            # Penalty values reach 1e8 at rho = 1e5, so the differencing error
            # is judged against the gradient's largest entry.
            scale = max(1.0, float(np.max(np.abs(grad))))
            h = 1e-6
            for t in range(spec.T - 1):
                up, um = u.copy(), u.copy()
                up[t] += h
                um[t] -= h
                fd = (mpc._sweep(spec, x0, up, mu, rho)[1]
                      - mpc._sweep(spec, x0, um, mu, rho)[1]) / (2 * h)
                worst = max(worst, abs(grad[t] - fd) / scale)
    assert active_rate > 0 and active_state > 0
    assert worst <= 1e-5


def native_violation(spec, sol):
    """Largest violation in native units: |du| - lim in flow for the rate
    constraints, the excess over x_bounds in concentration for the states."""
    lim = spec.h * spec.u_rate_max
    x_lo, x_hi = spec.x_bounds
    return max(float(np.max(np.abs(np.diff(sol.controls)) - lim)),
               float(np.max(sol.states[1:] - x_hi)),
               float(np.max(x_lo - sol.states[1:])))


@pytest.mark.parametrize("spec, xs, binds", [
    (MpcSpec(), (0.725, 0.75, 0.8, 0.9), "rate"),
    (MpcSpec(x_bounds=(0.45, 0.7)), (0.45, 0.6, 0.7), None),
    (MpcSpec(x_bounds=(0.45, 0.7), x_sp=0.75), (0.5, 0.7), "state")],
    ids=["rate-limited", "tight-state-bounds", "binding-state-bound"])
def test_accepted_solutions_meet_con_tol_in_native_units(monkeypatch, spec, xs, binds):
    # The augmented Lagrangian penalises each row in units of its scale (25
    # for the rates, 0.25 for these state bounds); acceptance must still read
    # the violation in flow and concentration. Reading it in scaled units
    # accepts a rate violation of 1.1e-5 at x0 = 0.725.
    accepted = []
    real_solve_from = mpc._solve_from

    def recording_solve_from(*args):
        sol = real_solve_from(*args)
        if sol is not None:
            accepted.append(sol)
        return sol

    monkeypatch.setattr(mpc, "_solve_from", recording_solve_from)
    for x0 in xs:
        solve_mpc(spec, x0)
    assert len(accepted) >= len(xs)
    assert max(native_violation(spec, sol) for sol in accepted) <= CON_TOL
    lim = spec.h * spec.u_rate_max
    rate_slack = min(lim - float(np.max(np.abs(np.diff(s.controls)))) for s in accepted)
    state_slack = min(spec.x_bounds[1] - float(np.max(s.states[1:])) for s in accepted)
    assert (rate_slack <= 1e-4) == (binds == "rate")
    assert (state_slack <= 1e-4) == (binds == "state")


def test_zero_rate_limit_holds_the_flow_constant():
    # A zero rate limit has no unit to scale the rate rows by.
    spec = MpcSpec(u_rate_max=0.0)
    sol = solve_mpc(spec, 0.5)
    assert native_violation(spec, sol) <= CON_TOL


def test_rate_limited_cold_solves_sweep_budget(monkeypatch):
    # Deterministic cost guard: the objective floor cannot certify these
    # states, so they run every distinct start against binding rate limits.
    # Rate rows penalised in flow units take 3550 sweeps here, in units of
    # the rate limit 1286.
    calls = []
    real_sweep = mpc._sweep

    def counting_sweep(*args, **kwargs):
        calls.append(1)
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(mpc, "_sweep", counting_sweep)
    for x0 in (0.75, 0.80, 0.85, 0.90):
        solve_mpc(canonical_spec(), x0)
    assert len(calls) <= 2000


def test_first_action_at_setpoint():
    sol = solve_mpc(canonical_spec(), 0.6)
    assert sol.first_action == pytest.approx(54.0, abs=2.0)


def test_solutions_satisfy_constraints():
    spec = canonical_spec()
    for x0 in [0.1, 0.35, 0.6, 0.75, 0.9]:
        sol = solve_mpc(spec, x0)
        u = sol.controls
        assert np.all(u >= spec.u_bounds[0] - 1e-6)
        assert np.all(u <= spec.u_bounds[1] + 1e-6)
        assert np.all(np.abs(np.diff(u)) <= spec.h * spec.u_rate_max + 1e-6)
        assert np.all(sol.states >= spec.x_bounds[0] - 1e-6)
        assert np.all(sol.states <= spec.x_bounds[1] + 1e-6)
        assert sol.kkt_residual <= 1e-6
        assert sol.states[0] == pytest.approx(x0)


def test_saturated_region_uses_max_flow():
    sol = solve_mpc(canonical_spec(), 0.75)
    assert sol.first_action == pytest.approx(75.0, abs=1e-4)


@pytest.mark.parametrize("x0, skips", [(0.75, True), (0.88, True), (0.5, False)])
def test_repeated_start_is_solved_once(monkeypatch, x0, skips):
    # Above x0 ~ 0.64 the steady-state flow clips to u_hi, the second start.
    spec = canonical_spec()
    n = spec.T - 1
    u_lo, u_hi = spec.u_bounds
    calls = []
    real_minimize = mpc.minimize

    def counting_minimize(*args, **kwargs):
        calls.append(1)
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(mpc, "minimize", counting_minimize)
    flows = [u_lo, u_hi, np.clip(steady_state_flow(spec.plant, x0), u_lo, u_hi)]
    assert (flows[2] == u_hi) == skips
    best = None
    for flow in flows:
        sol = mpc._solve_from(spec, x0, np.full(n, flow), [spec.u_bounds] * n)
        if sol is not None and (best is None or sol.objective < best.objective):
            best = sol
    calls_all_starts = len(calls)
    calls.clear()
    solves = record_mpc_solves(monkeypatch, mpc)
    sol = mpc.solve_mpc(spec, x0)
    assert np.array_equal(sol.controls, best.controls)
    assert np.array_equal(sol.states, best.states)
    assert sol.objective == best.objective
    assert sol.kkt_residual == best.kkt_residual
    if skips:
        assert len(calls) < calls_all_starts
    else:
        # x0 = 0.5 is certified by the objective floor after the first start.
        assert solves[0][3] == 1


@pytest.mark.parametrize("xs", [np.linspace(0.1, 0.9, 50),
                                np.random.default_rng(1).uniform(0.1, 0.9, 50),
                                np.linspace(0.68, 0.69, 9)],
                         ids=["train-grid", "test-set", "reach-edge"])
def test_cold_solve_matches_all_starts(monkeypatch, xs):
    # The states of the canonical train grid and test set, and the edge of
    # the states that can reach the objective floor: from x0 = 0.685 the best
    # objective is only about 4e-6 relative above it. A solve that reaches
    # the floor stops there; one that does not runs every start.
    spec = canonical_spec()
    solves = record_mpc_solves(monkeypatch, mpc)
    for x0 in xs.tolist():
        mpc.solve_mpc(spec, x0)
    monkeypatch.undo()
    certified = 0
    for x0, _, sol, n_starts in solves:
        oracle = all_starts_best(spec, x0)
        assert within_objective_gate(sol.objective, oracle.objective)
        assert abs(sol.first_action - oracle.first_action) <= 1e-3
        assert sol.kkt_residual <= KKT_TOL
        if within_objective_gate(sol.objective, objective_floor(spec, x0)):
            certified += 1
            assert n_starts == 1
        else:
            assert n_starts == len(distinct_starts(spec, x0))
    # Both branches are exercised: the floor is out of reach from x0 ~ 0.684 up.
    assert 0 < certified < len(xs)


def test_uncertified_solve_runs_every_start(monkeypatch):
    # With the flow capped at 50 the state cannot reach the set point from
    # x0 = 0.1 within the horizon, and all three starts are distinct.
    spec = MpcSpec(u_bounds=(0.0, 50.0))
    x0 = 0.1
    assert len(distinct_starts(spec, x0)) == 3
    best = all_starts_best(spec, x0)
    assert not within_objective_gate(best.objective, objective_floor(spec, x0))
    solves = record_mpc_solves(monkeypatch, mpc)
    sol = mpc.solve_mpc(spec, x0)
    assert solves[0][3] == 3
    assert np.array_equal(sol.controls, best.controls)
    assert np.array_equal(sol.states, best.states)
    assert sol.objective == best.objective
    assert sol.kkt_residual == best.kkt_residual
    assert sol.first_action == best.first_action


@pytest.mark.parametrize("n, mode, seed", [(50, "uniform-grid", 0),
                                           (50, "seeded-random", 1)])
def test_continuation_matches_cold_solves(monkeypatch, n, mode, seed):
    # The canonical train grid and test set.
    spec = canonical_spec()
    solves = record_mpc_solves(monkeypatch, mpc)
    data = generate_dataset(spec, n, 0.1, 0.9, mode=mode, seed=seed)
    monkeypatch.undo()
    assert [x0 for x0, *_ in solves] == data.X[:, 0].tolist()
    assert np.array_equal(data.y, [sol.first_action for _, _, sol, _ in solves])
    assert_warm_chain_matches_cold(spec, solves)


@pytest.mark.parametrize("x0", [0.12, 0.45, 0.88])
def test_failed_warm_start_falls_back_to_cold_starts(monkeypatch, x0):
    spec = canonical_spec()
    cold = solve_mpc(spec, x0)
    warm = np.full(spec.T - 1, 30.0)
    real_solve_from = mpc._solve_from
    calls = []

    def warm_fails(spec_, x0_, u0, bounds):
        calls.append(u0)
        return None if len(calls) == 1 else real_solve_from(spec_, x0_, u0, bounds)

    monkeypatch.setattr(mpc, "_solve_from", warm_fails)
    sol = solve_mpc(spec, x0, warm=warm)
    assert np.array_equal(calls[0], warm) and len(calls) > 1
    assert np.array_equal(sol.controls, cold.controls)
    assert np.array_equal(sol.states, cold.states)
    assert sol.objective == cold.objective
    assert sol.kkt_residual == cold.kkt_residual
    assert sol.first_action == cold.first_action


def test_warm_start_shape_rejected():
    with pytest.raises(ConfigError):
        solve_mpc(canonical_spec(), 0.5, warm=np.zeros(3))


def test_x0_outside_bounds_rejected():
    with pytest.raises(ConfigError):
        solve_mpc(canonical_spec(), 1.5)


def test_generate_dataset_grid_and_determinism():
    spec = canonical_spec()
    d1 = generate_dataset(spec, 5, 0.3, 0.7, mode="uniform-grid")
    assert np.allclose(d1.X[:, 0], np.linspace(0.3, 0.7, 5))
    d2 = generate_dataset(spec, 5, 0.3, 0.7, mode="uniform-grid")
    assert np.array_equal(d1.y, d2.y)
    r1 = generate_dataset(spec, 4, 0.3, 0.7, mode="seeded-random", seed=3)
    r2 = generate_dataset(spec, 4, 0.3, 0.7, mode="seeded-random", seed=3)
    assert np.array_equal(r1.X, r2.X) and np.array_equal(r1.y, r2.y)
    r3 = generate_dataset(spec, 4, 0.3, 0.7, mode="seeded-random", seed=4)
    assert not np.array_equal(r1.X, r3.X)


def test_generate_dataset_single_point():
    d = generate_dataset(canonical_spec(), 1, 0.6, 0.6)
    assert d.n_points == 1
    assert d.y[0] == pytest.approx(54.0, abs=2.0)


def test_generate_dataset_bad_mode():
    with pytest.raises(ConfigError):
        generate_dataset(canonical_spec(), 3, 0.2, 0.4, mode="bogus")


@pytest.mark.parametrize("n", [-1, 0, 2.5, True, "3"])
def test_generate_dataset_bad_count(n):
    with pytest.raises(ConfigError):
        generate_dataset(canonical_spec(), n, 0.2, 0.4)


def test_spec_validation():
    with pytest.raises(ConfigError):
        MpcSpec(T=1)
    with pytest.raises(ConfigError):
        MpcSpec(u_bounds=(5.0, 5.0))
    with pytest.raises(ConfigError):
        PlantSpec(V=-1.0)

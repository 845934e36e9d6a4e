import math

import numpy as np
import pytest
from oracles import (all_starts_best, assert_warm_chain_matches_cold,
                     distinct_starts, loop_sweep, loop_sweeper, plant_rhs,
                     record_mpc_solves, within_objective_gate)

from symtree import mpc
from symtree.closed_loop import mpc_controller, simulate
from symtree.errors import ConfigError, ConvergenceError
from symtree.mpc import (CON_TOL, KKT_TOL, MpcSpec, PlantSpec, generate_dataset,
                         solve_mpc, steady_state_flow)


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


def test_sweep_gradient_matches_finite_differences():
    # The first subproblem's closure (zero multipliers, rho = 10), as the
    # solver builds it.
    spec = canonical_spec()
    rng = np.random.default_rng(97)
    worst = 0.0
    for _ in range(100):
        x0 = float(rng.uniform(0.1, 0.9))
        u = rng.uniform(0.0, 75.0, spec.T - 1)
        sweep = mpc._sweeper(spec, x0, np.zeros(4 * spec.T - 6), 10.0)
        grad = sweep(u)[1]
        h = 1e-6
        for t in rng.choice(spec.T - 1, size=3, replace=False):
            up, um = u.copy(), u.copy()
            up[t] += h
            um[t] -= h
            fd = (sweep(up)[0] - sweep(um)[0]) / (2 * h)
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
            sweep = mpc._sweeper(spec, x0, mu, rho)
            _, _, grad, g = sweep(u, full=True)
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
                fd = (sweep(up)[0] - sweep(um)[0]) / (2 * h)
                worst = max(worst, abs(grad[t] - fd) / scale)
    assert active_rate > 0 and active_state > 0
    assert worst <= 1e-5


def test_sweep_matches_loop_oracle():
    # 2400 subproblems over the canonical spec, a zero rate limit (rate rows
    # in flow units) and tight state bounds (state rows active), three
    # controls each: flows at the bounds, inside them, and a constant flow
    # that varies by a fraction of the rate limit. The sweep skips a row
    # group unless a multiplier in it is positive or one of its rows lies
    # beyond its limit, so with zero multipliers the sweeps cover each of the
    # four cases (no group, only the rate rows, only the state rows, both
    # with a row beyond its limit), and some multipliers are positive in one
    # group only.
    specs = [MpcSpec(), MpcSpec(u_rate_max=0.0), MpcSpec(x_bounds=(0.45, 0.7))]
    rng = np.random.default_rng(28)
    n = MpcSpec().T - 1
    n_rate_rows = 2 * (n - 1)
    rate_only = np.arange(4 * n - 2) < n_rate_rows
    beyond = dict.fromkeys([(False, False), (True, False), (False, True), (True, True)], 0)
    one_group = {"rate": 0, "state": 0}
    for i in range(2400):
        spec = specs[i % 3]
        u_lo, u_hi = spec.u_bounds
        x0 = float(rng.uniform(*spec.x_bounds))
        mu = ([np.zeros(4 * n - 2)] * 3
              + [rng.exponential(1.0, 4 * n - 2) * (rng.random(4 * n - 2) < 0.3),
                 rng.exponential(1.0, 4 * n - 2),
                 rng.exponential(1.0, 4 * n - 2) * rate_only,
                 rng.exponential(1.0, 4 * n - 2) * ~rate_only])[i % 7]
        rho = float(10.0 ** rng.uniform(1.0, 10.0))
        sweep = mpc._sweeper(spec, x0, mu, rho)
        for u in (rng.choice([u_lo, u_hi], n), rng.uniform(u_lo, u_hi, n),
                  rng.uniform(u_lo, u_hi) + rng.uniform(-1.0, 1.0, n)
                  * 0.1 * spec.h * spec.u_rate_max):
            u = np.clip(u, u_lo, u_hi)
            xs, value, grad, g = loop_sweep(spec, x0, u, mu, rho)
            full = sweep(u, full=True)
            # A full sweep holds the tracking objective, not the value.
            assert (full[0], full[1], full[3]) == (xs, loop_sweep(spec, x0, u)[1], g)
            assert np.array_equal(full[2], grad)
            inner_value, inner_grad = sweep(u)
            assert inner_value == value and np.array_equal(inner_grad, grad)
            if not mu.any():
                beyond[max(g[:n_rate_rows]) > 0.0, max(g[n_rate_rows:]) > 0.0] += 1
            elif mu[:n_rate_rows].any() != mu[n_rate_rows:].any():
                one_group["rate" if mu[:n_rate_rows].any() else "state"] += 1
    assert min(beyond.values()) >= 50 and min(one_group.values()) >= 50, (beyond, one_group)


def test_sweep_keeps_signed_zeros():
    # Adding a zero coefficient turns -0.0 into +0.0, so a skipped row group
    # must still leave the zeros the loop oracle leaves. Two constructed
    # cases whose tracking gradient holds -0.0: x_sp set to x_T exactly
    # starts the adjoint at zero, and above x_f the gradient then ends in
    # -0.0; a flow that underflows keeps the state at x0 = -0.0, a -0.0
    # deviation from x_sp = 0.0.
    spec = MpcSpec(x_bounds=(0.0, 2.0), h=0.01)
    u = np.full(spec.T - 1, 30.0)
    u[::2] = 30.2
    spec = MpcSpec(x_bounds=(0.0, 2.0), h=0.01, x_sp=float(loop_sweep(spec, 1.5, u)[0][-1]))
    tiny = MpcSpec(x_sp=0.0, u_bounds=(-2.5e-322, 75.0))
    cases = [(spec, 1.5, u), (tiny, -0.0, np.full(tiny.T - 1, -2.5e-322))]
    for spec, x0, u in cases:
        assert np.signbit(loop_sweep(spec, x0, u)[2]).any()
        mu = np.zeros(4 * spec.T - 6)
        _, value, grad, _ = loop_sweep(spec, x0, u, mu, 10.0)
        inner_value, inner_grad = mpc._sweeper(spec, x0, mu, 10.0)(u)
        assert np.array_equal(np.signbit(inner_grad), np.signbit(grad))
        assert inner_value == value and np.array_equal(inner_grad, grad)


def test_tracking_sum_is_a_left_fold():
    # sum() of floats rounds differently from Python 3.12 on; the value adds
    # the squared deviations left to right, as every pinned result was taken.
    # Only sweeps where the left fold and the correctly rounded sum differ
    # tell the two apart.
    spec = MpcSpec()
    rng = np.random.default_rng(30)
    differ = 0
    for _ in range(2000):
        x0 = float(rng.uniform(*spec.x_bounds))
        sweep = mpc._sweeper(spec, x0, np.zeros(4 * spec.T - 6), 10.0)
        xs, value, _, _ = sweep(rng.uniform(*spec.u_bounds, spec.T - 1), full=True)
        dev = [xt - spec.x_sp for xt in xs]
        fold = 0.0
        for d in dev:
            fold += d * d
        if fold != math.fsum(d * d for d in dev):
            differ += 1
            assert value == fold + spec.P * dev[-1] ** 2
    assert differ >= 500


def solves_labels_and_loop():
    """161 cold solves, the canonical train set's hash and an MPC closed loop
    from the configured x0 = 0.75, as ``symtree simulate --controller mpc``
    runs it."""
    spec = MpcSpec()
    sols = [solve_mpc(spec, x0) for x0 in np.linspace(0.1, 0.9, 161).tolist()]
    data = generate_dataset(spec, 50, 0.1, 0.9)
    trace = simulate(spec.plant, mpc_controller(spec), 0.75, 10.0, 0.1)
    return sols, data.sha256(), trace


def test_solves_labels_and_mpc_loop_match_loop_sweep(monkeypatch):
    sols, sha, trace = solves_labels_and_loop()
    # Each solution is read from its subproblem's last full sweep; the loop
    # oracle's tracking sweep at its controls gives the same states and
    # objective, bit for bit.
    spec = MpcSpec()
    for x0, sol in zip(np.linspace(0.1, 0.9, 161).tolist(), sols, strict=True):
        x, obj, _, _ = loop_sweep(spec, x0, sol.controls)
        assert np.array(x).tobytes() == sol.states.tobytes() and obj == sol.objective
    monkeypatch.setattr(mpc, "_sweeper", loop_sweeper)
    ref_sols, ref_sha, ref_trace = solves_labels_and_loop()
    for sol, ref in zip(sols, ref_sols, strict=True):
        assert np.array_equal(sol.controls, ref.controls)
        assert np.array_equal(sol.states, ref.states)
        assert (sol.objective, sol.kkt_residual, sol.first_action) == (
            ref.objective, ref.kkt_residual, ref.first_action)
    assert sha == ref_sha
    assert np.array_equal(trace.states, ref_trace.states)
    assert np.array_equal(trace.controls, ref_trace.controls)


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
    # Rate rows penalised in flow units take 3542 sweeps here, in units of
    # the rate limit 1278. Every sweep, inner or the full one that ends each
    # subproblem, is a call of a closure _sweeper returns; the exact count
    # holds the iterates.
    calls = []
    real_sweeper = mpc._sweeper

    def counting_sweeper(*args, **kwargs):
        sweep = real_sweeper(*args, **kwargs)

        def counting_sweep(*a, **kw):
            calls.append(1)
            return sweep(*a, **kw)

        return counting_sweep

    monkeypatch.setattr(mpc, "_sweeper", counting_sweeper)
    for x0 in (0.75, 0.80, 0.85, 0.90):
        solve_mpc(canonical_spec(), x0)
    assert len(calls) <= 2000
    assert len(calls) == 1278


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
        sol = mpc._solve_from(spec, x0, np.full(n, flow))
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

    def warm_fails(spec_, x0_, u0):
        calls.append(u0)
        return None if len(calls) == 1 else real_solve_from(spec_, x0_, u0)

    monkeypatch.setattr(mpc, "_solve_from", warm_fails)
    sol = solve_mpc(spec, x0, warm=warm)
    assert np.array_equal(calls[0], warm) and len(calls) > 1
    assert np.array_equal(sol.controls, cold.controls)
    assert np.array_equal(sol.states, cold.states)
    assert sol.objective == cold.objective
    assert sol.kkt_residual == cold.kkt_residual
    assert sol.first_action == cold.first_action


@pytest.mark.parametrize("x0", [0.1, 0.3, 0.6, 0.9])
def test_overflowing_start_is_not_converged(x0):
    """The high-flow start of 1e6 drives a state past float range ('x**3'
    raised OverflowError out of solve_mpc); it now counts as a start that did
    not converge, and the other starts solve."""
    spec = MpcSpec(u_bounds=(0.0, 1e6))
    sol = solve_mpc(spec, x0)
    assert sol.kkt_residual <= KKT_TOL
    assert native_violation(spec, sol) <= CON_TOL


@pytest.mark.parametrize("spec", [MpcSpec(plant=PlantSpec(k_rate=1e200)), MpcSpec(h=1e6)],
                         ids=["k_rate", "h"])
def test_overflow_in_every_start_is_a_convergence_error(spec):
    with pytest.raises(ConvergenceError, match="no start converged"):
        solve_mpc(spec, 0.3)


def test_warm_start_shape_rejected():
    with pytest.raises(ConfigError):
        solve_mpc(canonical_spec(), 0.5, warm=np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_warm_start_rejected(bad):
    # NaN would run every outer iteration before the cold starts take over;
    # an infinite flow would be clipped to a bound without a word.
    warm = np.full(canonical_spec().T - 1, 30.0)
    warm[4] = bad
    with pytest.raises(ConfigError, match="finite"):
        solve_mpc(canonical_spec(), 0.5, warm=warm)
    with pytest.raises(ConfigError, match="finite"):
        solve_mpc(canonical_spec(), 0.5, warm=np.full(len(warm), bad))


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


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_generate_dataset_bad_seed(seed):
    # numpy refuses a negative seed with a ValueError; the grid reads no seed.
    with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
        generate_dataset(canonical_spec(), 2, 0.2, 0.4, mode="seeded-random", seed=seed)
    grid = generate_dataset(canonical_spec(), 2, 0.2, 0.4, seed=seed)
    assert np.array_equal(grid.X[:, 0], [0.2, 0.4])


def test_spec_validation():
    with pytest.raises(ConfigError):
        MpcSpec(T=1)
    # No control sequence meets a negative rate limit (zero stays valid).
    with pytest.raises(ConfigError, match="u_rate_max"):
        MpcSpec(u_rate_max=-5.0)
    with pytest.raises(ConfigError):
        MpcSpec(u_bounds=(5.0, 5.0))
    with pytest.raises(ConfigError):
        PlantSpec(V=-1.0)

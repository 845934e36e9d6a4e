import itertools

import numpy as np
import pytest

from symtree.errors import DimensionError, NumericalError
from scipy.sparse import csc_array

from symtree.lp import LeafLosses, fit_l1, solve_lp

# ---------------------------------------------------------------------------
# Vertex-enumeration oracle: for a bounded small LP, every basic feasible
# point lies at the intersection of n active hyperplanes drawn from the rows
# (treated as equalities) and the variable bounds. The optimum is the best
# feasible intersection point. Uses no LP solver, so it checks the HiGHS
# backend independently (tests/oracles.py itself solves with HiGHS).
# ---------------------------------------------------------------------------


def oracle_solve(cost, A, row_lo, row_hi, lo, hi, tol=1e-9):
    n = len(cost)
    planes = []
    for coeffs, r_lo, r_hi in zip(A, row_lo, row_hi):
        for rhs in dict.fromkeys(v for v in (r_lo, r_hi) if np.isfinite(v)):
            planes.append((np.asarray(coeffs, dtype=float), float(rhs)))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, float(lo[j])))
        planes.append((e.copy(), float(hi[j])))

    def feasible(x):
        act = A @ x
        return bool(np.all(act >= row_lo - tol) and np.all(act <= row_hi + tol)
                    and np.all(x >= lo - tol) and np.all(x <= hi + tol))

    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, b)
        if feasible(x):
            val = float(np.dot(cost, x))
            if best is None or val < best:
                best = val
    return best  # None means infeasible (the polytope is bounded by bounds)


def random_lp(rng, n, m):
    """A bounded random LP as the arrays (cost, A, row_lo, row_hi, lo, hi)
    that solve_lp takes; each row is <=, >= or = a random right-hand side."""
    cost = rng.uniform(-2, 2, n)
    A, row_lo, row_hi = np.zeros((m, n)), np.full(m, -np.inf), np.full(m, np.inf)
    for j in range(m):
        A[j] = rng.uniform(-2, 2, n)
        sense = rng.choice(["<=", ">=", "="], p=[0.45, 0.45, 0.1])
        rhs = rng.uniform(-3, 3)
        if sense != "<=":
            row_lo[j] = rhs
        if sense != ">=":
            row_hi[j] = rhs
    lo, hi = np.zeros(n), np.zeros(n)
    for j in range(n):
        lo[j] = rng.uniform(-4, 0)
        hi[j] = lo[j] + rng.uniform(0.5, 5)
    return cost, A, row_lo, row_hi, lo, hi


def test_simplex_matches_vertex_enumeration():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(120):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        lp = random_lp(rng, n, m)
        sol = solve_lp(*lp)
        ref = oracle_solve(*lp)
        if ref is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(ref, abs=1e-6)
            checked += 1
    assert checked > 30  # the generator must produce plenty of feasible LPs


def test_unbounded_detected():
    sol = solve_lp([-1.0], np.array([[1.0]]), [0.0], [np.inf], [0.0], [np.inf])
    assert sol.status == "unbounded"


def test_equality_system_solved_exactly():
    sol = solve_lp([1.0, 1.0], np.array([[1.0, 1.0], [1.0, -1.0]]), [3.0, 1.0],
                   [3.0, 1.0], [-10.0, -10.0], [10.0, 10.0])
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [2.0, 1.0], atol=1e-9)


def test_rows_free_lp_sits_on_the_cost_favoured_bounds():
    sol = solve_lp([1.0, -1.0], np.zeros((0, 2)), [], [], [0.0, -1.0], [2.0, 3.0])
    assert sol.status == "optimal"
    assert np.allclose(sol.x, [0.0, 3.0], atol=1e-12)
    assert sol.objective == pytest.approx(-3.0, abs=1e-12)


def test_rows_free_lp_unbounded():
    sol = solve_lp([1.0], np.zeros((0, 1)), [], [], [-np.inf], [np.inf])
    assert sol.status == "unbounded"


def test_highs_takes_a_sparse_matrix():
    """A csc_array A, which refuses len(), gives the same LpSolution as its
    dense form; so does one with no rows."""
    rng = np.random.default_rng(11)
    statuses = set()
    for m in (0, 1, 2, 3, 4, 5) * 5:
        A = rng.uniform(-2, 2, (m, 3))
        A[rng.uniform(size=A.shape) < 0.3] = 0.0
        row_lo = rng.uniform(-3, 0, m)
        row_hi = row_lo + rng.choice([0.0, 2.0, np.inf], m)
        cost, lo, hi = rng.uniform(-1, 1, 3), np.full(3, -4.0), np.full(3, 4.0)
        dense = solve_lp(cost, A, row_lo, row_hi, lo, hi)
        sparse = solve_lp(cost, csc_array(A), row_lo, row_hi, lo, hi)
        assert sparse.status == dense.status
        assert sparse.objective == dense.objective
        assert (sparse.x is None and dense.x is None) or np.array_equal(sparse.x, dense.x)
        statuses.add(dense.status)
    assert statuses == {"optimal", "infeasible"}


def test_dimension_mismatch_rejected():
    A = np.array([[1.0]])   # one column for two variables
    with pytest.raises(DimensionError):
        solve_lp([1.0, 2.0], A, [-np.inf], [1.0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DimensionError):   # two row bounds for one row
        solve_lp([1.0], A, [-np.inf, 0.0], [1.0, 1.0], [0.0], [1.0])
    with pytest.raises(DimensionError):   # one variable bound for two variables
        solve_lp([1.0, 2.0], np.ones((1, 2)), [0.0], [1.0], [0.0], [1.0, 1.0])
    with pytest.raises(DimensionError, match="costs must be finite"):
        solve_lp([np.nan, 1.0], np.ones((1, 2)), [0.0], [1.0], [0.0, 0.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# fit_l1 oracle: the objective is piecewise-linear convex in c, so the
# optimum lies at an intersection of K hyperplanes drawn from the kink set
# {Phi_i.c = y_i}, {c_k = 0}, the box faces, and the prediction-bound faces.
# ---------------------------------------------------------------------------


def l1_objective(c, Phi, y, w, lam):
    return w * np.sum(np.abs(y - Phi @ c)) + lam * np.sum(np.abs(c))


def oracle_l1(Phi, y, w, lam, c_bounds, y_bounds=None, tol=1e-9):
    N, K = Phi.shape
    planes = [(Phi[i], y[i]) for i in range(N)]
    for k in range(K):
        e = np.zeros(K)
        e[k] = 1.0
        planes += [(e, 0.0), (e.copy(), c_bounds[0]), (e.copy(), c_bounds[1])]
    if y_bounds is not None:
        for i in range(N):
            planes += [(Phi[i], y_bounds[0]), (Phi[i], y_bounds[1])]

    def feasible(c):
        if np.any(c < c_bounds[0] - tol) or np.any(c > c_bounds[1] + tol):
            return False
        if y_bounds is not None:
            pred = Phi @ c
            if np.any(pred < y_bounds[0] - tol) or np.any(pred > y_bounds[1] + tol):
                return False
        return True

    best = None
    for combo in itertools.combinations(range(len(planes)), K):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        c = np.linalg.solve(A, b)
        if feasible(c):
            val = l1_objective(c, Phi, y, w, lam)
            if best is None or val < best:
                best = val
    return best


def test_fit_l1_matches_arrangement_oracle():
    rng = np.random.default_rng(11)
    for trial in range(30):
        N = int(rng.integers(2, 6))
        K = int(rng.integers(1, 4))
        Phi = rng.uniform(-2, 2, (N, K))
        y = rng.uniform(-2, 2, N)
        w = 1.0 / N
        lam = float(rng.choice([0.0, 1e-4, 1e-2, 0.3]))
        c, loss = fit_l1(Phi, y, w, lam, (-5.0, 5.0))
        ref = oracle_l1(Phi, y, w, lam, (-5.0, 5.0))
        assert loss == pytest.approx(ref, abs=1e-7)
        assert loss == pytest.approx(l1_objective(c, Phi, y, w, lam), abs=1e-8)


def test_fit_l1_with_prediction_bounds():
    rng = np.random.default_rng(13)
    for trial in range(15):
        N = int(rng.integers(2, 5))
        K = int(rng.integers(1, 3))
        Phi = rng.uniform(0.2, 2, (N, K))
        y = rng.uniform(-2, 2, N)
        w = 1.0 / N
        yb = (-1.0, 1.0)
        c, loss = fit_l1(Phi, y, w, 1e-2, (-5.0, 5.0), y_bounds=yb)
        pred = Phi @ c
        assert np.all(pred >= yb[0] - 1e-8) and np.all(pred <= yb[1] + 1e-8)
        ref = oracle_l1(Phi, y, w, 1e-2, (-5.0, 5.0), y_bounds=yb)
        assert loss == pytest.approx(ref, abs=1e-7)


@pytest.mark.parametrize("y_bounds", [None, (-1.0, 1.0)])
@pytest.mark.parametrize("lam", [0.0, 1e-2])
@pytest.mark.parametrize("c_bounds", [(1.0, 5.0), (-5.0, -1.0), (-5.0, 5.0)])
def test_fit_l1_bound_edge_cases(c_bounds, lam, y_bounds):
    # Coefficient boxes that exclude 0 pin one side of each split coefficient;
    # labels drawn from [-3, 3] often lie outside y_bounds, whose residual
    # bounds then exclude 0. Infeasible draws must raise.
    rng = np.random.default_rng(19)
    feasible = 0
    for trial in range(12):
        N = int(rng.integers(2, 5))
        K = int(rng.integers(1, 3))
        Phi = rng.uniform(0.2, 1.0, (N, K))
        y = rng.uniform(-3, 3, N)
        w = 1.0 / N
        ref = oracle_l1(Phi, y, w, lam, c_bounds, y_bounds)
        if ref is None:
            with pytest.raises(NumericalError):
                fit_l1(Phi, y, w, lam, c_bounds, y_bounds=y_bounds)
            continue
        c, loss = fit_l1(Phi, y, w, lam, c_bounds, y_bounds=y_bounds)
        assert loss == pytest.approx(ref, abs=1e-7)
        assert loss == pytest.approx(l1_objective(c, Phi, y, w, lam), abs=1e-8)
        assert np.all(c >= c_bounds[0] - 1e-9) and np.all(c <= c_bounds[1] + 1e-9)
        if y_bounds is not None:
            pred = Phi @ c
            assert np.all(pred >= y_bounds[0] - 1e-8) and np.all(pred <= y_bounds[1] + 1e-8)
        feasible += 1
    assert feasible >= 4


def test_fit_l1_crossed_bounds_rejected():
    Phi, y = np.ones((2, 1)), np.zeros(2)
    with pytest.raises(DimensionError):
        fit_l1(Phi, y, 0.5, 0.0, (-1.0, 1.0), y_bounds=(1.0, -1.0))
    with pytest.raises(DimensionError):
        fit_l1(Phi, y, 0.5, 0.0, (1.0, -1.0))


def test_fit_l1_median_property():
    # constant basis, lambda 0: the optimal constant is any median of y
    Phi = np.ones((5, 1))
    y = np.array([1.0, 9.0, 2.0, 8.0, 3.0])
    c, loss = fit_l1(Phi, y, 1.0 / 5, 0.0, (-100.0, 100.0))
    assert c[0] == pytest.approx(3.0, abs=1e-9)
    assert loss == pytest.approx(np.mean(np.abs(y - 3.0)), abs=1e-9)


def test_fit_l1_interpolates_when_possible():
    Phi = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([2.0, -1.0])
    c, loss = fit_l1(Phi, y, 0.5, 0.0, (-10.0, 10.0))
    assert np.allclose(c, y, atol=1e-9)
    assert loss == pytest.approx(0.0, abs=1e-10)


def test_fit_l1_lambda_monotonicity():
    rng = np.random.default_rng(17)
    Phi = rng.uniform(-1, 1, (8, 3))
    y = rng.uniform(-2, 2, 8)
    lams = [0.0, 1e-3, 1e-2, 1e-1, 1.0]
    norms = []
    for lam in lams:
        c, _ = fit_l1(Phi, y, 1.0 / 8, lam, (-100.0, 100.0))
        norms.append(np.sum(np.abs(c)))
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-8


def test_fit_l1_empty_data():
    c, loss = fit_l1(np.zeros((0, 3)), np.zeros(0), 1.0, 1e-2, (-1.0, 1.0))
    assert c.shape == (3,)
    assert np.allclose(c, 0.0) and loss == 0.0


def test_fit_l1_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        fit_l1(np.ones((3, 2)), np.zeros(2), 0.5, 0.0, (-1.0, 1.0))


def test_fit_l1_coefficient_bounds_respected():
    Phi = np.ones((3, 1))
    y = np.array([10.0, 10.0, 10.0])
    c, _ = fit_l1(Phi, y, 1.0 / 3, 0.0, (-2.0, 2.0))
    assert c[0] == pytest.approx(2.0, abs=1e-9)


def test_fit_l1_infeasible_bounds_raise():
    # predictions cannot be inside [3, 4] when coefficients are capped at 1
    Phi = np.ones((2, 1))
    y = np.array([3.5, 3.5])
    with pytest.raises(NumericalError):
        fit_l1(Phi, y, 0.5, 0.0, (-1.0, 1.0), y_bounds=(3.0, 4.0))


# ---------------------------------------------------------------------------
# LeafLosses: one kept model, re-solved in place, against cold fit_l1.
# ---------------------------------------------------------------------------


def _leaf_instance(seed, N=14, K=3):
    rng = np.random.default_rng(seed)
    Phi = np.column_stack([np.ones(N), rng.uniform(-1, 1, (N, K - 1))])
    y = rng.uniform(-2, 2, N)
    return Phi, y


def _cold(Phi, y, mask, lam, c_bounds, y_bounds):
    return fit_l1(Phi[mask], y[mask], 1.0 / len(y), lam, c_bounds, y_bounds=y_bounds)[1]


@pytest.mark.parametrize("y_bounds", [None, (-1.0, 1.0)])
def test_leaf_losses_a_b_a_restores_rows(y_bounds):
    """Solving A, then B (which frees most of A's points and takes others),
    then A again gives A's loss back: every freed row gets its equality,
    residual bounds and cost back."""
    Phi, y = _leaf_instance(3)
    N = len(y)
    args = (1.0 / N, 1e-2, (-5.0, 5.0), y_bounds)
    A = np.arange(N) < 9
    B = np.arange(N) >= 6
    losses = LeafLosses(Phi, y, *args)
    first, middle, again = losses.loss(A), losses.loss(B), losses.loss(A)
    assert again == pytest.approx(first, abs=1e-9)
    assert first == pytest.approx(_cold(Phi, y, A, *args[1:]), abs=1e-9)
    assert middle == pytest.approx(_cold(Phi, y, B, *args[1:]), abs=1e-9)


@pytest.mark.parametrize("y_bounds", [None, (-1.0, 1.0)])
@pytest.mark.parametrize("c_bounds", [(-5.0, 5.0), (0.5, 5.0)])
def test_leaf_losses_match_cold_fit_on_random_sets(c_bounds, y_bounds):
    """A random walk over point sets, including disjoint and nested ones, on
    a box that excludes 0 and on binding prediction bounds. A set the cold
    fit finds infeasible raises, and the next set still solves."""
    Phi, y = _leaf_instance(5)
    rng = np.random.default_rng(8)
    losses = LeafLosses(Phi, y, 1.0 / len(y), 1e-2, c_bounds, y_bounds=y_bounds)
    solved = 0
    for _ in range(40):
        mask = rng.uniform(size=len(y)) < rng.uniform(0.2, 0.9)
        mask[rng.integers(len(y))] = True
        try:
            ref = _cold(Phi, y, mask, 1e-2, c_bounds, y_bounds)
        except NumericalError:
            with pytest.raises(NumericalError, match=f"over {mask.sum()} points"):
                losses.loss(mask)
            continue
        assert losses.loss(mask) == pytest.approx(ref, abs=1e-9)
        solved += 1
    assert solved >= 5


def test_leaf_losses_infeasible_set_raises_with_its_size():
    # Predictions cannot reach [3, 4] with coefficients capped at 1.
    losses = LeafLosses(np.ones((3, 1)), np.full(3, 3.5), 1.0 / 3, 0.0, (-1.0, 1.0),
                        y_bounds=(3.0, 4.0))
    with pytest.raises(NumericalError, match="over 2 points.*[Ii]nfeasible"):
        losses.loss(np.array([True, False, True]))

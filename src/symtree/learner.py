"""Globally optimal symbolic-tree learning over discretized thresholds.

The search enumerates every admissible topology (root always branches, any
internal node may be pruned to a leaf) and every data-midpoint threshold,
solving an L1 leaf-fitting LP per candidate leaf. Midpoint thresholds realize
every data partition reachable by a continuous threshold, so the discretized
optimum equals the continuous one for the same topology set.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, evaluate_basis_matrix
from .errors import ConfigError
from .lp import fit_l1
from . import tree as treemod
from .tree import (BRANCH, INACTIVE, LEAF, Bounds, BranchRule, LeafExpression,
                   TreeModel, TreeTopology, node_depth, predict)


@dataclass
class Dataset:
    """Feature matrix X (N_d x N_f) with labels y (N_d)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if self.X.shape[0] == 1 and len(np.asarray(self.y).shape) and len(self.y) > 1:
            self.X = self.X.T
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if self.X.shape[0] != self.y.shape[0]:
            raise ConfigError(f"{self.X.shape[0]} feature rows for {self.y.shape[0]} labels")
        if self.n_points < 1:
            raise ConfigError("dataset must contain at least one point")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ConfigError("dataset contains non-finite entries")

    @property
    def n_points(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if self.n_features == 1:
            w.writerow(["x", "y"])
        else:
            w.writerow([f"x_{f + 1}" for f in range(self.n_features)] + ["y"])
        for row, label in zip(self.X, self.y):
            w.writerow([repr(float(v)) for v in row] + [repr(float(label))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Dataset":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0][-1] != "y":
            raise ConfigError("dataset CSV must have a header ending in 'y'")
        data = [[float(v) for v in row] for row in rows[1:] if row]
        arr = np.asarray(data, dtype=float)
        return cls(X=arr[:, :-1], y=arr[:, -1])

    def sha256(self) -> str:
        return hashlib.sha256(self.to_csv().encode()).hexdigest()


def default_y_bounds(y) -> tuple:
    """[min y - 0.1*range, max y + 0.1*range], padded if the labels are constant."""
    lo, hi = float(np.min(y)), float(np.max(y))
    pad = 0.1 * (hi - lo)
    if pad == 0.0:
        pad = max(0.1 * abs(hi), 1.0)
    return lo - pad, hi + pad


@dataclass
class LearnConfig:
    depth: int = 2
    lambda_c: float = 1e-2
    lambda_m: float = 1e-2
    c_lb: float = -100.0
    c_ub: float = 100.0
    y_lb: float = None      # None: derived from the data at fit time
    y_ub: float = None
    eps_routing: float = 1e-4
    big_M: float = 1000.0   # used only when materializing the integer program

    def check(self):
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.lambda_c < 0 or self.lambda_m < 0:
            raise ConfigError("penalty weights must be nonnegative")
        if not self.c_lb < self.c_ub:
            raise ConfigError(f"degenerate coefficient bounds [{self.c_lb}, {self.c_ub}]")
        if (self.y_lb is None) != (self.y_ub is None):
            raise ConfigError("y bounds must be given together or both derived")
        if self.y_lb is not None and not self.y_lb < self.y_ub:
            raise ConfigError(f"degenerate prediction bounds [{self.y_lb}, {self.y_ub}]")
        if self.eps_routing <= 0:
            raise ConfigError("eps_routing must be positive")

    def resolved_y_bounds(self, y) -> tuple:
        if self.y_lb is not None:
            return self.y_lb, self.y_ub
        return default_y_bounds(y)


@dataclass
class FitReport:
    model: TreeModel
    objective: float
    breakdown: tuple          # (L_acc, L_c, L_m)
    subproblems_solved: int
    wall_time: float


def candidate_thresholds(data: Dataset, feature: int) -> np.ndarray:
    """Midpoints between consecutive distinct sorted values of one feature."""
    if not 0 <= feature < data.n_features:
        raise IndexError(f"feature {feature} out of range for {data.n_features} features")
    vals = np.unique(data.X[:, feature])
    return (vals[:-1] + vals[1:]) / 2.0


@dataclass
class _Candidate:
    cost: float
    n_branch: int
    seq: tuple                # ((feature, threshold), ...) in node-id order
    rules: dict
    leaves: dict
    kinds: dict


def _better(a: _Candidate, b: _Candidate) -> bool:
    """True if a beats b under cost, then fewer branches, then lex split order."""
    if a.cost < b.cost - 1e-12:
        return True
    if a.cost > b.cost + 1e-12:
        return False
    return (a.n_branch, a.seq) < (b.n_branch, b.seq)


def fit_tree(data: Dataset, basis: BasisSet, cfg: LearnConfig) -> FitReport:
    """Minimal-objective tree over all topologies and midpoint thresholds."""
    cfg.check()
    t0 = time.perf_counter()
    Phi = evaluate_basis_matrix(basis, data.X)
    yb = cfg.resolved_y_bounds(data.y)
    w = 1.0 / data.n_points
    zero = np.zeros(basis.size)
    lp_calls = [0]
    leaf_cache: dict = {}

    def leaf_fit(idx: tuple):
        if idx in leaf_cache:
            return leaf_cache[idx]
        if idx:
            lp_calls[0] += 1
            rows = list(idx)
            c, loss = fit_l1(Phi[rows], data.y[rows], w, cfg.lambda_m,
                             (cfg.c_lb, cfg.c_ub), y_bounds=yb)
        else:
            c, loss = zero, 0.0
        leaf_cache[idx] = (c, loss)
        return c, loss

    def search(node: int, idx: tuple, must_branch: bool) -> _Candidate:
        best = None
        if not must_branch:
            c, loss = leaf_fit(idx)
            best = _Candidate(cost=loss, n_branch=0, seq=(),
                              rules={}, leaves={node: c}, kinds={node: LEAF})
        if node_depth(node) < cfg.depth:
            sub = Dataset(X=data.X[list(idx)], y=data.y[list(idx)]) if idx else None
            for f in range(data.n_features):
                if sub is not None:
                    vals = sub.X[:, f]
                    # Midpoints plus the two empty-side splits; a threshold
                    # outside the data range routes everything one way, which
                    # can be optimal (one leaf pays the coefficient penalty
                    # instead of two).
                    thrs = list(candidate_thresholds(sub, f))
                    thrs += [float(vals.min()) - 1.0, float(vals.max()) + 1.0]
                elif must_branch:
                    thrs = [0.0]
                else:
                    thrs = []
                for thr in thrs:
                    go_left = [i for i in idx if data.X[i, f] < thr]
                    go_right = [i for i in idx if data.X[i, f] >= thr]
                    left = search(2 * node, tuple(go_left), False)
                    right = search(2 * node + 1, tuple(go_right), False)
                    cand = _Candidate(
                        cost=cfg.lambda_c + left.cost + right.cost,
                        n_branch=1 + left.n_branch + right.n_branch,
                        seq=((f, float(thr)),) + left.seq + right.seq,
                        rules={node: BranchRule(feature=f, threshold=float(thr)),
                               **left.rules, **right.rules},
                        leaves={**left.leaves, **right.leaves},
                        kinds={node: BRANCH, **left.kinds, **right.kinds},
                    )
                    if best is None or _better(cand, best):
                        best = cand
        return best

    winner = search(1, tuple(range(data.n_points)), True)
    kinds = {n: INACTIVE for n in range(1, 2 ** (cfg.depth + 1))}
    kinds.update(winner.kinds)
    model = TreeModel(
        topology=TreeTopology(depth=cfg.depth, kinds=kinds),
        rules=winner.rules,
        leaves={n: LeafExpression(coefficients=tuple(c)) for n, c in winner.leaves.items()},
        basis=basis,
        bounds=Bounds(cfg.c_lb, cfg.c_ub, yb[0], yb[1]),
    )
    objective, breakdown = objective_of(model, data, cfg)
    return FitReport(model=model, objective=objective, breakdown=breakdown,
                     subproblems_solved=lp_calls[0],
                     wall_time=time.perf_counter() - t0)


def objective_of(model: TreeModel, data: Dataset, cfg: LearnConfig):
    """Re-score a model: (objective, (L_acc, L_c, L_m))."""
    residuals = [abs(data.y[i] - predict(model, data.X[i])) for i in range(data.n_points)]
    l_acc = float(np.mean(residuals))
    l_c = float(len(model.topology.branch_nodes()))
    l_m = float(sum(np.sum(np.abs(leaf.as_array())) for leaf in model.leaves.values()))
    objective = l_acc + cfg.lambda_c * l_c + cfg.lambda_m * l_m
    return objective, (l_acc, l_c, l_m)

"""Globally optimal symbolic-tree learning over discretized thresholds.

The search covers every admissible topology (root always branches, any
internal node may be pruned to a leaf) and every data-midpoint threshold, and
fits each leaf by an L1 LP. Midpoint thresholds realize every data partition
reachable by a continuous threshold, so the discretized optimum equals the
continuous one for the same topology set.

The search is branch-and-bound, in the spirit of MurTree (Demirović et al.,
JMLR 2022): adding points to a leaf never lowers its optimal loss, so the
largest loss solved so far over any subset of a point set bounds that set's
loss from below. A threshold is skipped, with its LPs, when the branch cost
plus the two children's bounds already exceeds the best subtree found, so the
search solves far fewer LPs and returns the same optimum, with the same
tie-breaking, as full enumeration. The search's leaf losses come from one
kept HiGHS model per fit (`LeafLosses`); the winning leaves' coefficients
come from a cold `fit_l1` each.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, evaluate_basis_matrix
from .errors import ConfigError, ParseError
from .lp import LeafLosses, fit_l1
from . import tree as treemod
from .tree import Bounds, BranchRule, LeafExpression, TreeModel, node_depth, predict


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
        rows = [row for row in csv.reader(io.StringIO(text)) if row]
        if not rows or rows[0][-1] != "y":
            raise ConfigError("dataset CSV must have a header ending in 'y'")
        if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
            raise ParseError("dataset CSV needs data rows, each as wide as its header")
        try:
            arr = np.array([[float(v) for v in row] for row in rows[1:]])
        except ValueError as exc:
            raise ParseError(f"dataset CSV: {exc}") from exc
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

    def check(self):
        # Each comparison is written so that NaN fails it.
        if not self.depth >= 1:
            raise ConfigError("depth must be >= 1")
        if not (self.lambda_c >= 0 and self.lambda_m >= 0):
            raise ConfigError("penalty weights must be nonnegative")
        if not self.c_lb < self.c_ub:
            raise ConfigError(f"degenerate coefficient bounds [{self.c_lb}, {self.c_ub}]")
        if (self.y_lb is None) != (self.y_ub is None):
            raise ConfigError("y bounds must be given together or both derived")
        if self.y_lb is not None and not self.y_lb < self.y_ub:
            raise ConfigError(f"degenerate prediction bounds [{self.y_lb}, {self.y_ub}]")

    def resolved_y_bounds(self, y) -> tuple:
        if self.y_lb is not None:
            return self.y_lb, self.y_ub
        return default_y_bounds(y)


@dataclass
class FitReport:
    model: TreeModel
    objective: float
    breakdown: tuple          # (L_acc, L_c, L_m)
    subproblems_solved: int   # leaf LPs actually solved
    wall_time: float


def _midpoints(values) -> np.ndarray:
    vals = np.unique(values)
    return (vals[:-1] + vals[1:]) / 2.0


def candidate_thresholds(data: Dataset, feature: int) -> np.ndarray:
    """Midpoints between consecutive distinct sorted values of one feature."""
    if not 0 <= feature < data.n_features:
        raise IndexError(f"feature {feature} out of range for {data.n_features} features")
    return _midpoints(data.X[:, feature])


EMPTY_SIDE_OFFSET = 1.0  # how far beyond the data the empty-side thresholds sit


def _split_order(values) -> np.ndarray:
    """Midpoints plus the two empty-side splits, middle-out.

    A threshold outside the data range routes everything one way, which can
    be optimal (one leaf pays the coefficient penalty instead of two). Balanced
    splits come first because they tend to be cheap, and a cheap incumbent
    early lets the bounds skip more of the rest.
    """
    thrs = np.concatenate([[values.min() - EMPTY_SIDE_OFFSET], _midpoints(values),
                           [values.max() + EMPTY_SIDE_OFFSET]])
    offset = np.abs(np.arange(len(thrs)) - (len(thrs) - 1) / 2.0)
    return thrs[np.argsort(offset, kind="stable")]


@dataclass
class _Candidate:
    cost: float
    n_branch: int
    seq: tuple                # ((feature, threshold), ...) in preorder: node, left, right
    rules: dict
    leaves: dict              # node -> boolean mask of its points


_TIE = 1e-12  # costs closer than this tie; fewer branches, then split order, decide


def _better(a: _Candidate, b: _Candidate) -> bool:
    """True if a beats b under cost, then fewer branches, then lex split order."""
    if a.cost < b.cost - _TIE:
        return True
    if a.cost > b.cost + _TIE:
        return False
    return (a.n_branch, a.seq) < (b.n_branch, b.seq)


class _SolvedSets:
    """Leaf losses of point sets (boolean masks), each solved at most once on
    the kept model, and lower bounds on the losses of the rest."""

    def __init__(self, lp: LeafLosses, n_points: int):
        self.lp = lp
        self.masks = np.zeros((64, n_points), dtype=bool)   # rows 0..n-1: solved sets
        self.losses = np.zeros(64)
        self.n = 0
        self._sets = {}  # mask bytes -> (loss or None, rows scanned, bound over them)

    def loss(self, mask: np.ndarray) -> float:
        """The set's leaf loss; an empty set costs 0 and solves no LP."""
        key = mask.tobytes()
        loss, scanned, lb = self._sets.get(key, (None, 0, 0.0))
        if loss is None:
            loss = 0.0
            if mask.any():
                loss = self.lp.loss(mask)
                if self.n == len(self.losses):
                    self.masks = np.vstack([self.masks, np.zeros_like(self.masks)])
                    self.losses = np.concatenate([self.losses, np.zeros_like(self.losses)])
                self.masks[self.n] = mask
                self.losses[self.n] = loss
                self.n += 1
            self._sets[key] = (loss, scanned, lb)
        return loss

    def lower_bound(self, mask: np.ndarray) -> float:
        """Largest solved loss over subsets of mask: a lower bound on its loss.

        The search asks about the same sets many times, so each set keeps its
        bound and scans only the rows added since it was last asked.
        """
        key = mask.tobytes()
        loss, scanned, lb = self._sets.get(key, (None, 0, 0.0))
        if scanned < self.n:
            new = slice(scanned, self.n)
            inside = ~(self.masks[new] & ~mask).any(axis=1)
            lb = max(lb, float(self.losses[new].max(where=inside, initial=0.0)))
            self._sets[key] = (loss, self.n, lb)
        return lb


def fit_tree(data: Dataset, basis: BasisSet, cfg: LearnConfig) -> FitReport:
    """Minimal-objective tree over all topologies and midpoint thresholds."""
    cfg.check()
    t0 = time.perf_counter()
    Phi = evaluate_basis_matrix(basis, data.X)
    yb = cfg.resolved_y_bounds(data.y)
    w = 1.0 / data.n_points
    solved = _SolvedSets(LeafLosses(Phi, data.y, w, cfg.lambda_m, (cfg.c_lb, cfg.c_ub),
                                    y_bounds=yb), data.n_points)

    def coefficients(mask):
        """The leaf's coefficients, from the same cold LP as a lone fit."""
        if not mask.any():
            return np.zeros(basis.size)
        c, _ = fit_l1(Phi[mask], data.y[mask], w, cfg.lambda_m, (cfg.c_lb, cfg.c_ub),
                      y_bounds=yb)
        return c

    def bound(node, mask):
        """Lower bound on the cost of any subtree at node over mask: a
        subtree that may still branch costs at least lambda_c if it does."""
        lb = solved.lower_bound(mask)
        return min(lb, cfg.lambda_c) if node_depth(node) < cfg.depth else lb

    def search(node, mask, must_branch, budget):
        """Best subtree at node over the points in mask, or None when even
        the best costs more than budget (+_TIE)."""
        best = None
        if not must_branch and solved.lower_bound(mask) <= budget + _TIE:
            best = _Candidate(cost=solved.loss(mask), n_branch=0, seq=(),
                              rules={}, leaves={node: mask})
        limit = budget if best is None else min(budget, best.cost)
        if node_depth(node) < cfg.depth and mask.any():
            for f in range(data.n_features):
                col = data.X[:, f]
                for thr in _split_order(col[mask]):
                    go_left = col < thr
                    left, right = mask & go_left, mask & ~go_left
                    right_lb = bound(2 * node + 1, right)
                    if cfg.lambda_c + bound(2 * node, left) + right_lb > limit + _TIE:
                        continue
                    lt = search(2 * node, left, False, limit - cfg.lambda_c - right_lb)
                    if lt is None:
                        continue
                    rt = search(2 * node + 1, right, False, limit - cfg.lambda_c - lt.cost)
                    if rt is None:
                        continue
                    cand = _Candidate(
                        cost=cfg.lambda_c + lt.cost + rt.cost,
                        n_branch=1 + lt.n_branch + rt.n_branch,
                        seq=((f, float(thr)),) + lt.seq + rt.seq,
                        rules={node: BranchRule(feature=f, threshold=float(thr)),
                               **lt.rules, **rt.rules},
                        leaves={**lt.leaves, **rt.leaves},
                    )
                    if best is None or _better(cand, best):
                        best = cand
                        limit = min(budget, best.cost)
        if best is None or best.cost > budget + _TIE:
            return None
        return best

    winner = search(1, np.ones(data.n_points, dtype=bool), True, np.inf)
    model = TreeModel(
        depth=cfg.depth,
        rules=winner.rules,
        leaves={n: LeafExpression(coefficients=tuple(coefficients(mask)))
                for n, mask in winner.leaves.items()},
        basis=basis,
        bounds=Bounds(cfg.c_lb, cfg.c_ub, yb[0], yb[1]),
    )
    objective, breakdown = objective_of(model, data, cfg)
    return FitReport(model=model, objective=objective, breakdown=breakdown,
                     subproblems_solved=solved.n,
                     wall_time=time.perf_counter() - t0)


def objective_of(model: TreeModel, data: Dataset, cfg: LearnConfig):
    """Re-score a model: (objective, (L_acc, L_c, L_m))."""
    l_acc = mean_abs_error(model, data)
    l_c = float(len(model.rules))
    l_m = float(sum(np.sum(np.abs(leaf.as_array())) for leaf in model.leaves.values()))
    objective = l_acc + cfg.lambda_c * l_c + cfg.lambda_m * l_m
    return objective, (l_acc, l_c, l_m)


def mean_abs_error(model: TreeModel, data: Dataset) -> float:
    """Mean |y - prediction| of a model over a dataset."""
    return float(np.mean([abs(y - predict(model, x)) for x, y in zip(data.X, data.y)]))

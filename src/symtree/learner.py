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
tie-breaking, as full enumeration.

A subtree is kept as its cost and its nodes in preorder: a branch as its
(feature, threshold), a leaf as the id of its point set. A split is then the
branch followed by its two children's preorders, so a memoised subtree hangs
under any parent as it is, and one walk over the winner numbers its nodes.
Each child subtree is bounded before it is searched. Every (set, depth) the
search visits is memoised: the best subtree found there, or else the largest
budget under which none was found, which bounds the subtree from below and
answers any smaller budget at once. A child that may still branch is also
bounded one level ahead (LB1): it is a leaf, or one branch plus the cheapest
pair of grandchild bounds over its splits, each capped at lambda_c when the
grandchild may branch in turn.

The search runs over a registry of the point sets it meets (`_PointSets`).
Each distinct set gets an integer id once, keyed by its tight box of
per-feature rank ranges, and keeps its mask, its leaf loss, its bound and
its splits (as arrays of features, thresholds and child ids), so a visit
builds nothing twice, a bound is a lookup and LB1 is one numpy expression.
The leaf losses come from one kept HiGHS model per fit (`LeafLosses`); the
winning leaves' coefficients come from a cold `fit_l1` each.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import time
from dataclasses import dataclass

import numpy as np

from .basis import BasisSet, evaluate_basis_matrix
from .errors import ConfigError, ParseError
from .lp import LeafLosses, fit_l1
from . import tree as treemod
from .tree import Bounds, BranchRule, LeafExpression, TreeModel, predict


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
        if self.n_features < 1:
            raise ConfigError("dataset must have at least one feature column")
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
        # A branch node's coefficients and an empty leaf's are 0.
        if not self.c_lb <= 0.0 <= self.c_ub:
            raise ConfigError(f"coefficient bounds [{self.c_lb}, {self.c_ub}] must contain 0")
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
    subproblems_solved: int   # leaf LPs actually solved
    wall_time: float


EMPTY_SIDE_OFFSET = 1.0  # how far beyond the data the empty-side thresholds sit


def split_thresholds(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Thresholds between neighbouring sorted values lo < hi: the midpoint,
    or hi where the midpoint rounds onto lo (adjacent floats), so that
    x < threshold always sends lo left and hi right."""
    mid = (lo + hi) / 2.0
    return np.where(mid > lo, mid, hi)


_TIE = 1e-12  # costs closer than this tie; fewer branches, then split order, decide


def _better(a: tuple, b: tuple) -> bool:
    """True if subtree a beats b under cost, then fewer branches, then lex
    split order. A subtree is (cost, preorder): a branch in the preorder is
    its (feature, threshold), a leaf its set id."""
    if a[0] < b[0] - _TIE:
        return True
    if a[0] > b[0] + _TIE:
        return False
    a_seq, b_seq = ([n for n in t[1] if isinstance(n, tuple)] for t in (a, b))
    return (len(a_seq), a_seq) < (len(b_seq), b_seq)


EMPTY, ROOT = 0, 1  # ids of the empty set and of all points


@functools.cache
def _middle_out(n: int) -> np.ndarray:
    """Positions 0..n-1 ordered from the middle outwards, left before right."""
    order = np.argsort(np.abs(np.arange(n) - (n - 1) / 2.0), kind="stable")
    order.flags.writeable = False   # one array serves every caller
    return order


def _contains(outer, inner) -> np.ndarray:
    """Whether each box of outer contains each box of inner, for boxes as
    corner columns (lo, -hi) that broadcast against each other: one box
    contains another when each of its corners is <= the other's."""
    inside = outer[0] <= inner[0]
    for a, b in zip(outer[1:], inner[1:]):
        inside &= a <= b
    return inside


class _PointSets:
    """The point sets the search meets, each registered once under an integer id.

    Every set the search makes is the root cut by axis half-spaces, so its
    points are exactly the points inside its tight box: the least and largest
    dense rank of its points on each feature. For two such sets, one box lies
    inside the other exactly when one set lies inside the other, so the box is
    the set's key and box containment stands in for mask inclusion. A box is
    kept as its corners (lo, -hi), one row per corner and one column per set.

    Each id holds its mask, built when first asked for; its leaf loss, solved
    at most once on the kept model; its lower bound, the largest solved loss
    over the sets inside it (taken on registration, then raised by each later
    solve, so a query is a lookup); and its splits, built once. The ids are
    looked up by the bytes of the box's corners.
    """

    def __init__(self, X: np.ndarray, lp: LeafLosses):
        self.lp = lp
        N, F = X.shape
        orders = [np.argsort(X[:, f], kind="stable") for f in range(F)]
        rank = np.empty((N, F), dtype=np.int32)   # dense rank of each value
        for f, order in enumerate(orders):
            v = X[order, f]
            rank[order[0], f] = 0
            rank[order[1:], f] = np.cumsum(v[1:] != v[:-1])
        self.point_corners = np.hstack([rank, -rank])   # each point's own box
        # Per feature: the points sorted on it, and their values and boxes in that order.
        self.by_feature = [(order, X[order, f], self.point_corners[order])
                           for f, order in enumerate(orders)]
        self.ids = {}   # corners, as bytes -> id
        self.key_dtype = np.dtype((np.void, self.point_corners[0].nbytes))
        self.corners, self.bounds = np.empty((2 * F, 0), dtype=np.int32), np.empty(0)
        self.solved = []   # ids whose loss is solved, in solve order
        self.masks, self.losses, self.split_arrays = [], [], []
        empty = [N] * F + [1] * F   # lo > hi: contains no box
        boxes = np.array([empty, self.point_corners.min(axis=0)], dtype=np.int32)
        self._register(boxes, self._keys(boxes))
        self.losses[EMPTY] = 0.0
        none = np.empty(0, dtype=int)
        self.split_arrays[EMPTY] = none, np.empty(0), none, none

    def _keys(self, boxes: np.ndarray) -> list:
        """The ids dictionary's keys of a contiguous array of boxes, one per row."""
        return boxes.view(self.key_dtype).ravel().tolist()

    def _register(self, boxes: np.ndarray, keys: list):
        """Give each new box (one per row) the next id and its bound so far."""
        n, m = len(self.masks), len(boxes)
        new = boxes.T
        bounds = np.zeros(m)
        if self.solved:
            # A solved set's bound is the largest loss inside it, so the largest
            # bound over the solved sets inside a box is the largest loss.
            inside = _contains(new[:, :, None], self.corners[:, None, self.solved])
            bounds = np.where(inside, self.bounds[self.solved], 0.0).max(axis=1)
        self.corners = np.concatenate([self.corners, new], axis=1)
        self.bounds = np.concatenate([self.bounds, bounds])
        self.ids.update(zip(keys, range(n, n + m)))
        self.masks += [None] * m
        self.losses += [None] * m
        self.split_arrays += [None] * m

    def bound(self, s: int) -> float:
        """Largest solved loss over the sets inside s: a lower bound on its loss."""
        return self.bounds.item(s)

    def mask(self, s: int) -> np.ndarray:
        mask = self.masks[s]
        if mask is None:
            mask = self.masks[s] = (self.point_corners >= self.corners[:, s]).all(axis=1)
        return mask

    def loss(self, s: int) -> float:
        """The set's leaf loss; the empty set costs 0 and solves no LP."""
        loss = self.losses[s]
        if loss is None:
            loss = self.losses[s] = self.lp.loss(self.mask(s))
            self.solved.append(s)
            np.maximum(self.bounds, loss, out=self.bounds,
                       where=_contains(self.corners, self.corners[:, s]))
        return loss

    def splits(self, s: int) -> tuple:
        """Every split of set s as four arrays, built on first use: feature,
        threshold, left id and right id. The empty set has none.

        Per feature: the thresholds between its distinct values in s
        (``split_thresholds``) plus the two empty-side splits, middle-out. A
        threshold outside the data range routes everything one way, which can
        be optimal (one leaf pays the coefficient penalty instead of two).
        Balanced splits come first because they tend to be cheap, and a cheap
        incumbent early lets the bounds skip more of the rest.
        """
        if self.split_arrays[s] is not None:
            return self.split_arrays[s]
        mask, empty = self.mask(s), self.corners[None, :, EMPTY]
        features, thresholds, lefts, rights = [], [], [], []
        for f, (order, xs, cs) in enumerate(self.by_feature):
            keep = mask[order]
            v, corners = xs[keep], cs[keep]          # the points of s, sorted on feature f
            step = np.nonzero(v[1:] != v[:-1])[0] + 1
            thrs = np.concatenate([[v[0] - EMPTY_SIDE_OFFSET],
                                   split_thresholds(v[step - 1], v[step]),
                                   [v[-1] + EMPTY_SIDE_OFFSET]])[_middle_out(len(step) + 2)]
            cuts = np.searchsorted(v, thrs)          # points left of each threshold
            # The empty box is the identity of the corner-wise minimum, so
            # row k of the running minima is the box of the first k points,
            # and of the points from k on.
            padded = np.concatenate([empty, corners, empty])
            lefts.append(np.minimum.accumulate(padded[:-1])[cuts])
            rights.append(np.minimum.accumulate(padded[:0:-1])[::-1][cuts])
            features.append(np.full(len(thrs), f))
            thresholds.append(thrs)
        boxes = np.concatenate(lefts + rights)
        keys = self._keys(boxes)
        ids = list(map(self.ids.get, keys))
        if None in ids:
            new = {key: row for row, (key, i) in enumerate(zip(keys, ids)) if i is None}
            self._register(boxes[list(new.values())], list(new))
            ids = list(map(self.ids.__getitem__, keys))
        ids, k = np.array(ids), len(keys) // 2
        out = self.split_arrays[s] = (np.concatenate(features), np.concatenate(thresholds),
                                      ids[:k], ids[k:])
        return out

    def split_bound(self, s: int, cap: float) -> float:
        """Least sum of the two sides' bounds, each capped at cap, over the
        splits of a nonempty set s."""
        _, _, lefts, rights = self.splits(s)
        return float((np.minimum(self.bounds[lefts], cap)
                      + np.minimum(self.bounds[rights], cap)).min())


def fit_tree(data: Dataset, basis: BasisSet, cfg: LearnConfig) -> FitReport:
    """Minimal-objective tree over all topologies and midpoint thresholds."""
    cfg.check()
    t0 = time.perf_counter()
    Phi = evaluate_basis_matrix(basis, data.X)
    yb = cfg.resolved_y_bounds(data.y)
    w = 1.0 / data.n_points
    sets = _PointSets(data.X, LeafLosses(Phi, data.y, w, cfg.lambda_m, (cfg.c_lb, cfg.c_ub),
                                         y_bounds=yb))

    def coefficients(mask):
        """The leaf's coefficients, from the same cold LP as a lone fit."""
        if not mask.any():
            return np.zeros(basis.size)
        c, _ = fit_l1(Phi[mask], data.y[mask], w, cfg.lambda_m, (cfg.c_lb, cfg.c_ub),
                      y_bounds=yb)
        return c

    # (set id, depth) -> the best subtree when a search there found one, its
    # cost a lower bound; else (largest budget that found none, None).
    memo = {}

    def lower(c, depth, cap):
        """Lower bound on the best subtree over set c at depth, which costs at
        least cap if it branches."""
        return max(min(sets.bound(c), cap), memo.get((c, depth), (0.0,))[0])

    def one_level(c, cap):
        """LB1: c as a leaf, or one branch whose children cost at least their
        bounds capped at cap."""
        b = sets.bound(c)
        if b <= cfg.lambda_c:   # then b is already the cheap bound; the empty set stops here
            return b
        return min(b, cfg.lambda_c + sets.split_bound(c, cap))

    def search(depth, s, budget):
        """Best subtree at depth over point set s, or None when even the best
        costs more than budget (+_TIE). The root always branches."""
        bound, preorder = known = memo.get((s, depth), (-np.inf, None))
        if preorder is not None:
            return known if bound <= budget + _TIE else None
        if budget <= bound:
            return None
        best = None
        if depth > 0 and sets.bound(s) <= budget + _TIE:
            best = (sets.loss(s), (s,))
        limit = budget if best is None else min(budget, best[0])
        if depth < cfg.depth:
            # A child subtree that may still branch costs at least lambda_c if it
            # does; so does a grandchild.
            deeper = depth + 1 < cfg.depth
            cap = cfg.lambda_c if deeper else np.inf
            grand_cap = cfg.lambda_c if depth + 2 < cfg.depth else np.inf
            features, thresholds, lefts, rights = sets.splits(s)
            for f, thr, left, right in zip(features.tolist(), thresholds.tolist(),
                                           lefts.tolist(), rights.tolist()):
                left_lb, right_lb = lower(left, depth + 1, cap), lower(right, depth + 1, cap)
                if cfg.lambda_c + left_lb + right_lb > limit + _TIE:
                    continue
                if deeper:
                    left_lb = max(left_lb, one_level(left, grand_cap))
                    right_lb = max(right_lb, one_level(right, grand_cap))
                    if cfg.lambda_c + left_lb + right_lb > limit + _TIE:
                        continue
                lt = search(depth + 1, left, limit - cfg.lambda_c - right_lb)
                if lt is None:
                    continue
                rt = search(depth + 1, right, limit - cfg.lambda_c - lt[0])
                if rt is None:
                    continue
                cand = (cfg.lambda_c + lt[0] + rt[0], ((f, thr),) + lt[1] + rt[1])
                if best is None or _better(cand, best):
                    best = cand
                    limit = min(budget, best[0])
        if best is None or best[0] > budget + _TIE:
            memo[s, depth] = budget, None
            return None
        memo[s, depth] = best
        return best

    rules, leaves = {}, {}

    def place(node, preorder):
        """Give node the next entry of the winner's preorder, then its children."""
        entry = next(preorder)
        if isinstance(entry, tuple):
            rules[node] = BranchRule(*entry)
            place(2 * node, preorder)
            place(2 * node + 1, preorder)
        else:
            leaves[node] = LeafExpression(coefficients=tuple(coefficients(sets.mask(entry))))

    place(1, iter(search(0, ROOT, np.inf)[1]))
    model = TreeModel(depth=cfg.depth, rules=rules, leaves=leaves, basis=basis,
                      bounds=Bounds(cfg.c_lb, cfg.c_ub, yb[0], yb[1]))
    objective, _ = objective_of(model, data, cfg)
    return FitReport(model=model, objective=objective, subproblems_solved=len(sets.solved),
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

"""Materialization of the exact mixed-integer learning problem.

Builds every variable and constraint family of the learning formulation
(tree structure, assignment, one-hot feature choice, big-M routing, leaf
expressions, bilinear linearization, absolute-value splits) as the arrays
``scipy.optimize.milp`` takes, exports them as a fixed-format MPS file with a
sidecar name map, and decodes externally solved assignments back into tree
models. Claimed objectives are never trusted: a decoded model is always
re-scored internally.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np
from scipy import sparse

from .basis import BasisSet, evaluate_basis_matrix
from .errors import ConfigError, IntegralityError, ParseError, StructureError
from .learner import (EMPTY_SIDE_OFFSET, Dataset, LearnConfig, objective_of,
                      split_thresholds)
from .lp import fit_l1
from .tree import (Bounds, BranchRule, LeafExpression, TreeModel, _shape_violations,
                   ancestors, child_toward, node_depth, route)

# Integrality codes as scipy.optimize.milp reads them.
BINARY = 1
CONTINUOUS = 0
INT_TOL = 1e-5
#: A point routed left sits at least this far below its threshold (Bertsimas &
#: Dunn's epsilon), so the MILP splits no two values closer than this.
EPS_ROUTING = 1e-4
LE, EQ, GE = "<=", "=", ">="   # row senses
_SPACE = ord(" ")


@dataclass
class MilpArtifact:
    """min cost @ x  s.t.  row_lo <= A @ x <= row_hi,  lo <= x <= hi, with
    x[i] integral where integrality[i] is set. An LE row has row_lo = -inf, a
    GE row row_hi = +inf and an EQ row equal bounds."""

    cost: np.ndarray
    A: sparse.csc_array          # rows x variables
    row_lo: np.ndarray
    row_hi: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    integrality: np.ndarray
    var_names: list              # structured, e.g. "z[17,5]"
    var_mps: list                # fixed-format machine names, <= 8 chars
    row_names: list
    data: Dataset
    basis: BasisSet
    cfg: LearnConfig
    y_bounds: tuple
    index: dict = field(default_factory=dict)  # structured and mps name -> var idx

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_binary(self) -> int:
        return int(np.count_nonzero(self.integrality))

    @property
    def n_rows(self) -> int:
        return len(self.row_names)

    @cached_property
    def row_labels(self) -> np.ndarray:
        """Row names R0000001, R0000002, ... as rows of 10 ASCII bytes (the
        last two blank), built once per artifact. Refuses the 10 millionth
        row, whose name would pass fixed-format MPS's 8 characters."""
        if self.n_rows > 9_999_999:
            raise ConfigError(f"{self.n_rows} rows exceed fixed-format row names")
        labels = np.full((self.n_rows, 10), _SPACE, dtype=np.uint8)
        labels[:, 0] = ord("R")
        j = np.arange(1, self.n_rows + 1, dtype=np.int32)[:, None]
        labels[:, 1:8] = j // 10 ** np.arange(6, -1, -1, dtype=np.int32) % 10 + ord("0")
        return labels

    @cached_property
    def row_mps(self) -> list:
        """Fixed-format row names, built once per artifact."""
        return self.row_labels.tobytes().decode("ascii").split()

    def var_value(self, assign: dict, i: int):
        """Variable i's value in assign by its name or MPS name, else None."""
        if self.var_names[i] in assign:
            return assign[self.var_names[i]]
        if self.var_mps[i] in assign:
            return assign[self.var_mps[i]]
        return None


def node_sets(depth: int):
    """(all nodes, terminal nodes, internal nodes) for the complete tree."""
    all_nodes = list(range(1, 2 ** (depth + 1)))
    terminal = [n for n in all_nodes if node_depth(n) == depth]
    internal = [n for n in all_nodes if node_depth(n) < depth]
    return all_nodes, terminal, internal


def expected_counts(n_data: int, n_features: int, depth: int, n_basis: int):
    """Formulation-derived (variables, binaries, rows) counts."""
    nn = 2 ** (depth + 1) - 1
    nint = 2**depth - 1
    binaries = nn * (1 + n_data) + n_features * nint
    continuous = 2 * n_data * nn + n_data + 2 * n_data + 3 * n_basis * nn + nint
    path_len = sum(len(ancestors(n)) for n in range(1, nn + 1))
    rows = (
        (2 * nint + 1 + (nn - nint))        # structure
        + n_data * nn                        # no data on branch nodes
        + n_data                             # every point assigned once
        + n_data * path_len                  # no data on inactive nodes
        + nint                               # one-hot feature choice
        + n_data * path_len                  # big-M routing
        + n_data * nn                        # node expressions
        + 2 * n_basis * nn                   # zero coefficients at branch nodes
        + 4 * n_data * nn                    # bilinear linearization
        + n_data                             # tree output
        + n_data + n_basis * nn              # absolute-value splits
    )
    return binaries + continuous, binaries, rows


def _name_index(var_names: list, var_mps: list) -> dict:
    """Structured and machine name -> variable index. Refuses a machine name
    wider than fixed-format MPS allows and a name given twice."""
    if max(map(len, var_mps)) > 8:
        wide = next(mps for mps in var_mps if len(mps) > 8)
        raise ConfigError(f"machine name {wide!r} exceeds fixed-format width")
    keys = [None] * (2 * len(var_mps))
    keys[::2], keys[1::2] = var_names, var_mps
    index = dict(zip(keys, np.arange(len(var_mps)).repeat(2).tolist()))
    if len(index) != len(keys):
        dup = next(k for k, count in Counter(keys).items() if count > 1)
        raise ConfigError(f"duplicate variable name {dup!r}")
    return index


def _rows(names, sense, rhs, cols, vals):
    """One constraint family as (names, row_lo, row_hi, cols[m, w], vals[m, w]).

    Term t of every row is column cols[t] with coefficient vals[t]. The terms,
    sense and rhs broadcast to one shape of rows, which flattens row-major, so
    a last axis of length p interleaves p kinds of row."""
    shape = np.broadcast_shapes(*map(np.shape, [*cols, *vals, sense, rhs]))
    col_ids, coefs = np.empty(shape + (len(cols),), dtype=int), np.empty(shape + (len(cols),))
    for t, (col, val) in enumerate(zip(cols, vals)):
        col_ids[..., t], coefs[..., t] = col, val
    sense, rhs = np.broadcast_to(sense, shape).ravel(), np.broadcast_to(rhs, shape).ravel()
    return (names, np.where(sense == LE, -np.inf, rhs), np.where(sense == GE, np.inf, rhs),
            col_ids.reshape(len(names), -1), coefs.reshape(len(names), -1))


def build_milp(data: Dataset, basis: BasisSet, cfg: LearnConfig) -> MilpArtifact:
    """Emit the full variable/constraint representation of the learning problem.

    Its constants come from the data (as in Bertsimas & Dunn, "Optimal
    classification trees", Mach. Learn. 2017) and hold for every feasible
    tree. The routing sum sum_f a[f,m] x[i,f] is one coordinate of x_i, or 0
    where m does not branch, so it lies in [s_lo, s_hi] = [min(0, min X),
    max(0, max X)]. With o = EMPTY_SIDE_OFFSET:

    - b lies in [s_lo - o, s_hi + o]. That holds every threshold ``fit_tree``
      emits (midpoints, and empty-side splits o beyond one feature's values)
      and the 0 of an unused b; a threshold beyond it routes as its end does.
    - Routing M = (s_hi - s_lo) + o + eps, the smallest constant that leaves
      both routing rows slack at z = 0, as |sum_f a x - b| <= (s_hi - s_lo) + o.
      A z within a solver's integrality tolerance of 1 thus moves a point by
      that tolerance times M, far below eps.
    - tie_M = c_mag max_i sum_k |phi_ik| + max |y bound| bounds every node
      expression |phi_i . c| over the coefficient box, so the tie rows are
      slack at z = 0 and cut off no tree whose leaves are large elsewhere.

    A constant that is not finite (c_bounds of +-1e308 overflow tie_M) is
    refused with a ConfigError, since an MPS file cannot hold it.

    Each variable block is an index array shaped by its subscripts (z[i - 1,
    n - 1] is z[i,n]) and each constraint family one ``_rows`` call.
    """
    cfg.check()
    y_lb, y_ub = cfg.resolved_y_bounds(data.y)
    # delta = yhat*z vanishes wherever z = 0, so its bounds must admit 0 even
    # when the prediction range itself excludes it.
    d_lb, d_ub = min(y_lb, 0.0), max(y_ub, 0.0)
    s_lo, s_hi = min(0.0, float(np.min(data.X))), max(0.0, float(np.max(data.X)))
    b_lo, b_hi = s_lo - EMPTY_SIDE_OFFSET, s_hi + EMPTY_SIDE_OFFSET
    M, eps = (s_hi - s_lo) + EMPTY_SIDE_OFFSET + EPS_ROUTING, EPS_ROUTING
    Phi = evaluate_basis_matrix(basis, data.X)
    c_mag = max(abs(cfg.c_lb), abs(cfg.c_ub))
    tie_M = (c_mag * float(np.max(np.sum(np.abs(Phi), axis=1)))
             + max(abs(y_lb), abs(y_ub)))
    for name, v in (("c_lb", cfg.c_lb), ("c_ub", cfg.c_ub), ("y_lb", y_lb),
                    ("y_ub", y_ub), ("M", M), ("tie_M", tie_M)):
        if not np.isfinite(v):
            raise ConfigError(f"MILP constant {name} = {v!r} is not finite")
    nn, terminal, internal = node_sets(cfg.depth)
    points, features, funcs = (range(1, k + 1) for k in
                               (data.n_points, data.n_features, basis.size))

    var_names, var_mps, blocks = [], [], []   # blocks: (integrality, lo, hi, size)

    def block(name, mps, kind, lo, hi, *axes):
        subs = [list(map(str, axis)) for axis in axes]
        start = len(var_names)
        var_names.extend([f"{name}[{k}]" for k in map(",".join, product(*subs))])
        var_mps.extend([mps + k for k in map("_".join, product(*subs))])
        blocks.append((kind, lo, hi, len(var_names) - start))
        return np.arange(start, len(var_names)).reshape([len(axis) for axis in axes])

    d = block("d", "D", BINARY, 0.0, 1.0, nn)
    z = block("z", "Z", BINARY, 0.0, 1.0, points, nn)
    a = block("a", "A", BINARY, 0.0, 1.0, features, internal)
    b = block("b", "B", CONTINUOUS, b_lo, b_hi, internal)
    c = block("c", "C", CONTINUOUS, cfg.c_lb, cfg.c_ub, funcs, nn)
    yhat = block("yhat", "YH", CONTINUOUS, -np.inf, np.inf, points, nn)
    delta = block("delta", "DL", CONTINUOUS, d_lb, d_ub, points, nn)
    epos = block("epos", "EP", CONTINUOUS, 0.0, np.inf, points)
    eneg = block("eneg", "EN", CONTINUOUS, 0.0, np.inf, points)
    cpos = block("cpos", "CP", CONTINUOUS, 0.0, np.inf, funcs, nn)
    cneg = block("cneg", "CN", CONTINUOUS, 0.0, np.inf, funcs, nn)
    ypred = block("ypred", "YP", CONTINUOUS, y_lb, y_ub, points)
    index = _name_index(var_names, var_mps)

    n_int = len(internal)
    point_nodes = [(i, n) for i in points for n in nn]
    func_nodes = [(k, n) for k in funcs for n in nn]
    path = [(n, m) for n in nn for m in ancestors(n)]
    routing = [(n, m, right) for n in nn for right in (0, 1) for m in ancestors(n)
               if child_toward(m, n) % 2 == right]
    pn, pm = np.array(path).T - 1
    rn, rm, right = np.array(routing).T - [[1], [1], [0]]
    families = [
        # Tree structure: children branch only under a branching parent; the
        # root branches; maximal-depth nodes never branch.
        _rows([f"struct_{s}[{n}]" for n in internal for s in ("left", "right")], LE, 0.0,
              [d[1:].reshape(n_int, 2), d[:n_int, None]], [1.0, -1.0]),
        _rows(["struct_root"], EQ, 1.0, [d[:1]], [1.0]),
        _rows([f"struct_leaf[{n}]" for n in terminal], EQ, 0.0, [d[n_int:]], [1.0]),
        # No data on branching nodes.
        _rows([f"no_branch_data[{i},{n}]" for i, n in point_nodes], LE, 1.0, [z, d], [1.0, 1.0]),
        # Every data point assigned exactly once.
        _rows([f"assign_once[{i}]" for i in points], EQ, 1.0, [*z.T], [1.0] * len(nn)),
        # No data on inactive nodes: assignment implies branching ancestors.
        _rows([f"active_path[{i},{n},{m}]" for i in points for n, m in path], LE, 0.0,
              [z[:, pn], d[pm]], [1.0, -1.0]),
        # Exactly one branching feature at each branching node.
        _rows([f"one_feature[{n}]" for n in internal], EQ, 0.0,
              [*a, d[:n_int]], [1.0] * len(features) + [-1.0]),
        # Big-M routing along the path of the assigned node.
        _rows([f"route_{('left', 'right')[r]}[{i},{n},{m}]" for i in points for n, m, r in routing],
              np.where(right, GE, LE), np.where(right, -M, M - eps),
              [*a[:, rm], b[rm], z[:, rn]],
              [*data.X.T[:, :, None], -1.0, np.where(right, -M, M)]),
        # Node expression values.
        _rows([f"node_value[{i},{n}]" for i, n in point_nodes], EQ, 0.0,
              [yhat, *c], [1.0, *-Phi.T[:, :, None]]),
        # Branch nodes carry zero coefficients.
        _rows([f"coef_{s}[{k},{n}]" for k, n in func_nodes for s in ("ub", "lb")],
              [LE, GE], [cfg.c_ub, cfg.c_lb], [c[:, :, None], d[:, None]],
              [1.0, [cfg.c_ub, cfg.c_lb]]),
        # Linearized product delta = yhat * z. The first two rows have no yhat
        # term: their 0.0 coefficients are dropped by eliminate_zeros.
        _rows([f"prod_{s}[{i},{n}]" for i, n in point_nodes
               for s in ("ub", "lb", "tie_ub", "tie_lb")],
              [LE, GE, LE, GE], [0.0, 0.0, tie_M, -tie_M],
              [delta[:, :, None], yhat[:, :, None], z[:, :, None]],
              [1.0, [0.0, 0.0, -1.0, -1.0], [-y_ub, -y_lb, tie_M, -tie_M]]),
        # Tree output is the assigned node's expression value.
        _rows([f"output[{i}]" for i in points], EQ, 0.0,
              [ypred, *delta.T], [1.0] + [-1.0] * len(nn)),
        # Absolute-value splits for residuals and coefficients.
        _rows([f"resid_split[{i}]" for i in points], EQ, data.y,
              [epos, eneg, ypred], [1.0, -1.0, 1.0]),
        _rows([f"coef_split[{k},{n}]" for k, n in func_nodes], EQ, 0.0,
              [cpos, cneg, c], [1.0, -1.0, -1.0]),
    ]
    names, row_lo, row_hi, cols, vals = zip(*families)
    row_names = [name for family in names for name in family]
    widths = np.repeat([fc.shape[1] for fc in cols], [len(fn) for fn in names])
    rows = np.repeat(np.arange(len(row_names)), widths)

    cost = np.zeros(len(var_names))
    cost[epos] = cost[eneg] = 1.0 / data.n_points
    cost[d] = cfg.lambda_c
    cost[cpos] = cost[cneg] = cfg.lambda_m

    A = sparse.csc_array((np.concatenate([fv.ravel() for fv in vals]),
                          (rows, np.concatenate([fc.ravel() for fc in cols]))),
                         shape=(len(row_names), len(var_names)))
    A.eliminate_zeros()
    *bounds, sizes = zip(*blocks)
    integrality, lo, hi = (np.repeat(v, sizes) for v in bounds)
    return MilpArtifact(cost=cost, A=A, row_lo=np.concatenate(row_lo),
                        row_hi=np.concatenate(row_hi), lo=lo, hi=hi, integrality=integrality,
                        var_names=var_names, var_mps=var_mps, row_names=row_names,
                        data=data, basis=basis, cfg=cfg, y_bounds=(y_lb, y_ub), index=index)


def _fmt12(values: list) -> list:
    """Each value in at most 12 characters, to as many significant digits as
    fit. Three always do: the longest such form of a float is -1.23e-308, at
    10. Each precision, from 12 down, is one %-format over the values that
    are still too wide at the precision above it."""
    out, todo = list(values), range(len(values))
    for prec in range(12, 2, -1):
        strs = (f"%.{prec}g\0" * len(todo) % tuple([values[i] for i in todo])).split("\0")
        for i, s in zip(todo, strs):
            out[i] = s
        todo = [i for i, s in zip(todo, strs) if len(s) > 12]
    return out


def _field(names: list, width: int) -> np.ndarray:
    """ASCII names left-justified in ``width`` bytes, one row each."""
    a = np.array(names, dtype=f"S{width}").view(np.uint8).reshape(len(names), width)
    a[a == 0] = _SPACE
    return a


def _repeat(text: bytes, n: int) -> np.ndarray:
    """The same bytes in each of n rows."""
    return np.broadcast_to(np.frombuffer(text, dtype=np.uint8), (n, len(text)))


def _lines(block: np.ndarray) -> str:
    """The rows of a block, each ending in a newline, as text lines cut after
    their last non-blank byte (as ``str.rstrip`` cuts them)."""
    width = block.shape[1] - 1
    end = (width - np.argmax(block[:, width - 1::-1] != _SPACE, axis=1)).astype(np.uint8)
    col = np.arange(width + 1, dtype=np.uint8)
    return block[(col < end[:, None]) | (col == width)].tobytes().decode("ascii")


def _pair_block(heads: np.ndarray, counts: np.ndarray, row_ids: np.ndarray,
                value_ids: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Data lines holding (row, value) cells two to a line: heads[j] heads
    ceil(counts[j] / 2) lines, which hold the next counts[j] cells. Cell k is
    rows[row_ids[k]] then values[value_ids[k]], at column 14 or 39; the blank
    last row of each table fills the second cell of a line holding one."""
    per, odd = (counts + 1) // 2, counts % 2
    # Cell k's place once a blank cell follows each odd count.
    place = np.arange(len(row_ids)) + np.repeat(np.cumsum(odd) - odd, counts)
    n = int(per.sum())
    r, v = np.full(2 * n, -1), np.full(2 * n, -1)
    r[place], v[place] = row_ids, value_ids
    return np.hstack([_repeat(b"    ", n), heads.repeat(per, axis=0),
                      rows[r[0::2]], values[v[0::2]], _repeat(b"   ", n),
                      rows[r[1::2]], values[v[1::2]], _repeat(b"\n", n)])


def mps_text(art: MilpArtifact) -> str:
    """Fixed-format MPS document (NAME/ROWS/COLUMNS/RHS/BOUNDS/ENDATA).

    Each section is one block of fixed-width byte lines, gathered from tables
    of padded names and values and cut line by line after its last non-blank
    byte."""
    if not art.n_rows:
        raise ConfigError("refusing to export an artifact with no constraint rows")
    le, lo, hi, n = np.isinf(art.row_lo), art.lo, art.hi, art.n_vars
    rhs = np.where(le, art.row_hi, art.row_lo)
    # Column-major entries of [cost; A]: variable order, then row order.
    cols = sparse.vstack([sparse.csc_array(art.cost[None, :]), art.A], format="csc")
    # Bound lines: one of kind BV, FR, MI or LO, then one UP, per variable.
    kind = np.select([art.integrality == BINARY, (lo == -np.inf) & (hi == np.inf),
                      lo == -np.inf], [0, 1, 2], 3)
    lo_line, up = (kind == 3) & (lo != 0.0), (kind >= 2) & (hi != np.inf)
    written = [cols.data, rhs[rhs != 0.0], lo[lo_line], hi[up]]
    # Each distinct value formatted once. Its bits are the key, so 0.0 and
    # -0.0 (written only as UP bounds) print apart.
    bits, inverse = np.unique(np.concatenate(written).view(np.int64), return_inverse=True)
    at_cols, at_rhs, at_lo, at_hi = np.split(inverse.reshape(-1),
                                             np.cumsum([len(w) for w in written[:-1]]))
    values = _field(_fmt12(bits.view(float).tolist()) + [""], 12)
    labels = np.vstack([_field(["OBJ"], 10), art.row_labels, _field([""], 10)])
    var_labels = _field(art.var_mps, 10)

    sense = np.where(art.row_lo == art.row_hi, ord("E"), np.where(le, ord("L"), ord("G")))
    rows = np.hstack([_repeat(b" ", art.n_rows), sense.astype(np.uint8)[:, None],
                      _repeat(b"  ", art.n_rows), labels[1:-1], _repeat(b"\n", art.n_rows)])
    columns = _pair_block(var_labels, np.diff(cols.indptr), cols.indices, at_cols,
                          labels, values)
    rhs_rows = np.flatnonzero(rhs) + 1
    rhs_block = _pair_block(_field(["RHS"], 10), np.array([len(rhs_rows)]), rhs_rows,
                            at_rhs, labels, values)
    lo_at, hi_at = np.full(n, -1), np.full(n, -1)
    lo_at[lo_line], hi_at[up] = at_lo, at_hi

    def bound_lines(codes, at):
        return np.hstack([_repeat(b" ", n), codes, _repeat(b" BND       ", n), var_labels,
                          values[at], _repeat(b"\n", n)])

    bounds = np.stack([bound_lines(_field(["BV", "FR", "MI", "LO"], 2)[kind], lo_at),
                       bound_lines(_repeat(b"UP", n), hi_at)], axis=1)
    return "".join(["NAME          SYMTREE\nROWS\n N  OBJ\n", _lines(rows),
                    "COLUMNS\n", _lines(columns), "RHS\n", _lines(rhs_block),
                    "BOUNDS\n", _lines(bounds[np.stack([(kind < 3) | lo_line, up], axis=1)]),
                    "ENDATA\n"])


def name_map(art: MilpArtifact) -> dict:
    return {
        "variables": dict(zip(art.var_mps, art.var_names)),
        "rows": dict(zip(art.row_mps, art.row_names)),
    }


def write_mps(art: MilpArtifact, path) -> None:
    """Write the MPS file plus the sidecar machine-name map (<path>.names.json)."""
    text = mps_text(art)
    path = str(path)
    with open(path, "w") as fh:
        fh.write(text)
    sidecar = (path[:-4] if path.endswith(".mps") else path) + ".names.json"
    with open(sidecar, "w") as fh:
        json.dump(name_map(art), fh, indent=2)


def parse_mps_counts(text: str) -> dict:
    """Re-parse an MPS document; returns row/variable/binary counts."""
    section = None
    rows, cols, binaries = set(), set(), set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.startswith("*"):
            continue
        if not raw.startswith(" "):
            section = raw.split()[0]
            if section not in ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES",
                               "BOUNDS", "ENDATA"):
                raise ParseError(f"line {lineno}: unknown section {section!r}")
            continue
        fields = raw.split()
        if section == "ROWS":
            if len(fields) != 2 or fields[0] not in {"N", "L", "E", "G"}:
                raise ParseError(f"line {lineno}: malformed row declaration")
            if fields[0] != "N":
                rows.add(fields[1])
        elif section == "COLUMNS":
            cols.add(fields[0])
        elif section == "BOUNDS":
            if len(fields) < 3:
                raise ParseError(f"line {lineno}: bound needs a type, a set and a column")
            if fields[0] == "BV":
                binaries.add(fields[2])
            cols.add(fields[2])
    return {"n_rows": len(rows), "n_vars": len(cols), "n_binary": len(binaries)}


def parse_solution_text(text: str) -> dict:
    """'name value' per line; '#' starts a comment; returns name -> float.
    A name given twice is refused."""
    out, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'name value'")
        if parts[0] in first_line:
            raise ParseError(f"line {lineno}: {parts[0]!r} already given on "
                             f"line {first_line[parts[0]]}")
        first_line[parts[0]] = lineno
        try:
            out[parts[0]] = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad value {parts[1]!r}") from exc
        if not np.isfinite(out[parts[0]]):
            raise ParseError(f"line {lineno}: non-finite value {parts[1]!r}")
    return out


@dataclass
class DecodedSolution:
    model: TreeModel
    objective: float            # recomputed internally
    claimed_objective: float    # as provided by the solver, or None


def _binary(art: MilpArtifact, assign: dict, name: str) -> int:
    v = art.var_value(assign, art.index[name])
    if v is None:
        raise StructureError(f"assignment missing binary {name}")
    if abs(v - round(v)) > INT_TOL:
        raise IntegralityError(f"{name} = {v!r} is not within {INT_TOL:g} of binary")
    return int(round(v))


def read_solution(art: MilpArtifact, assignments: dict) -> DecodedSolution:
    """Decode an external assignment into a TreeModel and re-score it.

    Branches are the nodes with d = 1, leaves their children that do not
    branch, and each point's z selects one leaf. Thresholds come from the
    routing z, not from b, which a solver meets only to its feasibility
    tolerance: a b on a data value would send that point the other way.
    Missing leaf coefficients are refitted. The decoded tree must route
    every point to its z leaf."""
    cfg, data = art.cfg, art.data
    nn = range(1, 2 ** (cfg.depth + 1))
    branch_ids = {n for n in nn if _binary(art, assignments, f"d[{n}]")}
    leaf_ids = {n for n in nn[1:] if n // 2 in branch_ids and n not in branch_ids}
    shape = _shape_violations(cfg.depth, branch_ids, leaf_ids)
    if shape:
        raise StructureError("; ".join(shape))

    # Leaf of each data point from z, and the points on each side of a branch.
    assigned, sides = {}, {m: ([], []) for m in branch_ids}
    for i in range(1, data.n_points + 1):
        hits = [n for n in nn if _binary(art, assignments, f"z[{i},{n}]")]
        if len(hits) != 1 or hits[0] not in leaf_ids:
            raise StructureError(f"data point {i} selects nodes {hits}, not one leaf")
        assigned[i] = n = hits[0]
        for m in ancestors(n):
            sides[m][child_toward(m, n) % 2].append(i - 1)

    rules = {}
    for m in sorted(branch_ids):
        hot = [f for f in range(1, data.n_features + 1)
               if _binary(art, assignments, f"a[{f},{m}]")]
        if len(hot) != 1:
            raise StructureError(f"branch node {m} selects {len(hot)} features")
        f = hot[0] - 1
        rules[m] = BranchRule(feature=f, threshold=_threshold(
            *(data.X[side, f].tolist() for side in sides[m])))

    Phi = evaluate_basis_matrix(art.basis, data.X)
    leaves = {}
    for n in sorted(leaf_ids):
        coeffs = [art.var_value(assignments, art.index[f"c[{k},{n}]"])
                  for k in range(1, art.basis.size + 1)]
        if any(v is None for v in coeffs):
            idx = [i - 1 for i in range(1, data.n_points + 1) if assigned[i] == n]
            coeffs, _ = fit_l1(Phi[idx], data.y[idx], 1.0 / data.n_points,
                               cfg.lambda_m, (cfg.c_lb, cfg.c_ub),
                               y_bounds=art.y_bounds)
        leaves[n] = LeafExpression(coefficients=tuple(float(v) for v in coeffs))

    model = TreeModel(
        depth=cfg.depth, rules=rules, leaves=leaves, basis=art.basis,
        bounds=Bounds(cfg.c_lb, cfg.c_ub, art.y_bounds[0], art.y_bounds[1]),
    )
    for i, n in assigned.items():
        reached = route(model, data.X[i - 1])
        if reached != n:
            raise StructureError(f"data point {i} is assigned to leaf {n}, but no "
                                 f"threshold sends it there (it reaches node {reached})")
    recomputed, _ = objective_of(model, data, cfg)
    claimed = assignments.get("objective", assignments.get("OBJ"))
    return DecodedSolution(model=model, objective=recomputed, claimed_objective=claimed)


def _threshold(lefts: list, rights: list) -> float:
    """A threshold between the values sent left and those sent right, placed
    as ``fit_tree`` places it: by ``split_thresholds`` between the two sides,
    or EMPTY_SIDE_OFFSET beyond the values when one side is empty. Sides
    that no threshold separates get the midpoint."""
    if lefts and rights:
        lo, hi = max(lefts), min(rights)
        return float(split_thresholds(lo, hi) if lo < hi else (lo + hi) / 2.0)
    if rights:
        return float(min(rights)) - EMPTY_SIDE_OFFSET
    if lefts:
        return float(max(lefts)) + EMPTY_SIDE_OFFSET
    return 0.0

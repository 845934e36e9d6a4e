"""Spans around symtree's layer calls, recorded from the benchmark's side.

symtree modules import each other's functions by name (``learner`` calls its
own ``fit_l1`` binding, ``closed_loop`` its own ``predict``), so a span around
a layer call has to replace the attribute of the *calling* module. ``SITES``
lists every such binding the workloads go through. ``Tracer.install`` fails if
a site no longer exists and ``Tracer.check_hits`` if an expected site was
never called (every workload goes through every site), so a refactor that
moves a call fails loudly instead of reporting 0.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Site:
    module: str        # calling module, e.g. "symtree.learner"
    attr: str          # the name it calls through, e.g. "fit_l1"
    span: str          # span name: "<layer>.<function>"


def _observe_minimize(tracer, res):
    tracer.count("mpc.minimize.nit", int(res.nit))
    tracer.count("mpc.minimize.nfev", int(res.nfev))


def _observe_solve(tracer, sol):
    tracer.high("mpc.kkt_residual.max", float(sol.kkt_residual))


# The benchmark itself calls fit_tree, the baselines, build_milp, mps_text,
# tree.predict and simulate through these same attributes; generate_dataset
# is not wrapped, its solve_mpc and minimize calls are.
SITES = (
    Site("symtree.learner", "fit_tree", "learner.fit_tree"),
    Site("symtree.learner", "fit_l1", "lp.fit_l1"),
    Site("symtree.learner", "evaluate_basis_matrix", "basis.evaluate_basis_matrix"),
    Site("symtree.learner", "objective_of", "learner.objective_of"),
    Site("symtree.learner", "predict", "tree.predict"),
    Site("symtree.baselines", "fit_sparse", "baselines.fit_sparse"),
    Site("symtree.baselines", "fit_cart_constant", "baselines.fit_cart_constant"),
    Site("symtree.baselines", "fit_cart_linear", "baselines.fit_cart_linear"),
    Site("symtree.baselines", "fit_l1", "lp.fit_l1"),
    Site("symtree.baselines", "evaluate_basis_matrix", "basis.evaluate_basis_matrix"),
    Site("symtree.milp", "build_milp", "milp.build_milp"),
    Site("symtree.milp", "mps_text", "milp.mps_text"),
    Site("symtree.milp", "evaluate_basis_matrix", "basis.evaluate_basis_matrix"),
    Site("symtree.tree", "predict", "tree.predict"),
    Site("symtree.tree", "evaluate_basis", "basis.evaluate_basis"),
    Site("symtree.closed_loop", "simulate", "closed_loop.simulate"),
    Site("symtree.closed_loop", "integrate_hold", "closed_loop.integrate_hold"),
    Site("symtree.closed_loop", "predict", "tree.predict"),
    Site("symtree.closed_loop", "solve_mpc", "mpc.solve_mpc"),
    Site("symtree.mpc", "solve_mpc", "mpc.solve_mpc"),
    Site("symtree.mpc", "minimize", "mpc.minimize"),
)

_OBSERVERS = {"mpc.minimize": _observe_minimize, "mpc.solve_mpc": _observe_solve}


@contextlib.contextmanager
def patched(module: str, attr: str, make_wrapper):
    """Replace module.attr with make_wrapper(original) for the block."""
    mod = importlib.import_module(module)
    if not hasattr(mod, attr):
        raise RuntimeError(f"call site {module}.{attr} no longer exists")
    original = getattr(mod, attr)
    setattr(mod, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(mod, attr, original)


class NullTracer:
    """Tracing off: phase spans cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Spans (name, start, end, parent, root) kept in memory, plus counters.

    A span's root is the index of its outermost ancestor, which plays the part
    of a request id: every span under one interleaved unit of work (a
    'phase.<stage>' span) shares it.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.names, self.starts, self.ends, self.parents, self.roots = [], [], [], [], []
        self.counters = {}
        self._stack = []
        self._sites_hit = set()

    def _open(self, name):
        i = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(i if parent < 0 else self.roots[parent])
        self.ends.append(float("nan"))
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def high(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    def _wrap(self, site: Site):
        observe = _OBSERVERS.get(site.span)
        key = (site.module, site.attr)

        def make(fn):
            def traced(*args, **kwargs):
                self._sites_hit.add(key)
                i = self._open(site.span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(i)
                if observe is not None:
                    observe(self, result)
                return result
            return traced
        return make

    def install(self, stack: contextlib.ExitStack):
        """Wrap every site for the life of the exit stack."""
        for site in SITES:
            stack.enter_context(patched(site.module, site.attr, self._wrap(site)))

    def check_hits(self):
        missed = [f"{s.module}.{s.attr}" for s in SITES
                  if (s.module, s.attr) not in self._sites_hit]
        if missed:
            raise RuntimeError(f"{self.workload}: call sites never hit: {', '.join(missed)}")

    def write(self, path, run_id: str):
        """Spans as gzipped JSON lines, one per span, after a header line."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"run_id": run_id, "workload": self.workload,
                                 "counters": self.counters}) + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"i": i, "name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i],
                                     "root": self.roots[i]}) + "\n")


def layer_metrics(tracer: Tracer, facts: dict) -> dict:
    """Every per-layer number of one traced pass (check_hits has passed, so
    every site ran at least once).

    `facts` carries the numbers read from results (FitReport, MilpArtifact)
    rather than from spans.
    """
    names = np.asarray(tracer.names, dtype=object)
    dur = np.asarray(tracer.ends) - np.asarray(tracer.starts)
    parents = np.asarray(tracer.parents, dtype=int)
    child_time = np.zeros(len(names))
    np.add.at(child_time, parents[parents >= 0], dur[parents >= 0])

    def busy(name):
        return float(np.sum(dur[names == name]))

    def calls(name):
        return int(np.count_nonzero(names == name))

    def p50(name, scale):
        return float(np.median(dur[names == name])) * scale

    def self_time(name, under):
        """Summed self time of `name` spans directly under an `under` span:
        duration minus the time their direct children cover (calls are
        single-threaded, so children never overlap)."""
        picked = (names == name) & (parents >= 0)
        picked[picked] = names[parents[picked]] == under
        return float(np.sum(dur[picked] - child_time[picked]))

    c = tracer.counters
    out = {
        "lp.fit_l1.calls": calls("lp.fit_l1"),
        "lp.fit_l1.busy_s": busy("lp.fit_l1"),
        "lp.fit_l1.p50_ms": p50("lp.fit_l1", 1e3),
        "learner.fit.self_s": self_time("learner.fit_tree", "phase.fit"),
        "learner.fit_deep.self_s": self_time("learner.fit_tree", "phase.fit_deep"),
        "learner.objective_of.busy_s": busy("learner.objective_of"),
        "tree.predict.p50_us": p50("tree.predict", 1e6),
        "mpc.solve_mpc.p50_ms": p50("mpc.solve_mpc", 1e3),
        "mpc.minimize.nit": c["mpc.minimize.nit"],
        "mpc.minimize.nfev": c["mpc.minimize.nfev"],
        "mpc.minimize.per_solve": calls("mpc.minimize") / calls("mpc.solve_mpc"),
        "mpc.kkt_residual.max": c["mpc.kkt_residual.max"],
    }
    for name in ("basis.evaluate_basis_matrix", "basis.evaluate_basis", "tree.predict",
                 "mpc.solve_mpc", "closed_loop.integrate_hold"):
        out[name + ".calls"] = calls(name)
        out[name + ".busy_s"] = busy(name)
    for name in ("closed_loop.simulate", "mpc.minimize"):
        out[name + ".calls"] = calls(name)
    for name in ("milp.build_milp", "milp.mps_text", "baselines.fit_sparse",
                 "baselines.fit_cart_constant", "baselines.fit_cart_linear"):
        out[name + ".busy_s"] = busy(name)
    out.update(facts)
    return out

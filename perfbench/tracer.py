"""Per-layer tracing from outside the solver, by wrapping module attributes.

`Tracer.install()` replaces public functions where the solver modules look
them up (for example `rootedpack.solver_arb.is_k_root_connected` or
`RootedDigraph.reach_mask`) with wrappers that record a span per call;
`uninstall()` puts the originals back.  Nothing under `src/` changes.

Spans live in flat arrays until the run ends: name id, parent span, root
span and start/end times.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict

import rootedpack
from rootedpack import (
    connectivity,
    flows,
    fptcommon,
    graphs,
    matroid,
    reports,
    solver_arb,
    solver_flow,
    solver_tree,
)

# span name -> every (owner, attribute) the solvers call it through
_SPANNED = {
    "graphs.parse": [(graphs, "parse_instance")],
    "graphs.cap_parallel": [(m, "cap_parallel") for m in (solver_arb, solver_flow, solver_tree)],
    "graphs.reach_mask": [(graphs.RootedDigraph, "reach_mask"),
                          (graphs.RootedGraph, "reach_mask")],
    "connectivity.gate": [(solver_arb, "is_k_root_connected"),
                          (solver_flow, "is_k_root_connected")],
    "connectivity.max_flow": [(connectivity, "max_flow"), (flows, "max_flow"),
                              (solver_flow, "max_flow")],
    "fptcommon.grow": [(solver_arb, "grow_directed_pair"),
                       (solver_flow, "grow_directed_pair")],
    "fptcommon.complete": [(solver_arb, "complete_directed_pair"),
                           (solver_flow, "complete_directed_pair")],
    "fptcommon.pair_search": [(fptcommon.PairSearch, "find_first")],
    "fptcommon.branch_structure": [(solver_arb, "branch_structure"),
                                   (solver_tree, "branch_structure")],
    "solver_arb.solve": [(rootedpack, "solve_arb")],
    "solver_flow.solve": [(rootedpack, "solve_flow")],
    "solver_tree.solve": [(rootedpack, "solve_tree")],
    "matroid.max_forest_pair": [(solver_tree, "max_forest_pair"),
                                (matroid, "max_forest_pair")],
    "flows.complete": [(solver_flow, "complete_to_spanning_flow")],
    "oracles.validate": [(m, "validate_witness") for m in (solver_arb, solver_flow, solver_tree)],
    "reports.serialize": [(reports.SolveReport, "to_json")],
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_root = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records one span called `name`."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parents, roots = self.span_name, self.span_parent, self.span_root
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            roots.append(stack[0] if stack else idx)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _counted(self, fn, record):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        shared = {}
        for name, sites in _SPANNED.items():
            for owner, attr in sites:
                original = vars(owner)[attr]
                if original not in shared:
                    shared[original] = self.span(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, shared[original])
        counts = self.counts

        def reach(ok):
            counts["reach_calls"] += 1
            counts["reach_ok"] += bool(ok)

        def pairs(result):
            counts["pair_tests"] += result[1]

        def completion(done):
            counts["complete_stalls"] += not done

        # these wrap the span wrappers above, so counting stays outside spans
        self._replace(graphs.RootedDigraph, "is_root_connected_without",
                      lambda f: self._counted(f, reach))
        self._replace(fptcommon.PairSearch, "find_first",
                      lambda f: self._counted(f, pairs))
        for module in (solver_arb, solver_flow):
            self._replace(module, "complete_directed_pair",
                          lambda f: self._counted(f, completion))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation ---------------------------------------------------

    def _self_times(self) -> tuple[list[float], list[float]]:
        """(duration, self time) per span."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        own = list(durations)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= durations[idx]
        return durations, own

    def layer_totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(inclusive time, self time, call count) per span name."""
        durations, own = self._self_times()
        total: dict[str, float] = defaultdict(float)
        own_total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, nid in enumerate(self.span_name):
            name = self.names[nid]
            total[name] += durations[idx]
            own_total[name] += own[idx]
            calls[name] += 1
        return total, own_total, calls

    def self_by_root(self) -> dict[str, dict[str, float]]:
        """Self time per span name, grouped by the name of the root span."""
        _, own = self._self_times()
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, nid in enumerate(self.span_name):
            root = self.names[self.span_name[self.span_root[idx]]]
            out[root][self.names[nid]] += own[idx]
        return out

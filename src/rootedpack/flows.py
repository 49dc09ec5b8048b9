"""Branching-flow feasibility, recognition, decomposition, and pruning.

A branching flow delivers one net unit to every non-root vertex and pushes
n-1 units out of the root.  Feasibility is a single max-flow with a unit
demand per vertex aggregated into a super-sink; integrality of max-flow
supplies integer witnesses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .connectivity import FlowNetwork, max_flow
from .errors import ContractError
from .graphs import ArcSelection, RootedDigraph

@dataclass(frozen=True)
class BranchingFlow:
    """Integer flow per arc id, against a fixed capacity context."""

    values: Mapping[int, int]
    caps: Mapping[int, int]

    def to_json(self) -> list[list[int]]:
        return [[aid, val] for aid, val in sorted(self.values.items()) if val > 0]


@dataclass(frozen=True)
class FlowDecomposition:
    """One root-to-v unit path flow per vertex, plus unit cycle flows."""

    paths: Mapping[int, tuple[int, ...]]
    cycles: tuple[tuple[int, ...], ...]

    def recompose(self) -> dict[int, int]:
        total: dict[int, int] = {}
        for arcs in self.paths.values():
            for aid in arcs:
                total[aid] = total.get(aid, 0) + 1
        for arcs in self.cycles:
            for aid in arcs:
                total[aid] = total.get(aid, 0) + 1
        return total


def _resolve(x: Union[RootedDigraph, ArcSelection]) -> tuple[RootedDigraph, tuple[int, ...], frozenset[int]]:
    """(parent graph, arc ids ascending, vertex set) for a graph or a selection.

    For a bare graph the vertex set is everything; for a selection it is the
    covered vertices plus the root.
    """
    if isinstance(x, RootedDigraph):
        return x, x.arc_ids, frozenset(range(x.n))
    sel = x
    return sel.graph, sel.sorted_ids(), sel.covered_vertices(with_root=True)


def branching_flow_feasible(
    x: Union[RootedDigraph, ArcSelection],
    caps: int,
    vertex_set: Optional[frozenset[int]] = None,
) -> Optional[BranchingFlow]:
    """Witness flow delivering one unit to every vertex of the set, or None.

    Every arc has capacity `caps`.  The network routes root -> arcs ->
    per-vertex unit demands -> super-sink; feasible iff the max-flow value is
    |vertex_set| - 1.
    """
    graph, ids, vset = _resolve(x)
    if vertex_set is not None:
        vset = vertex_set
    root = graph.root
    if root not in vset:
        raise ContractError("vertex set must contain the root")
    sink = graph.n
    net = FlowNetwork(n_nodes=graph.n + 1, source=root, sink=sink)
    tagged: list[tuple[int, int]] = []
    for aid in ids:
        u, v = graph.arc(aid)
        if u not in vset or v not in vset:
            return None
        if caps < 0:
            raise ContractError(f"negative capacity for arc {aid}")
        tagged.append((aid, net.add_arc(u, v, caps)))
    demand = 0
    for v in sorted(vset):
        if v != root:
            net.add_arc(v, sink, 1)
            demand += 1
    value, flows = max_flow(net)
    if value != demand:
        return None
    values = {aid: flows[idx] for aid, idx in tagged}
    return BranchingFlow(values=values, caps=dict.fromkeys(ids, caps))


def is_spanning_rk_flow_branching(dig: RootedDigraph, selection: ArcSelection, k: int) -> bool:
    """True iff the selection spans D and admits a flow under uniform caps n-k."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    caps = max(dig.n - k, 0)
    flow = branching_flow_feasible(selection, caps, vertex_set=frozenset(range(dig.n)))
    return flow is not None


def validate_branching_flow(
    x: Union[RootedDigraph, ArcSelection],
    z: BranchingFlow,
    vertex_set: Optional[frozenset[int]] = None,
) -> bool:
    """Check conservation, demands and caps of a stated flow."""
    graph, ids, vset = _resolve(x)
    if vertex_set is not None:
        vset = vertex_set
    idset = set(ids)
    for aid, val in z.values.items():
        if aid not in idset or val < 0 or val > z.caps.get(aid, 0):
            return False
    net = {v: 0 for v in vset}
    for aid in ids:
        u, v = graph.arc(aid)
        val = z.values.get(aid, 0)
        net[v] += val
        net[u] -= val
    for v in vset:
        want = -(len(vset) - 1) if v == graph.root else 1
        if net[v] != want:
            return False
    return True


def decompose_flow(x: Union[RootedDigraph, ArcSelection], z: BranchingFlow) -> FlowDecomposition:
    """Split a branching flow into per-vertex path flows plus cycle flows.

    Paths are extracted per vertex in ascending order along canonical
    shortest routes through the remaining flow support; the leftover
    circulation is peeled into unit cycles.  The parts recompose exactly.
    """
    graph, ids, vset = _resolve(x)
    if not validate_branching_flow(x, z, vset):
        raise ContractError("not a valid branching flow for this subdigraph")
    rem = {aid: z.values.get(aid, 0) for aid in ids}
    root = graph.root
    out_arcs: dict[int, list[int]] = {v: [] for v in vset}
    for aid in ids:  # ascending, so each list is sorted
        u, _ = graph.arc(aid)
        out_arcs[u].append(aid)

    def bfs_path(target: int) -> tuple[int, ...]:
        prev: dict[int, int] = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if u == target:
                break
            for aid in out_arcs[u]:
                if rem[aid] > 0:
                    w = graph.arc(aid)[1]
                    if w not in prev:
                        prev[w] = aid
                        queue.append(w)
        if target not in prev:
            raise ContractError("flow support does not reach every vertex")
        arcs = []
        w = target
        while w != root:
            aid = prev[w]
            arcs.append(aid)
            w = graph.arc(aid)[0]
        return tuple(reversed(arcs))

    paths: dict[int, tuple[int, ...]] = {}
    for v in sorted(vset):
        if v == root:
            continue
        path = bfs_path(v)
        for aid in path:
            rem[aid] -= 1
        paths[v] = path
    cycles: list[tuple[int, ...]] = []
    while True:
        start = next((aid for aid in sorted(rem) if rem[aid] > 0), None)
        if start is None:
            break
        # walk forward along the support circulation until a vertex repeats
        walk = [start]
        seen_at = {graph.arc(start)[0]: 0}
        v = graph.arc(start)[1]
        while v not in seen_at:
            seen_at[v] = len(walk)
            nxt = next(aid for aid in out_arcs[v] if rem[aid] > 0)
            walk.append(nxt)
            v = graph.arc(nxt)[1]
        cycle = tuple(walk[seen_at[v]:])
        for aid in cycle:
            rem[aid] -= 1
        cycles.append(cycle)
    return FlowDecomposition(paths=paths, cycles=tuple(cycles))


def minimize_flow_branching(x: Union[RootedDigraph, ArcSelection], k: int) -> ArcSelection:
    """Greedy inclusion-minimal sub-selection that still carries a branching flow.

    Arcs are dropped in ascending id order when feasibility survives; by
    monotonicity a single pass reaches an inclusion-minimal set.  When the
    vertex set has at least 2k-1 non-root vertices the result is triple-free.

    Library API for the triple-free reduction behind the flow results: no
    solve stage calls it, and the acceptance property suites test it.
    """
    graph, ids, vset = _resolve(x)
    caps = max(len(vset) - k, 0)
    if branching_flow_feasible(graph.selection(ids), caps, vertex_set=vset) is None:
        raise ContractError("input is not an (r,k)-flow branching")
    keep = set(ids)
    for aid in sorted(ids):
        keep.discard(aid)
        if branching_flow_feasible(graph.selection(keep), caps, vertex_set=vset) is None:
            keep.add(aid)
    return graph.selection(keep)

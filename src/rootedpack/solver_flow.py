"""FPT solver for two arc-disjoint spanning (r,k)-flow branchings.

Mirrors the arborescence pipeline with flow-specific pieces: largeness
threshold 20k^2+1, candidate pool depth 2k-1, cores as arbitrary subdigraphs
validated by one aggregated max-flow, and a completion that routes every new
vertex's unit along its anchor's path flow from the core decomposition, which
keeps core arcs within the uniform capacity n-k.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .connectivity import FlowNetwork, is_extendable_pair, is_k_root_connected, max_flow
from .errors import ContractError, InternalError
from .flows import BranchingFlow, branching_flow_feasible, decompose_flow, validate_branching_flow
from .fptcommon import (
    DirectedState,
    LargenessView,
    SolveOptions,
    Stages,
    classify,
    complete_directed_pair,
    depth_bounded_pool,
    grow_directed_pair,
    run_pipeline,
)
from .graphs import ArcSelection, ProblemInstance, RootedDigraph, cap_parallel
from .oracles import oracle_flow, validate_witness
from .reports import SolveReport


@dataclass(frozen=True)
class CompactCore:
    """A pruned core candidate plus its attachment witness."""

    vertices: frozenset[int]
    arcs: ArcSelection
    attachment: Mapping[int, int]


def classify_vertices_flow(dig: RootedDigraph, k: int) -> LargenessView:
    """Large iff at least 20k^2+1 distinct out-neighbors."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    return classify(dig.n, dig.out_neighbors, k, 20 * k * k + 1)


def candidate_pool_flow(dig: RootedDigraph, k: int) -> frozenset[int]:
    """Vertices reachable by length-(2k-1) paths with small interiors."""
    view = classify_vertices_flow(dig, k)
    return depth_bounded_pool(dig.out_neighbors, dig.root, 2 * k - 1, view.large)


def _aggregated_feasibility(
    dig: RootedDigraph,
    class_counts: Mapping[tuple[int, int], int],
    verts: frozenset[int],
    anchors: tuple[int, ...],
    residual: int,
    k: int,
) -> Optional[dict[int, int]]:
    """Attachment witness by one max-flow, or None.

    Arcs are capped at k (the capacity inside the 2k-vertex structure Y),
    every vertex of V' demands one unit, and an aggregated demand of
    `residual` units may leave only through the anchors; the per-anchor
    split is read off the integral flow.
    """
    if residual > 0 and not anchors:
        return None
    sink = dig.n
    agg = dig.n + 1
    net = FlowNetwork(n_nodes=dig.n + 2, source=dig.root, sink=sink)
    for (u, v), count in sorted(class_counts.items()):
        if count > 0:
            net.add_arc(u, v, count * k)
    for v in sorted(verts):
        net.add_arc(v, sink, 1)
    anchor_arcs = {}
    if residual > 0:
        for v in anchors:
            anchor_arcs[v] = net.add_arc(v, agg, residual)
        net.add_arc(agg, sink, residual)
    value, flows = max_flow(net)
    if value != len(verts) + residual:
        return None
    return {v: flows[idx] for v, idx in sorted(anchor_arcs.items()) if flows[idx] > 0}


def validate_compact_core(
    dig: RootedDigraph, k: int, x: ArcSelection
) -> Optional[dict[int, int]]:
    """Attachment witness when the selection is a compact core, else None."""
    verts = x.covered_vertices() - {dig.root}
    if len(verts) > 2 * k - 1 or (not verts and 2 * k - 1 > 0):
        return None
    view = classify_vertices_flow(dig, k)
    counts: dict[tuple[int, int], int] = {}
    for aid in x.sorted_ids():
        u, v = dig.arc(aid)
        if u != dig.root and u in view.large:
            return None  # large vertices must be sinks
        counts[(u, v)] = counts.get((u, v), 0) + 1
    residual = (2 * k - 1) - len(verts)
    anchors = tuple(sorted(verts & view.large))
    return _aggregated_feasibility(dig, counts, frozenset(verts), anchors, residual, k)


def _core_shapes(
    dig: RootedDigraph, k: int, pool: frozenset[int], view: LargenessView
) -> list[tuple[frozenset[int], tuple[tuple[tuple[int, int], int], ...], dict[int, int]]]:
    """All valid core shapes: (V', per-class counts, attachment witness).

    Cores are arbitrary subdigraphs, so arcs are enumerated as per-class
    count vectors over the classes inside V'+r (at most two copies each, the
    triple-free reduction), pruned by the sink condition, per-vertex
    in-degree, root-connectivity, and finally the aggregated feasibility.
    """
    root = dig.root
    nonroot_pool = sorted(pool - {root})
    shapes = []
    max_size = 2 * k - 1
    for size in range(1, min(max_size, len(nonroot_pool)) + 1):
        for vset in itertools.combinations(nonroot_pool, size):
            verts = frozenset(vset)
            classes = []
            for u in sorted(verts | {root}):
                if u != root and u in view.large:
                    continue  # sink condition bars out-arcs of large vertices
                for v, ids in dig.out_classes(u):
                    if v in verts:
                        classes.append(((u, v), min(2, len(ids))))
            if not classes:
                continue
            ranges = [range(0, cap + 1) for _, cap in classes]
            for combo in itertools.product(*ranges):
                counts = {c: m for (c, _), m in zip(classes, combo) if m > 0}
                if not counts:
                    continue
                indeg = {v: 0 for v in verts}
                for (u, v), m in counts.items():
                    indeg[v] += m
                if any(d == 0 for d in indeg.values()):
                    continue
                if not _shape_root_connected(root, verts, counts):
                    continue
                anchors = tuple(sorted(verts & view.large))
                residual = max_size - len(verts)
                attachment = _aggregated_feasibility(
                    dig, counts, verts, anchors, residual, k)
                if attachment is not None:
                    shapes.append((verts, tuple(sorted(counts.items())), attachment))
    shapes.sort(key=lambda s: (len(s[0]), tuple(sorted(s[0])), s[1]))
    return shapes


def _shape_root_connected(root: int, verts: frozenset[int], counts: Mapping[tuple[int, int], int]) -> bool:
    adj: dict[int, list[int]] = {}
    for (u, v), m in counts.items():
        if m > 0:
            adj.setdefault(u, []).append(v)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj.get(u, ()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return verts <= seen


def enumerate_compact_cores(dig: RootedDigraph, k: int) -> Iterator[CompactCore]:
    """Every valid compact core (copy-distinct), canonical order."""
    view = classify_vertices_flow(dig, k)
    pool = candidate_pool_flow(dig, k)
    for verts, counts, attachment in _core_shapes(dig, k, pool, view):
        per_class = [
            itertools.combinations(dig.class_ids(u, v), m)
            for (u, v), m in counts
        ]
        for combos in itertools.product(*per_class):
            ids = frozenset(aid for chunk in combos for aid in chunk)
            yield CompactCore(
                vertices=verts, arcs=dig.selection(ids), attachment=dict(attachment))


def grow_to_classic_core(
    dig: RootedDigraph, k: int, pair: tuple[CompactCore, CompactCore],
    counters: Optional[dict] = None,
) -> tuple[ArcSelection, ArcSelection]:
    """Grow an extendable arc-disjoint (triple-free) compact core pair into
    classic cores: (r,k)-flow branchings on exactly 2k-1 non-root vertices."""
    c1, c2 = pair
    if c1.arcs.ids & c2.arcs.ids:
        raise ContractError("compact cores must be arc-disjoint")
    if not is_extendable_pair(dig, c1.arcs, c2.arcs):
        raise ContractError("compact core pair is not extendable")
    states = (
        DirectedState(ids=set(c1.arcs.ids), covered={dig.root} | set(c1.vertices)),
        DirectedState(ids=set(c2.arcs.ids), covered={dig.root} | set(c2.vertices)),
    )
    grow_directed_pair(dig, states, (dict(c1.attachment), dict(c2.attachment)), counters)
    out = []
    for state in states:
        sel = dig.selection(state.ids)
        verts = sel.covered_vertices(with_root=True)
        if len(verts) != 2 * k:
            raise InternalError("growth did not reach classic core size",
                                {"size": len(verts)})
        if branching_flow_feasible(sel, k, vertex_set=verts) is None:
            raise InternalError("grown core is not a flow branching", {})
        out.append(sel)
    return out[0], out[1]


def _routed_completion_flow(
    dig: RootedDigraph, k: int, core_ids: frozenset[int], all_ids: frozenset[int]
) -> BranchingFlow:
    """Witness flow for a completed branching: core flow plus one routed unit
    per new vertex along its attachment chain and its anchor's core path.

    Core arcs start at <= k units and gain at most n-2k, so every arc stays
    within the uniform capacity n-k; the bound is asserted.
    """
    caps = dig.n - k
    core_sel = dig.selection(core_ids)
    core_verts = core_sel.covered_vertices(with_root=True)
    z: dict[int, int] = {aid: 0 for aid in all_ids}
    if core_ids:
        core_flow = branching_flow_feasible(core_sel, min(k, caps), vertex_set=core_verts)
        if core_flow is None:
            raise InternalError("classic core lost feasibility", {})
        dec = decompose_flow(core_sel, core_flow)
        for aid, val in core_flow.values.items():
            z[aid] += val
        core_paths = {v: arcs for v, arcs in dec.paths.items()}
    else:
        core_paths = {}
    attach_parent: dict[int, int] = {}
    for aid in sorted(all_ids - core_ids):
        u, v = dig.arc(aid)
        attach_parent[v] = aid
    for w in sorted(attach_parent):
        chain = []
        v = w
        while v in attach_parent:
            aid = attach_parent[v]
            chain.append(aid)
            v = dig.arc(aid)[0]
        for aid in chain:
            z[aid] += 1
        if v != dig.root:
            for aid in core_paths[v]:
                z[aid] += 1
    over = [aid for aid, val in z.items() if val > caps]
    if over:
        raise InternalError("completion flow exceeds capacity n-k",
                            {"arcs": over[:5], "caps": caps})
    return BranchingFlow(values=z, caps={aid: caps for aid in all_ids})


def complete_to_spanning_flow(
    dig: RootedDigraph, k: int, pair: tuple[ArcSelection, ArcSelection]
) -> tuple[tuple[ArcSelection, BranchingFlow], tuple[ArcSelection, BranchingFlow]]:
    """Attach every uncovered vertex below the classic cores, greedily under
    the extendability invariant, and return both branchings with routed
    witness flows."""
    s1, s2 = pair
    states = (
        DirectedState(ids=set(s1.ids), covered=set(s1.covered_vertices(with_root=True))),
        DirectedState(ids=set(s2.ids), covered=set(s2.covered_vertices(with_root=True))),
    )
    if not complete_directed_pair(dig, states):
        fallback = _exhaustive_complete_flow(dig, k, frozenset(s1.ids), frozenset(s2.ids))
        if fallback is None:
            raise InternalError("flow completion stalled beyond fallback scale", {})
        return fallback
    results = []
    for state, core in zip(states, (s1, s2)):
        flow = _routed_completion_flow(dig, k, frozenset(core.ids), frozenset(state.ids))
        sel = dig.selection(state.ids)
        if not validate_branching_flow(sel, flow, vertex_set=frozenset(range(dig.n))):
            raise InternalError("routed completion flow is not a branching flow", {})
        results.append((sel, flow))
    return results[0], results[1]


def _exhaustive_complete_flow(
    dig: RootedDigraph, k: int, forced1: frozenset[int], forced2: frozenset[int]
) -> Optional[tuple[tuple[ArcSelection, BranchingFlow], tuple[ArcSelection, BranchingFlow]]]:
    """Desk-scale fallback: per-class splits of free copies, side 2 taking
    everything side 1 leaves; each side with its witness flow under the
    uniform capacity n-k."""
    caps = dig.n - k
    everything = frozenset(range(dig.n))
    mult = dig.parallel_classes()
    forced = forced1 | forced2
    free = [[aid for aid in mult[c] if aid not in forced] for c in sorted(mult)]
    combos = 1
    for ids in free:
        combos *= len(ids) + 1
    if combos > 2_000_000:
        return None
    for extras in itertools.product(*[range(len(ids) + 1) for ids in free]):
        ids1, ids2 = set(forced1), set(forced2)
        for ids, want1 in zip(free, extras):
            ids1.update(ids[:want1])
            ids2.update(ids[want1:])
        sel1, sel2 = dig.selection(ids1), dig.selection(ids2)
        flow1 = branching_flow_feasible(sel1, caps, vertex_set=everything)
        if flow1 is None:
            continue
        flow2 = branching_flow_feasible(sel2, caps, vertex_set=everything)
        if flow2 is None:
            continue
        return (sel1, flow1), (sel2, flow2)
    return None


def solve_flow(dig: RootedDigraph, k: int, options: Optional[SolveOptions] = None) -> SolveReport:
    """Decide and construct two arc-disjoint spanning (r,k)-flow branchings."""
    t0 = time.perf_counter()
    inst = cap_parallel(ProblemInstance(kind="flow", graph=dig, k=k))
    d: RootedDigraph = inst.graph

    def gate():
        ok2, cut = is_k_root_connected(d, 2)
        return None if ok2 else ("connectivity-gate", cut.to_json_dict())

    def shapes():
        return [(dict(counts), attachment) for _, counts, attachment
                in _core_shapes(d, k, candidate_pool_flow(d, k), classify_vertices_flow(d, k))]

    def finish(sides, counters):
        # every vertex of a core has an in-arc inside it, so V' is the head set
        pair = tuple(
            CompactCore(frozenset(v for _, v in counts), d.selection(ids), dict(attachment))
            for ids, (counts, attachment) in sides)
        cores = grow_to_classic_core(d, k, pair, counters)
        # no counters: flow reports have never carried completionSteps
        (sel1, flow1), (sel2, flow2) = complete_to_spanning_flow(d, k, cores)
        return {"tree1": sorted(sel1.ids), "tree2": sorted(sel2.ids),
                "flow1": flow1.to_json(), "flow2": flow2.to_json()}

    return run_pipeline(inst, options or SolveOptions(), Stages(
        started=t0, size=2 * k - 1, oracle=lambda budget: oracle_flow(d, k, budget),
        gate=gate, shape_counter="cores", shapes=shapes, finish=finish,
        validate=validate_witness,
        oracle_witness=lambda w: _flow_witness(d, k, w[0], w[1])))


def _flow_witness(d: RootedDigraph, k: int, ids1, ids2) -> dict:
    out = {"tree1": list(ids1), "tree2": list(ids2)}
    for tag, ids in (("flow1", ids1), ("flow2", ids2)):
        flow = branching_flow_feasible(d.selection(ids), d.n - k,
                                       vertex_set=frozenset(range(d.n)))
        if flow is None:
            raise InternalError("oracle witness lost feasibility", {})
        out[tag] = flow.to_json()
    return out


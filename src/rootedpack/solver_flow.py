"""FPT solver for two arc-disjoint spanning (r,k)-flow branchings.

Mirrors the arborescence pipeline with flow-specific pieces: largeness
threshold 20k^2+1, candidate pool depth 2k-1, cores as arbitrary subdigraphs
validated by the aggregated network's min-cut condition (root reaches when
|V'| = 2k-1, one aggregated max-flow when large anchors take the leftover
demand), and a completion that routes every new vertex's unit along its
anchor's path flow from the core decomposition, which keeps core arcs within
the uniform capacity n-k.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Iterator, Mapping, Optional

from .connectivity import FlowNetwork, is_extendable_pair, is_k_root_connected, max_flow
from .errors import ContractError, InternalError
from .flows import BranchingFlow, branching_flow_feasible, decompose_flow, validate_branching_flow
from .fptcommon import (
    CompactStructure,
    LargenessView,
    SolveOptions,
    Stages,
    classify,
    complete_directed_pair,
    completion_stall,
    depth_bounded_pool,
    expand_shapes,
    grow_directed_pair,
    pair_states,
    run_pipeline,
)
from .graphs import ArcSelection, ProblemInstance, RootedDigraph, cap_parallel
from .oracles import validate_witness
from .pairs import CopyTable, Row
from .reports import SolveReport


def classify_vertices_flow(dig: RootedDigraph, k: int) -> LargenessView:
    """Large iff at least 20k^2+1 distinct out-neighbors."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    return classify(dig.n, dig.out_neighbors, k, 20 * k * k + 1)


def candidate_pool_flow(dig: RootedDigraph, k: int) -> frozenset[int]:
    """Vertices reachable by length-(2k-1) paths with small interiors."""
    view = classify_vertices_flow(dig, k)
    return depth_bounded_pool(dig.out_neighbors, dig.root, 2 * k - 1, view.large)


def _cut_condition(
    root: int, class_counts: Mapping[tuple[int, int], int], verts: frozenset[int], k: int
) -> bool:
    """Whether k * in(X) >= |X & V'| for every vertex set X without the root,
    in(X) counting the copies that enter X; needs |V'| <= 2k-1.

    Then |X & V'| <= 2k-1 asks for one entering copy when it is at most k and
    for two when it is larger.  X without an entering copy lies in the part
    of the support the root does not reach; X with exactly one lies in what
    the root does not reach once that copy's class, a single-copy one, is
    removed.  Only a class on a breadth-first tree T of the support can cut
    anything off, and only T's subtree below it, so just the single-copy
    tree classes above more than k vertices need a second reach.  The
    support need not be root-connected.
    """
    out: dict[int, list[int]] = {}
    for (u, v), m in class_counts.items():
        if m > 0:
            out.setdefault(u, []).append(v)

    def reach(skip: Optional[tuple[int, int]]) -> dict[int, int]:
        parent = {root: root}
        order = [root]
        for u in order:
            for v in out.get(u, ()):
                if v not in parent and (u, v) != skip:
                    parent[v] = u
                    order.append(v)
        return parent

    parent = reach(None)  # in breadth-first order
    if not verts <= parent.keys():
        return False
    below = dict.fromkeys(parent, 1)
    for v, u in reversed(parent.items()):
        if v != root:
            below[u] += below[v]
    return not any(
        below[v] > k and class_counts[(u, v)] == 1 and len(verts - reach((u, v)).keys()) > k
        for v, u in parent.items() if v != root)


def _aggregated_feasibility(
    dig: RootedDigraph,
    class_counts: Mapping[tuple[int, int], int],
    verts: frozenset[int],
    large: frozenset[int],
    k: int,
) -> Optional[dict[int, int]]:
    """Attachment witness of the aggregated network, or None.

    The network: arcs are capped at k (the capacity inside the 2k-vertex
    structure Y), every vertex of V' demands one unit, and an aggregated
    demand of the residual 2k-1-|V'| units may leave only through the
    anchors, the large vertices of V'.  With a positive residual and no
    anchor it is infeasible.  With residual 0 there is nothing to attach, so
    the attachment is empty and its min cut decides: feasible iff
    k * in(X) >= |X| for every non-empty X within V' (`_cut_condition`), no
    max-flow needed.  Otherwise one max-flow decides, and the per-anchor split
    is read off the integral flow.
    """
    residual = 2 * k - 1 - len(verts)
    if residual == 0:
        return {} if _cut_condition(dig.root, class_counts, verts, k) else None
    anchors = sorted(verts & large)
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
    return _aggregated_feasibility(dig, counts, frozenset(verts), view.large, k)


def _core_shapes(
    dig: RootedDigraph, k: int, pool: frozenset[int], view: LargenessView
) -> list[Row]:
    """All valid core shapes as finished rows (`Row`), sorted by (|V'|,
    sorted V', (class, count) pairs).

    One depth-first search grows per-class count vectors from the empty one.
    A step adds one copy, up to min(2, L) of L (the triple-free reduction), of
    a class (u, v): u is the root or a small vertex of V' (large vertices are
    sinks), v a non-root pool vertex, and a new v joins V' only while
    |V'| < 2k-1.  So the states are exactly the root-connected vectors (add a
    vector's arcs in breadth-first order), and V' is a state's head set.

    Each vector is built exactly once, with no seen set, by ordered
    candidate lists as in `fptcommon.tree_shapes`: a candidate is a class
    whose next copy the state may take.  Taking candidate i passes on the
    candidates after i, that class's next copy while it has fewer than
    min(2, L), and the classes leaving a new small head; once |V'| = 2k-1
    the candidates into a new head are dropped.  A vector is then reached
    only through the first of its copies in each list: a skipped candidate
    stays out of the whole subtree, and each one a step adds was not
    available before it.  The count vector is one dict changed in place and
    undone on the way back; each frame carries V', the expanded count, the
    pair masks, the emptied classes and the state's overlay on the digraph's
    kept arborescence, or None once the state loses root-connectivity.  A
    step from m to m+1 copies swaps the class's m-copy `CopyTable` entry for
    its (m+1)-copy one; one that empties the class takes one
    `ResidualReach.step`, and any other child, like every child of a failed
    state, inherits the verdict, which each row carries.  Each state
    with V' non-empty is checked once by `_aggregated_feasibility`: the
    full-size ones (|V'| = 2k-1) by their min-cut condition, two kinds of
    root reaches, and only the smaller ones with a large anchor by a
    max-flow, which gives their attachment.
    """
    root, max_size, large = dig.root, 2 * k - 1, view.large
    reach = dig._reach()
    step = reach.step
    table = CopyTable()
    counts: dict[tuple[int, int], int] = {}
    found: list[Row] = []

    def leaving(u: int) -> list[tuple[tuple[int, int], int]]:
        return [((u, v), len(ids)) for v, ids in dig.out_classes(u) if v != root and v in pool]

    # frames of (candidates, index of the next one to try, class taken to
    # enter the frame, V', expanded count, uses, limits, emptied, overlay);
    # the root frame took none
    stack: list[list] = [[leaving(root), 0, None, frozenset(), 1, 0, 0, (), reach.overlay()]]
    while stack:
        frame = stack[-1]
        candidates, i = frame[0], frame[1]
        if i == len(candidates):
            stack.pop()
            c = frame[2]
            if c is not None:
                if counts[c] == 1:
                    del counts[c]
                else:
                    counts[c] -= 1
            continue
        frame[1] = i + 1
        c, copies = candidates[i]
        m = counts.get(c, 0)
        counts[c] = m + 1
        old_ways, old_use, old_limit, _ = table.entry(c, copies, m)
        ways, use, limit, empties = table.entry(c, copies, m + 1)
        expanded = frame[4] // old_ways * ways
        uses = frame[5] ^ old_use | use
        limits = frame[6] ^ old_limit | limit
        emptied, overlay = frame[7], frame[8]
        if empties and overlay is not None:
            overlay = step(overlay, emptied, c)
            emptied += (c,)
        verts, head = frame[3], c[1]
        new_head = head not in verts
        if new_head:
            verts = verts | {head}
        attachment = _aggregated_feasibility(dig, counts, verts, large, k)
        if attachment is not None:
            classes, taken = zip(*sorted(counts.items()))
            found.append((classes, taken, attachment, expanded, uses, limits,
                          overlay is not None))
        following = candidates[i + 1:]
        if m + 1 < min(2, copies):
            following.append((c, copies))
        if new_head:
            if head not in large:
                following += leaving(head)
            if len(verts) == max_size:
                following = [cand for cand in following if cand[0][1] in verts]
        stack.append([following, 0, c, verts, expanded, uses, limits, emptied, overlay])
    found.sort(key=_core_order)
    return found


def _core_order(row: Row) -> tuple:
    """A core row's (|V'|, sorted V', (class, count) pairs), flattened into
    one tuple, which orders the rows the same way."""
    verts = sorted({v for _, v in row[0]})
    return len(verts), *verts, *chain.from_iterable(zip(row[0], row[1]))


def _flow_shapes(dig: RootedDigraph, k: int) -> list[Row]:
    """Every compact core shape."""
    return _core_shapes(dig, k, candidate_pool_flow(dig, k), classify_vertices_flow(dig, k))


def enumerate_compact_cores(dig: RootedDigraph, k: int) -> Iterator[CompactStructure]:
    """Every valid compact core (copy-distinct), canonical order."""
    yield from expand_shapes(dig, _flow_shapes(dig, k))


def grow_to_classic_core(
    dig: RootedDigraph, k: int, pair: tuple[CompactStructure, CompactStructure],
    counters: Optional[dict] = None,
) -> tuple[ArcSelection, ArcSelection]:
    """Grow an extendable arc-disjoint (triple-free) compact core pair into
    classic cores: (r,k)-flow branchings on exactly 2k-1 non-root vertices."""
    c1, c2 = pair
    if c1.selection.ids & c2.selection.ids:
        raise ContractError("compact cores must be arc-disjoint")
    if not is_extendable_pair(dig, c1.selection, c2.selection):
        raise ContractError("compact core pair is not extendable")
    states = pair_states(dig.root, ((c.selection.ids, c.vertices) for c in pair))
    grow_directed_pair(dig, states, (c1.attachment, c2.attachment), counters)
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
    """Attach every uncovered vertex below the classic cores by the greedy
    `complete_directed_pair`, exact after the 2-root-connectivity gate (see
    its docstring), and return both branchings with routed witness flows.

    One in-arc per new vertex below a classic core gives a flow branching:
    the core flow puts at most k units on an arc, and each of the n-2k new
    vertices routes one more unit along its attachment chain and its
    anchor's core path, so every arc stays within the uniform capacity n-k
    (`_routed_completion_flow` asserts it)."""
    s1, s2 = pair
    states = pair_states(dig.root, ((s.ids, s.covered_vertices()) for s in pair))
    if not complete_directed_pair(dig, states):
        raise completion_stall(dig, states)
    results = []
    for state, core in zip(states, (s1, s2)):
        flow = _routed_completion_flow(dig, k, frozenset(core.ids), frozenset(state.ids))
        sel = dig.selection(state.ids)
        if not validate_branching_flow(sel, flow, vertex_set=frozenset(range(dig.n))):
            raise InternalError("routed completion flow is not a branching flow", {})
        results.append((sel, flow))
    return results[0], results[1]


def solve_flow(dig: RootedDigraph, k: int, options: Optional[SolveOptions] = None) -> SolveReport:
    """Decide and construct two arc-disjoint spanning (r,k)-flow branchings."""
    t0 = time.perf_counter()
    inst = cap_parallel(ProblemInstance(kind="flow", graph=dig, k=k))
    d: RootedDigraph = inst.graph

    def gate():
        ok2, cut = is_k_root_connected(d, 2)
        return None if ok2 else ("connectivity-gate", cut.to_json_dict())

    def finish(pair, counters):
        cores = grow_to_classic_core(d, k, pair, counters)
        # no counters: flow reports have never carried completionSteps
        (sel1, flow1), (sel2, flow2) = complete_to_spanning_flow(d, k, cores)
        return {"tree1": sorted(sel1.ids), "tree2": sorted(sel2.ids),
                "flow1": flow1.to_json(), "flow2": flow2.to_json()}

    return run_pipeline(inst, options or SolveOptions(), Stages(
        started=t0, size=2 * k - 1, gate=gate, shape_counter="cores",
        shapes=lambda: _flow_shapes(d, k), finish=finish, validate=validate_witness,
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


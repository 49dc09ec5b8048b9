"""FPT solver for two arc-disjoint spanning (r,k)-flow branchings.

Mirrors the arborescence pipeline with flow-specific pieces: largeness
threshold 20k^2+1, candidate pool depth 2k-1, cores as arbitrary subdigraphs
validated by the aggregated network's min-cut condition, and a completion
that routes every new vertex's unit along its anchor's path flow from the
core decomposition, which keeps core arcs within the uniform capacity n-k.

A core smaller than 2k-1 vertices needs large anchors to take the leftover
demand, and one aggregated max-flow decides it.  A full-size core (|V'| =
2k-1) has nothing to attach, and it is valid iff k * in(X) >= |X| for every
X within V'; as |X| <= 2k-1, that holds iff the root reaches V' and no
single-copy class e cuts off more than k vertices of V' (its bridge cut
X_e, `_bridge_cuts`).  The core search (`_core_shapes`) carries that
verdict down its stack instead of deciding each count vector afresh, by
three exact rules:

1. a pass is inherited, as the children of a full-size state only add
   copies inside V' and the root, and a copy lowers no in(X);
2. a failure carries its violated set X, and only a child whose new copy
   enters X is searched again, as no other changes in(X);
3. a child into a new head reads its parent's bridge cuts of at least k
   vertices, computed once per parent, as a new head with no out-arcs
   joins exactly the cuts that hold its tail.

This is the carry-down of the decremental tree of Even and Shiloach (J. ACM
1981) that the extendability probe makes on `graphs.ResidualReach`.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Callable, Iterator, Mapping, Optional

from .connectivity import FlowNetwork, is_extendable_pair, is_k_root_connected, max_flow
from .errors import ContractError, InternalError
from .flows import BranchingFlow, branching_flow_feasible, decompose_flow, validate_branching_flow
from .fptcommon import (
    CompactStructure,
    LargenessView,
    SolveOptions,
    Stages,
    candidate_table,
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
from .pairs import EMPTY_ATTACHMENT, CopyTable, Row
from .reports import SolveReport


def classify_vertices_flow(dig: RootedDigraph, k: int) -> LargenessView:
    """Large iff at least 20k^2+1 distinct out-neighbors."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    return classify(dig.n, dig.out_classes, k, 20 * k * k + 1)


def candidate_pool_flow(dig: RootedDigraph, k: int) -> frozenset[int]:
    """Vertices reachable by length-(2k-1) paths with small interiors."""
    view = classify_vertices_flow(dig, k)
    return depth_bounded_pool(dig.out_classes, dig.root, 2 * k - 1, view.large)


def _bridge_cuts(
    root: int, class_counts: Mapping[tuple[int, int], int], verts: frozenset[int], least: int
) -> Optional[list[set[int]]]:
    """The bridge cuts of a count vector with at least `least` vertices of
    V', or None when the root does not reach all of V'.

    The bridge cut X_e of a single-copy class e is the part of V' that the
    root no longer reaches once e is removed: no copy but e's enters it, and
    it holds every vertex set that only e enters.  Only a class on a
    breadth-first tree T of the support can cut anything off, and only T's
    subtree below it, so just the single-copy tree classes above at least
    `least` vertices take a second reach.
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
        return None
    below = dict.fromkeys(parent, 1)
    for v, u in reversed(parent.items()):
        if v != root:
            below[u] += below[v]
    cuts = []
    for v, u in parent.items():
        if v != root and below[v] >= least and class_counts[(u, v)] == 1:
            cut = verts - reach((u, v)).keys()
            if len(cut) >= least:
                cuts.append(cut)
    return cuts


def _new_head_cut(cuts: list[set[int]], tail: int, head: int, k: int) -> Optional[set[int]]:
    """A vertex set violated by a count vector on 2k-2 root-connected
    vertices plus one copy of (tail, head) into a new head, or None when
    that vector meets the cut condition; `cuts` are the smaller vector's
    bridge cuts of at least k vertices.

    The new head has no out-arcs, so it changes no reach but its own: each
    bridge cut of the new vector is the old one, plus the head when the tail
    lies in it, and the new class cuts off the head alone.
    """
    for cut in cuts:
        if tail in cut:
            return cut | {head}
        if len(cut) > k:
            return cut
    return None


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
    anchor it is infeasible.  Otherwise one max-flow decides, and the
    per-anchor split is read off the integral flow; with residual 0 there is
    nothing to attach, and the attachment is empty.  `_core_shapes` decides
    full-size states by the cut condition instead (see the module
    docstring), so only `validate_compact_core` brings residual 0 here.
    """
    residual = 2 * k - 1 - len(verts)
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
    dig: RootedDigraph, k: int, pool: frozenset[int], view: LargenessView,
    decided: Optional[Callable[[str, Mapping[tuple[int, int], int], frozenset[int],
                                Optional[set[int]]], None]] = None,
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
    candidate lists as in `fptcommon.tree_shapes`, made of the shared tuples
    of `fptcommon.candidate_table`: a candidate is a class whose next copy
    the state may take.  Taking candidate i passes on the candidates after
    i, that class's next copy while it has fewer than min(2, L), and the
    table's classes leaving a new small head; once |V'| = 2k-1 the
    candidates into a new head are dropped.  A vector is then reached
    only through the first of its copies in each list: a skipped candidate
    stays out of the whole subtree, and each one a step adds was not
    available before it.  The count vector is one dict changed in place and
    undone on the way back; each frame carries V', the expanded count, the
    pair masks, the emptied classes and the state's overlay on the digraph's
    kept arborescence, or None once the state loses root-connectivity.  A
    step from m to m+1 copies swaps the class's m-copy `CopyTable` entry for
    its (m+1)-copy one; one that empties the class takes one
    `ResidualReach.step`, and any other child, like every child of a failed
    state, inherits the verdict, which each row carries.

    A state with |V'| < 2k-1 is checked once by `_aggregated_feasibility`:
    by one max-flow, which gives its attachment, when it has a large anchor,
    and refused at once when it has none.  A full-size state (|V'| = 2k-1)
    has nothing to attach, so its attachment is the shared
    `EMPTY_ATTACHMENT`, and it is valid iff k * in(X) >= |X & V'| for every
    X without the root.  States are root-connected, so X violates that iff
    in(X) = 1 and |X| >= k+1, and the largest such sets are the bridge cuts
    (`_bridge_cuts`).  Each full-size frame carries a set its state
    violates, or None when it passes, decided by three exact rules from
    what its parent's frame carries:

    1. A pass is inherited.  The children of a full-size state only add
       copies of classes inside V' and the root, V' stays fixed, and a new
       copy lowers no in(X), so every descendant passes too.
    2. A failure carries its violated set X.  A child whose new copy does
       not enter X (tail outside X, head inside) keeps in(X) = 1 and fails
       on X too; only a child whose copy enters X has its bridge cuts
       searched again.
    3. A child into a new head reads its parent's bridge cuts.  A frame
       with 2k-2 vertices computes its bridge cuts of at least k vertices
       once, when its first such child asks, and each child (u, h) fails
       iff one of them has more than k vertices or contains u
       (`_new_head_cut`).

    `decided`, when given, is called on every full-size state with the rule
    that decided it ("inherited", "carried", "searched" or "new-head"), the
    count vector (changed in place afterwards), V' and the violated set or
    None.
    """
    root, max_size, large = dig.root, 2 * k - 1, view.large
    reach = dig._reach()
    step = reach.step
    candidates_of = candidate_table(dig, pool, large)
    table = CopyTable()
    counts: dict[tuple[int, int], int] = {}
    found: list[Row] = []

    # frames of (candidates, index of the next one to try, class taken to
    # enter the frame, V', expanded count, uses, limits, emptied, overlay,
    # cut); the root frame took none, and cut is a full-size state's
    # violated set (None when it passes) or a (2k-2)-vertex state's bridge
    # cuts of at least k vertices, once a child into a new head asks
    stack: list[list] = [[candidates_of[root], 0, None, frozenset(), 1, 0, 0, (), reach.overlay(),
                          None]]
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
        tail, head, c, copies = candidates[i]
        verts = frame[3]
        new_head = head not in verts
        if new_head and len(verts) == max_size - 1 and frame[9] is None:
            frame[9] = _bridge_cuts(root, counts, verts, k)  # before c's copy joins
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
        if new_head:
            verts = verts | {head}
        cut = None
        if len(verts) < max_size:
            attachment = _aggregated_feasibility(dig, counts, verts, large, k)
        else:
            parent_cut = frame[9]
            if new_head:
                cut, rule = _new_head_cut(parent_cut, tail, head, k), "new-head"
            elif parent_cut is None:
                rule = "inherited"
            elif tail in parent_cut or head not in parent_cut:
                cut, rule = parent_cut, "carried"
            else:
                cuts = _bridge_cuts(root, counts, verts, k + 1)
                cut, rule = (cuts[0] if cuts else None), "searched"
            if decided is not None:
                decided(rule, counts, verts, cut)
            attachment = EMPTY_ATTACHMENT if cut is None else None
        if attachment is not None:
            classes, taken = zip(*sorted(counts.items()))
            found.append((classes, taken, attachment, expanded, uses, limits,
                          overlay is not None))
        following = candidates[i + 1:]
        if m + 1 < min(2, copies):
            following.append(candidates[i])
        if new_head:
            if head not in large:
                following += candidates_of[head]
            if len(verts) == max_size:
                following = [cand for cand in following if cand[1] in verts]
        stack.append([following, 0, c, verts, expanded, uses, limits, emptied, overlay, cut])
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
) -> tuple[ArcSelection, ArcSelection]:
    """Grow an extendable arc-disjoint (triple-free) compact core pair into
    classic cores: (r,k)-flow branchings on exactly 2k-1 non-root vertices."""
    c1, c2 = pair
    if c1.selection.ids & c2.selection.ids:
        raise ContractError("compact cores must be arc-disjoint")
    if not is_extendable_pair(dig, c1.selection, c2.selection):
        raise ContractError("compact core pair is not extendable")
    states = pair_states(dig.root, ((c.selection.ids, c.vertices) for c in pair))
    grow_directed_pair(dig, states, (c1.attachment, c2.attachment))
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

    The new arcs form a forest hanging from the core's vertices, so one
    reverse pass over a root-first order of it gives each new arc its units,
    the new vertices at or below its head, and each anchor the units that
    leave along its core path.  Core arcs start at <= k units and gain at
    most n-2k, so every arc stays within the uniform capacity n-k; the bound
    is asserted.
    """
    caps = dig.n - k
    core_sel = dig.selection(core_ids)
    core_verts = core_sel.covered_vertices(with_root=True)
    z: dict[int, int] = {aid: 0 for aid in all_ids}
    core_flow = branching_flow_feasible(core_sel, min(k, caps), vertex_set=core_verts)
    if core_flow is None:
        raise InternalError("classic core lost feasibility", {})
    for aid, val in core_flow.values.items():
        z[aid] += val
    core_paths = decompose_flow(core_sel, core_flow).paths
    new_ids = all_ids - core_ids
    into: dict[int, tuple[int, int]] = {}  # new vertex -> (tail, arc into it)
    below: dict[int, list[int]] = {}
    for aid in new_ids:
        u, v = dig.arc(aid)
        into[v] = (u, aid)
        below.setdefault(u, []).append(v)
    if len(into) != len(new_ids) or not into.keys().isdisjoint(core_verts):
        raise InternalError("new arcs do not enter each new vertex once",
                            {"new": len(new_ids), "heads": len(into)})
    # so each new vertex is listed at most once, and one on a cycle never
    order = [v for u in core_verts for v in below.get(u, ())]
    for v in order:  # root-first: the list grows while it is walked
        order += below.get(v, ())
    if len(order) != len(into):
        raise InternalError("new arcs do not hang below the core",
                            {"new": len(into), "hanging": len(order)})
    hanging: dict[int, int] = {}  # new vertices at or below each vertex
    for v in reversed(order):
        u, aid = into[v]
        units = hanging.pop(v, 0) + 1
        z[aid] += units
        hanging[u] = hanging.get(u, 0) + units
    for v, units in hanging.items():  # only the core's vertices are left
        if v != dig.root:
            for aid in core_paths[v]:
                z[aid] += units
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

    def finish(pair, _):
        cores = grow_to_classic_core(d, k, pair)
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


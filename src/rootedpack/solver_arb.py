"""FPT solver for two arc-disjoint k-safe spanning r-arborescences.

Pipeline: cap parallel arcs at two; brute force below 2k-2 non-root
vertices; require 2-root-connectivity; enumerate compact kernels inside the
depth-(k-1) small-interior candidate pool; search for an arc-disjoint
extendable pair; grow it to classic kernels; complete greedily to spanning
arborescences.  Any completion of a classic kernel pair is k-safe, so only
the connectivity invariant matters during completion.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .connectivity import is_extendable_pair, is_k_root_connected
from .errors import ContractError, InternalError, StructureError
from .fptcommon import (
    DirectedState,
    branch_structure,
    LargenessView,
    SolveOptions,
    Stages,
    classify_directed,
    complete_directed_pair,
    depth_bounded_pool,
    grow_directed_pair,
    lex_smallest_attachment,
    run_pipeline,
)
from .graphs import ArcSelection, ProblemInstance, RootedDigraph, cap_parallel, parse_arborescence
from .oracles import OracleBudget, oracle_arb, validate_witness
from .reports import SolveReport


@dataclass(frozen=True)
class CompactKernel:
    """A pruned kernel candidate plus its imaginary-leaf attachment witness."""

    vertices: frozenset[int]
    arcs: ArcSelection
    attachment: Mapping[int, int]


def classify_vertices(dig: RootedDigraph, k: int) -> LargenessView:
    """Large iff at least 6k-5 distinct out-neighbors."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    return classify_directed(dig, k, 6 * k - 5)


def candidate_pool(dig: RootedDigraph, k: int) -> frozenset[int]:
    """Vertices reachable by length-(k-1) directed paths with small interiors."""
    view = classify_vertices(dig, k)
    return depth_bounded_pool(dig.out_neighbors, dig.root, k - 1, view.large)


def validate_compact_kernel(
    dig: RootedDigraph, k: int, x: ArcSelection
) -> Optional[dict[int, int]]:
    """Attachment witness when the selection is a compact kernel, else None.

    Checks arborescence shape, size at most 2k-2, large vertices as sinks,
    then decides attachment feasibility by per-branch slack arithmetic and
    returns the lexicographically smallest witness.
    """
    try:
        parent = parse_arborescence(dig, x.ids)
    except StructureError:
        return None
    verts = frozenset(parent)
    if len(verts) > 2 * k - 2:
        return None
    view = classify_vertices(dig, k)
    large_in = verts & view.large
    for v in large_in:
        if any(parent.get(w) == v for w in parent):
            return None  # large vertex is not a sink
    branch_of, sizes = branch_structure(parent, dig.root)
    residual = (2 * k - 2) - len(verts)
    return lex_smallest_attachment(
        anchors=sorted(large_in),
        branch_of=branch_of,
        branch_sizes=sizes,
        limit=k - 1,
        residual=residual,
    )


def _kernel_shapes(
    dig: RootedDigraph, k: int, pool: frozenset[int], view: LargenessView
) -> list[tuple[tuple[tuple[int, int], ...], dict[int, int]]]:
    """All valid kernel shapes (class tuples) with their attachment witnesses.

    Shapes are arborescences described at parallel-class level; they are
    grown arc by arc inside the pool, so disconnected vertex sets are never
    visited.  Branch sizes stay at most k-1 and large vertices never gain
    children, which every valid kernel satisfies anyway.
    """
    root = dig.root
    limit = 2 * k - 2
    empty: frozenset[tuple[int, int]] = frozenset()
    seen = {empty}
    queue = deque([(empty, {})])
    shapes: list[frozenset[tuple[int, int]]] = [empty]
    while queue:
        classes, parent = queue.popleft()
        if len(classes) == limit:
            continue
        verts = {root} | set(parent)
        for tail in sorted(verts):
            if tail != root and tail in view.large:
                continue
            for head, _ids in dig.out_classes(tail):
                if head in verts or head not in pool:
                    continue
                nxt = classes | {(tail, head)}
                if nxt in seen:
                    continue
                nparent = dict(parent)
                nparent[head] = tail
                _, sizes = branch_structure(nparent, root)
                if any(s > k - 1 for s in sizes.values()):
                    continue
                seen.add(nxt)
                shapes.append(nxt)
                queue.append((nxt, nparent))
    result = []
    for classes in sorted(shapes, key=lambda c: (len(c), tuple(sorted(c)))):
        parent = {v: u for u, v in classes}
        verts = frozenset(parent)
        branch_of, sizes = branch_structure(parent, root)
        attachment = lex_smallest_attachment(
            anchors=sorted(verts & view.large),
            branch_of=branch_of,
            branch_sizes=sizes,
            limit=k - 1,
            residual=(2 * k - 2) - len(verts),
        )
        if attachment is not None:
            result.append((tuple(sorted(classes)), attachment))
    return result


def enumerate_compact_kernels(dig: RootedDigraph, k: int) -> Iterator[CompactKernel]:
    """Every valid compact kernel, canonical order, one per arc-copy choice."""
    import itertools

    view = classify_vertices(dig, k)
    pool = candidate_pool(dig, k)
    for classes, attachment in _kernel_shapes(dig, k, pool, view):
        id_choices = [dig.class_ids(u, v) for u, v in classes]
        for combo in itertools.product(*id_choices):
            yield CompactKernel(
                vertices=frozenset(v for _, v in classes),
                arcs=dig.selection(combo),
                attachment=dict(attachment),
            )


def grow_to_classic(
    dig: RootedDigraph, k: int, pair: tuple[CompactKernel, CompactKernel],
    counters: Optional[dict] = None,
) -> tuple[ArcSelection, ArcSelection]:
    """Grow an extendable arc-disjoint compact pair into classic kernels."""
    k1, k2 = pair
    if k1.arcs.ids & k2.arcs.ids:
        raise ContractError("compact kernels must be arc-disjoint")
    if not is_extendable_pair(dig, k1.arcs, k2.arcs):
        raise ContractError("compact kernel pair is not extendable")
    states = (
        DirectedState(ids=set(k1.arcs.ids), covered={dig.root} | set(k1.vertices)),
        DirectedState(ids=set(k2.arcs.ids), covered={dig.root} | set(k2.vertices)),
    )
    grow_directed_pair(dig, states, (dict(k1.attachment), dict(k2.attachment)), counters)
    out = []
    for state in states:
        sel = dig.selection(state.ids)
        try:
            parent = parse_arborescence(dig, sel.ids)
        except StructureError:
            parent = None
        if parent is None or len(parent) != 2 * k - 2:
            raise InternalError("growth did not produce a classic kernel",
                                {"size": len(state.ids)})
        _, sizes = branch_structure(parent, dig.root)
        if any(s > k - 1 for s in sizes.values()):
            raise InternalError("grown kernel is not k-safe", {"sizes": sizes})
        out.append(sel)
    return out[0], out[1]


def _is_spanning_arborescence(dig: RootedDigraph, ids) -> bool:
    try:
        return len(parse_arborescence(dig, ids)) == dig.n - 1
    except StructureError:
        return False


def _exhaustive_complete(
    dig: RootedDigraph, k: int, forced1: frozenset[int], forced2: frozenset[int]
) -> Optional[tuple[set[int], set[int]]]:
    """Desk-scale fallback: exhaustive completion honoring forced arc sets."""
    budget = OracleBudget(max_vertices=dig.n, max_arcs=dig.arc_count,
                          max_candidates=2_000_000)
    verts = [v for v in range(dig.n) if v != dig.root]
    forced_parent1 = {dig.arc(a)[1]: a for a in forced1}
    forced_parent2 = {dig.arc(a)[1]: a for a in forced2}

    def choices(v: int, forced_parent: dict[int, int], other: frozenset[int]):
        if v in forced_parent:
            return [forced_parent[v]]
        opts = []
        for _, ids in dig.in_classes(v):
            free = [a for a in ids if a not in other]
            if free:
                opts.append(free[0])
        return opts

    import itertools

    list1 = [choices(v, forced_parent1, forced2) for v in verts]
    count = 1
    for c in list1:
        count *= max(len(c), 1)
        if count > budget.max_candidates:
            return None
    for combo1 in itertools.product(*list1):
        ids1 = set(combo1) | forced1
        if not _is_spanning_arborescence(dig, ids1):
            continue
        avoid = frozenset(ids1)
        list2 = []
        dead = False
        for v in verts:
            opts = []
            if v in forced_parent2:
                opts = [forced_parent2[v]]
            else:
                for _, ids in dig.in_classes(v):
                    free = [a for a in ids if a not in avoid]
                    if free:
                        opts.append(free[0])
            if not opts:
                dead = True
                break
            list2.append(opts)
        if dead:
            continue
        for combo2 in itertools.product(*list2):
            ids2 = set(combo2) | forced2
            if ids2 & ids1:
                continue
            if not _is_spanning_arborescence(dig, ids2):
                continue
            return ids1, ids2
    return None


def complete_to_spanning(
    dig: RootedDigraph, k: int, pair: tuple[ArcSelection, ArcSelection],
    counters: Optional[dict] = None,
) -> tuple[ArcSelection, ArcSelection]:
    """Extend an extendable arc-disjoint classic kernel pair to spanning
    arborescences.  Greedy with the extendability invariant; an exhaustive
    fallback covers desk-scale stalls."""
    s1, s2 = pair
    states = (
        DirectedState(ids=set(s1.ids), covered=set(s1.covered_vertices(with_root=True))),
        DirectedState(ids=set(s2.ids), covered=set(s2.covered_vertices(with_root=True))),
    )
    if not complete_directed_pair(dig, states, counters):
        fallback = _exhaustive_complete(dig, k, frozenset(s1.ids), frozenset(s2.ids))
        if fallback is None:
            raise InternalError(
                "completion stalled and exhaustive fallback failed",
                {"covered1": sorted(states[0].covered),
                 "covered2": sorted(states[1].covered)},
            )
        return dig.selection(fallback[0]), dig.selection(fallback[1])
    return dig.selection(states[0].ids), dig.selection(states[1].ids)


def solve_arb(dig: RootedDigraph, k: int, options: Optional[SolveOptions] = None) -> SolveReport:
    """Decide and construct two arc-disjoint k-safe spanning r-arborescences."""
    t0 = time.perf_counter()
    inst = cap_parallel(ProblemInstance(kind="arb", graph=dig, k=k))
    d: RootedDigraph = inst.graph

    def gate():
        ok2, cut = is_k_root_connected(d, 2)
        return None if ok2 else ("connectivity-gate", cut.to_json_dict())

    def shapes():
        return [(dict.fromkeys(classes, 1), attachment) for classes, attachment
                in _kernel_shapes(d, k, candidate_pool(d, k), classify_vertices(d, k))]

    def finish(sides, counters):
        pair = tuple(
            CompactKernel(frozenset(v for _, v in counts), d.selection(ids), dict(attachment))
            for ids, (counts, attachment) in sides)
        kernels = grow_to_classic(d, k, pair, counters)
        tree1, tree2 = complete_to_spanning(d, k, kernels, counters)
        return {"tree1": sorted(tree1.ids), "tree2": sorted(tree2.ids)}

    return run_pipeline(inst, options or SolveOptions(), Stages(
        started=t0, size=2 * k - 2, oracle=lambda budget: oracle_arb(d, k, budget),
        gate=gate, shape_counter="kernels", shapes=shapes, finish=finish,
        validate=validate_witness))

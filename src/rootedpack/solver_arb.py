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
from typing import Iterator, Optional

from .connectivity import is_extendable_pair, is_k_root_connected
from .errors import ContractError, InternalError, StructureError
from .fptcommon import (
    CompactStructure,
    LargenessView,
    branch_structure,
    SolveOptions,
    Stages,
    classify,
    compact_attachment,
    complete_directed_pair,
    completion_stall,
    depth_bounded_pool,
    expand_shapes,
    grow_directed_pair,
    pair_states,
    run_pipeline,
    tree_shapes,
)
from .graphs import ArcSelection, ProblemInstance, RootedDigraph, cap_parallel, parse_rooted_tree
from .oracles import validate_witness
from .pairs import ShapeRows
from .reports import SolveReport


def classify_vertices(dig: RootedDigraph, k: int) -> LargenessView:
    """Large iff at least 6k-5 distinct out-neighbors."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    return classify(dig.n, dig.out_classes, k, 6 * k - 5)


def candidate_pool(dig: RootedDigraph, k: int) -> frozenset[int]:
    """Vertices reachable by length-(k-1) directed paths with small interiors."""
    view = classify_vertices(dig, k)
    return depth_bounded_pool(dig.out_classes, dig.root, k - 1, view.large)


def validate_compact_kernel(
    dig: RootedDigraph, k: int, x: ArcSelection
) -> Optional[dict[int, int]]:
    """Attachment witness when the selection is a compact kernel, else None.

    Checks arborescence shape, size at most 2k-2, large vertices as sinks,
    then decides attachment feasibility by per-branch slack arithmetic and
    returns the lexicographically smallest witness.
    """
    return compact_attachment(dig, x.ids, classify_vertices(dig, k).large, k)


def _kernel_shapes(dig: RootedDigraph, k: int) -> ShapeRows:
    """The search for every compact kernel shape: one copy of each class of
    the tree, each row carrying whether removing it keeps D root-connected."""
    return tree_shapes(dig, k, candidate_pool(dig, k), classify_vertices(dig, k).large,
                       dig._reach())


def enumerate_compact_kernels(dig: RootedDigraph, k: int) -> Iterator[CompactStructure]:
    """Every valid compact kernel, canonical order, one per arc-copy choice."""
    yield from expand_shapes(dig, _kernel_shapes(dig, k).filled())


def grow_to_classic(
    dig: RootedDigraph, k: int, pair: tuple[CompactStructure, CompactStructure],
) -> tuple[ArcSelection, ArcSelection]:
    """Grow an extendable arc-disjoint compact pair into classic kernels."""
    k1, k2 = pair
    if k1.selection.ids & k2.selection.ids:
        raise ContractError("compact kernels must be arc-disjoint")
    if not is_extendable_pair(dig, k1.selection, k2.selection):
        raise ContractError("compact kernel pair is not extendable")
    states = pair_states(dig.root, ((c.selection.ids, c.vertices) for c in pair))
    grow_directed_pair(dig, states, (k1.attachment, k2.attachment))
    out = []
    for state in states:
        sel = dig.selection(state.ids)
        try:
            parent = parse_rooted_tree(dig, sel.ids)
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


def complete_to_spanning(
    dig: RootedDigraph, k: int, pair: tuple[ArcSelection, ArcSelection],
) -> tuple[ArcSelection, ArcSelection]:
    """Extend an extendable arc-disjoint classic kernel pair to spanning
    arborescences by the greedy `complete_directed_pair`, which is exact
    after the 2-root-connectivity gate (see its docstring): each new vertex
    gets one in-arc below the kernel."""
    states = pair_states(dig.root, ((s.ids, s.covered_vertices()) for s in pair))
    if not complete_directed_pair(dig, states):
        raise completion_stall(dig, states)
    return dig.selection(states[0].ids), dig.selection(states[1].ids)


def solve_arb(dig: RootedDigraph, k: int, options: Optional[SolveOptions] = None) -> SolveReport:
    """Decide and construct two arc-disjoint k-safe spanning r-arborescences."""
    t0 = time.perf_counter()
    inst = cap_parallel(ProblemInstance(kind="arb", graph=dig, k=k))
    d: RootedDigraph = inst.graph

    def gate():
        ok2, cut = is_k_root_connected(d, 2)
        return None if ok2 else ("connectivity-gate", cut.to_json_dict())

    def finish(pair, counters):
        kernels = grow_to_classic(d, k, pair)
        tree1, tree2 = complete_to_spanning(d, k, kernels)
        if d.n > 2 * k - 1:  # a spanning kernel pair takes no step and reports none
            counters["completionSteps"] = 2 * (d.n - 2 * k + 1)
        return {"tree1": sorted(tree1.ids), "tree2": sorted(tree2.ids)}

    return run_pipeline(inst, options or SolveOptions(), Stages(
        started=t0, size=2 * k - 2, gate=gate, shape_counter="kernels",
        shapes=lambda: _kernel_shapes(d, k), finish=finish, validate=validate_witness))

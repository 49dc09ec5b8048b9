"""FPT solver for two edge-disjoint (r,k)-safe spanning trees.

Certificates are trees whose large vertices are leaves; growth consults the
matroid completability oracle per candidate edge, and completion is exact:
the matroid-union witness itself is the pair of spanning trees, and any
completion of a classic certificate pair is automatically (r,k)-safe.
One union per pair: the oracle asks in (tree1, tree2) order and keeps its
last completable pair and trees in one slot, which growth's contract check
and completion read (exact, see `_CompletabilityOracle`).  The gate's union
fills the slot for the empty pair, so a solve that accepts two empty
certificates (every k = 1 solve) runs one union in all.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, Optional

from .errors import ContractError, InternalError, StructureError
from .fptcommon import (
    CompactStructure,
    DirectedState,
    LargenessView,
    branch_structure,
    SolveOptions,
    Stages,
    classify,
    compact_attachment,
    depth_bounded_pool,
    expand_shapes,
    grow_pair,
    pair_states,
    run_pipeline,
    tree_shapes,
)
from .graphs import EdgeSelection, ProblemInstance, RootedGraph, cap_parallel, parse_rooted_tree
from .matroid import max_forest_pair
from .oracles import validate_witness
from .pairs import Row
from .reports import SolveReport


def classify_vertices_tree(g: RootedGraph, k: int) -> LargenessView:
    """Large iff at least 8k-7 distinct neighbors."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    return classify(g.n, g.incident_classes, k, 8 * k - 7)


def candidate_pool_tree(g: RootedGraph, k: int) -> frozenset[int]:
    """Vertices reachable by length-(k-1) paths with small interiors."""
    view = classify_vertices_tree(g, k)
    return depth_bounded_pool(g.incident_classes, g.root, k - 1, view.large)


def validate_compact_certificate(
    g: RootedGraph, k: int, x: EdgeSelection
) -> Optional[dict[int, int]]:
    """Attachment witness when the selection is a compact certificate.

    Tree shape, size at most 2k-2, large vertices as leaves, then the same
    per-branch slack arithmetic as the kernel validator.
    """
    return compact_attachment(g, x.ids, classify_vertices_tree(g, k).large, k)


def _certificate_shapes(g: RootedGraph, k: int) -> list[Row]:
    """Every compact certificate shape: one copy of each class of the tree."""
    return tree_shapes(g, k, candidate_pool_tree(g, k), classify_vertices_tree(g, k).large)


def enumerate_compact_certificates(g: RootedGraph, k: int) -> Iterator[CompactStructure]:
    """Every valid compact certificate (copy-distinct), canonical order."""
    yield from expand_shapes(g, _certificate_shapes(g, k))


class _CompletabilityOracle:
    """Matroid-union completability with warm-start seeds from a global base.

    `completable(ids1, ids2)` asks for disjoint spanning trees T1 >= ids1,
    T2 >= ids2; `admits` asks in the same (tree1, tree2) order, so the last
    admitted growth step asks about the grown pair itself.  One slot keeps
    the last completable pair (`pair`) and its trees (`trees`).  Both are
    exact: the union is a deterministic function of the graph, the forced
    sets and the seeds, fixed per oracle, so the slot holds what a new union
    would return; and completability is symmetric, so the order changes no
    answer.  When the global union is full, the slot starts with the empty
    pair and that union's trees T1, T2: the seeded union's direct pass puts
    each seed of T1 into tree 1 and each of T2 into tree 2, and stops once
    both are spanning, so it would return T1, T2.
    """

    def __init__(self, g: RootedGraph):
        self.g = g
        t1, t2 = max_forest_pair(g, (), ())
        self.global_full = (len(t1) == g.n - 1 and len(t2) == g.n - 1)
        self.seeds = [(eid, 0) for eid in sorted(t1)] + [(eid, 1) for eid in sorted(t2)]
        self.pair = self.trees = None
        if self.global_full:
            self.pair, self.trees = (frozenset(), frozenset()), (t1, t2)

    def completable(self, ids1: Iterable[int], ids2: Iterable[int]) -> bool:
        """Overlapping sets are a `ContractError` of the union."""
        pair = (frozenset(ids1), frozenset(ids2))
        if pair != self.pair:
            t1, t2 = max_forest_pair(self.g, *pair, self.seeds)
            if len(t1) != self.g.n - 1 or len(t2) != self.g.n - 1:
                return False
            self.pair, self.trees = pair, (t1, t2)
        return True

    def admits(self, states: tuple[DirectedState, DirectedState]) -> Callable[[int, int], bool]:
        """`grow_pair`'s test: the pair stays completable with the copy added
        to `side`."""
        return lambda side, copy: self.completable(
            states[0].ids | {copy} if side == 0 else states[0].ids,
            states[1].ids | {copy} if side == 1 else states[1].ids)


def grow_to_classic_certificate(
    g: RootedGraph, k: int, pair: tuple[CompactStructure, CompactStructure],
    oracle: Optional[_CompletabilityOracle] = None,
) -> tuple[EdgeSelection, EdgeSelection]:
    """Grow a completable edge-disjoint compact pair into classic certificates.

    `grow_pair` along incident edges, accepting an edge only if the pair
    stays completable.  In a solve, the oracle's slot answers the contract
    check: it holds the pair the pair search accepted.
    """
    c1, c2 = pair
    oracle = oracle or _CompletabilityOracle(g)
    if not oracle.completable(c1.selection.ids, c2.selection.ids):
        raise ContractError("compact certificate pair is not completable")
    states = pair_states(g.root, ((c.selection.ids, c.vertices) for c in pair))
    grow_pair(states, (c1.attachment, c2.attachment), g.incident_classes, oracle.admits(states))
    out = []
    for state in states:
        sel = g.selection(state.ids)
        try:
            parent = parse_rooted_tree(g, sel.ids)
        except StructureError:
            parent = None
        if parent is None or len(parent) != 2 * k - 2:
            raise InternalError("growth did not produce a classic certificate",
                                {"size": len(state.ids)})
        _, sizes = branch_structure(parent, g.root)
        if any(s > k - 1 for s in sizes.values()):
            raise InternalError("grown certificate is not (r,k)-safe", {"sizes": sizes})
        out.append(sel)
    return out[0], out[1]


def complete_to_spanning_trees(
    g: RootedGraph, k: int, pair: tuple[EdgeSelection, EdgeSelection],
    oracle: Optional[_CompletabilityOracle] = None,
) -> tuple[EdgeSelection, EdgeSelection]:
    """Exact completion: the matroid-union witness with the certificates
    forced, read from the oracle's slot when it holds this pair.  Safety of
    any completion follows from the certificate sizes."""
    oracle = oracle or _CompletabilityOracle(g)
    if not oracle.completable(pair[0].ids, pair[1].ids):
        raise InternalError("matroid union failed on a completable pair", {})
    return g.selection(oracle.trees[0]), g.selection(oracle.trees[1])


def solve_tree(g: RootedGraph, k: int, options: Optional[SolveOptions] = None) -> SolveReport:
    """Decide and construct two edge-disjoint (r,k)-safe spanning trees."""
    t0 = time.perf_counter()
    inst = cap_parallel(ProblemInstance(kind="tree", graph=g, k=k))
    gg: RootedGraph = inst.graph
    oracle: Optional[_CompletabilityOracle] = None

    def gate():
        nonlocal oracle
        oracle = _CompletabilityOracle(gg)
        return None if oracle.global_full else ("global-union-gate", None)

    def finish(pair, _):
        certs = grow_to_classic_certificate(gg, k, pair, oracle)
        tree1, tree2 = complete_to_spanning_trees(gg, k, certs, oracle)
        return {"tree1": sorted(tree1.ids), "tree2": sorted(tree2.ids)}

    return run_pipeline(inst, options or SolveOptions(), Stages(
        started=t0, size=2 * k - 2, gate=gate, shape_counter="certificates",
        shapes=lambda: _certificate_shapes(gg, k), finish=finish, validate=validate_witness,
        completable=lambda ids1, ids2: oracle.completable(ids1, ids2)))

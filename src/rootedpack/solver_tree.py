"""FPT solver for two edge-disjoint (r,k)-safe spanning trees.

Certificates are trees whose large vertices are leaves; growth consults the
matroid completability oracle per candidate edge, and completion is exact:
the matroid-union witness itself is the pair of spanning trees, and any
completion of a classic certificate pair is automatically (r,k)-safe.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .errors import ContractError, InternalError, StructureError
from .fptcommon import (
    LargenessView,
    branch_structure,
    SolveOptions,
    Stages,
    classify,
    compact_attachment,
    depth_bounded_pool,
    run_pipeline,
    tree_shapes,
)
from .graphs import EdgeSelection, ProblemInstance, RootedGraph, cap_parallel, parse_rooted_tree
from .matroid import max_forest_pair
from .oracles import oracle_tree, validate_witness
from .reports import SolveReport


@dataclass(frozen=True)
class CompactCertificate:
    """A pruned certificate candidate plus its attachment witness."""

    vertices: frozenset[int]
    edges: EdgeSelection
    attachment: Mapping[int, int]


def classify_vertices_tree(g: RootedGraph, k: int) -> LargenessView:
    """Large iff at least 8k-7 distinct neighbors."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    return classify(g.n, g.neighbors, k, 8 * k - 7)


def candidate_pool_tree(g: RootedGraph, k: int) -> frozenset[int]:
    """Vertices reachable by length-(k-1) paths with small interiors."""
    view = classify_vertices_tree(g, k)
    return depth_bounded_pool(g.neighbors, g.root, k - 1, view.large)


def validate_compact_certificate(
    g: RootedGraph, k: int, x: EdgeSelection
) -> Optional[dict[int, int]]:
    """Attachment witness when the selection is a compact certificate.

    Tree shape, size at most 2k-2, large vertices as leaves, then the same
    per-branch slack arithmetic as the kernel validator.
    """
    try:
        parent = parse_rooted_tree(g, x.ids)
    except StructureError:
        return None
    return compact_attachment(parent, g.root, classify_vertices_tree(g, k).large, k)


def _edge_class(u: int, v: int) -> tuple[int, int]:
    return (min(u, v), max(u, v))


def enumerate_compact_certificates(g: RootedGraph, k: int) -> Iterator[CompactCertificate]:
    """Every valid compact certificate (copy-distinct), canonical order."""
    for classes, attachment in tree_shapes(
            g.root, k, candidate_pool_tree(g, k), classify_vertices_tree(g, k).large,
            g.incident_classes, _edge_class):
        id_choices = [g.class_ids(u, v) for u, v in classes]
        for combo in itertools.product(*id_choices):
            verts = frozenset(v for c in classes for v in c if v != g.root)
            yield CompactCertificate(
                vertices=verts, edges=g.selection(combo), attachment=dict(attachment))


class _CompletabilityOracle:
    """Matroid-union completability with warm-start seeds from a global base."""

    def __init__(self, g: RootedGraph):
        self.g = g
        t1, t2 = max_forest_pair(g, (), ())
        self.global_full = (len(t1) == g.n - 1 and len(t2) == g.n - 1)
        self.seeds = [(eid, 0) for eid in sorted(t1)] + [(eid, 1) for eid in sorted(t2)]

    def completable(self, ids1: frozenset[int], ids2: frozenset[int]) -> bool:
        if ids1 & ids2:
            return False
        t1, t2 = max_forest_pair(self.g, ids1, ids2, self.seeds)
        return len(t1) == self.g.n - 1 and len(t2) == self.g.n - 1

    def complete(self, ids1: frozenset[int], ids2: frozenset[int]):
        t1, t2 = max_forest_pair(self.g, ids1, ids2, self.seeds)
        if len(t1) != self.g.n - 1 or len(t2) != self.g.n - 1:
            return None
        return t1, t2


def grow_to_classic_certificate(
    g: RootedGraph, k: int, pair: tuple[CompactCertificate, CompactCertificate],
    oracle: Optional[_CompletabilityOracle] = None,
    counters: Optional[dict] = None,
) -> tuple[EdgeSelection, EdgeSelection]:
    """Grow a completable edge-disjoint compact pair into classic certificates.

    Candidate edges run from a deficient anchor to vertices new to the
    structure; each addition is accepted only if the pair stays completable.
    Parallel copies of a rejected edge are never retried.
    """
    c1, c2 = pair
    if c1.edges.ids & c2.edges.ids:
        raise ContractError("compact certificates must be edge-disjoint")
    oracle = oracle or _CompletabilityOracle(g)
    if not oracle.completable(c1.edges.ids, c2.edges.ids):
        raise ContractError("compact certificate pair is not completable")
    ids = [set(c1.edges.ids), set(c2.edges.ids)]
    covered = [{g.root} | set(c1.vertices), {g.root} | set(c2.vertices)]
    deficits = [dict(c1.attachment), dict(c2.attachment)]
    while True:
        side = next((i for i in (0, 1) if deficits[i]), None)
        if side is None:
            break
        anchor = min(deficits[side])
        other = ids[1 - side]
        chosen = None
        for head, class_ids in g.incident_classes(anchor):
            if head == g.root or head in covered[side]:
                continue
            copy = next((eid for eid in class_ids if eid not in other), None)
            if copy is None:
                continue
            if not oracle.completable(frozenset(ids[side] | {copy}), frozenset(other)):
                continue  # parallel copies fail alike
            chosen = (head, copy)
            break
        if chosen is None:
            raise InternalError("certificate growth stalled",
                                {"anchor": anchor, "side": side})
        head, copy = chosen
        ids[side].add(copy)
        covered[side].add(head)
        if counters is not None:
            counters["growSteps"] = counters.get("growSteps", 0) + 1
        deficits[side][anchor] -= 1
        if deficits[side][anchor] == 0:
            del deficits[side][anchor]
    out = []
    for side in (0, 1):
        sel = g.selection(ids[side])
        try:
            parent = parse_rooted_tree(g, sel.ids)
        except StructureError:
            parent = None
        if parent is None or len(parent) != 2 * k - 2:
            raise InternalError("growth did not produce a classic certificate",
                                {"size": len(ids[side])})
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
    forced.  Safety of any completion follows from the certificate sizes."""
    oracle = oracle or _CompletabilityOracle(g)
    done = oracle.complete(frozenset(pair[0].ids), frozenset(pair[1].ids))
    if done is None:
        raise InternalError("matroid union failed on a completable pair", {})
    return g.selection(done[0]), g.selection(done[1])


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

    def shapes():
        return [(dict.fromkeys(classes, 1), attachment) for classes, attachment
                in tree_shapes(gg.root, k, candidate_pool_tree(gg, k),
                               classify_vertices_tree(gg, k).large, gg.incident_classes,
                               _edge_class)]

    def finish(sides, counters):
        pair = tuple(
            CompactCertificate(frozenset(v for c in counts for v in c if v != gg.root),
                               gg.selection(ids), dict(attachment))
            for ids, (counts, attachment) in sides)
        certs = grow_to_classic_certificate(gg, k, pair, oracle, counters)
        tree1, tree2 = complete_to_spanning_trees(gg, k, certs, oracle)
        return {"tree1": sorted(tree1.ids), "tree2": sorted(tree2.ids)}

    return run_pipeline(inst, options or SolveOptions(), Stages(
        started=t0, size=2 * k - 2, oracle=lambda budget: oracle_tree(gg, k, budget),
        gate=gate, shape_counter="certificates", shapes=shapes, finish=finish,
        validate=validate_witness,
        completable=lambda ids1, ids2: oracle.completable(ids1, ids2)))

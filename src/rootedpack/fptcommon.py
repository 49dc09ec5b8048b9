"""Machinery shared by the three FPT solvers.

The solve pipeline all three run (`run_pipeline`), largeness views,
depth-bounded candidate pools, the one compact-structure record
(`CompactStructure`: a kernel, core or certificate with its imaginary-leaf
attachment) and the one expansion of shapes into its copy choices
(`expand_shapes`), the growth loop (compact -> classic) with each kind's
admissibility test, and the greedy directed completion.  The undirected
solver's completion is exact instead: it returns the matroid union that
accepted the pair, held in `solver_tree`'s oracle, and runs none of its own.

A structure "shape" is a parallel-class-level description; reachability after
removing a shape's arcs depends only on which classes it empties, so
extendability is decided per shape from the classes it empties.  Whether
two shapes can take disjoint copies also depends only on their counts, so
each shape gets two copy bit masks (`pairs.CopyTable`), and the pair search
tests pairs by a few big-integer operations (`pairs.PairSearch`).  The
shape searches, `tree_shapes` for kernels and certificates and
`solver_flow._core_shapes` for cores, take their candidates from one
`candidate_table`, and carry each state's masks, expanded count and, for
the directed kinds, extendability down their stacks: a child that empties
a class takes one replacement step of `graphs.ResidualReach` on its
parent's arborescence overlay.  They emit finished rows (`pairs.Row`)
with the verdict in them, so the pipeline runs no probe pass.  Growth and
completion ask root reach of `ResidualReach` too.
"""

from __future__ import annotations

import heapq
import itertools
import time
from bisect import insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import InternalError, StructureError
from .graphs import (ArcSelection, EdgeSelection, ProblemInstance, ResidualReach, RootedDigraph,
                     RootedGraph, parse_rooted_tree)
from .oracles import OracleBudget, run_oracle
from .pairs import EMPTY_ATTACHMENT, CopyTable, PairSearch, Row
from .reports import SolveReport


@dataclass(frozen=True)
class LargenessView:
    """Threshold partition of the vertices into large and small."""

    k: int
    threshold: int
    large: frozenset[int]
    small: frozenset[int]


def classify(
    n: int, classes: Callable[[int], Sequence[tuple[int, tuple]]], k: int, threshold: int
) -> LargenessView:
    """Large iff at least `threshold` distinct neighbours (out-neighbours in
    a digraph), one per entry of the class table `classes(v)`."""
    large = frozenset(v for v in range(n) if len(classes(v)) >= threshold)
    return LargenessView(k=k, threshold=threshold, large=large,
                         small=frozenset(range(n)) - large)


def depth_bounded_pool(
    classes: Callable[[int], Iterable[tuple[int, tuple]]],
    root: int,
    depth: int,
    large: frozenset[int],
) -> frozenset[int]:
    """Vertices reachable by a path of length <= depth with small interiors.

    Endpoints may be large; only interior vertices (and so BFS expansion)
    are restricted to the root and small vertices.
    """
    dist = {root: 0}
    frontier = [root]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            if u != root and u in large:
                continue
            for w, _ in classes(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return frozenset(dist)


def lex_smallest_attachment(
    anchors: Sequence[int],
    branch_of: Mapping[int, int],
    branch_sizes: Mapping[int, int],
    limit: int,
    residual: int,
) -> Optional[dict[int, int]]:
    """Feasibility plus the lexicographically smallest leaf distribution.

    Imaginary leaves enlarge exactly the root branch holding their anchor,
    and every branch must stay within `limit` vertices.  Returns the
    positive entries of the witness.  Anchors are large non-root vertices
    only: the root is never an attachment source.

    Walking from the last anchor, each anchor takes as many of the leaves
    left as its branch still holds.  Giving the later anchors all they can
    hold leaves the earlier ones the least, so this is the lexicographically
    smallest distribution in anchor order.  A leaf is left over only when
    every anchored branch is full, so the walk places every leaf exactly
    when the anchored branches' slack covers the residual: the leftover
    count is the feasibility test.
    """
    if residual < 0:
        return None
    cap = {b: limit - s for b, s in branch_sizes.items()}
    if any(c < 0 for c in cap.values()):
        return None
    x: dict[int, int] = {}
    remaining = residual
    for a in reversed(anchors):
        b = branch_of[a]
        give = min(remaining, cap[b])
        cap[b] -= give
        remaining -= give
        if give:
            x[a] = give
    return None if remaining else dict(sorted(x.items()))


def branch_structure(parent: Mapping[int, int], root: int) -> tuple[dict[int, int], dict[int, int]]:
    """(root-branch of each vertex, branch sizes keyed by the root's child).

    Works on any parent map of a structure rooted at `root`, directed or
    undirected alike.
    """
    branch_of: dict[int, int] = {}

    def climb(v: int) -> int:
        seen = []
        while v not in branch_of and parent[v] != root:
            seen.append(v)
            v = parent[v]
        top = branch_of.get(v, v)
        for w in seen:
            branch_of[w] = top
        branch_of[v] = top
        return top

    sizes: dict[int, int] = {}
    for v in parent:
        top = climb(v)
        sizes[top] = sizes.get(top, 0) + 1
    return branch_of, sizes


def compact_attachment(
    g: RootedDigraph | RootedGraph, ids: Iterable[int], large: frozenset[int], k: int
) -> Optional[dict[int, int]]:
    """Attachment witness of a compact kernel or certificate, else None.

    The copies `ids` must form a tree grown from the root (an
    r-arborescence for arcs) on at most 2k-2 non-root vertices, its large
    non-root vertices must have no children (sinks of a kernel, leaves of a
    certificate), and its imaginary leaves must fit by per-branch slack.
    """
    try:
        parent = parse_rooted_tree(g, ids)
    except StructureError:
        return None
    if len(parent) > 2 * k - 2:
        return None
    if any(u != g.root and u in large for u in parent.values()):
        return None
    branch_of, sizes = branch_structure(parent, g.root)
    return lex_smallest_attachment(
        anchors=sorted(v for v in parent if v in large),
        branch_of=branch_of,
        branch_sizes=sizes,
        limit=k - 1,
        residual=(2 * k - 2) - len(parent),
    )


def candidate_table(
    g: RootedDigraph | RootedGraph, pool: frozenset[int], large: frozenset[int]
) -> dict[int, list[tuple[int, int, tuple[int, int], int]]]:
    """The shape searches' candidates leaving the root and each small pool
    vertex u, as shared (u, v, class, copies) tuples: every class from u to
    a non-root pool vertex v, heads ascending.  The class is (u, v) for an
    arc and (min, max) for an edge; large non-root vertices take no children
    and get no entry."""
    root, directed = g.root, isinstance(g, RootedDigraph)
    incident = g.out_classes if directed else g.incident_classes
    return {u: [(u, v, (u, v) if directed or u < v else (v, u), len(ids))
                for v, ids in incident(u) if v != root and v in pool]
            for u in pool | {root} if u == root or u not in large}


def tree_shapes(
    g: RootedDigraph | RootedGraph,
    k: int,
    pool: frozenset[int],
    large: frozenset[int],
    reach: Optional[ResidualReach] = None,
) -> list[Row]:
    """Every compact tree shape as a finished row (`Row`), sorted by (size,
    classes).

    Shapes are trees on at most 2k-2 non-root vertices of `pool`, described
    at parallel-class level and grown from the root one class of
    `candidate_table(g, pool, large)` at a time, taking one copy of each.
    Large vertices other than the root get no children and every root
    branch keeps at most k-1 vertices, which every valid kernel or
    certificate satisfies anyway.

    Each tree is built exactly once, so no seen set is needed: a state keeps
    an ordered list of candidates.  Taking candidate i passes on the
    candidates after i plus the table's list of the new head; a candidate
    whose head is in the tree or whose root branch is full is passed over
    when its turn comes.  A tree is then reached only through the first of
    its classes in each list, as every skipped candidate stays out of the
    whole subtree of the search.  The search is depth-first with an explicit
    stack, since trees can be k-1 classes deep.  The branch map, branch
    sizes, class list and anchors are changed in place and undone on the
    way back; each frame carries its state's expanded count and pair masks,
    its parent's with the new class's `CopyTable` entry folded in, asked
    once per non-empty tree.  A full-size tree has nothing to attach, so its
    attachment is the shared `EMPTY_ATTACHMENT`, and it has no children, so
    it is emitted without a frame; a smaller one needs an anchor to have an
    attachment, so only those call `lex_smallest_attachment`.

    Given `reach` (the arb kernels), each frame also carries its emptied
    classes and its overlay on `reach`'s arborescence, or None once the
    state loses root-connectivity: a child that empties its new class takes
    one `ResidualReach.step`, and any other child, like every child of a
    failed state, inherits the verdict, as removing more classes never
    restores root-connectivity.  Each row's last field is that verdict,
    True for every row without `reach` (the tree certificates, which have
    no extendability probe).
    """
    limit = 2 * k - 2
    if not limit:  # k = 1: only the empty tree, full-size
        return [((), (), EMPTY_ATTACHMENT, 1, 0, 0, reach is None or reach.spanning)]
    root, candidates_of = g.root, candidate_table(g, pool, large)
    table = CopyTable()
    ones = [(1,) * size for size in range(limit + 1)]
    branch_of: dict[int, int] = {}
    sizes: dict[int, int] = {}
    classes: list[tuple[int, int]] = []
    anchors: list[int] = []  # the large vertices of branch_of, ascending
    by_size: list[list[Row]] = [[] for _ in range(limit + 1)]  # the rows of each size

    # frames of (candidates, index of the next one to try, head taken to
    # enter the frame, expanded count, uses, limits, emptied classes,
    # overlay); the root frame took none, and a full-size tree gets no frame
    step, start = (None, {}) if reach is None else (reach.step, reach.overlay())
    stack: list[list] = [[candidates_of[root], 0, None, 1, 0, 0, (), start]]
    while stack:
        frame = stack[-1]
        candidates = frame[0]
        for i in range(frame[1], len(candidates)):
            tail, head, c, copies = candidates[i]
            if head in branch_of:
                continue
            top = head if tail == root else branch_of[tail]
            if sizes.get(top, 0) < k - 1:
                break
        else:
            stack.pop()
            head = frame[2]
            if head is not None:
                top = branch_of.pop(head)
                sizes[top] -= 1
                if not sizes[top]:
                    del sizes[top]
                classes.pop()
                if head in large:
                    anchors.remove(head)
            continue
        frame[1] = i + 1
        ways, use, lim, empties = table.entry(c, copies, 1)
        expanded, uses, limits = frame[3] * ways, frame[4] | use, frame[5] | lim
        emptied, overlay = frame[6], frame[7]
        if empties and step is not None and overlay is not None:
            overlay = step(overlay, emptied, c)
            emptied += (c,)
        classes.append(c)
        if len(classes) == limit:  # nothing to attach, every branch within k-1
            by_size[limit].append((tuple(sorted(classes)), ones[limit], EMPTY_ATTACHMENT,
                                   expanded, uses, limits, overlay is not None))
            classes.pop()
            continue
        branch_of[head] = top
        sizes[top] = sizes.get(top, 0) + 1
        if head in large:
            insort(anchors, head)
        if anchors:
            attachment = lex_smallest_attachment(
                anchors=anchors, branch_of=branch_of, branch_sizes=sizes,
                limit=k - 1, residual=limit - len(classes))
            if attachment is not None:
                by_size[len(classes)].append((tuple(sorted(classes)), ones[len(classes)],
                                              attachment, expanded, uses, limits,
                                              overlay is not None))
        following = candidates[i + 1:]
        if head not in large:
            following += candidates_of[head]
        stack.append([following, 0, head, expanded, uses, limits, emptied, overlay])
    result = []
    for rows in by_size:
        rows.sort(key=itemgetter(0))
        result += rows
    return result


@dataclass
class DirectedState:
    """A growing structure of either kind: its chosen copy ids (arcs or
    edges) plus the vertices it covers, the root included."""

    ids: set[int]
    covered: set[int]


def pair_states(
    root: int, sides: Iterable[tuple[Iterable[int], Iterable[int]]]
) -> tuple[DirectedState, DirectedState]:
    """The two states of a structure pair, each given as (copy ids, vertices)."""
    first, second = (DirectedState(ids=set(ids), covered={root, *verts}) for ids, verts in sides)
    return first, second


def crystallize_pair(
    classes1: Mapping[tuple[int, int], int],
    classes2: Mapping[tuple[int, int], int],
    class_ids: Callable[[int, int], tuple[int, ...]],
) -> Optional[tuple[set[int], set[int]]]:
    """Assign concrete copies to two class-count shapes, lowest ids first.

    Side 1 takes the lowest copies of each of its classes and side 2 the
    next ones.  None when some class lacks enough copies for both sides.
    """
    ids1: set[int] = set()
    ids2: set[int] = set()
    for c in classes1.keys() | classes2.keys():
        m1, m2 = classes1.get(c, 0), classes2.get(c, 0)
        ids = class_ids(*c)
        if len(ids) < m1 + m2:
            return None
        ids1.update(ids[:m1])
        ids2.update(ids[m1:m1 + m2])
    return ids1, ids2


def _admissible_copy(
    state: DirectedState, other: DirectedState, head: int, ids: tuple[int, ...],
    admits: Callable[[int], bool],
) -> Optional[int]:
    """The copy of a class into `head` that `state` may take next, or None.

    It must reach a vertex new to the structure, be unused by the other
    structure and pass the kind's test `admits`: for the directed kinds,
    that D minus the structure's arcs stays root-connected.  As both
    structures grow, every rejection is permanent: a covered head stays
    covered, a copy the other side took stays taken, and an arc critical for
    S stays critical for every superset of S (no copy of a class into an
    uncovered head is in S, so the class has no other copy to try).
    """
    if head in state.covered:
        return None
    copy = next((aid for aid in ids if aid not in other.ids), None)
    if copy is None or not admits(copy):
        return None
    return copy


def _take(state: DirectedState, head: int, copy: int) -> None:
    state.ids.add(copy)
    state.covered.add(head)


def grow_pair(
    states: tuple[DirectedState, DirectedState],
    targets: tuple[Mapping[int, int], Mapping[int, int]],
    classes_from: Callable[[int], Sequence[tuple[int, tuple[int, ...]]]],
    admits: Callable[[int, int], bool],
) -> None:
    """Grow both structures until per-anchor leaf targets are met.

    Side 1 first, each side's least pending anchor first: a step gives it
    the first class of `classes_from(anchor)` (the classes leaving the
    anchor, as (head, copy ids)) whose `_admissible_copy` passes
    `admits(side, copy)`, the kind's test, asked before the copy is taken.
    Parallel copies of a failed class are never retried.  Anchors have
    enough neighbours to outlast every possible rejection, so a stall is an
    internal invariant violation.  Each step meets one unit of one target,
    and the loop stops exactly when all are met, or raises: a growth takes
    the sum of both targets in steps.
    """
    deficits = [dict(t) for t in targets]
    while True:
        side = next((i for i in (0, 1) if deficits[i]), None)
        if side is None:
            return
        state, other = states[side], states[1 - side]
        anchor = min(deficits[side])
        chosen = None
        for head, ids in classes_from(anchor):
            copy = _admissible_copy(state, other, head, ids, lambda c: admits(side, c))
            if copy is not None:
                chosen = (head, copy)
                break
        if chosen is None:
            raise InternalError(
                "growth stalled despite pending attachment targets",
                {"anchor": anchor, "side": side,
                 "deficits": {str(k): v for k, v in deficits[side].items()}},
            )
        _take(state, *chosen)
        deficits[side][anchor] -= 1
        if deficits[side][anchor] == 0:
            del deficits[side][anchor]


def grow_directed_pair(
    dig: RootedDigraph,
    states: tuple[DirectedState, DirectedState],
    targets: tuple[Mapping[int, int], Mapping[int, int]],
) -> None:
    """`grow_pair` along out-arcs, keeping D minus each structure's arcs
    root-connected, so the pair stays extendable."""
    reaches = [ResidualReach(dig, state.ids) for state in states]

    def keeps_root_connected(side: int, copy: int) -> bool:
        reach = reaches[side]
        for taken in states[side].ids - reach.removed:  # the side's last step
            reach.remove(taken)
        return reach.keeps_root_connected(copy)

    grow_pair(states, targets, dig.out_classes, keeps_root_connected)


def complete_directed_pair(
    dig: RootedDigraph,
    states: tuple[DirectedState, DirectedState],
) -> bool:
    """Greedily extend both structures to span every vertex.

    Each step adds the canonically first admissible covering arc (tail
    covered, head uncovered, copy unused by the other structure, removal set
    still extendable).  Returns False on a stall, which the preconditions
    below rule out; callers raise `completion_stall` on it.  Each step
    covers one new vertex, so True comes after 2n - |V(S1)| - |V(S2)| steps.

    Preconditions, kept by every step: D is 2-root-connected; A(S1), A(S2)
    are disjoint; Si reaches from r all of V(Si), which holds every head of
    Si; D - A(Si) is root-connected.  Then the greedy cannot stall, by
    Edmonds' branching theorem with root sets (Edmonds 1973, "Edge-disjoint
    branchings"; Lovász 1976, "On two minimax theorems in graph").  In
    H = D - A(S1) - A(S2) take a non-empty X in V - r.  If X misses both
    V(Si), no arc of either structure enters X, so rho_H(X) = rho_D(X) >= 2.
    If X misses only V(Sj), no arc of Sj enters X and one of the
    root-connected D - A(Si) does, so rho_H(X) >= 1.  So H has arc-disjoint
    branchings B1, B2 spanning V with root sets V(S1), V(S2).  While
    V(Si) != V, Bi has an arc (u, v) leaving V(Si).  The copy of (u, v) that
    `_admissible_copy` tries, the first not in Sj, is in H as v is not in
    V(Si); give it to Bi, swapping parallel copies with Bj if needed.  D - A(Si) minus that copy
    keeps Sj and Bj, whose union is root-connected, so the copy is
    admissible.  Nothing here needs trees: flow cores qualify too.

    Rejections are permanent (see `_admissible_copy`), so each side keeps a
    min-heap of its covered tails and, per tail, a cursor to the first class
    of `out_classes(tail)` not yet rejected; a tail with none left leaves
    the heap for good, and a side whose heap is empty is blocked for good.
    """
    reaches = [ResidualReach(dig, state.ids) for state in states]
    heaps = [sorted(state.covered) for state in states]
    cursors: list[dict[int, int]] = [{}, {}]

    def first_admissible(side: int) -> Optional[tuple[int, int]]:
        state, other, reach = states[side], states[1 - side], reaches[side]
        heap, cursor = heaps[side], cursors[side]
        while heap:
            tail = heap[0]
            classes = dig.out_classes(tail)
            for i in range(cursor.get(tail, 0), len(classes)):
                head, ids = classes[i]
                copy = _admissible_copy(state, other, head, ids, reach.keeps_root_connected)
                if copy is not None:
                    cursor[tail] = i
                    return head, copy
            heapq.heappop(heap)
        return None

    while True:
        pending = [i for i in (0, 1) if len(states[i].covered) < dig.n]
        if not pending:
            return True
        candidates = [i for i in pending if heaps[i]]
        if not candidates:
            return False
        side = min(candidates, key=lambda i: (len(states[i].covered), i))
        chosen = first_admissible(side)
        if chosen is None:
            continue
        _take(states[side], *chosen)
        reaches[side].remove(chosen[1])
        heapq.heappush(heaps[side], chosen[0])


def completion_stall(dig: RootedDigraph, states: tuple[DirectedState, ...]) -> InternalError:
    """The error for a stalled `complete_directed_pair`, with the instance."""
    return InternalError("directed completion stalled", {
        "stalled": [i + 1 for i, state in enumerate(states) if len(state.covered) < dig.n],
        "covered1": sorted(states[0].covered), "covered2": sorted(states[1].covered),
        "n": dig.n, "root": dig.root, "arcs": [list(arc) for arc in dig.arcs()]})


@dataclass
class SolveOptions:
    deterministic: bool = True
    oracle_budget: Optional[OracleBudget] = None


@dataclass(frozen=True)
class CompactStructure:
    """A compact kernel (arb), core (flow) or certificate (tree): its
    non-root vertices, its copies and its imaginary-leaf attachment witness."""

    vertices: frozenset[int]
    selection: ArcSelection | EdgeSelection
    attachment: Mapping[int, int]


def compact_structure(
    g: RootedDigraph | RootedGraph, ids: Iterable[int],
    classes: Iterable[tuple[int, int]], attachment: Mapping[int, int],
) -> CompactStructure:
    """The record of copies `ids` of a shape with classes `classes`.

    Its vertices are the ends of its classes minus the root.  Every tail of
    a kernel or core is the root or a head, so for the directed kinds this
    is the head set.
    """
    verts = frozenset(v for c in classes for v in c if v != g.root)
    return CompactStructure(verts, g.selection(ids), dict(attachment))


def expand_shapes(
    g: RootedDigraph | RootedGraph, rows: Iterable[Row]
) -> Iterator[CompactStructure]:
    """Every copy choice of every shape row, in order.

    A shape taking m copies of a class chooses among the m-subsets of the
    class's copies, in lexicographic order, the classes varying as in
    `itertools.product` over the shape's sorted classes.
    """
    for classes, counts, attachment, *_ in rows:
        choices = [itertools.combinations(g.class_ids(*c), m) for c, m in zip(classes, counts)]
        for combo in itertools.product(*choices):
            yield compact_structure(g, (aid for chunk in combo for aid in chunk), classes, attachment)


@dataclass
class Stages:
    """The per-problem hooks of `run_pipeline`, built inside each solve call.

    `size` is the vertex count of a compact structure; instances with fewer
    non-root vertices go to the brute-force `oracles.run_oracle`.  `gate`
    returns None when it passes, else the failing stage and its cut witness
    (or None).  `finish` grows and completes the crystallised pair, given as
    the two `CompactStructure` records `run_pipeline` builds from each
    side's copy ids and shape, and returns the witness.  Arb's also sets the
    counter `completionSteps` to 2(n - 2k + 1): the classic post-check fixes
    each side at 2k - 2 non-root vertices, and each completion step covers
    one new vertex, or the solve raises.  `shapes` returns the kind's shape
    search's finished rows (`Row`), each carrying whether it is extendable:
    for the directed kinds whether removing its arcs keeps D root-connected,
    and always for tree.  Without `completable` (the directed kinds) the
    first pair of extendable rows whose copy masks do not conflict is the
    hit; with it (tree), the masks only pre-filter and each mask-free pair
    is crystallised and handed to `completable` until one passes.
    `validate` is passed in rather than imported here so that the call goes
    through the solver module's own name, which `perfbench/tracer.py` wraps.
    """

    started: float  # perf_counter() at the start of the solve
    size: int
    gate: Callable[[], Optional[tuple[str, Optional[dict]]]]
    shape_counter: str  # "kernels", "cores" or "certificates"
    shapes: Callable[[], list[Row]]
    finish: Callable[[tuple[CompactStructure, CompactStructure], dict], dict]
    validate: Callable[[ProblemInstance, dict], object]
    completable: Optional[Callable[[frozenset[int], frozenset[int]], bool]] = None
    oracle_witness: Callable[[tuple], dict] = (
        lambda w: {"tree1": list(w[0]), "tree2": list(w[1])})


def run_pipeline(inst: ProblemInstance, opts: SolveOptions, stages: Stages) -> SolveReport:
    """Small-case oracle, gate, shape enumeration with the extendability
    probe carried down, pair search, copy crystallisation, then the
    problem's grow-and-complete.

    The shape searches hand over finished rows that carry their
    extendability verdicts, decided down the search stacks by
    `graphs.ResidualReach.step`, so this only sums their expanded counts,
    drops the rows marked not extendable and passes the kept rows' masks to
    `PairSearch`; it runs no probe of its own.  Count dicts are built only
    for the pairs that get crystallised: tree's `accept` and the hit.
    `growSteps` is the sum of the hit pair's attachments, as `grow_pair`
    stops exactly when every target is met, or raises.
    """
    g = inst.graph
    counters = {stages.shape_counter: 0, "pairsTested": 0, "growSteps": 0}
    timings: dict[str, float] = {}

    def report(decision, stage, witness=None, cut=None):
        validation = None
        if witness is not None:
            verdict = stages.validate(inst, witness)
            if not verdict.ok:
                raise InternalError("solver produced an invalid witness",
                                    {"failures": verdict.failures()})
            validation = verdict.to_json_dict()
        timings["total"] = time.perf_counter() - stages.started
        return SolveReport(
            problem=inst.kind, k=inst.k, decision=decision, stage=stage,
            witness=witness, cut_witness=cut, counters=counters,
            validation=validation, timings=timings,
            deterministic=opts.deterministic,
        )

    if g.n - 1 < stages.size:
        arcs = g.arc_count if isinstance(g, RootedDigraph) else g.edge_count
        budget = opts.oracle_budget or OracleBudget(
            max_vertices=g.n, max_arcs=arcs, max_candidates=10_000_000)
        ans = run_oracle(inst, budget)
        counters["pairsTested"] = ans.candidates
        witness = stages.oracle_witness(ans.witness) if ans.decision else None
        return report(ans.decision, "oracle-smallcase", witness)

    failed = stages.gate()
    if failed is not None:
        return report(False, failed[0], cut=failed[1])

    class_ids = g.class_ids
    completable = stages.completable
    rows = stages.shapes()
    counters[stages.shape_counter] = sum(row[3] for row in rows)
    rows = [row for row in rows if row[6]]

    def crystallize(i: int, j: int) -> Optional[tuple[set[int], set[int]]]:
        return crystallize_pair(dict(zip(rows[i][0], rows[i][1])),
                                dict(zip(rows[j][0], rows[j][1])), class_ids)

    accept = None
    if completable is not None:
        def accept(i: int, j: int) -> bool:
            assigned = crystallize(i, j)
            return assigned is not None and completable(
                frozenset(assigned[0]), frozenset(assigned[1]))

    hit, tested = PairSearch([row[4] for row in rows], [row[5] for row in rows],
                             accept).find_first()
    counters["pairsTested"] = tested
    if hit is None:
        return report(False, "pair-search")

    i, j = hit
    assigned = crystallize(i, j)
    if assigned is None:
        raise InternalError("copy assignment failed for a tested pair", {"pair": [i, j]})
    pair = (compact_structure(g, assigned[0], rows[i][0], rows[i][2]),
            compact_structure(g, assigned[1], rows[j][0], rows[j][2]))
    counters["growSteps"] = sum(rows[i][2].values()) + sum(rows[j][2].values())
    witness = stages.finish(pair, counters)
    return report(True, "completed", witness)

"""Machinery shared by the three FPT solvers.

The solve pipeline all three run (`run_pipeline`), largeness views,
depth-bounded candidate pools, the growth loop (compact -> classic) with
each kind's admissibility test, and the greedy directed completion.  The
undirected solver's completion is exact via matroid union instead.

A structure "shape" is a parallel-class-level description; reachability after
removing a shape's arcs depends only on per-class counts, so extendability is
precomputed per shape.  Whether two shapes can take disjoint copies also
depends only on their counts, so each shape gets two copy bit masks
(`copy_masks`) and the pair search tests a whole row of partners with a few
big-integer operations (`PairSearch`).
"""

from __future__ import annotations

import heapq
import time
from bisect import insort
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .connectivity import ResidualReach
from .errors import InternalError, StructureError
from .graphs import ProblemInstance, RootedDigraph, RootedGraph, parse_rooted_tree
from .oracles import OracleAnswer, OracleBudget
from .reports import SolveReport


@dataclass(frozen=True)
class LargenessView:
    """Threshold partition of the vertices into large and small."""

    k: int
    threshold: int
    large: frozenset[int]
    small: frozenset[int]


def classify(
    n: int, neighbors: Callable[[int], Sequence[int]], k: int, threshold: int
) -> LargenessView:
    """Large iff at least `threshold` distinct neighbours (out-neighbours in
    a digraph)."""
    large = frozenset(v for v in range(n) if len(neighbors(v)) >= threshold)
    return LargenessView(k=k, threshold=threshold, large=large,
                         small=frozenset(range(n)) - large)


def depth_bounded_pool(
    neighbors: Callable[[int], Iterable[int]],
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
            for w in neighbors(u):
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
    so feasibility is per-branch slack arithmetic: every branch must stay
    within `limit` vertices and the anchored branches' total slack must cover
    the residual leaf count.  Returns the positive entries of the witness.
    Anchors are large non-root vertices only: the root is never an
    attachment source.
    """
    if residual < 0:
        return None
    cap = {b: limit - s for b, s in branch_sizes.items()}
    if any(c < 0 for c in cap.values()):
        return None
    anchored = {branch_of[a] for a in anchors}
    if sum(cap[b] for b in anchored) < residual:
        return None
    x: dict[int, int] = {}
    remaining = residual
    for idx, a in enumerate(anchors):
        later = {branch_of[b] for b in anchors[idx + 1:]}
        later_cap = sum(cap[b] for b in later)
        give = max(0, remaining - later_cap)
        if give > cap[branch_of[a]]:
            return None
        x[a] = give
        cap[branch_of[a]] -= give
        remaining -= give
    if remaining != 0:
        return None
    return {a: v for a, v in sorted(x.items()) if v > 0}


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


def tree_shapes(
    root: int,
    k: int,
    pool: frozenset[int],
    large: frozenset[int],
    classes_of: Callable[[int], Iterable[tuple[int, object]]],
    key: Callable[[int, int], tuple[int, int]],
) -> list[tuple[tuple[tuple[int, int], ...], dict[int, int]]]:
    """Every compact tree shape (sorted class tuple) with its attachment.

    Shapes are trees on at most 2k-2 non-root vertices of `pool`, described
    at parallel-class level and grown from `root` one class at a time:
    `classes_of(tail)` gives the (head, ids) pairs leaving `tail` and
    `key(tail, head)` names the class.  Large vertices other than the root
    get no children and every root branch keeps at most k-1 vertices, which
    every valid kernel or certificate satisfies anyway.

    Each tree is built exactly once, so no seen set is needed: a state keeps
    an ordered list of candidates, the (tail, head) pairs leaving the tree
    for a pool vertex outside it.  Taking candidate i passes on only the
    candidates after i, minus those into the new head, plus the pairs
    leaving the new head (none for a large one).  A tree is then reached
    only through the first of its classes in each list, as every skipped
    candidate stays out of the whole subtree of the search.  The search is
    depth-first with an explicit stack, since trees can be k-1 classes
    deep, and the branch map, branch sizes, class list and anchors are
    changed in place and undone on the way back.  `key` is called once per
    non-empty tree.  A full-size tree has nothing to attach, so its
    attachment is empty; a smaller one needs an anchor to have one, so
    only those call `lex_smallest_attachment`.  The result is sorted by
    (size, classes).
    """
    limit = 2 * k - 2
    branch_of: dict[int, int] = {}
    sizes: dict[int, int] = {}
    classes: list[tuple[int, int]] = []
    anchors: list[int] = []  # the large vertices of branch_of, ascending
    result = []

    def visit() -> None:
        if len(classes) == limit:  # nothing to attach, every branch within k-1
            result.append((tuple(sorted(classes)), {}))
        elif anchors:
            attachment = lex_smallest_attachment(
                anchors=anchors, branch_of=branch_of, branch_sizes=sizes,
                limit=k - 1, residual=limit - len(classes))
            if attachment is not None:
                result.append((tuple(sorted(classes)), attachment))

    def leaving(tail: int) -> list[tuple[int, int]]:
        return [(tail, head) for head, _ids in classes_of(tail)
                if head != root and head not in branch_of and head in pool]

    visit()
    # frames of (candidates, index of the next one to try, head taken to
    # enter the frame); the root frame took none, and a full-size tree gets
    # no candidates
    stack: list[list] = [[leaving(root) if limit else [], 0, None]]
    while stack:
        frame = stack[-1]
        candidates = frame[0]
        for i in range(frame[1], len(candidates)):
            tail, head = candidates[i]
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
        branch_of[head] = top
        sizes[top] = sizes.get(top, 0) + 1
        classes.append(key(tail, head))
        if head in large:
            insort(anchors, head)
        visit()
        following = []
        if len(classes) < limit:
            following = [c for c in candidates[i + 1:] if c[1] != head]
            if head not in large:
                following += leaving(head)
        stack.append([following, 0, head])
    result.sort(key=lambda shape: (len(shape[0]), shape[0]))
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

    Side 1 takes the lowest copies of each of its classes; side 2 takes the
    next ones for shared classes.  None when some class lacks enough copies.
    """
    ids1: set[int] = set()
    ids2: set[int] = set()
    for (u, v), cnt in classes1.items():
        ids = class_ids(u, v)
        if len(ids) < cnt + classes2.get((u, v), 0):
            return None
        ids1.update(ids[:cnt])
    for (u, v), cnt in classes2.items():
        ids = class_ids(u, v)
        offset = classes1.get((u, v), 0)
        if len(ids) < offset + cnt:
            return None
        ids2.update(ids[offset:offset + cnt])
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
    counters: Optional[dict] = None,
) -> None:
    """Grow both structures until per-anchor leaf targets are met.

    Side 1 first, each side's least pending anchor first: a step gives it
    the first class of `classes_from(anchor)` (the classes leaving the
    anchor, as (head, copy ids)) whose `_admissible_copy` passes
    `admits(side, copy)`, the kind's test, asked before the copy is taken.
    Parallel copies of a failed class are never retried.  Anchors have
    enough neighbours to outlast every possible rejection, so a stall is an
    internal invariant violation.
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
        if counters is not None:
            counters["growSteps"] = counters.get("growSteps", 0) + 1
        deficits[side][anchor] -= 1
        if deficits[side][anchor] == 0:
            del deficits[side][anchor]


def grow_directed_pair(
    dig: RootedDigraph,
    states: tuple[DirectedState, DirectedState],
    targets: tuple[Mapping[int, int], Mapping[int, int]],
    counters: Optional[dict] = None,
) -> None:
    """`grow_pair` along out-arcs, keeping D minus each structure's arcs
    root-connected, so the pair stays extendable."""
    reaches = [ResidualReach(dig, state.ids) for state in states]

    def keeps_root_connected(side: int, copy: int) -> bool:
        reach = reaches[side]
        for taken in states[side].ids - reach.removed:  # the side's last step
            reach.remove(taken)
        return reach.keeps_root_connected(copy)

    grow_pair(states, targets, dig.out_classes, keeps_root_connected, counters)


def complete_directed_pair(
    dig: RootedDigraph,
    states: tuple[DirectedState, DirectedState],
    counters: Optional[dict] = None,
) -> bool:
    """Greedily extend both structures to span every vertex.

    Each step adds the canonically first admissible covering arc (tail
    covered, head uncovered, copy unused by the other structure, removal set
    still extendable).  Returns False on a stall, which the preconditions
    below rule out; callers raise `completion_stall` on it.

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
        if counters is not None:
            counters["completionSteps"] = counters.get("completionSteps", 0) + 1


def completion_stall(dig: RootedDigraph, states: tuple[DirectedState, ...]) -> InternalError:
    """The error for a stalled `complete_directed_pair`, with the instance."""
    return InternalError("directed completion stalled", {
        "stalled": [i + 1 for i, state in enumerate(states) if len(state.covered) < dig.n],
        "covered1": sorted(states[0].covered), "covered2": sorted(states[1].covered),
        "n": dig.n, "root": dig.root, "arcs": [list(arc) for arc in dig.arcs()]})


def copy_masks(
    shapes: Sequence[Shape], class_ids: Callable[[int, int], tuple[int, ...]]
) -> tuple[int, list[int], list[int]]:
    """(expanded shape count, `uses` masks, `limits` masks) of `shapes`.

    The expanded count sums, over the shapes, the ways to pick each shape's
    copies: the product of comb(L, m) over its classes, where the shape takes
    m of the L copies of a class.  Bit (c, t) of a mask means "takes at least
    t copies of class c", for t in {1, 2}: arb and tree shapes take one copy
    per class and flow cores at most min(2, L).  `uses[j]` holds (c, 1..m)
    for each class c of shape j, and `limits[i]` holds (c, L - m + 1) when
    that t is at most 2.  So `limits[i] & uses[j]` is zero exactly when no
    class has m_i + m_j > L, that is when the two shapes can take disjoint
    copies; the test is symmetric.  A class with L >= 4 can never run out
    and gets no bits.  A shape taking more copies of a class than min(L, 2)
    raises InternalError.
    """
    table: dict[tuple[int, int], tuple[tuple[int, int, int], ...]] = {}
    width = 0
    expanded = 0
    uses: list[int] = []
    limits: list[int] = []
    for counts, _ in shapes:
        combos, use, limit = 1, 0, 0
        for c, m in counts.items():
            row = table.get(c)
            if row is None:
                copies = len(class_ids(*c))
                one = two = 0
                if copies < 4:
                    one, two = 1 << width, 2 << width
                    width += 2
                at_least = {1: one, 2: two}
                # (comb(L, m), use bits, limit bit) for m = 0, 1, 2
                row = table[c] = (
                    (1, 0, 0),
                    (copies, one, at_least.get(copies, 0)),
                    (comb(copies, 2), one | two, at_least.get(copies - 1, 0)),
                )[:min(copies, 2) + 1]
            if not 0 <= m < len(row):
                raise InternalError(
                    "shape takes more copies of a class than the pair masks allow",
                    {"class": list(c), "count": m, "copies": len(class_ids(*c))})
            ways, use_bits, limit_bit = row[m]
            combos *= ways
            use |= use_bits
            limit |= limit_bit
        expanded += combos
        uses.append(use)
        limits.append(limit)
    return expanded, uses, limits


@dataclass
class PairSearch:
    """Lexicographic search for the first shape pair (i, j), i <= j, whose
    `limits[i] & uses[j]` is zero (see `copy_masks`) and that `accept`, when
    given, accepts.

    `find_first` builds one column per mask bit, the set of shapes whose
    `uses` has that bit, and scans row i at once: OR-ing the columns that
    `limits[i]` names gives every conflicting partner.  The free partners
    j >= i are then walked lowest first, and `accept` sees exactly the pairs
    a row-major scan of the pairs would pass to it, in the same order.  The
    pairsTested counter is the hit's 1-based row-major rank (or the total
    pair count on NO).
    """

    uses: Sequence[int]
    limits: Sequence[int]
    accept: Optional[Callable[[int, int], bool]] = None

    def _columns(self) -> list[int]:
        width = max((mask.bit_length() for mask in (*self.uses, *self.limits)), default=0)
        cells = [bytearray((len(self.uses) + 7) // 8) for _ in range(width)]
        for j, use in enumerate(self.uses):
            byte, bit = j >> 3, 1 << (j & 7)
            while use:
                low = use & -use
                cells[low.bit_length() - 1][byte] |= bit
                use ^= low
        return [int.from_bytes(cell, "little") for cell in cells]

    def find_first(self) -> tuple[Optional[tuple[int, int]], int]:
        """(first successful pair in row-major order or None, pairsTested)."""
        count = len(self.uses)
        columns = self._columns()
        full = (1 << count) - 1
        accept = self.accept
        for i, limit in enumerate(self.limits):
            blocked = 0
            while limit:
                low = limit & -limit
                blocked |= columns[low.bit_length() - 1]
                limit ^= low
            free = (full ^ blocked) >> i
            while free:
                low = free & -free
                j = i + low.bit_length() - 1
                if accept is None or accept(i, j):
                    return (i, j), i * count - i * (i - 1) // 2 + (j - i) + 1
                free ^= low
        return None, count * (count + 1) // 2


@dataclass
class SolveOptions:
    deterministic: bool = True
    oracle_budget: Optional[OracleBudget] = None


# A shape as the pipeline sees it: per-class copy counts plus the attachment
# witness.  Vertex sets and Compact* objects are built for the hit pair only.
Shape = tuple[dict[tuple[int, int], int], Mapping[int, int]]


@dataclass
class Stages:
    """The per-problem hooks of `run_pipeline`, built inside each solve call.

    `size` is the vertex count of a compact structure; instances with fewer
    non-root vertices go to the brute-force `oracle`.  `gate` returns None
    when it passes, else the failing stage and its cut witness (or None).
    `finish` grows and completes the crystallised pair, given as the copy
    ids and shape of each side, and returns the witness.  Without
    `completable` (the directed kinds) the extendability probe drops the
    shapes whose arcs' removal breaks root-connectivity before the pair
    search, and the first pair whose copy masks do not conflict is the hit;
    with it (tree), the masks only pre-filter and each mask-free pair is
    crystallised and handed to `completable` until one passes.  `validate` is passed in rather than
    imported here so that the call goes through the solver module's own
    name, which `perfbench/tracer.py` wraps.
    """

    started: float  # perf_counter() at the start of the solve
    size: int
    oracle: Callable[[OracleBudget], OracleAnswer]
    gate: Callable[[], Optional[tuple[str, Optional[dict]]]]
    shape_counter: str  # "kernels", "cores" or "certificates"
    shapes: Callable[[], list[Shape]]
    finish: Callable[[tuple[tuple[set[int], Shape], ...], dict], dict]
    validate: Callable[[ProblemInstance, dict], object]
    completable: Optional[Callable[[frozenset[int], frozenset[int]], bool]] = None
    oracle_witness: Callable[[tuple], dict] = (
        lambda w: {"tree1": list(w[0]), "tree2": list(w[1])})


def run_pipeline(inst: ProblemInstance, opts: SolveOptions, stages: Stages) -> SolveReport:
    """Small-case oracle, gate, shape enumeration, extendability probe, pair
    search, copy crystallisation, then the problem's grow-and-complete.

    The probe asks `is_root_connected_without` of each shape's lowest
    copies.  A shape that empties no class keeps D root-connected with no
    search, and any other needs a search only until the heads of the
    classes it empties are seen (see `graphs._RootedMultigraph._spans_without`).
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
        ans = stages.oracle(budget)
        counters["pairsTested"] = ans.candidates
        witness = stages.oracle_witness(ans.witness) if ans.decision else None
        return report(ans.decision, "oracle-smallcase", witness)

    failed = stages.gate()
    if failed is not None:
        return report(False, failed[0], cut=failed[1])

    class_ids = g.class_ids
    shapes = stages.shapes()
    expanded, uses, limits = copy_masks(shapes, class_ids)
    counters[stages.shape_counter] = expanded

    completable = stages.completable
    accept = None
    if completable is None:
        keep = [
            i for i, (counts, _) in enumerate(shapes)
            if g.is_root_connected_without(
                [aid for c, m in counts.items() for aid in class_ids(*c)[:m]])
        ]
        shapes = [shapes[i] for i in keep]
        uses = [uses[i] for i in keep]
        limits = [limits[i] for i in keep]
    else:
        def accept(i: int, j: int) -> bool:
            assigned = crystallize_pair(counts[i], counts[j], class_ids)
            return assigned is not None and completable(
                frozenset(assigned[0]), frozenset(assigned[1]))
    counts = [shape[0] for shape in shapes]

    hit, tested = PairSearch(uses, limits, accept).find_first()
    counters["pairsTested"] = tested
    if hit is None:
        return report(False, "pair-search")

    i, j = hit
    assigned = crystallize_pair(counts[i], counts[j], class_ids)
    if assigned is None:
        raise InternalError("copy assignment failed for a tested pair", {"pair": [i, j]})
    witness = stages.finish(((assigned[0], shapes[i]), (assigned[1], shapes[j])), counters)
    return report(True, "completed", witness)

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
parent's arborescence overlay.  Each is a generator that fills one
`pairs.ShapeRows` store, column by column, with the verdict in each row,
and yields each extendable row as it finds it, so the pipeline runs no
probe pass; a row's classes and counts travel packed in its integer sort
key, which also orders the rows, and are decoded only for the rows the
pipeline crystallises.

A YES needs only two compact structures, so the pipeline first pairs the
rows as they stream in: for each extendable row S, a partner search looks
for a partner of S, a row whose `uses` misses `S.limits`, pruning every
state whose `uses` meets that mask.  The mask alone excludes the classes S
takes every copy of: a shape takes one copy of a class (kernels and
certificates) or at most two (cores), so only a class of at most two
copies can be emptied, and `CopyTable` gives such a class's limit bit
(c, 1) to S and its use bit (c, 1) to every row that takes it.  Only when
the partner searches have spent `PARTNER_STATES` states does the search
run to its end and the exhaustive `PairSearch` decide, which every NO
does.  Growth and completion ask root reach of `ResidualReach` too.
"""

from __future__ import annotations

import heapq
import itertools
import time
from bisect import bisect, insort
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import InternalError, StructureError
from .graphs import (ArcSelection, EdgeSelection, ProblemInstance, ResidualReach, RootedDigraph,
                     RootedGraph, parse_rooted_tree)
from .oracles import OracleBudget, run_oracle
from .pairs import EMPTY_ATTACHMENT, CopyTable, PairSearch, Row, ShapeRows
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
) -> tuple[dict[int, list[tuple[int, int, tuple[int, int], int, int]]], list[tuple[int, int]]]:
    """The shape searches' candidates leaving the root and each small pool
    vertex u, as shared (u, v, class, copies, rank) tuples, and the sorted
    list of their classes: every class from u to a non-root pool vertex v,
    heads ascending.  The class is (u, v) for an arc and (min, max) for an
    edge, and its rank is its index in the class list; large non-root
    vertices take no children and get no entry."""
    root, directed = g.root, isinstance(g, RootedDigraph)
    incident = g.out_classes if directed else g.incident_classes
    table = {u: [(u, v, (u, v) if directed or u < v else (v, u), len(ids))
                 for v, ids in incident(u) if v != root and v in pool]
             for u in pool | {root} if u == root or u not in large}
    classes = sorted({c for candidates in table.values() for _, _, c, _ in candidates})
    rank = {c: r for r, c in enumerate(classes)}
    return {u: [(*candidate, rank[candidate[2]]) for candidate in candidates]
            for u, candidates in table.items()}, classes


def tree_shapes(
    g: RootedDigraph | RootedGraph,
    k: int,
    pool: frozenset[int],
    large: frozenset[int],
    reach: Optional[ResidualReach] = None,
) -> ShapeRows:
    """The search for every compact tree shape, as the empty `ShapeRows`
    store it fills; its rows sort by (size, classes).

    Shapes are trees on at most 2k-2 non-root vertices of `pool`, described
    at parallel-class level and grown from the root one class of
    `candidate_table(g, pool, large)` at a time, taking one copy of each.
    Large vertices other than the root get no children and every root
    branch keeps at most k-1 vertices, which every valid kernel or
    certificate satisfies anyway.

    The search is a generator (`ShapeRows.stream`): it adds each row as it
    finds it and yields the index of each extendable one, so a caller may
    stop after the first rows.  Each stream has its own stack and shares
    the candidate table, class ranks and `CopyTable` of this call, so a
    partner store's rows (`ShapeRows.partner`) carry the same keys, masks
    and attachments as the main store's rows of the same shapes.  A partner
    of a row S is a row whose `uses` misses `S.limits`, and its stream
    prunes every take whose `uses` meet that mask.  Each take is a class's
    first copy, so the mask prunes exactly the takes of the classes S
    empties (`CopyTable` gives each the bit (c, 1) in `S.limits`), and a
    pruned take is no state.  Its states are the empty tree and each class
    taken.

    Each tree is built exactly once, so no seen set is needed: a state keeps
    an ordered list of candidates.  Taking candidate i passes on the
    candidates after i plus the table's list of the new head; a candidate
    whose head is in the tree or whose root branch is full is passed over
    when its turn comes.  A tree is then reached only through the first of
    its classes in each list, as every skipped candidate stays out of the
    whole subtree of the search.  The search is depth-first with an explicit
    stack, since trees can be k-1 classes deep.  The branch map, branch
    sizes and anchors are changed in place and undone on the way back; each
    frame carries its state's expanded count and pair masks, its parent's
    with the new class's one-copy `CopyTable` entry folded in, asked once
    per class and kept by rank.  A full-size tree has nothing to attach, so
    its attachment is the shared `EMPTY_ATTACHMENT`, and it has no children,
    so it is emitted without a frame: a frame one class short of full size
    takes all its candidates in one scan.  A smaller tree needs an anchor to
    have an attachment, so only those call `lex_smallest_attachment`.

    Each frame also carries its classes' ranks, sorted, and its row key:
    the size in the top field, then the sorted ranks in fixed b-bit fields,
    2k-2 of them, b the bit length of the class count.  A take inserts its
    rank at the place `bisect` finds in the ranks, so the keys order the
    rows by (size, classes) and `ShapeRows.order` sorts them once.

    Given `reach` (the arb kernels), each frame also carries its emptied
    classes and its overlay on `reach`'s arborescence, or None once the
    state loses root-connectivity: a child that empties its new class (u, v)
    takes one `ResidualReach.step`, whose no-search case, the overlay's
    parent of v not being u, is tested here first, and any other child,
    like every child of a failed state, inherits the verdict, as removing
    more classes never restores root-connectivity.  Each row's extendability
    is that verdict, True for every row without `reach` (the tree
    certificates, which have no extendability probe).
    """
    limit = 2 * k - 2
    candidates_of, class_list = candidate_table(g, pool, large)
    width = len(class_list).bit_length()
    size_shift = limit * width
    shifts = [(limit - 1 - q) * width for q in range(limit)]
    field = (1 << width) - 1
    ones = [(1,) * size for size in range(limit + 1)]
    table = CopyTable()
    entries: list = [None] * len(class_list)  # one-copy entries by rank, once taken
    # taking a rank at place p of the sorted ranks keeps the key's bits
    # below (limit - p) fields, shifted down one field, and adds one to the size
    below = [(1 << (limit - p) * width) - 1 for p in range(limit)]
    grown = 1 << size_shift
    root, branch_cap = g.root, k - 1
    step, parent, start = ((None, {}, {}) if reach is None
                           else (reach.step, reach.parent, reach.overlay()))

    def decode(key: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        size = key >> size_shift
        return tuple(class_list[key >> shift & field] for shift in shifts[:size]), ones[size]

    def search(rows: ShapeRows, budget: Optional[int], against: int) -> Iterator[int]:
        add_key, add_attachment, add_expanded, add_uses, add_limits, add_extendable = (
            column.append for column in rows.columns())
        keys = rows.keys
        if not limit:  # k = 1: only the empty tree, full-size
            rows.states = 1
            add_key(0)
            add_attachment(EMPTY_ATTACHMENT)
            add_expanded(1)
            add_uses(0)
            add_limits(0)
            add_extendable(start is not None)
            if start is not None:
                yield 0
            return
        states = 1  # the empty start
        branch_of: dict[int, int] = {}
        sizes: dict[int, int] = {}
        anchors: list[int] = []  # the large vertices of branch_of, ascending
        parent_of = parent.get

        # frames of (candidates, index of the next one to try, head taken to
        # enter the frame, expanded count, uses, limits, emptied classes,
        # overlay, sorted ranks, key); the root frame took none, and a
        # full-size tree gets no frame
        stack: list[list] = [[candidates_of[root], 0, None, 1, 0, 0, (), start, (), 0]]
        try:
            while stack:
                frame = stack[-1]
                (candidates, _, _, base_expanded, base_uses, base_limits, emptied, overlay,
                 ranks, key) = frame
                # a take from a tree one class short of full size fills it:
                # nothing to attach, every branch within k-1, and no frame
                filling = len(ranks) == limit - 1
                for i in range(frame[1], len(candidates)):
                    tail, head, c, copies, rank = candidates[i]
                    if head in branch_of:
                        continue
                    top = head if tail == root else branch_of[tail]
                    if sizes.get(top, 0) >= branch_cap:
                        continue
                    entry = entries[rank]
                    if entry is None:
                        entry = entries[rank] = table.entry(c, copies, 1)
                    ways, use, lim, empties = entry
                    uses = base_uses | use
                    if uses & against:
                        continue
                    states += 1
                    expanded, limits = base_expanded * ways, base_limits | lim
                    reached, removed = overlay, emptied
                    if empties and step is not None and overlay is not None:
                        removed = emptied + (c,)
                        if overlay.get(head, parent_of(head)) == tail:
                            reached = step(overlay, emptied, c)
                    place = bisect(ranks, rank)
                    kept = key & below[place]
                    grown_key = (key ^ kept) + grown | rank << shifts[place] | kept >> width
                    if not filling:
                        break
                    add_key(grown_key)
                    add_attachment(EMPTY_ATTACHMENT)
                    add_expanded(expanded)
                    add_uses(uses)
                    add_limits(limits)
                    add_extendable(reached is not None)
                    if reached is not None:
                        yield len(keys) - 1
                else:
                    stack.pop()
                    head = frame[2]
                    if head is not None:
                        top = branch_of.pop(head)
                        sizes[top] -= 1
                        if not sizes[top]:
                            del sizes[top]
                        if head in large:
                            anchors.remove(head)
                    continue
                frame[1] = i + 1
                branch_of[head] = top
                sizes[top] = sizes.get(top, 0) + 1
                if head in large:
                    insort(anchors, head)
                if anchors:
                    attachment = lex_smallest_attachment(
                        anchors=anchors, branch_of=branch_of, branch_sizes=sizes,
                        limit=branch_cap, residual=limit - len(ranks) - 1)
                    if attachment is not None:
                        add_key(grown_key)
                        add_attachment(attachment)
                        add_expanded(expanded)
                        add_uses(uses)
                        add_limits(limits)
                        add_extendable(reached is not None)
                        if reached is not None:
                            yield len(keys) - 1
                if budget is not None and states >= budget:
                    return
                following = candidates[i + 1:]
                if head not in large:
                    following += candidates_of[head]
                stack.append([following, 0, head, expanded, uses, limits, removed, reached,
                              (*ranks[:place], rank, *ranks[place:]), grown_key])
        finally:
            rows.states = states

    return ShapeRows(decode, search)


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
    search as its empty `ShapeRows` store, whose stream yields the
    extendable rows: for the directed kinds those whose removal keeps D
    root-connected, and every row for tree.  Without `completable` (the
    directed kinds) any pair of extendable rows whose copy masks do not
    conflict is a hit; with it (tree), the masks only pre-filter and each
    mask-free pair is crystallised and handed to `completable` until one
    passes.
    `validate` is passed in rather than imported here so that the call goes
    through the solver module's own name, which `perfbench/tracer.py` wraps.
    """

    started: float  # perf_counter() at the start of the solve
    size: int
    gate: Callable[[], Optional[tuple[str, Optional[dict]]]]
    shape_counter: str  # "kernels", "cores" or "certificates"
    shapes: Callable[[], ShapeRows]
    finish: Callable[[tuple[CompactStructure, CompactStructure], dict], dict]
    validate: Callable[[ProblemInstance, dict], object]
    completable: Optional[Callable[[frozenset[int], frozenset[int]], bool]] = None
    oracle_witness: Callable[[tuple], dict] = (
        lambda w: {"tree1": list(w[0]), "tree2": list(w[1])})


# The states, summed over all partner searches of one solve, after which
# `run_pipeline` stops looking for a partner and runs the exhaustive search.
PARTNER_STATES = 64


def run_pipeline(inst: ProblemInstance, opts: SolveOptions, stages: Stages) -> SolveReport:
    """Small-case oracle, gate, shape search with the extendability probe
    carried down, partner search, else pair search, copy crystallisation,
    then the problem's grow-and-complete.

    The shape search streams its rows in search order, each carrying its
    extendability verdict, decided down the search stack by
    `graphs.ResidualReach.step`; this runs no probe of its own.
    - *Partner phase.*  For each extendable row S in turn, a partner search
      lists the partners of S, the rows R with `S.limits & R.uses` zero,
      which fit beside S: it prunes every state whose `uses` meet
      `S.limits`.  That mask alone drops every take of a class S takes all
      copies of, since such a class has at most two copies and `CopyTable`
      gives it the bit (c, 1) in `S.limits` (see the module docstring).
      A search whose every root take meets the mask visits its empty start
      alone, one state.
      Each extendable partner row R is tested as a one-pair `PairSearch`,
      and the first (for tree, the first that `completable` accepts) is the
      hit: (S, R) is a pair that the exhaustive `PairSearch` would accept
      too, so the answer is YES either way.  Then the shape counter is the
      expanded count of every row generated, the main stream's and the
      partner streams', and `pairsTested` the number of partner rows tested.
    - *Fallback.*  Once the partner searches have taken `PARTNER_STATES`
      states, or the main stream ends, the main search carries on to its
      end, and the answer is exact: the shape counter sums the expanded
      counts of every main row, the rows not extendable are dropped, the
      rest are sorted by key and their mask columns go to `PairSearch`,
      whose first hit and `pairsTested` are those of the full search.  So
      every NO, and every YES the partner phase misses, reports what the
      exhaustive search alone reports.
    Only the rows that get crystallised, and each S a partner row is tested
    beside, are decoded into classes and counts.  `growSteps` is the sum of
    the hit pair's attachments, as `grow_pair` stops exactly when every
    target is met, or raises.
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

    def crystallize(first: Row, second: Row) -> Optional[tuple[set[int], set[int]]]:
        return crystallize_pair(dict(zip(first[0], first[1])), dict(zip(second[0], second[1])),
                                class_ids)

    def fits(first: Row, second: Row) -> bool:
        """Whether tree's matroid union completes the crystallised pair."""
        assigned = crystallize(first, second)
        return assigned is not None and completable(
            frozenset(assigned[0]), frozenset(assigned[1]))

    def partner_hit(rows: ShapeRows, stream: Iterator[int]) -> Optional[tuple[Row, Row]]:
        left = PARTNER_STATES
        if left <= 0:
            return None
        for s in stream:
            limits, first = rows.limits[s], None
            partners = rows.partner()
            for r in partners.stream(left, limits):
                first, second = first or rows[s], partners[r]
                accept = None if completable is None else lambda *_: fits(first, second)
                found, tested = PairSearch((partners.uses[r],), (limits,), accept).find_first()
                counters["pairsTested"] += tested
                if found is not None:
                    counters[stages.shape_counter] += sum(rows.expanded) + sum(partners.expanded)
                    return first, second
            counters[stages.shape_counter] += sum(partners.expanded)
            left -= partners.states
            if left <= 0:
                break
        return None

    rows = stages.shapes()
    stream = rows.stream()
    hit = partner_hit(rows, stream)
    if hit is None:
        for _ in stream:  # the main search carries on from where it stopped
            pass
        counters[stages.shape_counter] = sum(rows.expanded)
        rows.keep_extendable()
        rows.order()
        accept = None
        if completable is not None:
            def accept(i: int, j: int) -> bool:
                return fits(rows[i], rows[j])

        pair, counters["pairsTested"] = PairSearch(rows.uses, rows.limits, accept).find_first()
        if pair is None:
            return report(False, "pair-search")
        hit = rows[pair[0]], rows[pair[1]]

    first, second = hit
    assigned = crystallize(first, second)
    if assigned is None:
        raise InternalError("copy assignment failed for a tested pair", {})
    pair = (compact_structure(g, assigned[0], first[0], first[2]),
            compact_structure(g, assigned[1], second[0], second[2]))
    counters["growSteps"] = sum(first[2].values()) + sum(second[2].values())
    witness = stages.finish(pair, counters)
    return report(True, "completed", witness)

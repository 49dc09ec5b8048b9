"""Machinery shared by the three FPT solvers.

The solve pipeline all three run (`run_pipeline`), largeness views,
depth-bounded candidate pools, the directed growth loop (compact ->
classic), and the greedy directed completion.  The undirected solver reuses
the pipeline, views and pools; its completion is exact via matroid union.

A structure "shape" is a parallel-class-level description; reachability after
removing a shape's arcs depends only on per-class counts, so extendability is
precomputed per shape and pair search reduces to copy-assignability.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .connectivity import ResidualReach
from .errors import InternalError
from .graphs import ProblemInstance, RootedDigraph
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
    parent: Mapping[int, int], root: int, large: frozenset[int], k: int
) -> Optional[dict[int, int]]:
    """Attachment witness of a compact kernel or certificate, else None.

    `parent` maps each non-root vertex of a tree grown from `root` to its
    parent.  The structure has at most 2k-2 non-root vertices, its large
    non-root vertices have no children (sinks of a kernel, leaves of a
    certificate), and its imaginary leaves fit by per-branch slack.
    """
    if len(parent) > 2 * k - 2:
        return None
    if any(u != root and u in large for u in parent.values()):
        return None
    branch_of, sizes = branch_structure(parent, root)
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
    every valid kernel or certificate satisfies anyway.  Each search state
    carries its branch map and branch sizes, so checking an extension is one
    lookup.  A class set fixes the whole state, so the depth-first order
    (kept for its small frontier) does not show in the result, which is
    sorted by (size, classes).
    """
    limit = 2 * k - 2
    empty: frozenset[tuple[int, int]] = frozenset()
    seen = {empty}
    stack: list[tuple[frozenset, dict[int, int], dict[int, int]]] = [(empty, {}, {})]
    result = []
    while stack:
        classes, branch_of, sizes = stack.pop()
        attachment = lex_smallest_attachment(
            anchors=sorted(v for v in branch_of if v in large),
            branch_of=branch_of,
            branch_sizes=sizes,
            limit=k - 1,
            residual=limit - len(branch_of),
        )
        if attachment is not None:
            result.append((tuple(sorted(classes)), attachment))
        if len(classes) == limit:
            continue
        for tail in (root, *branch_of):
            if tail != root and tail in large:
                continue
            for head, _ids in classes_of(tail):
                if head == root or head in branch_of or head not in pool:
                    continue
                nxt = classes | {key(tail, head)}
                if nxt in seen:
                    continue
                top = head if tail == root else branch_of[tail]
                size = sizes.get(top, 0)
                if size >= k - 1:
                    continue
                seen.add(nxt)
                stack.append((nxt, {**branch_of, head: top}, {**sizes, top: size + 1}))
    result.sort(key=lambda shape: (len(shape[0]), shape[0]))
    return result


@dataclass
class DirectedState:
    """A growing sub-digraph: chosen arc ids plus its covered vertex set."""

    ids: set[int]
    covered: set[int]


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


def pair_shares_ok(
    classes1: Mapping[tuple[int, int], int],
    classes2: Mapping[tuple[int, int], int],
    class_ids: Callable[[int, int], tuple[int, ...]],
) -> bool:
    for c, cnt in classes1.items():
        if cnt + classes2.get(c, 0) > len(class_ids(*c)):
            return False
    return True


def _admissible_copy(
    state: DirectedState, reach: ResidualReach, other: DirectedState,
    head: int, ids: tuple[int, ...],
) -> Optional[int]:
    """The copy of a class into `head` that `state` may take next, or None.

    It must reach a vertex new to the structure, be unused by the other
    structure and keep D minus the structure's arcs root-connected.  As both
    structures grow, every rejection is permanent: a covered head stays
    covered, a copy the other side took stays taken, and an arc critical for
    S stays critical for every superset of S (no copy of a class into an
    uncovered head is in S, so the class has no other copy to try).
    """
    if head in state.covered:
        return None
    copy = next((aid for aid in ids if aid not in other.ids), None)
    if copy is None or not reach.keeps_root_connected(copy):
        return None
    return copy


def _take(state: DirectedState, reach: ResidualReach, head: int, copy: int) -> None:
    state.ids.add(copy)
    state.covered.add(head)
    reach.remove(copy)


def grow_directed_pair(
    dig: RootedDigraph,
    states: tuple[DirectedState, DirectedState],
    targets: tuple[dict[int, int], dict[int, int]],
    counters: Optional[dict] = None,
) -> None:
    """Grow both structures until per-anchor leaf targets are met.

    Each step adds one arc from an anchor to a vertex new to that structure,
    keeping arc-disjointness and extendability.  Parallel copies of a failed
    arc are never retried.  Anchors have enough out-neighbors to outlast every
    possible rejection, so a stall is an internal invariant violation.
    """
    reaches = [ResidualReach(dig, state.ids) for state in states]
    deficits = [dict(t) for t in targets]
    while True:
        side = next((i for i in (0, 1) if deficits[i]), None)
        if side is None:
            return
        state, other = states[side], states[1 - side]
        anchor = min(deficits[side])
        chosen = None
        for head, ids in dig.out_classes(anchor):
            copy = _admissible_copy(state, reaches[side], other, head, ids)
            if copy is not None:
                chosen = (head, copy)
                break
        if chosen is None:
            raise InternalError(
                "growth stalled despite pending attachment targets",
                {"anchor": anchor, "side": side,
                 "deficits": {str(k): v for k, v in deficits[side].items()}},
            )
        _take(state, reaches[side], *chosen)
        if counters is not None:
            counters["growSteps"] = counters.get("growSteps", 0) + 1
        deficits[side][anchor] -= 1
        if deficits[side][anchor] == 0:
            del deficits[side][anchor]


def complete_directed_pair(
    dig: RootedDigraph,
    states: tuple[DirectedState, DirectedState],
    counters: Optional[dict] = None,
) -> bool:
    """Greedily extend both structures to span every vertex.

    Each step adds the canonically first admissible covering arc (tail
    covered, head uncovered, copy unused by the other structure, removal set
    still extendable).  Returns False on a stall; the caller decides whether
    to fall back to exhaustive completion.

    Rejections are permanent (see `_admissible_copy`), so each side keeps a
    min-heap of its covered tails and, per tail, a cursor to the first class
    of `out_classes(tail)` not yet rejected; a tail with none left leaves
    the heap for good.
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
                copy = _admissible_copy(state, reach, other, head, ids)
                if copy is not None:
                    cursor[tail] = i
                    return head, copy
            heapq.heappop(heap)
        return None

    blocked = [False, False]
    while True:
        pending = [i for i in (0, 1) if len(states[i].covered) < dig.n]
        if not pending:
            return True
        candidates = [i for i in pending if not blocked[i]]
        if not candidates:
            return False
        side = min(candidates, key=lambda i: (len(states[i].covered), i))
        chosen = first_admissible(side)
        if chosen is None:
            blocked[side] = True
            continue
        _take(states[side], reaches[side], *chosen)
        heapq.heappush(heaps[side], chosen[0])
        blocked = [False, False]
        if counters is not None:
            counters["completionSteps"] = counters.get("completionSteps", 0) + 1


@dataclass
class PairSearch:
    """Deterministic lexicographic scan over candidate shape pairs.

    The reported result is the canonically smallest successful pair, and the
    pairsTested counter is that pair's 1-based rank (or the total pair count
    on NO).
    """

    count: int
    test: Callable[[int, int], bool]

    def pairs(self) -> Iterable[tuple[int, int]]:
        for i in range(self.count):
            for j in range(i, self.count):
                yield (i, j)

    def total(self) -> int:
        return self.count * (self.count + 1) // 2

    def rank(self, pair: tuple[int, int]) -> int:
        i, j = pair
        return i * self.count - i * (i - 1) // 2 + (j - i) + 1

    def find_first(self) -> tuple[Optional[tuple[int, int]], int]:
        """(first successful pair in row-major order or None, pairsTested)."""
        for pair in self.pairs():
            if self.test(*pair):
                return pair, self.rank(pair)
        return None, self.total()


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
    `completable` (the directed kinds) shapes whose arcs' removal breaks
    root-connectivity are dropped before the pair search; with it, the pair
    test also asks it about the crystallised copies.  `validate` is passed
    in rather than imported here so that the call goes through the solver
    module's own name, which `perfbench/tracer.py` wraps.
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
    search, copy crystallisation, then the problem's grow-and-complete."""
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
    expanded = 0
    for counts, _ in shapes:
        combos = 1
        for c, m in counts.items():
            combos *= comb(len(class_ids(*c)), m)
        expanded += combos
    counters[stages.shape_counter] = expanded

    completable = stages.completable
    if completable is None:
        shapes = [
            shape for shape in shapes
            if g.is_root_connected_without(
                [aid for c, m in shape[0].items() for aid in class_ids(*c)[:m]])
        ]
    counts = [shape[0] for shape in shapes]

    def test(i: int, j: int) -> bool:
        if not pair_shares_ok(counts[i], counts[j], class_ids):
            return False
        if completable is None:
            return True
        assigned = crystallize_pair(counts[i], counts[j], class_ids)
        return assigned is not None and completable(
            frozenset(assigned[0]), frozenset(assigned[1]))

    hit, tested = PairSearch(count=len(shapes), test=test).find_first()
    counters["pairsTested"] = tested
    if hit is None:
        return report(False, "pair-search")

    i, j = hit
    assigned = crystallize_pair(counts[i], counts[j], class_ids)
    if assigned is None:
        raise InternalError("copy assignment failed for a tested pair", {"pair": [i, j]})
    witness = stages.finish(((assigned[0], shapes[i]), (assigned[1], shapes[j])), counters)
    return report(True, "completed", witness)

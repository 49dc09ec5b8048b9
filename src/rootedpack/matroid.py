"""Graphic-matroid union with forced forests.

Completability of a pair of edge-disjoint forests (can they be extended to
two edge-disjoint spanning trees, one containing each?) is the rank question
for the union of two graphic matroids contracted by the forced forests.  The
same augmenting-path engine answers the question and produces the witness
trees, so completion is exact, never greedy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ContractError, InternalError
from .graphs import EdgeSelection, RootedGraph


class ForcedForestContext:
    """One side of the union: forced forest plus movable independent edges.

    Independence of S means S together with the forced forest is acyclic.
    Connectivity queries run on a union-find that stays valid across inserts
    and is rebuilt lazily after removals.
    """

    def __init__(self, graph: RootedGraph, forced: Iterable[int]):
        self.graph = graph
        self.forced = frozenset(forced)
        self.members: set[int] = set()
        self.adj: dict[int, list[tuple[int, int]]] = {}
        self._uf: list[int] = list(range(graph.n))
        self._uf_ok = True
        for eid in sorted(self.forced):
            u, v = graph.edge(eid)
            if self._connected_now(u, v):
                raise ContractError("forced edge set is not a forest")
            self._link(u, v)
            self._adj_add(u, v, eid)

    # union-find ---------------------------------------------------------

    def _find(self, v: int) -> int:
        uf = self._uf
        root = v
        while uf[root] != root:
            root = uf[root]
        while uf[v] != root:
            uf[v], v = root, uf[v]
        return root

    def _link(self, u: int, v: int) -> None:
        self._uf[self._find(u)] = self._find(v)

    def _connected_now(self, u: int, v: int) -> bool:
        return self._find(u) == self._find(v)

    def _ensure_uf(self) -> None:
        if self._uf_ok:
            return
        self._uf = list(range(self.graph.n))
        for eid in self.forced:
            self._link(*self.graph.edge(eid))
        for eid in self.members:
            self._link(*self.graph.edge(eid))
        self._uf_ok = True

    # forest edits ---------------------------------------------------------

    def _adj_add(self, u: int, v: int, eid: int) -> None:
        self.adj.setdefault(u, []).append((v, eid))
        self.adj.setdefault(v, []).append((u, eid))

    def connected(self, u: int, v: int) -> bool:
        self._ensure_uf()
        return self._connected_now(u, v)

    def insert(self, eid: int) -> None:
        u, v = self.graph.edge(eid)
        self.members.add(eid)
        self._adj_add(u, v, eid)
        if self._uf_ok:
            self._link(u, v)

    def remove(self, eid: int) -> None:
        u, v = self.graph.edge(eid)
        self.members.remove(eid)
        self.adj[u].remove((v, eid))
        self.adj[v].remove((u, eid))
        self._uf_ok = False

    def size(self) -> int:
        return len(self.forced) + len(self.members)

    def path_edges(self, u: int, v: int) -> Optional[list[int]]:
        """Edge ids along the forest path from u to v, None if disconnected."""
        if u == v:
            return []
        prev: dict[int, tuple[int, int]] = {u: (-1, -1)}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w, eid in sorted(self.adj.get(x, ())):
                if w not in prev:
                    prev[w] = (x, eid)
                    if w == v:
                        queue.clear()
                        break
                    queue.append(w)
        if v not in prev:
            return None
        out = []
        w = v
        while w != u:
            x, eid = prev[w]
            out.append(eid)
            w = x
        return out

    def assert_forest(self) -> None:
        uf = list(range(self.graph.n))

        def find(v: int) -> int:
            while uf[v] != v:
                uf[v] = uf[uf[v]]
                v = uf[v]
            return v

        for eid in sorted(self.forced | self.members):
            u, v = self.graph.edge(eid)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise InternalError("matroid union produced a cyclic side",
                                    {"edge": eid})
            uf[ru] = rv


class _UnionRun:
    """Augmenting-path maximisation of |I1| + |I2| over two forced sides."""

    def __init__(self, graph: RootedGraph, forced1: Iterable[int], forced2: Iterable[int]):
        f1, f2 = frozenset(forced1), frozenset(forced2)
        if f1 & f2:
            raise ContractError("forced sets must be edge-disjoint")
        self.graph = graph
        self.sides = (ForcedForestContext(graph, f1), ForcedForestContext(graph, f2))
        self.in_side: dict[int, int] = {}
        self.target = graph.n - 1

    def full(self) -> bool:
        return all(s.size() == self.target for s in self.sides)

    def _try_direct(self, eid: int, order: Sequence[int]) -> bool:
        u, v = self.graph.edge(eid)
        for i in order:
            side = self.sides[i]
            if side.size() < self.target and not side.connected(u, v):
                side.insert(eid)
                self.in_side[eid] = i
                return True
        return False

    def _augment(self, e0: int) -> Optional[set[int]]:
        """BFS over the exchange digraph; None on success, visited set on failure."""
        sides = self.sides
        graph = self.graph
        visited = {e0}
        parent: dict[int, tuple[int, int]] = {}
        queue = deque([e0])
        while queue:
            x = queue.popleft()
            u, v = graph.edge(x)
            cur = self.in_side.get(x)
            for i in (0, 1):
                if i == cur:
                    continue
                side = sides[i]
                if side.size() < self.target and not side.connected(u, v):
                    self._apply(x, i, parent)
                    return None
                circuit = side.path_edges(u, v)
                if circuit is None:
                    continue
                for y in circuit:
                    if y in side.members and y not in visited:
                        visited.add(y)
                        parent[y] = (x, i)
                        queue.append(y)
        return visited

    def _apply(self, x: int, free_side: int, parent: Mapping[int, tuple[int, int]]) -> None:
        cur, target = x, free_side
        while True:
            if cur in parent:
                p, i = parent[cur]
                self.sides[i].remove(cur)
                self.sides[target].insert(cur)
                self.in_side[cur] = target
                cur, target = p, i
            else:
                self.sides[target].insert(cur)
                self.in_side[cur] = target
                break
        for side in self.sides:
            side.assert_forest()

    def run(self, seeds: Sequence[tuple[int, int]] = ()) -> None:
        """Process every non-forced element once; seeds are tried first with
        a preferred side.  Stops early once both sides are spanning."""
        blocked = self.sides[0].forced | self.sides[1].forced
        seeded = [eid for eid, _ in seeds]
        seen = set(seeded) | blocked
        rest = [eid for eid in self.graph.edge_ids if eid not in seen]
        pending: list[int] = []
        for eid, pref in seeds:
            if eid in blocked:
                continue
            if not self._try_direct(eid, (pref, 1 - pref)):
                pending.append(eid)
        for eid in rest:
            if not self._try_direct(eid, (0, 1)):
                pending.append(eid)
        if self.full():
            return
        failed: set[int] = set()
        for eid in pending:
            if self.full():
                return
            if eid in failed:
                continue
            outcome = self._augment(eid)
            if outcome is None:
                failed = set()
            else:
                failed |= outcome

    def result(self) -> tuple[frozenset[int], frozenset[int]]:
        return (
            frozenset(self.sides[0].forced | self.sides[0].members),
            frozenset(self.sides[1].forced | self.sides[1].members),
        )


@dataclass(frozen=True)
class TreeMapping:
    """Map between spanning trees where both single-edge exchanges stay trees.

    Injective wherever the exchange graph permits; two edges may be forced
    onto a common image when it is their only admissible partner.
    """

    mapping: Mapping[int, int]

    def __getitem__(self, eid: int) -> int:
        return self.mapping[eid]


def _check_subtree_inputs(g: RootedGraph, x1: EdgeSelection, x2: EdgeSelection) -> None:
    if x1.ids & x2.ids:
        raise ContractError("subtrees must be edge-disjoint")


def max_forest_pair(
    g: RootedGraph,
    forced1: Iterable[int],
    forced2: Iterable[int],
    seeds: Sequence[tuple[int, int]] = (),
) -> tuple[frozenset[int], frozenset[int]]:
    """Maximum pair of edge-disjoint forests extending the forced sets.

    Returns the two forests including their forced parts.  Both are spanning
    trees exactly when the pair is completable.
    """
    run = _UnionRun(g, forced1, forced2)
    run.run(seeds)
    return run.result()


def is_completable_pair(g: RootedGraph, x1: EdgeSelection, x2: EdgeSelection) -> bool:
    """Do edge-disjoint spanning trees T1 >= X1, T2 >= X2 exist?"""
    _check_subtree_inputs(g, x1, x2)
    t1, t2 = max_forest_pair(g, x1.ids, x2.ids)
    return len(t1) == g.n - 1 and len(t2) == g.n - 1


def find_disjoint_bases(
    g: RootedGraph, x1: EdgeSelection, x2: EdgeSelection
) -> Optional[tuple[EdgeSelection, EdgeSelection]]:
    """The completion witness: two disjoint spanning trees containing X1, X2."""
    _check_subtree_inputs(g, x1, x2)
    t1, t2 = max_forest_pair(g, x1.ids, x2.ids)
    if len(t1) != g.n - 1 or len(t2) != g.n - 1:
        return None
    return g.selection(t1), g.selection(t2)


def has_two_disjoint_spanning_trees(g: RootedGraph) -> bool:
    """Union rank of two graphic-matroid copies reaches 2(n-1)."""
    t1, t2 = max_forest_pair(g, (), ())
    return len(t1) == g.n - 1 and len(t2) == g.n - 1


def _spanning_tree_or_raise(g: RootedGraph, sel: EdgeSelection, name: str) -> None:
    if len(sel.ids) != g.n - 1:
        raise ContractError(f"{name} is not a spanning tree (edge count)")
    uf = list(range(g.n))

    def find(v: int) -> int:
        while uf[v] != v:
            uf[v] = uf[uf[v]]
            v = uf[v]
        return v

    for eid in sel.sorted_ids():
        u, v = g.edge(eid)
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ContractError(f"{name} contains a cycle")
        uf[ru] = rv


def _cut_side(g: RootedGraph, tree_ids: Sequence[int], dropped: int) -> frozenset[int]:
    """Component of one endpoint of the dropped edge in tree minus dropped."""
    adj: dict[int, list[int]] = {}
    for eid in tree_ids:
        if eid == dropped:
            continue
        u, v = g.edge(eid)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = g.edge(dropped)[0]
    seen = {start}
    queue = [start]
    while queue:
        x = queue.pop()
        for w in adj.get(x, ()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def tree_mapping(g: RootedGraph, t1: EdgeSelection, t2: EdgeSelection) -> TreeMapping:
    """A function sigma with T1-e+sigma(e) and T2-sigma(e)+e spanning trees.

    Shared edges map to themselves.  The rest is assigned from a maximum
    matching in the bipartite both-way exchange graph, topped up with the
    canonically first admissible partner for any leftover edge, so sigma is
    injective whenever the exchange graph allows it (it does not always:
    two T1 edges can share their only admissible partner).

    Library API for the tree-exchange argument behind the tree results: no
    solve stage calls it, and the acceptance property suites test it.
    """
    _spanning_tree_or_raise(g, t1, "T1")
    _spanning_tree_or_raise(g, t2, "T2")
    shared = t1.ids & t2.ids
    left = sorted(t1.ids - shared)
    right = sorted(t2.ids - shared)
    cut1 = {e: _cut_side(g, t1.sorted_ids(), e) for e in left}
    cut2 = {f: _cut_side(g, t2.sorted_ids(), f) for f in right}

    def crosses(cut: frozenset[int], eid: int) -> bool:
        u, v = g.edge(eid)
        return (u in cut) != (v in cut)

    adjacent = {
        e: [f for f in right if crosses(cut1[e], f) and crosses(cut2[f], e)]
        for e in left
    }
    match_left: dict[int, int] = {}
    match_right: dict[int, int] = {}

    def try_assign(e: int, banned: set[int]) -> bool:
        for f in adjacent[e]:
            if f in banned:
                continue
            banned.add(f)
            if f not in match_right or try_assign(match_right[f], banned):
                match_left[e] = f
                match_right[f] = e
                return True
        return False

    for e in left:
        try_assign(e, set())
    mapping = {e: e for e in sorted(shared)}
    for e in left:
        if e in match_left:
            mapping[e] = match_left[e]
        elif adjacent[e]:
            mapping[e] = adjacent[e][0]
        else:
            raise InternalError("edge admits no both-way exchange partner",
                                {"edge": e})
    # three-edge property: no vertex has three incident T1 edges sharing one
    # image (equivalently every such triple maps to >= 2 distinct edges)
    image_count: dict[tuple[int, int], int] = {}
    for e, f in mapping.items():
        for v in g.edge(e):
            key = (v, f)
            image_count[key] = image_count.get(key, 0) + 1
            if image_count[key] > 2:
                raise InternalError("three edges at a vertex share one image",
                                    {"vertex": v, "image": f})
    return TreeMapping(mapping=dict(sorted(mapping.items())))

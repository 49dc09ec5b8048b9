"""Graphic-matroid union with forced forests.

Completability of a pair of edge-disjoint forests (can they be extended to
two edge-disjoint spanning trees, one containing each?) is the rank question
for the union of two graphic matroids contracted by the forced forests.  The
same augmenting-path engine answers the question and produces the witness
trees, so completion is exact, never greedy.

`_UnionRun` is Edmonds' matroid partition.  A direct pass first inserts
every element that fits a side as it stands.  Only when it ends short of two
spanning trees do the sides get, through `ForcedForestContext.insert`, the
forest adjacency that augmenting searches walk; a union the pass completes
builds none.  A context never holds a member its adjacency lacks, as
`insert` and `remove` edit both.

Each augmenting search is a breadth-first search of the exchange digraph,
which changes only when a search succeeds.  A failed search has reached
everything reachable from its start and found no free element there, so
until the next success each element it reached is dead: whatever a dead
element reaches is dead too, so no augmenting path runs through it.  Later
searches never enqueue a dead element, and that is exact: an element first
reached through a dead one is itself dead, so skipping them changes neither
the search order nor the parents of the live elements, nor the trees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .errors import ContractError, InternalError
from .graphs import EdgeSelection, RootedGraph


class _UnionFind:
    """Disjoint sets over 0..n-1, with path halving."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(self, u: int, v: int) -> bool:
        """Join the sets of u and v; False when they were one set already."""
        ru, rv = self.find(u), self.find(v)
        self.parent[ru] = rv
        return ru != rv


def _cycle_edge(graph: RootedGraph, eids: Iterable[int]) -> Optional[int]:
    """The first of `eids` that closes a cycle with those before it, or None."""
    uf = _UnionFind(graph.n)
    return next((eid for eid in eids if not uf.union(*graph.edge(eid))), None)


class ForcedForestContext:
    """One side of the union: forced forest plus movable independent edges.

    Independence of S means S together with the forced forest is acyclic.
    Connectivity and path queries run on a rooted copy of the forest that
    every edit drops and the next query rebuilds.
    """

    def __init__(self, graph: RootedGraph, forced: Iterable[int]):
        self.graph = graph
        self.forced = frozenset(forced)
        self.members: set[int] = set()
        self.adj: dict[int, list[tuple[int, int]]] = {}
        self._rooted: Optional[tuple[list[int], list[int], list[int], list[int]]] = None
        if _cycle_edge(graph, sorted(self.forced)) is not None:
            raise ContractError("forced edge set is not a forest")
        for eid in sorted(self.forced):
            self._adj_add(*graph.edge(eid), eid)

    # forest edits ---------------------------------------------------------

    def _adj_add(self, u: int, v: int, eid: int) -> None:
        self.adj.setdefault(u, []).append((v, eid))
        self.adj.setdefault(v, []).append((u, eid))
        self._rooted = None

    def connected(self, u: int, v: int) -> bool:
        comp = self._rooted_forest()[3]
        return comp[u] == comp[v]

    def insert(self, eid: int) -> None:
        u, v = self.graph.edge(eid)
        self.members.add(eid)
        self._adj_add(u, v, eid)

    def remove(self, eid: int) -> None:
        u, v = self.graph.edge(eid)
        self.members.remove(eid)
        self.adj[u].remove((v, eid))
        self.adj[v].remove((u, eid))
        self._rooted = None

    def size(self) -> int:
        return len(self.forced) + len(self.members)

    def _rooted_forest(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """(parent, parent edge, depth, component root) of every vertex."""
        if self._rooted is None:
            n = self.graph.n
            parent, pedge, depth, comp = [-1] * n, [-1] * n, [0] * n, [-1] * n
            adj = self.adj
            for r in range(n):
                if comp[r] >= 0:
                    continue
                comp[r] = r
                stack = [r]
                while stack:
                    x = stack.pop()
                    d = depth[x] + 1
                    for w, eid in adj.get(x, ()):
                        if comp[w] < 0:
                            comp[w], parent[w], pedge[w], depth[w] = r, x, eid, d
                            stack.append(w)
            self._rooted = (parent, pedge, depth, comp)
        return self._rooted

    def path_edges(self, u: int, v: int) -> Optional[list[int]]:
        """Edge ids along the forest path between u and v, None if disconnected.

        The ids run from v's end of the path back to u's.  Queries walk both
        ends up a rooted copy of the forest to their common ancestor; the copy
        is built on the first query after an edit, so the queries of one
        augmenting search share it.
        """
        if u == v:
            return []
        parent, pedge, depth, comp = self._rooted_forest()
        if comp[u] != comp[v]:
            return None
        from_v: list[int] = []
        from_u: list[int] = []
        while depth[v] > depth[u]:
            from_v.append(pedge[v])
            v = parent[v]
        while depth[u] > depth[v]:
            from_u.append(pedge[u])
            u = parent[u]
        while u != v:
            from_v.append(pedge[v])
            v = parent[v]
            from_u.append(pedge[u])
            u = parent[u]
        from_u.reverse()
        return from_v + from_u

    def assert_forest(self) -> None:
        eid = _cycle_edge(self.graph, sorted(self.forced | self.members))
        if eid is not None:
            raise InternalError("matroid union produced a cyclic side", {"edge": eid})


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
        # each side's components as the direct pass sees them (see `run`)
        self._direct = (_UnionFind(graph.n), _UnionFind(graph.n))
        for uf, forced in zip(self._direct, (f1, f2)):
            for eid in forced:
                uf.union(*graph.edge(eid))

    def full(self) -> bool:
        return all(s.size() == self.target for s in self.sides)

    def _augment(self, e0: int, dead: Collection[int] = frozenset()) -> Optional[set[int]]:
        """BFS over the exchange digraph that never enters `dead`; None on
        success, visited set on failure."""
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
                circuit = side.path_edges(u, v)
                if circuit is None:  # a forest short of spanning: x is free here
                    self._apply(x, i, parent)
                    return None
                for y in circuit:
                    if y in side.members and y not in visited and y not in dead:
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

    def run(self, seeds: Sequence[tuple[int, int]] = ()) -> tuple[frozenset[int], frozenset[int]]:
        """The two forests, forced parts included.  Each non-forced element is
        offered at most once; seeds come first, with a preferred side.

        A direct pass inserts every element that fits a side as it stands and
        stops as soon as both sides span.  It only inserts, and no
        augmentation runs before it ends, so each side's components stay in
        one union-find seeded with its forced edges, and the pass keeps its
        insertions in its own lists.  It runs `_UnionFind.union`'s steps
        inline on the two parent lists, the same path-halving finds in the
        same order, so each element lands where `union` would put it.  If
        both sides span, the result is read from those lists and the
        contexts stay as built.  Otherwise they get
        the lists through `insert`, which builds the adjacency the searches
        walk, so no context holds a member its adjacency lacks.  The elements
        the pass could not insert then get an augmenting search each, until
        both sides span.  A search never enters an element that a failed
        search reached since the last success: the exchange digraph has not
        changed since, so nothing reachable from it is free, and each element
        first reached through it is dead too (see the module docstring).
        """
        graph = self.graph
        blocked = self.sides[0].forced | self.sides[1].forced
        seen = {eid for eid, _ in seeds} | blocked
        offers = chain(((eid, pref) for eid, pref in seeds if eid not in blocked),
                       ((eid, 0) for eid in graph.edge_ids if eid not in seen))
        room = [self.target - len(side.forced) for side in self.sides]
        placed: tuple[list[int], list[int]] = ([], [])
        pending: list[int] = []
        edge, parents = graph.edge, (self._direct[0].parent, self._direct[1].parent)
        for eid, pref in offers:
            u, v = edge(eid)
            for i in (pref, 1 - pref):
                if not room[i]:
                    continue
                # `_UnionFind.union(u, v)` on side i: find both roots with
                # path halving, then hang u's root below v's
                parent, ru, rv = parents[i], u, v
                while (up := parent[ru]) != ru:
                    parent[ru] = ru = parent[up]
                while (up := parent[rv]) != rv:
                    parent[rv] = rv = parent[up]
                parent[ru] = rv
                if ru != rv:
                    room[i] -= 1
                    placed[i].append(eid)
                    break
            else:
                pending.append(eid)
                continue
            if not (room[0] or room[1]):
                return (self.sides[0].forced.union(placed[0]),
                        self.sides[1].forced.union(placed[1]))
        for i, side in enumerate(self.sides):
            for eid in placed[i]:
                side.insert(eid)
                self.in_side[eid] = i
        failed: set[int] = set()
        for eid in pending:
            if self.full():
                break
            if eid in failed:
                continue
            outcome = self._augment(eid, failed)
            if outcome is None:
                failed = set()
            else:
                failed |= outcome
        return (frozenset(self.sides[0].forced | self.sides[0].members),
                frozenset(self.sides[1].forced | self.sides[1].members))


@dataclass(frozen=True)
class TreeMapping:
    """Map between spanning trees where both single-edge exchanges stay trees.

    Injective wherever the exchange graph permits; two edges may be forced
    onto a common image when it is their only admissible partner.
    """

    mapping: Mapping[int, int]

    def __getitem__(self, eid: int) -> int:
        return self.mapping[eid]


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
    return _UnionRun(g, forced1, forced2).run(seeds)


def is_completable_pair(g: RootedGraph, x1: EdgeSelection, x2: EdgeSelection) -> bool:
    """Do edge-disjoint spanning trees T1 >= X1, T2 >= X2 exist?"""
    return find_disjoint_bases(g, x1, x2) is not None


def find_disjoint_bases(
    g: RootedGraph, x1: EdgeSelection, x2: EdgeSelection
) -> Optional[tuple[EdgeSelection, EdgeSelection]]:
    """The completion witness: two disjoint spanning trees containing X1, X2.

    Overlapping selections are a `ContractError`."""
    t1, t2 = max_forest_pair(g, x1.ids, x2.ids)
    if len(t1) != g.n - 1 or len(t2) != g.n - 1:
        return None
    return g.selection(t1), g.selection(t2)


def has_two_disjoint_spanning_trees(g: RootedGraph) -> bool:
    """Union rank of two graphic-matroid copies reaches 2(n-1)."""
    return find_disjoint_bases(g, g.selection(()), g.selection(())) is not None


def _spanning_tree_or_raise(g: RootedGraph, sel: EdgeSelection, name: str) -> None:
    if len(sel.ids) != g.n - 1:
        raise ContractError(f"{name} is not a spanning tree (edge count)")
    if _cycle_edge(g, sel.sorted_ids()) is not None:
        raise ContractError(f"{name} contains a cycle")


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

"""Root-connectivity, critical arcs, extendability, and the max-flow primitive.

The cut condition d^-(X) >= k for all non-empty X avoiding the root is
decided through Menger's theorem: k arc-disjoint root-to-v paths for every v,
computed as integral max-flows with one unit of capacity per parallel copy.

Single arc removals go through one rule, kept by `ResidualReach`: while D - S
is root-connected, fix any BFS r-arborescence T of it at parallel-class
level.  Removing one more copy can disconnect D - S only when that copy is
the last survivor of its class and the class is an arc of T; every other
copy is admitted without a search, and T is rebuilt only after such a T-arc
is removed.  `critical_arcs`, the k=2 gate and the directed growth and
completion in `fptcommon` all run on it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import ContractError
from .graphs import ArcSelection, RootedDigraph


@dataclass(frozen=True)
class CutWitness:
    """A violating vertex set: root not in X, d^-(X) below the requirement."""

    vertices: frozenset[int]
    in_degree: int

    def to_json_dict(self) -> dict:
        return {"cut": sorted(self.vertices), "in_degree": self.in_degree}


@dataclass
class FlowNetwork:
    """Integer-capacity directed network for s-t max-flow."""

    n_nodes: int
    source: int
    sink: int
    tails: list[int] = field(default_factory=list)
    heads: list[int] = field(default_factory=list)
    caps: list[int] = field(default_factory=list)

    def add_arc(self, u: int, v: int, cap: int) -> int:
        if cap < 0:
            raise ContractError(f"negative capacity {cap}")
        idx = len(self.tails)
        self.tails.append(u)
        self.heads.append(v)
        self.caps.append(cap)
        return idx


def max_flow(net: FlowNetwork, cutoff: Optional[int] = None) -> tuple[int, list[int]]:
    """Dinic's algorithm; returns (value, per-arc integral flow).

    cutoff stops augmenting once the value reaches it, for threshold queries.
    The residual of the final state yields a minimum cut when run to the end.
    """
    n = net.n_nodes
    # forward edge 2i, backward edge 2i+1
    head = [0] * (2 * len(net.tails))
    cap = [0] * (2 * len(net.tails))
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v, c) in enumerate(zip(net.tails, net.heads, net.caps)):
        head[2 * i] = v
        cap[2 * i] = c
        head[2 * i + 1] = u
        adj[u].append(2 * i)
        adj[v].append(2 * i + 1)
    total = 0
    INF = 1 << 60
    while cutoff is None or total < cutoff:
        level = [-1] * n
        level[net.source] = 0
        queue = deque([net.source])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[net.sink] < 0:
            break
        it = [0] * n

        def blocking_path(limit: int) -> int:
            # iterative DFS along level-increasing residual arcs
            path: list[int] = []
            u = net.source
            while True:
                if u == net.sink:
                    pushed = limit
                    for e in path:
                        pushed = min(pushed, cap[e])
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    return pushed
                advanced = False
                while it[u] < len(adj[u]):
                    e = adj[u][it[u]]
                    v = head[e]
                    if cap[e] > 0 and level[v] == level[u] + 1:
                        path.append(e)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if advanced:
                    continue
                if not path:
                    return 0
                level[u] = -1  # dead end; never revisit this phase
                e = path.pop()
                u = net.tails[e // 2] if e % 2 == 0 else net.heads[e // 2]
                it[u] += 1

        while True:
            budget = INF if cutoff is None else cutoff - total
            pushed = blocking_path(budget)
            if pushed == 0:
                break
            total += pushed
            if cutoff is not None and total >= cutoff:
                break
    flows = [cap[2 * i + 1] for i in range(len(net.tails))]
    return total, flows


def min_cut_side(net: FlowNetwork, flows: list[int]) -> frozenset[int]:
    """Sink side of a minimum cut, from the residual of a maximum flow."""
    n = net.n_nodes
    residual: list[list[int]] = [[] for _ in range(n)]
    for i, (u, v, c) in enumerate(zip(net.tails, net.heads, net.caps)):
        if c - flows[i] > 0:
            residual[u].append(v)
        if flows[i] > 0:
            residual[v].append(u)
    seen = {net.source}
    queue = deque([net.source])
    while queue:
        u = queue.popleft()
        for v in residual[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return frozenset(v for v in range(n) if v not in seen)


def is_root_connected(dig: RootedDigraph, removed: Iterable[int] = ()) -> bool:
    """True iff every vertex is reachable from the root in D minus removed."""
    return dig.is_root_connected_without(removed)


def _menger_value(dig: RootedDigraph, target: int, k: int) -> tuple[int, Optional[CutWitness]]:
    net = FlowNetwork(n_nodes=dig.n, source=dig.root, sink=target)
    for u, v, _aid in dig.arcs():
        net.add_arc(u, v, 1)
    value, flows = max_flow(net, cutoff=k)
    if value >= k:
        return value, None
    cut = min_cut_side(net, flows)
    inside = frozenset(v for v in cut if v != dig.root)
    return value, CutWitness(inside, dig.in_degree_of_set(inside))


def is_k_root_connected(dig: RootedDigraph, k: int) -> tuple[bool, Optional[CutWitness]]:
    """Decide d^-(X) >= k for all non-empty X avoiding the root.

    Returns (True, None) or (False, witness).  Parallel copies each carry
    one unit of capacity, so the Menger value counts arc-disjoint paths.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if dig.n == 1:
        return True, None
    if not dig.is_root_connected_without():
        bad = dig.unreachable_set()
        return False, CutWitness(bad, dig.in_degree_of_set(bad))
    if k == 1:
        return True, None
    if k == 2:
        critical = critical_arcs(dig)
        if critical:
            # the first failing class in sorted class order gives the cut
            first = min(critical, key=dig.arc)
            bad = dig.unreachable_set((first,))
            return False, CutWitness(bad, dig.in_degree_of_set(bad))
        return True, None
    for v in range(dig.n):
        if v == dig.root:
            continue
        value, witness = _menger_value(dig, v, k)
        if value < k:
            return False, witness
    return True, None


class ResidualReach:
    """D minus a growing arc set S, with a BFS r-arborescence T of D - S.

    `keeps_root_connected(aid)` answers whether D - S - aid is still
    root-connected: with one search when aid is the last surviving copy of a
    class on T, without one otherwise.  `remove(aid)` adds aid to S and
    rebuilds T only when it removed such a T-arc.
    """

    def __init__(self, dig: RootedDigraph, removed: Iterable[int] = ()):
        self.dig = dig
        self.removed = set(removed)
        self._rebuild()

    def _rebuild(self) -> None:
        self.parent = self.dig.bfs_parents(self.removed)
        self.spanning = len(self.parent) == self.dig.n - 1

    def _last_on_tree(self, aid: int) -> bool:
        """True iff aid is the only surviving copy of a class that T uses."""
        u, v = self.dig.arc(aid)
        if self.parent.get(v) != u:
            return False
        removed = self.removed
        return all(other == aid or other in removed for other in self.dig.class_ids(u, v))

    def keeps_root_connected(self, aid: int) -> bool:
        if not self.spanning:
            return False
        if not self._last_on_tree(aid):
            return True
        return self.dig.is_root_connected_without(self.removed | {aid})

    def remove(self, aid: int) -> None:
        rebuild = self.spanning and self._last_on_tree(aid)
        self.removed.add(aid)
        if rebuild:
            self._rebuild()


def critical_arcs(
    dig: RootedDigraph,
    removed: Iterable[int] = (),
    tails: Optional[Iterable[int]] = None,
) -> frozenset[int]:
    """Arcs whose additional removal disconnects some vertex from the root.

    Only the last surviving copy of a class on a BFS r-arborescence of
    D - removed can be critical, so only those (at most n-1) are rechecked.
    This is the engine of the k=2 gate.
    """
    reach = ResidualReach(dig, removed)
    if not reach.spanning:
        raise ContractError("digraph minus removed arcs is not root-connected")
    tail_filter = None if tails is None else set(tails)
    result = set()
    for v, u in reach.parent.items():
        if tail_filter is not None and u not in tail_filter:
            continue
        survivor = next(aid for aid in dig.class_ids(u, v) if aid not in reach.removed)
        if not reach.keeps_root_connected(survivor):
            result.add(survivor)
    return frozenset(result)


def is_extendable_pair(dig: RootedDigraph, sel1: ArcSelection, sel2: ArcSelection) -> bool:
    """True iff removing either selection's arcs leaves D root-connected."""
    return dig.is_root_connected_without(sel1.ids) and dig.is_root_connected_without(sel2.ids)

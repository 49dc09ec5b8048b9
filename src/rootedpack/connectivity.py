"""Root-connectivity, critical arcs, extendability, and the max-flow primitive.

The cut condition d^-(X) >= k for all non-empty X avoiding the root is
decided through Menger's theorem: k arc-disjoint root-to-v paths for every v,
computed as integral max-flows with one unit of capacity per parallel copy.

Root reach is asked of `graphs.ResidualReach`, whose docstring states the
replacement step and the arborescence rule behind every answer here: the
digraph's own engine decides the gate's k=1 check and extendability, and
`critical_arcs`, behind the k=2 gate, builds one for its removal set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import ContractError
from .graphs import ArcSelection, ResidualReach, RootedDigraph


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
    bad = dig.unreachable_set()
    if bad:
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


def critical_arcs(
    dig: RootedDigraph,
    removed: Iterable[int] = (),
    tails: Optional[Iterable[int]] = None,
) -> frozenset[int]:
    """Arcs whose additional removal disconnects some vertex from the root.

    Only the last surviving copy of a class on a BFS r-arborescence of
    D - removed can be critical (the T-arc rule of `ResidualReach`), so only
    those (at most n-1) are rechecked.  This decides the k=2 gate.
    """
    residual = ResidualReach(dig, removed)
    if not residual.spanning:
        raise ContractError("digraph minus removed arcs is not root-connected")
    tail_filter = None if tails is None else set(tails)
    result = set()
    for v, u in residual.parent.items():
        if tail_filter is not None and u not in tail_filter:
            continue
        survivor = next(aid for aid in dig.class_ids(u, v) if aid not in residual.removed)
        if not residual.keeps_root_connected(survivor):
            result.add(survivor)
    return frozenset(result)


def is_extendable_pair(dig: RootedDigraph, sel1: ArcSelection, sel2: ArcSelection) -> bool:
    """True iff removing either selection's arcs leaves D root-connected."""
    return dig.is_root_connected_without(sel1.ids) and dig.is_root_connected_without(sel2.ids)

"""The one parent-map parser against the two parsers it replaced.

`parse_rooted_tree` reads both an r-arborescence of a digraph and a tree of
a graph that contains the root.  The references below are the two per-kind
parsers it replaced, a climb-to-the-root parser for arcs and a BFS parser
for edges, each with its own size function.
"""

import random
from collections import deque

import pytest

from rootedpack.errors import StructureError
from rootedpack.graphs import (
    RootedDigraph,
    RootedGraph,
    hanging_component_sizes,
    parse_rooted_tree,
    subtree_sizes,
)


def ref_parse_arborescence(dig, ids):
    parent = {}
    for aid in sorted(ids):
        u, v = dig.arc(aid)
        if v in parent:
            raise StructureError(f"vertex {v} has in-degree > 1 in selection")
        parent[v] = u
    verts = set(parent) | {dig.root}
    for v, u in parent.items():
        if u not in verts:
            raise StructureError(f"arc tail {u} not connected to the root")
    state = {dig.root: 1}  # 1 = reaches the root, 0 = on the current climb
    for v in parent:
        path = []
        w = v
        while w not in state:
            state[w] = 0
            path.append(w)
            w = parent[w]
            if state.get(w) == 0:
                raise StructureError("selection contains a cycle")
        for p in path:
            state[p] = 1
    return parent


def ref_subtree_sizes(dig, ids):
    parent = ref_parse_arborescence(dig, ids)
    depth = {dig.root: 0}
    for v in parent:
        chain = []
        w = v
        while w not in depth:
            chain.append(w)
            w = parent[w]
        for offset, node in enumerate(reversed(chain), start=1):
            depth[node] = depth[w] + offset
    sizes = {v: 1 for v in parent}
    for v in sorted(parent, key=lambda x: -depth[x]):
        if parent[v] != dig.root:
            sizes[parent[v]] += sizes[v]
    return {v: sizes[v] for v in sorted(parent)}


def ref_parse_rooted_tree(g, ids):
    ids = set(ids)
    adj = {}
    verts = {g.root}
    for eid in ids:
        u, v = g.edge(eid)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        verts.update((u, v))
    if len(ids) != len(verts) - 1:
        raise StructureError("selection is not a tree (edge count mismatch)")
    parent = {g.root: -1}
    queue = deque([g.root])
    while queue:
        u = queue.popleft()
        for w in sorted(adj.get(u, ())):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    if set(parent) != verts:
        raise StructureError("selection is not connected to the root")
    del parent[g.root]
    return parent


def ref_hanging_component_sizes(g, ids):
    parent = ref_parse_rooted_tree(g, ids)
    sizes = {v: 0 for v in parent}
    for v in reversed(parent):
        if parent[v] != g.root:
            sizes[parent[v]] += sizes[v] + 1
    return sizes


def outcome(fn, *args):
    """The result of fn, or the StructureError class when it rejects."""
    try:
        return fn(*args)
    except StructureError:
        return StructureError


def random_case(rng, directed):
    """(graph, selected ids): a random tree through the root, often spoiled.

    The spoilers add a parallel copy, a chord that closes a cycle (for arcs
    also a second arc into a vertex) or a path or cycle away from the root,
    drop a copy or reverse one; some selections are empty.  Unselected noise
    copies surround it.
    """
    n = rng.randint(1, 9)
    root = rng.randrange(n)
    others = [v for v in range(n) if v != root]
    rng.shuffle(others)
    size = rng.randint(min(1, len(others)), len(others))
    placed = [root]
    picked = []
    for v in others[:size]:
        picked.append((rng.choice(placed), v))
        placed.append(v)
    away = others[size:]
    spoil = rng.randrange(8)
    if spoil == 2 and picked:
        picked.append(rng.choice(picked))
    elif spoil == 3 and len(placed) > 1:
        picked.append((rng.choice(placed), rng.choice(placed[1:])))
    elif spoil == 4 and len(away) >= 2:
        piece = away[:rng.randint(2, min(3, len(away)))]
        picked.extend(zip(piece, piece[1:]))
        if rng.random() < 0.5:
            picked.append((piece[-1], piece[0]))
    elif spoil == 5 and picked:
        picked.pop(rng.randrange(len(picked)))
    elif spoil == 6 and picked:
        u, v = picked.pop(rng.randrange(len(picked)))
        picked.append((v, u))
    elif spoil == 7:
        picked = []
    noise = []
    for _ in range(rng.randint(0, 6)):
        u, v = rng.randrange(n), rng.randrange(n)
        noise.append((u, v))
    flagged = [(u, v, True) for u, v in picked] + [(u, v, False) for u, v in noise]
    flagged = [c for c in flagged if c[0] != c[1] and not (directed and c[1] == root)]
    ids = rng.sample(range(100), len(flagged))
    kind = RootedDigraph if directed else RootedGraph
    g = kind(n, root, [(u, v, cid) for (u, v, _), cid in zip(flagged, ids)])
    return g, {cid for (_, _, chosen), cid in zip(flagged, ids) if chosen}


@pytest.mark.parametrize("directed", [True, False])
def test_one_parser_agrees_with_both_references(directed):
    rng = random.Random(20 + directed)
    accepted = rejected = 0
    for _ in range(2000):
        g, ids = random_case(rng, directed)
        got = outcome(parse_rooted_tree, g, ids)
        if directed:
            want = outcome(ref_parse_arborescence, g, ids)
            assert got == want
            sel = g.selection(ids)
            assert outcome(subtree_sizes, sel) == outcome(ref_subtree_sizes, g, ids)
        else:
            want = outcome(ref_parse_rooted_tree, g, ids)
            assert got == want and (got is StructureError or list(got) == list(want))
            sel = g.selection(ids)
            assert outcome(hanging_component_sizes, sel) == \
                outcome(ref_hanging_component_sizes, g, ids)
        if got is StructureError:
            rejected += 1
        elif ids:
            accepted += 1
    # non-empty trees and rejections are both common, so the agreement is
    # not vacuous
    assert accepted > 500 and rejected > 400

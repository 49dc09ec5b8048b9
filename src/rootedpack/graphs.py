"""Multigraph data model with stable arc/edge identity.

Rooted digraphs and rooted graphs keep one id per parallel copy; ids survive
sub-selection and arc-capping, so witnesses always refer to the original
instance.  Reachability only depends on which parallel classes keep a
surviving copy, so it is answered at class level through cached bitmask
adjacency: `reach_mask` for one search, `bfs_parents` for the BFS
r-arborescence that `connectivity.ResidualReach` keeps so that most arc
removals need no search at all.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import ContractError, ParseError, StructureError

KINDS = ("arb", "flow", "tree")

# Parallel-copy caps preserving the decision for each problem.
PARALLEL_CAP = {"arb": 2, "flow": 4, "tree": 2}

# Most arc or edge copies a parsed instance may declare in total.  The parser
# builds one id per copy, about 230 bytes each, so this bounds parse-time
# memory at about 230 MB.
MAX_COPIES = 1_000_000


def _reach(masks: list[int], root: int) -> int:
    """Bitmask of the vertices reachable from `root`, given each vertex's
    neighbour mask."""
    seen = 1 << root
    frontier = seen
    while frontier:
        nxt = 0
        v = frontier
        while v:
            low = v & -v
            nxt |= masks[low.bit_length() - 1]
            v ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen


class RootedDigraph:
    """Loopless multidigraph with a root of in-degree 0.

    Arcs are (tail, head, arc_id) triples; ids are arbitrary distinct
    non-negative integers (dense when built by the parser).
    """

    def __init__(self, n: int, root: int, arcs: Iterable[tuple[int, ...]]):
        if n < 1:
            raise ParseError(f"vertex count must be >= 1, got {n}")
        if not (0 <= root < n):
            raise ParseError(f"root {root} out of range for n={n}")
        self.n = n
        self.root = root
        self._arc: dict[int, tuple[int, int]] = {}
        next_id = 0
        for triple in arcs:
            if len(triple) == 2:
                u, v = triple
                aid = next_id
            else:
                u, v, aid = triple
            next_id = max(next_id, aid + 1)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"arc ({u},{v}) out of range for n={n}")
            if u == v:
                raise ParseError(f"loop arc at vertex {u}")
            if v == root:
                raise ParseError(f"arc ({u},{v}) enters the root")
            if aid in self._arc:
                raise ParseError(f"duplicate arc id {aid}")
            self._arc[aid] = (u, v)
        self._build_indexes()

    def _build_indexes(self) -> None:
        by_class: dict[tuple[int, int], list[int]] = {}
        for aid in sorted(self._arc):
            by_class.setdefault(self._arc[aid], []).append(aid)
        self._by_class = {c: tuple(ids) for c, ids in by_class.items()}
        out_c: dict[int, list[tuple[int, tuple[int, ...]]]] = {v: [] for v in range(self.n)}
        in_c: dict[int, list[tuple[int, tuple[int, ...]]]] = {v: [] for v in range(self.n)}
        for (u, v), ids in sorted(self._by_class.items()):
            out_c[u].append((v, ids))
            in_c[v].append((u, ids))
        self._out_classes = {v: tuple(cs) for v, cs in out_c.items()}
        self._in_classes = {v: tuple(cs) for v, cs in in_c.items()}
        masks = [0] * self.n
        for (u, v) in self._by_class:
            masks[u] |= 1 << v
        self._out_masks = masks
        self._full_mask = (1 << self.n) - 1

    # -- basic accessors -------------------------------------------------

    @property
    def arc_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._arc))

    @property
    def arc_count(self) -> int:
        return len(self._arc)

    def arc(self, aid: int) -> tuple[int, int]:
        try:
            return self._arc[aid]
        except KeyError:
            raise ContractError(f"unknown arc id {aid}") from None

    def has_arc(self, aid: int) -> bool:
        return aid in self._arc

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Arcs in canonical (tail, head, id) order."""
        for (u, v), ids in sorted(self._by_class.items()):
            for aid in ids:
                yield (u, v, aid)

    def parallel_classes(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        return self._by_class

    def class_ids(self, u: int, v: int) -> tuple[int, ...]:
        return self._by_class.get((u, v), ())

    def out_classes(self, v: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(head, ids) per distinct out-neighbor, heads ascending."""
        return self._out_classes[v]

    def in_classes(self, v: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return self._in_classes[v]

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(w for w, _ in self._out_classes[v])

    def in_degree(self, v: int) -> int:
        return sum(len(ids) for _, ids in self._in_classes[v])

    def out_degree(self, v: int) -> int:
        return sum(len(ids) for _, ids in self._out_classes[v])

    def in_degree_of_set(self, vertices: Iterable[int]) -> int:
        """Number of arcs entering the set from outside."""
        inside = set(vertices)
        return sum(
            len(ids)
            for v in inside
            for u, ids in self._in_classes[v]
            if u not in inside
        )

    # -- reachability ----------------------------------------------------

    def _residual_masks(self, removed: Iterable[int]) -> list[int]:
        """Out-neighbour masks of D minus removed.

        Reachability only depends on how many copies of each class survive,
        so masks are adjusted per affected tail.
        """
        removed = set(removed)
        masks = self._out_masks
        if removed:
            gone: dict[tuple[int, int], int] = {}
            for aid in removed:
                gone[self._arc[aid]] = gone.get(self._arc[aid], 0) + 1
            adjust: dict[int, int] = {}
            for (u, v), cnt in gone.items():
                if cnt >= len(self._by_class[(u, v)]):
                    adjust[u] = adjust.get(u, masks[u]) & ~(1 << v)
            if adjust:
                masks = list(masks)
                for u, m in adjust.items():
                    masks[u] = m
        return masks

    def reach_mask(self, removed: Iterable[int] = ()) -> int:
        """Bitmask of vertices reachable from the root after removing arcs."""
        masks = self._residual_masks(removed)
        return _reach(masks, self.root)

    def is_root_connected_without(self, removed: Iterable[int] = ()) -> bool:
        return self.reach_mask(removed) == self._full_mask

    def unreachable_set(self, removed: Iterable[int] = ()) -> frozenset[int]:
        mask = self.reach_mask(removed)
        return frozenset(v for v in range(self.n) if not (mask >> v) & 1)

    def bfs_parents(self, removed: Iterable[int] = ()) -> dict[int, int]:
        """Parent map of a BFS r-arborescence of D minus removed.

        Built at parallel-class level: each vertex reachable from the root,
        other than the root, maps to the tail of the class that first reaches
        it.  Vertices are expanded in BFS order, each one's new heads
        ascending.
        """
        masks = self._residual_masks(removed)
        parent: dict[int, int] = {}
        seen = 1 << self.root
        order = [self.root]
        for u in order:
            fresh = masks[u] & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                v = low.bit_length() - 1
                parent[v] = u
                order.append(v)
                fresh ^= low
        return parent

    # -- construction helpers ---------------------------------------------

    def selection(self, ids: Iterable[int]) -> "ArcSelection":
        return ArcSelection(self, frozenset(ids))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootedDigraph)
            and self.n == other.n
            and self.root == other.root
            and self._arc == other._arc
        )

    def __repr__(self) -> str:
        return f"RootedDigraph(n={self.n}, root={self.root}, m={len(self._arc)})"


class RootedGraph:
    """Loopless undirected multigraph with a distinguished root."""

    def __init__(self, n: int, root: int, edges: Iterable[tuple[int, ...]]):
        if n < 1:
            raise ParseError(f"vertex count must be >= 1, got {n}")
        if not (0 <= root < n):
            raise ParseError(f"root {root} out of range for n={n}")
        self.n = n
        self.root = root
        self._edge: dict[int, tuple[int, int]] = {}
        next_id = 0
        for triple in edges:
            if len(triple) == 2:
                u, v = triple
                eid = next_id
            else:
                u, v, eid = triple
            next_id = max(next_id, eid + 1)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ParseError(f"loop edge at vertex {u}")
            if eid in self._edge:
                raise ParseError(f"duplicate edge id {eid}")
            self._edge[eid] = (min(u, v), max(u, v))
        self._build_indexes()

    def _build_indexes(self) -> None:
        by_class: dict[tuple[int, int], list[int]] = {}
        for eid in sorted(self._edge):
            by_class.setdefault(self._edge[eid], []).append(eid)
        self._by_class = {c: tuple(ids) for c, ids in by_class.items()}
        inc: dict[int, list[tuple[int, tuple[int, ...]]]] = {v: [] for v in range(self.n)}
        for (u, v), ids in sorted(self._by_class.items()):
            inc[u].append((v, ids))
            inc[v].append((u, ids))
        self._incident_classes = {v: tuple(sorted(cs)) for v, cs in inc.items()}
        masks = [0] * self.n
        for (u, v) in self._by_class:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._adj_masks = masks
        self._full_mask = (1 << self.n) - 1

    @property
    def edge_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._edge))

    @property
    def edge_count(self) -> int:
        return len(self._edge)

    def edge(self, eid: int) -> tuple[int, int]:
        try:
            return self._edge[eid]
        except KeyError:
            raise ContractError(f"unknown edge id {eid}") from None

    def has_edge(self, eid: int) -> bool:
        return eid in self._edge

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for (u, v), ids in sorted(self._by_class.items()):
            for eid in ids:
                yield (u, v, eid)

    def parallel_classes(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        return self._by_class

    def class_ids(self, u: int, v: int) -> tuple[int, ...]:
        return self._by_class.get((min(u, v), max(u, v)), ())

    def incident_classes(self, v: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(neighbor, ids) pairs, neighbors ascending."""
        return self._incident_classes[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(w for w, _ in self._incident_classes[v])

    def degree(self, v: int) -> int:
        return sum(len(ids) for _, ids in self._incident_classes[v])

    def reach_mask(self, removed: Iterable[int] = ()) -> int:
        removed = set(removed)
        masks = self._adj_masks
        if removed:
            gone: dict[tuple[int, int], int] = {}
            for eid in removed:
                gone[self._edge[eid]] = gone.get(self._edge[eid], 0) + 1
            dead = [c for c, cnt in gone.items() if cnt >= len(self._by_class[c])]
            if dead:
                masks = list(masks)
                for (u, v) in dead:
                    masks[u] &= ~(1 << v)
                    masks[v] &= ~(1 << u)
        return _reach(masks, self.root)

    def is_connected(self) -> bool:
        return self.reach_mask() == self._full_mask

    def selection(self, ids: Iterable[int]) -> "EdgeSelection":
        return EdgeSelection(self, frozenset(ids))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootedGraph)
            and self.n == other.n
            and self.root == other.root
            and self._edge == other._edge
        )

    def __repr__(self) -> str:
        return f"RootedGraph(n={self.n}, root={self.root}, m={len(self._edge)})"


@dataclass(frozen=True)
class ArcSelection:
    """Identity-based reference to a sub-digraph of a parent graph."""

    graph: RootedDigraph
    ids: frozenset[int]

    def __post_init__(self):
        for aid in self.ids:
            if not self.graph.has_arc(aid):
                raise ContractError(f"selection references unknown arc id {aid}")

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.ids))

    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((*self.graph.arc(aid), aid) for aid in self.sorted_ids())

    def covered_vertices(self, with_root: bool = False) -> frozenset[int]:
        verts = set()
        for aid in self.ids:
            u, v = self.graph.arc(aid)
            verts.add(u)
            verts.add(v)
        if with_root:
            verts.add(self.graph.root)
        return frozenset(verts)


@dataclass(frozen=True)
class EdgeSelection:
    """Identity-based reference to a subgraph of a parent graph."""

    graph: RootedGraph
    ids: frozenset[int]

    def __post_init__(self):
        for eid in self.ids:
            if not self.graph.has_edge(eid):
                raise ContractError(f"selection references unknown edge id {eid}")

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.ids))

    def edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((*self.graph.edge(eid), eid) for eid in self.sorted_ids())

    def covered_vertices(self, with_root: bool = False) -> frozenset[int]:
        verts = set()
        for eid in self.ids:
            u, v = self.graph.edge(eid)
            verts.add(u)
            verts.add(v)
        if with_root:
            verts.add(self.graph.root)
        return frozenset(verts)


@dataclass(frozen=True)
class ProblemInstance:
    """A graph, a problem kind, and the safety parameter k."""

    kind: str
    graph: RootedDigraph | RootedGraph
    k: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown problem kind {self.kind!r}")
        if self.k < 1:
            raise ContractError(f"k must be >= 1, got {self.k}")
        directed = isinstance(self.graph, RootedDigraph)
        if self.kind in ("arb", "flow") and not directed:
            raise ContractError(f"kind {self.kind!r} needs a digraph")
        if self.kind == "tree" and directed:
            raise ContractError("kind 'tree' needs an undirected graph")

    def to_text(self) -> str:
        g = self.graph
        tag = "D" if isinstance(g, RootedDigraph) else "U"
        lines = [f"# kind = {self.kind}", f"# k = {self.k}", f"{tag} {g.n} {g.root}"]
        for (u, v), ids in sorted(g.parallel_classes().items()):
            lines.append(f"{u} {v} {len(ids)}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        g = self.graph
        return {
            "kind": self.kind,
            "n": g.n,
            "root": g.root,
            "arcs": [[u, v, len(ids)] for (u, v), ids in sorted(g.parallel_classes().items())],
            "k": self.k,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def parse_instance(text: str, *, kind: str | None = None, k: int | None = None) -> ProblemInstance:
    """Parse the text or JSON instance format.

    The text format is graph-only; kind defaults from the header tag
    (D -> arb, U -> tree) and k defaults to 1, unless a `# kind = ...` /
    `# k = ...` comment or an explicit argument overrides them.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json_instance(stripped, kind=kind, k=k)
    header = None
    entries: list[tuple[int, int, int, int]] = []
    total = 0
    meta: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip().lower()] = val.strip()
            continue
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 3 or tokens[0] not in ("D", "U"):
                raise ParseError("expected header 'D n root' or 'U n root'", lineno)
            try:
                header = (tokens[0], int(tokens[1]), int(tokens[2]))
            except ValueError:
                raise ParseError("header fields must be integers", lineno) from None
            continue
        if len(tokens) not in (2, 3):
            raise ParseError("expected 'u v [count]'", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
            count = int(tokens[2]) if len(tokens) == 3 else 1
        except ValueError:
            raise ParseError("arc fields must be integers", lineno) from None
        if count < 1:
            raise ParseError(f"count must be >= 1, got {count}", lineno)
        total += count
        if total > MAX_COPIES:
            raise ParseError(f"more than {MAX_COPIES} arc copies in total", lineno)
        entries.append((lineno, u, v, count))
    if header is None:
        raise ParseError("empty document: missing header")
    tag, n, root = header
    if n < 1:
        raise ParseError(f"vertex count must be >= 1, got {n}", 1)
    if not (0 <= root < n):
        raise ParseError(f"root {root} out of range for n={n}", 1)
    triples = []
    next_id = 0
    for lineno, u, v, count in entries:
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in arc ({u},{v})", lineno)
        if u == v:
            raise ParseError(f"loop arc at vertex {u}", lineno)
        if tag == "D" and v == root:
            raise ParseError(f"arc ({u},{v}) enters the root", lineno)
        for _ in range(count):
            triples.append((u, v, next_id))
            next_id += 1
    graph: RootedDigraph | RootedGraph
    if tag == "D":
        graph = RootedDigraph(n, root, triples)
    else:
        graph = RootedGraph(n, root, triples)
    if kind is None:
        kind = meta.get("kind") or ("arb" if tag == "D" else "tree")
    if k is None:
        if "k" in meta:
            try:
                k = int(meta["k"])
            except ValueError:
                raise ParseError(f"bad k comment: {meta['k']!r}") from None
        else:
            k = 1
    return ProblemInstance(kind=kind, graph=graph, k=k)


def json_int(value: object, what: str) -> int:
    """`value` when it is a JSON integer; ParseError for bools, floats and strings."""
    if type(value) is not int:  # bool is a subclass of int
        raise ParseError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _parse_json_instance(text: str, *, kind: str | None, k: int | None) -> ProblemInstance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON instance: {exc}") from None
    for field in ("kind", "n", "root", "arcs", "k"):
        if field not in obj:
            raise ParseError(f"JSON instance missing field {field!r}")
    kind = kind or obj["kind"]
    k = k if k is not None else json_int(obj["k"], "JSON instance field 'k'")
    n, root = (json_int(obj[f], f"JSON instance field {f!r}") for f in ("n", "root"))
    arcs = obj["arcs"]
    if not isinstance(arcs, list) or not all(isinstance(e, list) and len(e) in (2, 3) for e in arcs):
        raise ParseError("JSON instance field 'arcs' must be a list of [u, v] or [u, v, count]")
    entries = []
    for entry in arcs:
        u, v, count = [json_int(x, "JSON instance field 'arcs'") for x in entry] + [1] * (3 - len(entry))
        if count < 1:
            raise ParseError(f"count must be >= 1, got {count}")
        entries.append((u, v, count))
    if sum(count for _, _, count in entries) > MAX_COPIES:
        raise ParseError(f"more than {MAX_COPIES} arc copies in total")
    triples = []
    for u, v, count in entries:
        for _ in range(count):
            triples.append((u, v, len(triples)))
    if kind == "tree":
        graph: RootedDigraph | RootedGraph = RootedGraph(n, root, triples)
    else:
        graph = RootedDigraph(n, root, triples)
    return ProblemInstance(kind=kind, graph=graph, k=k)


def serialize_instance(instance: ProblemInstance) -> str:
    """Byte-stable text form; parse(serialize(x)) is a fixed point."""
    return instance.to_text()


def cap_parallel(instance: ProblemInstance) -> ProblemInstance:
    """Drop surplus parallel copies beyond the per-kind decision-preserving cap.

    Keeps the lowest-id copies; surviving ids are unchanged so witnesses
    remain valid against the original instance.
    """
    cap = PARALLEL_CAP[instance.kind]
    g = instance.graph
    keep: list[tuple[int, int, int]] = []
    for (u, v), ids in sorted(g.parallel_classes().items()):
        for aid in ids[:cap]:
            keep.append((u, v, aid))
    if len(keep) == (g.arc_count if isinstance(g, RootedDigraph) else g.edge_count):
        return instance
    if isinstance(g, RootedDigraph):
        capped: RootedDigraph | RootedGraph = RootedDigraph(g.n, g.root, keep)
    else:
        capped = RootedGraph(g.n, g.root, keep)
    return ProblemInstance(kind=instance.kind, graph=capped, k=instance.k)


def parse_arborescence(dig: RootedDigraph, ids: Iterable[int]) -> dict[int, int]:
    """Parent map of the r-arborescence formed by the arcs `ids`.

    Raises StructureError if the arcs do not form an r-arborescence.
    """
    parent: dict[int, int] = {}
    for aid in sorted(ids):
        u, v = dig.arc(aid)
        if v in parent:
            raise StructureError(f"vertex {v} has in-degree > 1 in selection")
        parent[v] = u
    verts = set(parent) | {dig.root}
    for v, u in parent.items():
        if u not in verts:
            raise StructureError(f"arc tail {u} not connected to the root")
    # climb to the root from every vertex, detecting cycles
    state: dict[int, int] = {dig.root: 1}  # 1 = reaches root
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


def subtree_sizes(arborescence: ArcSelection) -> dict[int, int]:
    """Size of the subarborescence rooted at each non-root vertex.

    The size counts the vertex itself plus all its descendants.  Raises
    StructureError if the selection is not an r-arborescence.
    """
    g = arborescence.graph
    parent = parse_arborescence(g, arborescence.ids)
    # accumulate sizes bottom-up along parent chains
    depth: dict[int, int] = {g.root: 0}
    for v in parent:
        chain = []
        w = v
        while w not in depth:
            chain.append(w)
            w = parent[w]
        base = depth[w]
        for offset, node in enumerate(reversed(chain), start=1):
            depth[node] = base + offset
    sizes = {v: 1 for v in parent}
    for v in sorted(parent, key=lambda x: -depth[x]):
        if parent[v] != g.root:
            sizes[parent[v]] += sizes[v]
    return {v: sizes[v] for v in sorted(parent)}


def parse_rooted_tree(g: RootedGraph, ids: Iterable[int]) -> dict[int, int]:
    """Parent map, in BFS order from the root, of the tree formed by the
    edges `ids` together with the root.

    Raises StructureError if the edges do not form such a tree.
    """
    ids = set(ids)
    adj: dict[int, list[int]] = {}
    verts = {g.root}
    for eid in ids:
        u, v = g.edge(eid)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
        verts.add(u)
        verts.add(v)
    if len(ids) != len(verts) - 1:
        raise StructureError("selection is not a tree (edge count mismatch)")
    parent: dict[int, int] = {g.root: -1}
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


def hanging_component_sizes(tree: EdgeSelection) -> dict[int, int]:
    """|C_T^v| for each non-root vertex of a tree containing the root.

    C_T^v is what remains of T - v after deleting the component holding the
    root, i.e. the strict descendants of v when T is rooted at r.
    """
    root = tree.graph.root
    parent = parse_rooted_tree(tree.graph, tree.ids)
    sizes = {v: 0 for v in parent}
    for v in reversed(parent):
        p = parent[v]
        if p != root:
            sizes[p] += sizes[v] + 1
    return sizes


def duplicate_edges(g: RootedGraph, p: int) -> RootedGraph:
    """Replace every edge by p fresh-id parallel copies.

    Reduces single-tree existence questions to the two-tree solver.
    """
    if p < 1:
        raise ContractError(f"p must be >= 1, got {p}")
    triples = []
    next_id = 0
    for eid in sorted(g.edge_ids):
        u, v = g.edge(eid)
        for _ in range(p):
            triples.append((u, v, next_id))
            next_id += 1
    return RootedGraph(g.n, g.root, triples)

"""Multigraph data model with stable arc/edge identity.

Rooted digraphs and rooted graphs are one rooted multigraph core: one id per
parallel copy, ids surviving sub-selection and arc-capping, so witnesses
always refer to the original instance.  The two kinds differ only in their
adjacency index and in whether a class (u, v) is ordered.  Reachability only
depends on which parallel classes keep a surviving copy, so it is answered
at class level: whole-graph reach through bitmask adjacency by one search,
`reach`, which clears the emptied classes' bits for that search only, and
whether removals keep a digraph root-connected by repairing one kept
arborescence.  `ResidualReach`, the one root-reach engine, does both and
states why the repair is exact.  Each graph keeps one with nothing removed
behind its own queries; `connectivity` and `fptcommon` build theirs for
growing removal sets.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ContractError, ParseError, StructureError

KINDS = ("arb", "flow", "tree")

# Parallel-copy caps preserving the decision for each problem.
PARALLEL_CAP = {"arb": 2, "flow": 4, "tree": 2}

# Most arc or edge copies a parsed instance may declare in total.  The parser
# builds one id per copy, about 230 bytes each, so the copy tables take at
# most about 230 MB.
MAX_COPIES = 1_000_000

# Most vertices an instance may have.  A root-connected instance has at least
# n - 1 copies, so no instance with more vertices can be root-connected.
# This does not bound memory at the limit: each vertex's neighbour mask is
# an integer as wide as its highest neighbour's index, so the masks of a
# long path take Theta(n^2) bytes.  A path `RootedDigraph` holds 168 MB of
# masks at 50,000 vertices and 669 MB at 100,000.  The kept root-reach
# engine adds no second copy: `masks()` copies the list, not the integers,
# S stays empty, and each search puts back the very entries it clears.
MAX_VERTICES = MAX_COPIES + 1


def _check_vertices(n: int, root: int, line: int | None = None) -> None:
    """ParseError unless 1 <= n <= MAX_VERTICES and the root is a vertex."""
    if n < 1:
        raise ParseError(f"vertex count must be >= 1, got {n}", line)
    if n > MAX_VERTICES:
        raise ParseError(f"more than {MAX_VERTICES} vertices", line)
    if not (0 <= root < n):
        raise ParseError(f"root {root} out of range for n={n}", line)


def reach(masks: list[int], root: int, cleared: Sequence[tuple[int, int]] = ()) -> int:
    """Bitmask of the vertices reachable from `root`, given each vertex's
    neighbour mask.

    Bit v of `masks[u]` is cleared for each (u, v) of `cleared`, in place,
    and restored before returning, so pass a copy no one else reads.
    """
    saved = [(u, masks[u]) for u, _ in cleared]
    for u, v in cleared:
        masks[u] &= ~(1 << v)
    try:
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
    finally:
        for u, mask in reversed(saved):
            masks[u] = mask
    return seen


# Parent changes on an engine's arborescence T, by vertex (see `ResidualReach`)
Overlay = dict[int, int]


class ResidualReach:
    """The one root-reach engine: D minus a growing copy set S, with a
    breadth-first r-arborescence T of D - S.

    It keeps the class-level neighbour masks of D - S, clearing a class's
    bits when S takes its last copy, and builds T from them, expanding
    vertices in breadth-first order and each one's new heads ascending.
    `seen` masks the vertices T reaches; `spanning` says if that is all.

    Removing whole classes X is answered by the replacement step of Even
    and Shiloach's decremental tree ("An on-line edge-deletion problem",
    J. ACM 1981).  An overlay maps some vertices to new parents; read over
    T, it gives a parent map, and `step` keeps that map a spanning
    r-arborescence of H = D - S - emptied.  `step(overlay, emptied, c)`
    gives the overlay for H - c, or None when H - c is not root-connected:
    - If c = (u, v) is not the map's arc into v, every arc of the map is in
      H - c, so the overlay survives with no search.
    - Otherwise a vertex hangs below v when its parent walk passes v.
      Search backwards from v over the classes of H - c entering the
      visited vertices, to the first vertex w whose walk reaches the root
      without passing v.  Re-hang the search path from w to v in a copy of
      the overlay: every vertex below v then walks down that path to w, and
      w's walk passes no vertex below v, so the map has no cycle and spans
      H - c.
    - If every vertex the search finds hangs below v, the visited set holds
      v but not the root, and no class of H - c enters it from outside, so
      H - c is not root-connected.
    So D - S - X is root-connected iff no step of a fold over X fails, as H
    only shrinks, and a step searches only when its class cuts the map,
    visiting only vertices below v.

    `spans_without(classes)` folds `step` over the classes from the empty
    overlay, T itself (`overlay()`), and the shape searches fold it down
    their stacks.  `keeps_root_connected(aid)` is its one-class case: only
    the last copy of a class on T can cut T.  `remove(aid)` adds aid to S
    and rebuilds T only when that empties a T-arc.

    S, `step` and `keeps_root_connected` serve digraphs only.  The engine
    holds the root, n, its own masks and the graph's class tables, not the
    graph, so a graph and its kept engine form no reference cycle.
    """

    def __init__(self, g: _RootedMultigraph, removed: Iterable[int] = ()):
        self.root, self.n = g.root, g.n
        self._ends, self._by_class, self._directed = g._ends, g._by_class, g._directed
        self._in_classes = g._in_classes if g._directed else ()
        self._masks = g.masks()
        self.removed: set[int] = set()
        self._left: dict[tuple[int, int], int] = {}  # survivors of the classes S touches
        self.parent: dict[int, int] = {}
        for aid in removed:
            self._drop(aid)
        self._rebuild()

    def _drop(self, aid: int) -> bool:
        """Add aid to S; True iff that empties an arc of T."""
        if aid in self.removed:
            return False
        self.removed.add(aid)
        u, v = c = self._ends[aid]
        left = self._left[c] = self._surviving(c) - 1
        if left:
            return False
        self._masks[u] &= ~(1 << v)
        return self.parent.get(v) == u

    def _surviving(self, c: tuple[int, int]) -> int:
        """Copies of class c that are not in S."""
        return self._left.get(c, len(self._by_class[c]))

    def _rebuild(self) -> None:
        masks = self._masks
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
        self.parent = parent
        self.seen = seen
        self.spanning = len(parent) == self.n - 1

    def reach_mask(self, classes: Sequence[tuple[int, int]] = ()) -> int:
        """Mask of the vertices reachable from the root in D - S without
        every copy of each class in `classes`."""
        if not classes:
            return self.seen
        if not self._directed:
            classes = [*classes, *((v, u) for u, v in classes)]
        return reach(self._masks, self.root, classes)

    def overlay(self) -> Optional[Overlay]:
        """The empty overlay, T itself, or None when D - S is not
        root-connected."""
        return {} if self.spanning else None

    def step(self, overlay: Overlay, emptied: Sequence[tuple[int, int]],
             c: tuple[int, int]) -> Optional[Overlay]:
        """The overlay for D - S - emptied - c from `overlay`, which spans
        D - S - emptied, or None when that loses root-connectivity."""
        u, v = c
        parent = self.parent
        if overlay.get(v, parent.get(v)) != u:
            return overlay
        root, in_classes = self.root, self._in_classes
        masks = self._masks if self.removed else None  # S's emptied classes
        inside = {v}  # vertices known to hang below v
        into = {v: v}  # each visited vertex -> the visited one it enters
        queue = [v]
        for x in queue:
            for w, _ in in_classes[x]:
                if (w in into or (w == u and x == v) or (w, x) in emptied
                        or (masks is not None and not masks[w] >> x & 1)):
                    continue
                walk = []
                y = w
                while y != root and y not in inside:
                    walk.append(y)
                    y = overlay.get(y, parent[y])
                if y == root:
                    hung = dict(overlay)
                    hung[x] = w
                    while x != v:
                        hung[into[x]] = x
                        x = into[x]
                    return hung
                inside.update(walk)
                into[w] = x
                queue.append(w)
        return None

    def spans_without(self, classes: Sequence[tuple[int, int]]) -> bool:
        """Whether D - S stays root-connected without every copy of each
        class in `classes`."""
        overlay = self.overlay()
        emptied: tuple[tuple[int, int], ...] = ()
        for c in classes:
            if overlay is None:
                break
            overlay = self.step(overlay, emptied, c)
            emptied += (c,)
        return overlay is not None

    def keeps_root_connected(self, aid: int) -> bool:
        """Whether D - S stays root-connected without the copy aid."""
        if not self.spanning or aid in self.removed:
            return self.spanning
        c = self._ends[aid]
        return self._surviving(c) > 1 or self.step({}, (), c) is not None

    def remove(self, aid: int) -> None:
        if self._drop(aid):
            self._rebuild()


def _table(n: int, entries: Iterable[tuple[int, object]]) -> list[tuple]:
    """Per-vertex tuples of the `(vertex, entry)` pairs, entries in input order.

    Vertices without entries share the empty tuple, so an isolated vertex
    costs one list slot.
    """
    lists: dict[int, list] = {}
    for v, entry in entries:
        lists.setdefault(v, []).append(entry)
    table: list[tuple] = [()] * n
    for v, group in lists.items():
        table[v] = tuple(group)
    return table


@dataclass(frozen=True)
class _Selection:
    """Identity-based reference to a sub-multigraph of a parent graph."""

    graph: _RootedMultigraph
    ids: frozenset[int]

    def __post_init__(self):
        for cid in self.ids:
            if not self.graph._has(cid):
                raise ContractError(f"selection references unknown {self.graph._noun} id {cid}")

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.ids))

    def _copies(self) -> tuple[tuple[int, int, int], ...]:
        return tuple((*self.graph._copy(cid), cid) for cid in self.sorted_ids())

    def covered_vertices(self, with_root: bool = False) -> frozenset[int]:
        verts = set()
        for cid in self.ids:
            verts.update(self.graph._copy(cid))
        if with_root:
            verts.add(self.graph.root)
        return frozenset(verts)


class ArcSelection(_Selection):
    """Identity-based reference to a sub-digraph of a parent graph."""

    graph: RootedDigraph
    arcs = _Selection._copies


class EdgeSelection(_Selection):
    """Identity-based reference to a subgraph of a parent graph."""

    graph: RootedGraph
    edges = _Selection._copies


class _RootedMultigraph:
    """Loopless multigraph with a root; what both kinds share.

    Copies are (u, v, id) triples, or (u, v) pairs that take the next free
    id; ids are arbitrary distinct non-negative integers (dense when built by
    the parser).  A subclass sets `_directed`, `_noun` and `_selection`,
    and builds `_masks` and its adjacency index in `_index(classes)`.
    """

    _directed: bool
    _noun: str
    _selection: type[_Selection]

    def __init__(self, n: int, root: int, copies: Iterable[tuple[int, ...]]):
        _check_vertices(n, root)
        self.n = n
        self.root = root
        noun, ordered = self._noun, self._directed
        # only a digraph forbids copies into the root
        entering = root if ordered else -1
        ends: dict[int, tuple[int, int]] = {}
        next_id = 0
        for triple in copies:
            if len(triple) == 2:
                u, v = triple
                cid = next_id
            else:
                u, v, cid = triple
                if type(cid) is not int or cid < 0:  # bool is a subclass of int
                    raise ParseError(f"{noun} id {cid!r} is not a non-negative integer")
            next_id = max(next_id, cid + 1)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"{noun} ({u},{v}) out of range for n={n}")
            if u == v:
                raise ParseError(f"loop {noun} at vertex {u}")
            if v == entering:
                raise ParseError(f"{noun} ({u},{v}) enters the root")
            if cid in ends:
                raise ParseError(f"duplicate {noun} id {cid}")
            ends[cid] = (u, v) if ordered or u < v else (v, u)
        self._ends = ends
        by_class: dict[tuple[int, int], list[int]] = {}
        for cid in sorted(ends):
            by_class.setdefault(ends[cid], []).append(cid)
        self._by_class = {c: tuple(ids) for c, ids in by_class.items()}
        self._engine: ResidualReach | None = None  # see `_reach`
        self._index(sorted(self._by_class.items()))

    # -- copy accessors, bound to arc_* or edge_* names by each kind -------

    @property
    def _ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._ends))

    @property
    def _count(self) -> int:
        return len(self._ends)

    def _copy(self, cid: int) -> tuple[int, int]:
        try:
            return self._ends[cid]
        except KeyError:
            raise ContractError(f"unknown {self._noun} id {cid}") from None

    def _has(self, cid: int) -> bool:
        return cid in self._ends

    def _copies(self) -> Iterator[tuple[int, int, int]]:
        """Copies in canonical (u, v, id) order."""
        for (u, v), ids in sorted(self._by_class.items()):
            for cid in ids:
                yield (u, v, cid)

    def parallel_classes(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        return self._by_class

    # -- reachability ----------------------------------------------------

    def masks(self) -> list[int]:
        """A fresh copy of the neighbour masks: bit v of entry u when some
        copy joins u to v."""
        return list(self._masks)

    def _emptied(self, removed: Iterable[int]) -> list[tuple[int, int]]:
        """The classes that lose every copy when `removed` goes."""
        gone: dict[tuple[int, int], int] = {}
        ends = self._ends
        for cid in set(removed):
            c = ends[cid]
            gone[c] = gone.get(c, 0) + 1
        return [c for c, cnt in gone.items() if cnt >= len(self._by_class[c])]

    def _reach(self) -> ResidualReach:
        """This graph's engine, with nothing removed, built on first use."""
        if self._engine is None:
            self._engine = ResidualReach(self)
        return self._engine

    def reach_mask(self, removed: Iterable[int] = ()) -> int:
        """Bitmask of vertices reachable from the root after removing copies.

        Reachability only depends on how many copies of each class survive,
        so only the classes that lose every copy are cleared.
        """
        return self._reach().reach_mask(self._emptied(removed))

    # -- construction helpers ---------------------------------------------

    def selection(self, ids: Iterable[int]) -> _Selection:
        return self._selection(self, frozenset(ids))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and (
            (self.n, self.root, self._ends) == (other.n, other.root, other._ends))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, root={self.root}, m={len(self._ends)})"


class RootedDigraph(_RootedMultigraph):
    """Loopless multidigraph with a root of in-degree 0."""

    _directed = True
    _noun = "arc"
    _selection = ArcSelection

    arc_ids = _RootedMultigraph._ids
    arc_count = _RootedMultigraph._count
    arc = _RootedMultigraph._copy
    has_arc = _RootedMultigraph._has
    arcs = _RootedMultigraph._copies
    # bound here too, so that each kind's reach_mask can be wrapped on its own
    reach_mask = _RootedMultigraph.reach_mask

    def _index(self, classes):
        masks = [0] * self.n
        for (u, v), _ in classes:
            masks[u] |= 1 << v
        self._masks = masks
        self._out_classes = _table(self.n, ((u, (v, ids)) for (u, v), ids in classes))
        self._in_classes = _table(self.n, ((v, (u, ids)) for (u, v), ids in classes))

    def class_ids(self, u: int, v: int) -> tuple[int, ...]:
        return self._by_class.get((u, v), ())

    def out_classes(self, v: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(head, ids) per distinct out-neighbor, heads ascending."""
        return self._out_classes[v]

    def in_classes(self, v: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return self._in_classes[v]

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(w for w, _ in self._out_classes[v])

    def in_degree_of_set(self, vertices: Iterable[int]) -> int:
        """Number of arcs entering the set from outside."""
        inside = set(vertices)
        return sum(
            len(ids)
            for v in inside
            for u, ids in self._in_classes[v]
            if u not in inside
        )

    def spans_without_classes(self, classes: Sequence[tuple[int, int]]) -> bool:
        """Whether D stays root-connected without the classes `classes`."""
        return self._reach().spans_without(classes)

    def is_root_connected_without(self, removed: Iterable[int] = ()) -> bool:
        """Whether D stays root-connected without the copies `removed`."""
        return self.spans_without_classes(self._emptied(removed))

    def unreachable_set(self, removed: Iterable[int] = ()) -> frozenset[int]:
        """The vertices not reachable from the root after removing copies.

        Read off the binary digits of the missing mask, in time linear in
        n; isolating one bit at a time costs O(n/64) per unreachable vertex.
        """
        digits = format(((1 << self.n) - 1) & ~self.reach_mask(removed), "b")[::-1]
        found = []
        v = digits.find("1")
        while v >= 0:
            found.append(v)
            v = digits.find("1", v + 1)
        return frozenset(found)


class RootedGraph(_RootedMultigraph):
    """Loopless undirected multigraph with a distinguished root; each edge is
    stored as (min, max)."""

    _directed = False
    _noun = "edge"
    _selection = EdgeSelection

    edge_ids = _RootedMultigraph._ids
    edge_count = _RootedMultigraph._count
    edge = _RootedMultigraph._copy
    has_edge = _RootedMultigraph._has
    edges = _RootedMultigraph._copies
    reach_mask = _RootedMultigraph.reach_mask

    def _index(self, classes):
        masks = [0] * self.n
        for (u, v), _ in classes:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks = masks
        # in sorted class order each vertex meets its smaller neighbours
        # first, so every incidence tuple comes out ascending
        self._incident_classes = _table(self.n, (
            entry for (u, v), ids in classes for entry in ((u, (v, ids)), (v, (u, ids)))))

    def class_ids(self, u: int, v: int) -> tuple[int, ...]:
        return self._by_class.get((min(u, v), max(u, v)), ())

    def incident_classes(self, v: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(neighbor, ids) pairs, neighbors ascending."""
        return self._incident_classes[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(w for w, _ in self._incident_classes[v])

    def degree(self, v: int) -> int:
        return sum(len(ids) for _, ids in self._incident_classes[v])

    def is_connected(self) -> bool:
        return self._reach().spanning


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
        tag = "D" if g._directed else "U"
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
            _check_vertices(header[1], header[2], lineno)
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
    copies = []  # (u, v) pairs, which the constructor numbers 0, 1, ... in order
    for lineno, u, v, count in entries:
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range in arc ({u},{v})", lineno)
        if u == v:
            raise ParseError(f"loop arc at vertex {u}", lineno)
        if tag == "D" and v == root:
            raise ParseError(f"arc ({u},{v}) enters the root", lineno)
        copies.extend([(u, v)] * count)
    graph = (RootedDigraph if tag == "D" else RootedGraph)(n, root, copies)
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
    _check_vertices(n, root)
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
    copies = [(u, v) for u, v, count in entries for _ in range(count)]
    graph = (RootedGraph if kind == "tree" else RootedDigraph)(n, root, copies)
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
        for cid in ids[:cap]:
            keep.append((u, v, cid))
    if len(keep) == g._count:
        return instance
    return ProblemInstance(kind=instance.kind, graph=type(g)(g.n, g.root, keep), k=instance.k)


def parse_rooted_tree(g: RootedDigraph | RootedGraph, ids: Iterable[int]) -> dict[int, int]:
    """Parent map, in BFS order from the root, of the tree that the copies
    `ids` form together with the root.

    A BFS from the root follows the selected copies (arcs forward only,
    each vertex's new neighbours ascending).  The copies form a tree when
    the BFS reaches every vertex they touch and they number one less than
    the touched vertices plus the root.  No arc enters the root, so for a
    digraph that is exactly an r-arborescence.  Raises StructureError
    otherwise.
    """
    ids = set(ids)
    adj: dict[int, list[int]] = {}
    verts = {g.root}
    for cid in ids:
        u, v = g._copy(cid)
        adj.setdefault(u, []).append(v)
        if not g._directed:
            adj.setdefault(v, []).append(u)
        verts.add(u)
        verts.add(v)
    if len(ids) != len(verts) - 1:
        raise StructureError(f"selection is not a tree ({g._noun} count mismatch)")
    parent: dict[int, int] = {g.root: -1}
    queue = deque([g.root])
    while queue:
        u = queue.popleft()
        for w in sorted(adj.get(u, ())):
            if w not in parent:
                parent[w] = u
                queue.append(w)
    if len(parent) != len(verts):
        raise StructureError("selection is not connected to the root")
    del parent[g.root]
    return parent


def _descendant_counts(sel: _Selection) -> dict[int, int]:
    """Strict descendants of each non-root vertex of the tree `sel`, read off
    its BFS order from the root."""
    root = sel.graph.root
    parent = parse_rooted_tree(sel.graph, sel.ids)
    below = dict.fromkeys(parent, 0)
    for v in reversed(parent):
        if parent[v] != root:
            below[parent[v]] += below[v] + 1
    return below


def subtree_sizes(arborescence: ArcSelection) -> dict[int, int]:
    """Size of the subarborescence rooted at each non-root vertex.

    The size counts the vertex itself plus all its descendants.  Raises
    StructureError if the selection is not an r-arborescence.
    """
    below = _descendant_counts(arborescence)
    return {v: below[v] + 1 for v in sorted(below)}


def hanging_component_sizes(tree: EdgeSelection) -> dict[int, int]:
    """|C_T^v| for each non-root vertex of a tree containing the root.

    C_T^v is what remains of T - v after deleting the component holding the
    root, i.e. the strict descendants of v when T is rooted at r.
    """
    return _descendant_counts(tree)


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

"""Multigraph data model with stable arc/edge identity.

Rooted digraphs and rooted graphs are one rooted multigraph core: one id per
parallel copy, ids surviving sub-selection and arc-capping, so witnesses
always refer to the original instance.  The two kinds differ only in their
adjacency index (per-vertex tables of (neighbour, ids) classes: out and in
for a digraph, incident for a graph) and in whether a class (u, v) is
ordered.  Reachability only depends on which parallel classes keep a
surviving copy, so it is answered at class level by `ResidualReach`, the
one root-reach engine: one walk of the class tables builds a breadth-first
arborescence, and replacement steps keep it across removals and decide
whether removals keep a digraph root-connected.  Its docstring states why
they are exact.  Each graph keeps one engine with nothing removed behind
its own queries; `connectivity` and `fptcommon` build theirs for growing
removal sets.  A capped graph (`cap_parallel`) patches its original's
tables and shares what the cap leaves, but builds its own engine.

`parse_instance` reads a text with one of two readers and one set of
errors: a bulk reader takes the form `serialize_instance` writes a chunk of
lines at a time, and hands any other text, or one with a fault, to the
per-line reader, which names the first bad line.
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import accumulate, islice
from operator import eq, lt
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ContractError, ParseError, StructureError

KINDS = ("arb", "flow", "tree")

# Parallel-copy caps preserving the decision for each problem.
PARALLEL_CAP = {"arb": 2, "flow": 4, "tree": 2}

# Most arc or edge copies a parsed instance may declare in total.  At worst
# each copy is its own class: 999,001 such copies on 1,001 vertices keep
# about 390 MB once parsed and peak at about 440 MB while parsing, measured
# with tracemalloc, so a parse takes at most about 440 bytes per copy.
MAX_COPIES = 1_000_000

# Most vertices an instance may have.  A root-connected instance has at least
# n - 1 copies, so no instance with more vertices can be root-connected.
# Memory stays linear in vertices plus copies at the limit: the class
# tables hold one slot per vertex and one entry per class end, and a
# root-reach engine one parent entry per vertex its arborescence reaches.
MAX_VERTICES = MAX_COPIES + 1


def _check_vertices(n: int, root: int, line: int | None = None) -> None:
    """ParseError unless 1 <= n <= MAX_VERTICES and the root is a vertex."""
    if n < 1:
        raise ParseError(f"vertex count must be >= 1, got {n}", line)
    if n > MAX_VERTICES:
        raise ParseError(f"more than {MAX_VERTICES} vertices", line)
    if not (0 <= root < n):
        raise ParseError(f"root {root} out of range for n={n}", line)


# Parent changes on an engine's arborescence T, by vertex (see `ResidualReach`)
Overlay = dict[int, int]


class ResidualReach:
    """The one root-reach engine: D minus a growing copy set S, with an
    r-arborescence T of D - S as a parent map.

    `_left` counts the surviving copies of each class S touches, so S has
    emptied exactly the classes it maps to 0.  T starts as one walk of the
    graph's class tables: the root first, then vertices in breadth-first
    order, each one's new heads ascending, skipping S's emptied classes.
    `spanning` says whether T reaches every vertex; `mask()` gives the
    vertices it reaches.

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
    visiting only vertices below v.  None of this needs T to be
    breadth-first: it holds for any spanning r-arborescence of D - S.

    `spans_without(classes)` folds `step` over the classes from the empty
    overlay, T itself (`overlay()`), and the shape searches fold it down
    their stacks.  `keeps_root_connected(aid)` is its one-class case: only
    the last copy of a class on T can cut T.  `remove(aid)` adds aid to S;
    when that empties a T-arc, it repairs T in place with that same step's
    overlay, and walks the class tables again only when the step finds
    D - S no longer root-connected.  So T stops being breadth-first after
    a repair, which no answer depends on.  Only growth and completion
    remove copies, each from an engine of its own, so a graph's kept
    engine (`_reach`) keeps its breadth-first T.

    `step`, `keeps_root_connected` and the repair serve digraphs only; a
    graph's engine may start from a set S, and walks its tables again on a
    later removal that empties a tree edge.  The engine holds the root, n,
    S and the graph's class tables, not the graph, so a graph and its kept
    engine form no reference cycle.
    """

    def __init__(self, g: _RootedMultigraph, removed: Iterable[int] = ()):
        self.root, self.n = g.root, g.n
        self._ends, self._by_class, self._directed = g._ends, g._by_class, g._directed
        self._out_classes = g._out_classes if g._directed else g._incident_classes
        self._in_classes = g._in_classes if g._directed else ()
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
        parent = self.parent
        return not left and (parent.get(v) == u or not self._directed and parent.get(u) == v)

    def _surviving(self, c: tuple[int, int]) -> int:
        """Copies of class c that are not in S."""
        return self._left.get(c, len(self._by_class[c]))

    def _rebuild(self) -> None:
        root, left, ordered = self.root, self._left, self._directed
        parent: dict[int, int] = {}
        order = [root]
        for u in order:
            for v, _ in self._out_classes[u]:
                if v in parent or v == root:
                    continue
                if left and left.get((u, v) if ordered or u < v else (v, u)) == 0:
                    continue
                parent[v] = u
                order.append(v)
        self.parent = parent
        self.spanning = len(parent) == self.n - 1

    def mask(self) -> int:
        """Bitmask of the vertices T reaches, which are those D - S reaches."""
        cells = bytearray((self.n + 7) // 8)
        for v in (self.root, *self.parent):
            cells[v >> 3] |= 1 << (v & 7)
        return int.from_bytes(cells, "little")

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
        root, in_classes, left = self.root, self._in_classes, self._left
        inside = {v}  # vertices known to hang below v
        into = {v: v}  # each visited vertex -> the visited one it enters
        queue = [v]
        for x in queue:
            for w, _ in in_classes[x]:
                if (w in into or (w == u and x == v) or (w, x) in emptied
                        or (left and left.get((w, x)) == 0)):
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
        """Add aid to S, keeping T an r-arborescence of D - S that spans it
        while it stays root-connected."""
        if not self._drop(aid):
            return
        hung = self.step({}, (), self._ends[aid]) if self._directed and self.spanning else None
        if hung is None:
            self._rebuild()
        else:
            self.parent.update(hung)


def _tupled(n: int, lists: Mapping[int, list]) -> list[tuple]:
    """Per-vertex tuples of `lists`; an isolated vertex shares `()`."""
    table: list[tuple] = [()] * n
    for v, entries in lists.items():
        table[v] = tuple(entries)
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
    the parser).  A subclass sets `_directed`, `_noun` and `_selection`; it
    builds its class tables (per vertex, the (neighbour, ids) classes,
    neighbours ascending) in `_index(classes)`, called by `_store`, and
    in `_patch(source, cut)`, called by `cap_parallel`, copies another
    graph's tables and re-tuples the entries at the ends of the cut classes.
    They are the only adjacency; root reach walks them through `ResidualReach`.
    """

    _directed: bool
    _noun: str
    _selection: type[_Selection]

    def __init__(self, n: int, root: int, copies: Iterable[tuple[int, ...]]):
        _check_vertices(n, root)
        noun, ordered = self._noun, self._directed
        # only a digraph forbids copies into the root
        entering = root if ordered else -1
        ends: dict[int, tuple[int, int]] = {}
        by_class: dict[tuple[int, int], list[int]] = {}
        next_id = 0
        ascending = True  # whether every id exceeds those before it
        for triple in copies:
            if len(triple) == 2:
                u, v = triple
                cid = next_id
            else:
                u, v, cid = triple
                if type(cid) is not int or cid < 0:  # bool is a subclass of int
                    raise ParseError(f"{noun} id {cid!r} is not a non-negative integer")
                ascending = ascending and cid >= next_id
            next_id = max(next_id, cid + 1)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"{noun} ({u},{v}) out of range for n={n}")
            if u == v:
                raise ParseError(f"loop {noun} at vertex {u}")
            if v == entering:
                raise ParseError(f"{noun} ({u},{v}) enters the root")
            if cid in ends:
                raise ParseError(f"duplicate {noun} id {cid}")
            c = (u, v) if ordered or u < v else (v, u)
            ids = by_class.get(c)
            if ids is None:
                ends[cid] = c
                by_class[c] = [cid]
            else:  # every copy of a class shares its key, stored with its first copy
                ends[cid] = ends[ids[0]]
                ids.append(cid)
        if not ascending:
            for ids in by_class.values():
                ids.sort()
        self._store(n, root, by_class, ends)

    @classmethod
    def _of_classes(cls, n: int, root: int, by_class: dict):
        g = cls.__new__(cls)  # built from a checked class table by `_store` alone
        g._store(n, root, by_class)
        return g

    def _store(self, n: int, root: int, by_class: dict, ends: dict | None = None) -> None:
        """Store and index a checked class table (each class's ids
        ascending) and its ends, read off it unless given."""
        self.n, self.root = n, root
        # classes ascending; each list is freed once its tuple is stored, and
        # the emptied table's storage, which `pop` keeps, once all are
        self._by_class = {c: tuple(by_class.pop(c)) for c in sorted(by_class)}
        by_class.clear()
        self._ends = ends or {cid: c for c, ids in self._by_class.items() for cid in ids}
        self._engine: ResidualReach | None = None  # see `_reach`
        self._index(self._by_class.items())

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
        for (u, v), ids in self._by_class.items():
            for cid in ids:
                yield (u, v, cid)

    def parallel_classes(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        """The ids of each class (u, v), u < v for a graph; classes iterate
        ascending and each class's ids ascend."""
        return self._by_class

    # -- reachability ----------------------------------------------------

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
        """Bitmask of vertices reachable from the root after removing copies,
        read off the arborescence of the kept engine, or of an engine whose
        S is `removed`, in time linear in n plus the copies."""
        removed = set(removed)
        return (ResidualReach(self, removed) if removed else self._reach()).mask()

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
        # classes ascend: a tail's out-classes are one run, a head's tails ascend
        runs: dict[int, list] = {}
        heads: defaultdict[int, list] = defaultdict(list)
        tail = None
        for (u, v), ids in classes:
            if u != tail:
                tail = u
                run = runs[u] = []
            run.append((v, ids))
            heads[v].append((u, ids))
        self._out_classes, self._in_classes = _tupled(self.n, runs), _tupled(self.n, heads)

    def _patch(self, source: RootedDigraph, cut: list[tuple[int, int]]) -> None:
        out, into, by_class = list(source._out_classes), list(source._in_classes), self._by_class
        for u in {u for u, _ in cut}:
            out[u] = tuple((v, by_class[u, v]) for v, _ in out[u])
        for v in {v for _, v in cut}:
            into[v] = tuple((u, by_class[u, v]) for u, _ in into[v])
        self._out_classes, self._in_classes = out, into

    def class_ids(self, u: int, v: int) -> tuple[int, ...]:
        return self._by_class.get((u, v), ())

    def out_classes(self, v: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(head, ids) per distinct out-neighbor, heads ascending."""
        return self._out_classes[v]

    def in_classes(self, v: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        return self._in_classes[v]

    def in_degree_of_set(self, vertices: Iterable[int]) -> int:
        """Number of arcs entering the set from outside."""
        inside = set(vertices)
        return sum(
            len(ids)
            for v in inside
            for u, ids in self._in_classes[v]
            if u not in inside
        )

    def is_root_connected_without(self, removed: Iterable[int] = ()) -> bool:
        """Whether D stays root-connected without the copies `removed`."""
        return self._reach().spans_without(self._emptied(removed))

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
        # in sorted class order each vertex meets its smaller neighbours
        # first, so every incidence tuple comes out ascending
        lists: defaultdict[int, list] = defaultdict(list)
        for (u, v), ids in classes:
            lists[u].append((v, ids))
            lists[v].append((u, ids))
        self._incident_classes = _tupled(self.n, lists)

    def _patch(self, source: RootedGraph, cut: list[tuple[int, int]]) -> None:
        incident, by_class = list(source._incident_classes), self._by_class
        for x in {x for c in cut for x in c}:
            incident[x] = tuple((w, by_class[(x, w) if x < w else (w, x)]) for w, _ in incident[x])
        self._incident_classes = incident

    def class_ids(self, u: int, v: int) -> tuple[int, ...]:
        return self._by_class.get((min(u, v), max(u, v)), ())

    def incident_classes(self, v: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(neighbor, ids) pairs, neighbors ascending."""
        return self._incident_classes[v]

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
        for (u, v), ids in g.parallel_classes().items():
            lines.append(f"{u} {v} {len(ids)}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        g = self.graph
        return {
            "kind": self.kind,
            "n": g.n,
            "root": g.root,
            "arcs": [[u, v, len(ids)] for (u, v), ids in g.parallel_classes().items()],
            "k": self.k,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


def _file_line(by_class: dict, total: int, n: int, root: int, directed: bool,
               u: int, v: int, count: int, line: int | None = None) -> int:
    """Check a read line of `count` copies of (u, v), then file their ids,
    numbered on from the `total` filed so far, into its class; the new total."""
    if count < 1:
        raise ParseError(f"count must be >= 1, got {count}", line)
    if total + count > MAX_COPIES:
        raise ParseError(f"more than {MAX_COPIES} arc copies in total", line)
    if not (0 <= u < n and 0 <= v < n):
        raise ParseError(f"vertex out of range in arc ({u},{v})", line)
    if u == v:
        raise ParseError(f"loop arc at vertex {u}", line)
    if directed and v == root:
        raise ParseError(f"arc ({u},{v}) enters the root", line)
    c = (u, v) if directed or u < v else (v, u)
    by_class.setdefault(c, []).extend(range(total, total + count))
    return total + count


def parse_instance(text: str, *, kind: str | None = None, k: int | None = None) -> ProblemInstance:
    """Parse the text or JSON instance format.

    The text format is graph-only; kind defaults from the header tag
    (D -> arb, U -> tree) and k defaults to 1, unless a `# kind = ...` /
    `# k = ...` comment or an explicit argument overrides them.  Only a
    comment-only line sets meta.

    A text has two readers and one set of errors.  The bulk reader
    (`_read_canonical`) takes the form `serialize_instance` writes and
    reads its body a chunk of lines at a time, checking whole columns at
    once; on any doubt it hands the text to the per-line reader
    (`_read_lines`), which checks each line as it reads it, so a ParseError
    names the first bad line whichever reader saw the text first.  Both
    file each line's copies as one id range into its class and give the
    same graph.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json_instance(stripped, kind=kind, k=k)
    tag, n, root, by_class, meta = _read_canonical(text) or _read_lines(text)
    graph = (RootedDigraph if tag == "D" else RootedGraph)._of_classes(n, root, by_class)
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


# What a text reader gives `parse_instance`: the header's tag, n and root,
# the class table {class: ids} and the meta comments
_Read = tuple[str, int, int, dict, dict[str, str]]


def _set_meta(meta: dict[str, str], comment: str) -> None:
    """Record a comment-only line's `key = value`, if it has one."""
    if "=" in comment:
        key, _, val = comment.partition("=")
        meta[key.strip().lower()] = val.strip()


def _read_header(tokens: list[str], line: int | None) -> tuple[str, int, int]:
    """The tag, n and root of a header line's tokens."""
    if len(tokens) != 3 or tokens[0] not in ("D", "U"):
        raise ParseError("expected header 'D n root' or 'U n root'", line)
    try:
        tag, n, root = tokens[0], int(tokens[1]), int(tokens[2])
    except ValueError:
        raise ParseError("header fields must be integers", line) from None
    _check_vertices(n, root, line)
    return tag, n, root


def _read_lines(text: str) -> _Read:
    """The per-line reader: each line is checked as it is read, so a
    ParseError names the first bad line."""
    tag = None  # until the header is read
    by_class, total = {}, 0  # the class table and the copies filed into it
    meta: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        tokens = line.split()
        if not tokens:  # blank or comment-only; only such a line sets meta
            _set_meta(meta, comment)
            continue
        if tag is None:
            tag, n, root = _read_header(tokens, lineno)
            continue
        if len(tokens) not in (2, 3):
            raise ParseError("expected 'u v [count]'", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
            count = int(tokens[2]) if len(tokens) == 3 else 1
        except ValueError:
            raise ParseError("arc fields must be integers", lineno) from None
        total = _file_line(by_class, total, n, root, tag == "D", u, v, count, lineno)
    if tag is None:
        raise ParseError("empty document: missing header")
    return tag, n, root, by_class, meta


# The bulk reader takes the body about 1,500 canonical lines at a time, so
# its token lists stay small beside the graph it builds
_CHUNK_CHARS = 1 << 14
_NO_DIGITS = str.maketrans("", "", "0123456789")


def _read_canonical(text: str) -> Optional[_Read]:
    """The bulk reader: what `_read_lines` reads from a text in the form
    `serialize_instance` writes, or None when the text is in any other form
    or has a fault, for `_read_lines` to read or refuse line by line.

    The form is comment-only lines, a header, then `u v count` lines, each
    ended by a newline, whose classes ascend strictly: (u, v) for a
    digraph, and u < v for a graph.  A body chunk of L lines is in that
    form exactly when it ends with a newline, deleting its digits leaves
    L times "  \\n", and it splits into 3L tokens: each separator then
    follows a digit, so the tokens are the lines' fields in order.  The
    chunk's columns are then checked as `_file_line` checks each line,
    and each line's copies are filed as one id range, numbered on from
    the copies before it.
    """
    meta: dict[str, str] = {}
    pos = 0
    while True:  # comment-only lines up to the header, each one line to `splitlines`
        end = text.find("\n", pos)
        raw = text[pos:end]
        if end < 0 or raw.splitlines() != [raw]:
            return None
        pos = end + 1
        line, _, comment = raw.partition("#")
        tokens = line.split()
        if tokens:
            break
        _set_meta(meta, comment)
    try:
        tag, n, root = _read_header(tokens, None)
    except ParseError:
        return None
    directed = tag == "D"
    by_class: dict[tuple[int, int], range] = {}
    total, last = 0, (-1, -1)  # the copies filed so far and the last class
    number: dict[str, int] = {}  # each distinct field's int
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK_CHARS) + 1 or len(text)
        chunk = text[pos:end]
        pos = end
        lines = chunk.count("\n")
        fields = chunk.split()
        if len(fields) != 3 * lines or chunk.translate(_NO_DIGITS) != "  \n" * lines:
            return None
        try:  # each distinct field converted once, so that equal numbers share one int
            new = set(fields).difference(number)
            number.update(zip(new, map(int, new)))
        except ValueError:  # more digits than `int` converts
            return None
        fields = list(map(number.__getitem__, fields))
        us, vs, counts = fields[0::3], fields[1::3], fields[2::3]
        if min(counts) < 1 or max(us) >= n or max(vs) >= n:
            return None
        # a digraph's arcs are no loops and do not enter the root; a
        # graph's edges are written (min, max), so no loop either
        if root in vs or any(map(eq, us, vs)) if directed else not all(map(lt, us, vs)):
            return None
        classes = list(zip(us, vs))
        if not (last < classes[0] and all(map(lt, classes, islice(classes, 1, None)))):
            return None
        starts = list(accumulate(counts, initial=total))
        total = starts[-1]
        if total > MAX_COPIES:
            return None
        by_class.update(zip(classes, map(range, starts, islice(starts, 1, None))))
        last = classes[-1]
    return tag, n, root, by_class, meta


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
    by_class, total = {}, 0
    for entry in arcs:
        u, v, count = [json_int(x, "JSON instance field 'arcs'") for x in entry] + [1] * (3 - len(entry))
        total = _file_line(by_class, total, n, root, kind != "tree", u, v, count)
    graph = (RootedGraph if kind == "tree" else RootedDigraph)._of_classes(n, root, by_class)
    return ProblemInstance(kind=kind, graph=graph, k=k)


def serialize_instance(instance: ProblemInstance) -> str:
    """Byte-stable text form; parse(serialize(x)) is a fixed point."""
    return instance.to_text()


def cap_parallel(instance: ProblemInstance) -> ProblemInstance:
    """Drop surplus parallel copies beyond the per-kind decision-preserving cap.

    Keeps the lowest-id copies; surviving ids are unchanged so witnesses
    remain valid against the original instance.  The capped graph copies
    the original's tables, re-tupling only the entries at the ends of the
    classes it cuts, so it shares every other per-vertex tuple and every
    uncut class's ids.  It builds its own root-reach engine on first use:
    the original's counts the dropped copies.
    """
    cap, g = PARALLEL_CAP[instance.kind], instance.graph
    cut = [c for c, ids in g._by_class.items() if len(ids) > cap]
    if not cut:
        return instance
    capped = type(g).__new__(type(g))
    capped.n, capped.root, capped._engine = g.n, g.root, None
    capped._by_class, capped._ends = by_class, ends = dict(g._by_class), dict(g._ends)
    for c in cut:
        for cid in by_class[c][cap:]:
            del ends[cid]
        by_class[c] = by_class[c][:cap]
    capped._patch(g, cut)
    return ProblemInstance(kind=instance.kind, graph=capped, k=instance.k)


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
    return RootedGraph(g.n, g.root, [g.edge(eid) for eid in g.edge_ids for _ in range(p)])

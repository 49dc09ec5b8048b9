"""Brute-force reference solvers and independent witness validators.

The oracles enumerate exhaustively at parallel-class level: copies of an arc
are interchangeable, so a disjoint pair of structures exists iff a pair of
class-level structures exists whose shared classes have at least two copies.
Validators share no traversal or feasibility code with the solver modules;
they re-derive everything from the definitions.

One root-first walk decides shape and sizes branches, on both sides:
- a parent map on the non-root vertices is an r-arborescence iff the walk
  from r down its child lists reaches every vertex (`_arb_subtree_sizes`
  is None otherwise): a vertex it misses climbs into a cycle, never to r;
- n - 1 distinct edges form a spanning tree iff the walk from r over their
  classes reaches all n vertices (`_tree_hanging_sizes` has n - 1 entries):
  n - 1 edges connect n vertices only without a cycle, and two copies of
  one class are one class to the walk, so they leave a vertex unreached.

A flow witness's stated flows are checked first, in linear time.  A valid
one is a feasible branching flow on its side's arcs, so it certifies that
side's `feasible` check, and the validator's max-flow runs only for a side
without a stated flow or whose stated flow fails: a certificate is checked,
not recomputed (McConnell, Mehlhorn, Naher and Schweitzer, "Certifying
algorithms", Computer Science Review 2011).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import BudgetExceededError, ContractError
from .graphs import ProblemInstance, RootedDigraph, RootedGraph

DEFAULT_TREE_ARB_VERTICES = 7
DEFAULT_FLOW_ARCS = 14


@dataclass(frozen=True)
class OracleBudget:
    """Enumeration guardrails; oracles refuse rather than run unboundedly."""

    max_vertices: int = DEFAULT_TREE_ARB_VERTICES
    max_arcs: int = DEFAULT_FLOW_ARCS
    max_candidates: int = 5_000_000

    def check_vertices(self, n: int) -> None:
        if n > self.max_vertices:
            raise BudgetExceededError(
                f"oracle budget: {n} vertices exceeds max {self.max_vertices}")

    def check_arcs(self, m: int) -> None:
        if m > self.max_arcs:
            raise BudgetExceededError(
                f"oracle budget: {m} arcs exceeds max {self.max_arcs}")

    def check_count(self, count: int) -> None:
        if count > self.max_candidates:
            raise BudgetExceededError(
                f"oracle budget: enumeration exceeded {self.max_candidates} candidates")


@dataclass(frozen=True)
class OracleAnswer:
    decision: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    candidates: int = 0


# --------------------------------------------------------------------------
# independent primitives (no imports from solver modules)
# --------------------------------------------------------------------------


def _arb_structures(
    dig: RootedDigraph, budget: OracleBudget
) -> list[tuple[dict[int, int], dict[int, int]]]:
    """Every spanning r-arborescence as its parent map (vertex -> chosen
    tail) and its subtree sizes."""
    verts = [v for v in range(dig.n) if v != dig.root]
    choices = []
    for v in verts:
        tails = [u for u, _ids in dig.in_classes(v)]
        if not tails:
            return []
        choices.append(tails)
    count = 1
    for c in choices:
        count *= len(c)
    budget.check_count(count)
    result = []
    for combo in itertools.product(*choices):
        parent = dict(zip(verts, combo))
        sizes = _arb_subtree_sizes(parent, dig.root)
        if sizes is not None:
            result.append((parent, sizes))
    return result


def _arb_subtree_sizes(parent: dict[int, int], root: int) -> Optional[dict[int, int]]:
    """Size of the subtree at each vertex of a parent map on the non-root
    vertices, summed in one reverse pass over a root-first order, or None
    when that order misses a vertex: the map is then no r-arborescence."""
    children: dict[int, list[int]] = {}
    for v, u in parent.items():
        children.setdefault(u, []).append(v)
    order = list(children.get(root, ()))
    for u in order:
        order.extend(children.get(u, ()))
    if len(order) < len(parent):
        return None
    sizes = dict.fromkeys(parent, 1)
    for v in reversed(order):
        if parent[v] != root:
            sizes[parent[v]] += sizes[v]
    return sizes


def _find(uf: list[int], x: int) -> int:
    """Union-find root of x, halving the path."""
    while uf[x] != x:
        uf[x] = uf[uf[x]]
        x = uf[x]
    return x


def _tree_structures(g: RootedGraph, budget: OracleBudget) -> list[frozenset[tuple[int, int]]]:
    """All spanning trees as frozensets of edge classes (u < v)."""
    classes = sorted(g.parallel_classes())
    n = g.n
    result: list[frozenset[tuple[int, int]]] = []
    counter = [0]

    def connects(chosen: list[tuple[int, int]], remaining: list[tuple[int, int]]) -> bool:
        uf = list(range(n))
        comps = n
        for u, v in chosen + remaining:
            ru, rv = _find(uf, u), _find(uf, v)
            if ru != rv:
                uf[ru] = rv
                comps -= 1
        return comps == 1

    def rec(idx: int, chosen: list[tuple[int, int]], uf: list[int], comps: int) -> None:
        counter[0] += 1
        budget.check_count(counter[0])
        if comps == 1:
            result.append(frozenset(chosen))
            return
        if idx == len(classes):
            return
        if not connects(chosen, classes[idx:]):
            return
        u, v = classes[idx]
        ru, rv = _find(uf, u), _find(uf, v)
        if ru != rv:
            uf2 = list(uf)
            uf2[ru] = rv
            rec(idx + 1, chosen + [(u, v)], uf2, comps - 1)
        rec(idx + 1, chosen, uf, comps)

    if n == 1:
        return [frozenset()]
    rec(0, [], list(range(n)), n)
    return result


def _tree_hanging_sizes(root: int, classes: frozenset[tuple[int, int]]) -> dict[int, int]:
    """Strict descendant count of each non-root vertex that a root-first walk
    over the edge classes reaches, hanging the classes from the root."""
    adj: dict[int, list[int]] = {}
    for u, v in classes:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    parent = {root: -1}
    order = [root]
    for x in order:
        for w in sorted(adj.get(x, ())):
            if w not in parent:
                parent[w] = x
                order.append(w)
    del parent[root]
    return {v: size - 1 for v, size in _arb_subtree_sizes(parent, root).items()}


def _ff_max_flow(n_nodes: int, arcs: Sequence[tuple[int, int, int]], s: int, t: int) -> int:
    """Plain Ford-Fulkerson with DFS augmentation (validator-local)."""
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, set[int]] = {v: set() for v in range(n_nodes)}
    for u, v, c in arcs:
        cap[(u, v)] = cap.get((u, v), 0) + c
        cap.setdefault((v, u), 0)
        adj[u].add(v)
        adj[v].add(u)
    total = 0
    while True:
        stack = [s]
        prev: dict[int, int] = {s: -1}
        while stack:
            u = stack.pop()
            if u == t:
                break
            for v in sorted(adj[u]):
                if v not in prev and cap.get((u, v), 0) > 0:
                    prev[v] = u
                    stack.append(v)
        if t not in prev:
            return total
        bottleneck = None
        v = t
        while v != s:
            u = prev[v]
            c = cap[(u, v)]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = u
        v = t
        while v != s:
            u = prev[v]
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
            v = u
        total += bottleneck


def _flow_feasible_counts(
    dig: RootedDigraph, class_counts: dict[tuple[int, int], int], caps: int
) -> bool:
    """Feasibility of a branching flow using `count` copies per class."""
    if dig.n == 1:
        return True
    if caps <= 0:
        return False
    sink = dig.n
    arcs = [(u, v, count * caps) for (u, v), count in class_counts.items() if count > 0]
    demand = dig.n - 1
    for v in range(dig.n):
        if v != dig.root:
            arcs.append((v, sink, 1))
    return _ff_max_flow(dig.n + 1, arcs, dig.root, sink) == demand


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------


def _first_pair(
    safe: list[frozenset[tuple[int, int]]], mult: dict, candidates: int
) -> OracleAnswer:
    """The first pair of safe class sets, in list order, whose shared classes
    all have two copies, with the lowest copies as its witness."""
    for i, c1 in enumerate(safe):
        for c2 in safe[i:]:
            if all(len(mult[c]) >= 2 for c in c1 & c2):
                w1 = tuple(sorted(mult[c][0] for c in c1))
                w2 = tuple(sorted(mult[c][1] if c in c1 else mult[c][0] for c in c2))
                return OracleAnswer(True, (w1, w2), candidates=candidates)
    return OracleAnswer(False, None, candidates=candidates)


def oracle_arb(
    dig: RootedDigraph, k: int, budget: OracleBudget | None = None
) -> OracleAnswer:
    """Exhaustive search for two arc-disjoint k-safe spanning r-arborescences."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    budget = budget or OracleBudget()
    budget.check_vertices(dig.n)
    if dig.n == 1:
        return OracleAnswer(True, ((), ()), candidates=1)
    structures = _arb_structures(dig, budget)
    safe = [frozenset((u, v) for v, u in parent.items())
            for parent, sizes in structures
            if all(dig.n - s >= k for s in sizes.values())]
    return _first_pair(safe, dict(dig.parallel_classes()), len(structures))


def oracle_tree(
    g: RootedGraph, k: int, budget: OracleBudget | None = None
) -> OracleAnswer:
    """Exhaustive search for two edge-disjoint (r,k)-safe spanning trees."""
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    budget = budget or OracleBudget()
    budget.check_vertices(g.n)
    if g.n == 1:
        return OracleAnswer(True, ((), ()), candidates=1)
    trees = _tree_structures(g, budget)
    safe = [classes for classes in trees
            if all((g.n - 1) - s >= k
                   for s in _tree_hanging_sizes(g.root, classes).values())]
    return _first_pair(safe, dict(g.parallel_classes()), len(trees))


def oracle_flow(
    dig: RootedDigraph, k: int, budget: OracleBudget | None = None
) -> OracleAnswer:
    """Exhaustive search for two arc-disjoint spanning (r,k)-flow branchings.

    By feasibility monotonicity the second branching can always take every
    arc the first one leaves, so candidates are per-class count splits.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    budget = budget or OracleBudget()
    budget.check_arcs(dig.arc_count)
    if dig.n == 1:
        return OracleAnswer(True, ((), ()), candidates=1)
    caps = dig.n - k
    classes = sorted(dig.parallel_classes())
    mult = dict(dig.parallel_classes())
    if caps <= 0:
        return OracleAnswer(False, None, candidates=0)
    # quick gates: every vertex needs an in-arc on each side
    full_counts = {c: len(mult[c]) for c in classes}
    if not _flow_feasible_counts(dig, full_counts, caps):
        return OracleAnswer(False, None, candidates=1)
    combos = 1
    for c in classes:
        combos *= len(mult[c]) + 1
    budget.check_count(combos)
    candidates = 0
    for split in itertools.product(*[range(len(mult[c]) + 1) for c in classes]):
        candidates += 1
        side1 = {c: s for c, s in zip(classes, split)}
        side2 = {c: len(mult[c]) - s for c, s in zip(classes, split)}
        if not _flow_feasible_counts(dig, side1, caps):
            continue
        if not _flow_feasible_counts(dig, side2, caps):
            continue
        w1 = tuple(sorted(
            aid for c in classes for aid in mult[c][: side1[c]]))
        w2 = tuple(sorted(
            aid for c in classes for aid in mult[c][side1[c]:]))
        return OracleAnswer(True, (w1, w2), candidates=candidates)
    return OracleAnswer(False, None, candidates=candidates)


def run_oracle(instance: ProblemInstance, budget: OracleBudget | None = None) -> OracleAnswer:
    if instance.kind == "arb":
        return oracle_arb(instance.graph, instance.k, budget)
    if instance.kind == "flow":
        return oracle_flow(instance.graph, instance.k, budget)
    return oracle_tree(instance.graph, instance.k, budget)


# --------------------------------------------------------------------------
# witness validation
# --------------------------------------------------------------------------


@dataclass
class WitnessVerdict:
    """Itemised independent re-check of a claimed witness."""

    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"check": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
        }


def _validate_arb_side(
    verdict: WitnessVerdict, dig: RootedDigraph, ids: Sequence[int], k: int, tag: str
) -> None:
    known = all(dig.has_arc(a) for a in ids)
    verdict.add(f"{tag}:ids", known, "" if known else "unknown arc ids")
    if not known:
        return
    parent: dict[int, int] = {}
    ok_shape = True
    for aid in sorted(ids):
        u, v = dig.arc(aid)
        if v in parent:
            verdict.add(f"{tag}:in-degree", False, f"vertex {v} has two in-arcs")
            ok_shape = False
            break
        parent[v] = u
    if not ok_shape:
        return
    spanning = set(parent) == {v for v in range(dig.n) if v != dig.root}
    verdict.add(f"{tag}:spanning", spanning,
                "" if spanning else f"uncovered: {sorted(set(range(dig.n)) - {dig.root} - set(parent))}")
    if not spanning:
        return
    sizes = _arb_subtree_sizes(parent, dig.root)
    acyclic = sizes is not None
    verdict.add(f"{tag}:acyclic", acyclic, "" if acyclic else "parent cycle")
    if not acyclic:
        return
    bad = sorted(v for v, s in sizes.items() if dig.n - s < k)
    verdict.add(f"{tag}:k-safe", not bad,
                "" if not bad else f"overweight branch at vertex {bad[0]}")


def _validate_tree_side(
    verdict: WitnessVerdict, g: RootedGraph, ids: Sequence[int], k: int, tag: str
) -> None:
    known = all(g.has_edge(e) for e in ids)
    verdict.add(f"{tag}:ids", known, "" if known else "unknown edge ids")
    if not known:
        return
    count_ok = len(set(ids)) == len(ids) == g.n - 1
    verdict.add(f"{tag}:edge-count", count_ok,
                "" if count_ok else f"{len(ids)} edges for n={g.n}")
    if not count_ok:
        return
    sizes = _tree_hanging_sizes(g.root, frozenset(g.edge(eid) for eid in ids))
    acyclic = len(sizes) == g.n - 1
    verdict.add(f"{tag}:acyclic", acyclic, "" if acyclic else "cycle in selection")
    if not acyclic:
        return
    # Always passes once acyclic does; it stays because the check list is
    # part of every YES report's bytes and of `rootedpack validate` output.
    spanning = len(sizes) == g.n - 1
    verdict.add(f"{tag}:spanning", spanning, "" if spanning else "not spanning")
    if not spanning:
        return
    bad = sorted(v for v, s in sizes.items() if (g.n - 1) - s < k)
    verdict.add(f"{tag}:rk-safe", not bad,
                "" if not bad else f"overweight hanging component at vertex {bad[0]}")


def _validate_flow_side(
    verdict: WitnessVerdict, dig: RootedDigraph, ids: Sequence[int], k: int, tag: str,
    certified: bool,
) -> None:
    """The side's `ids` and `feasible` checks.  A valid stated flow
    (`certified`) is a feasible branching flow on the side's arcs, so the
    max-flow runs only without one."""
    known = all(dig.has_arc(a) for a in ids)
    verdict.add(f"{tag}:ids", known, "" if known else "unknown arc ids")
    if not known:
        return
    caps = dig.n - k
    if caps < 0:
        verdict.add(f"{tag}:feasible", dig.n == 1, "negative capacities")
        return
    feasible = certified or _flow_feasible_counts(
        dig, Counter(dig.arc(aid) for aid in set(ids)), caps)
    verdict.add(f"{tag}:feasible", feasible,
                "" if feasible else f"no branching flow under caps {caps}")


def validate_witness(instance: ProblemInstance, witness: dict) -> WitnessVerdict:
    """Independent re-check of a solver witness against the definitions.

    The witness dict carries tree1/tree2 id lists (all problems).  Failures
    are itemised, never raised.
    """
    verdict = WitnessVerdict()
    ids1 = [int(x) for x in witness.get("tree1", [])]
    ids2 = [int(x) for x in witness.get("tree2", [])]
    shared = sorted(set(ids1) & set(ids2))
    verdict.add("disjoint", not shared,
                "" if not shared else f"shared ids: {shared}")
    g = instance.graph
    k = instance.k
    if instance.kind == "arb":
        assert isinstance(g, RootedDigraph)
        _validate_arb_side(verdict, g, ids1, k, "tree1")
        _validate_arb_side(verdict, g, ids2, k, "tree2")
    elif instance.kind == "flow":
        assert isinstance(g, RootedDigraph)
        stated_ok = {tag: _stated_flow_ok(g, dict((int(a), int(v)) for a, v in stated),
                                          set(ids), k)
                     for tag, ids, stated in (("tree1", ids1, witness.get("flow1")),
                                              ("tree2", ids2, witness.get("flow2")))
                     if stated is not None}
        _validate_flow_side(verdict, g, ids1, k, "tree1", stated_ok.get("tree1", False))
        _validate_flow_side(verdict, g, ids2, k, "tree2", stated_ok.get("tree2", False))
        for tag, ok in stated_ok.items():
            verdict.add(f"{tag}:stated-flow", ok, "" if ok else "stated flow invalid")
    else:
        assert isinstance(g, RootedGraph)
        _validate_tree_side(verdict, g, ids1, k, "tree1")
        _validate_tree_side(verdict, g, ids2, k, "tree2")
    return verdict


def _stated_flow_ok(dig: RootedDigraph, values: dict[int, int], ids: set[int], k: int) -> bool:
    caps = dig.n - k
    net = {v: 0 for v in range(dig.n)}
    for aid, val in values.items():
        if aid not in ids or not dig.has_arc(aid) or val < 0 or val > caps:
            return False
        u, v = dig.arc(aid)
        net[u] -= val
        net[v] += val
    for v in range(dig.n):
        want = -(dig.n - 1) if v == dig.root else 1
        if net[v] != want:
            return False
    return True

"""Hardness-gadget instance generation and seeded random instances.

The SAT gadget reduces 3-SAT (clauses of up to three distinct variables) to
the existence of one (r,k)-safe spanning tree: a layered variable ladder from
the root to a hub t, one path per clause literal, and a size-q independent
set on t.  A satisfying assignment yields a spanning tree whose hub side has
exactly n-k vertices, so the safety margin is tight at k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .connectivity import is_k_root_connected
from .errors import ContractError, GenerationError, InternalError, ParseError
from .graphs import MAX_COPIES, ProblemInstance, RootedDigraph, RootedGraph
from .matroid import _UnionFind


@dataclass(frozen=True)
class CnfFormula:
    """Clauses as DIMACS-signed literal tuples over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if not 1 <= len(clause) <= 3:
                raise ContractError(f"clause size must be 1..3, got {len(clause)}")
            vars_seen = {abs(lit) for lit in clause}
            if len(vars_seen) != len(clause):
                raise ContractError(f"clause {clause} repeats a variable")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ContractError(f"literal {lit} out of range")

    @property
    def literal_count(self) -> int:
        return sum(len(c) for c in self.clauses)

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        """assignment[i] is the value of variable i+1."""
        for clause in self.clauses:
            if not any(
                assignment[abs(lit) - 1] == (lit > 0) for lit in clause
            ):
                return False
        return True


def parse_dimacs(text: str) -> CnfFormula:
    """DIMACS-CNF subset: `p cnf vars clauses`, clause lines ending in 0."""
    num_vars = None
    expected = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            tokens = line.split()
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise ParseError("expected 'p cnf <vars> <clauses>'", lineno)
            num_vars, expected = int(tokens[2]), int(tokens[3])
            continue
        if num_vars is None:
            raise ParseError("clause before 'p cnf' header", lineno)
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if num_vars is None:
        raise ParseError("missing 'p cnf' header")
    if expected is not None and len(clauses) != expected:
        raise ParseError(f"header announced {expected} clauses, found {len(clauses)}")
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


@dataclass(frozen=True)
class ReductionOutput:
    """The gadget graph with its parameters and vertex-role labels."""

    graph: RootedGraph
    k: int
    q: int
    num_vars: int  # after even-padding
    formula: CnfFormula
    roles: Mapping[int, str]
    positive_vertex: Mapping[int, int]  # variable -> vertex for literal x_i
    negative_vertex: Mapping[int, int]
    hub: int
    clause_vertex: Mapping[int, int]

    def to_roles_json(self) -> dict:
        return {str(v): role for v, role in sorted(self.roles.items())}


def sat_reduction(formula: CnfFormula, q: Optional[int] = None) -> ReductionOutput:
    """Build the gadget graph; n = q + k + num_vars + 1 always holds.

    k = 1 + vars + (vars/2) * total_literals + clauses, which matches the
    3-literal-per-clause value 1 + vars + 3*vars*clauses/2 + clauses and
    extends the same counting to shorter clauses.
    """
    if not formula.clauses:
        raise ContractError("formula must have at least one clause")
    num_vars = formula.num_vars
    if num_vars % 2 == 1:
        num_vars += 1  # pad with a variable in no clause
    ell = num_vars
    m = len(formula.clauses)
    big_l = formula.literal_count
    k = 1 + ell + (ell // 2) * big_l + m
    if q is None:
        q = k
    if q <= k - ell - 1:
        raise GenerationError(f"q must exceed k - vars - 1 = {k - ell - 1}, got {q}")

    roles: dict[int, str] = {}
    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    cvert: dict[int, int] = {}
    counter = [0]

    def fresh(role: str) -> int:
        v = counter[0]
        counter[0] += 1
        roles[v] = role
        return v

    root = fresh("root")
    for i in range(1, ell + 1):
        pos[i] = fresh(f"var:{i}:pos")
        neg[i] = fresh(f"var:{i}:neg")
    hub = fresh("hub")
    for j in range(1, m + 1):
        cvert[j] = fresh(f"clause:{j}")
    edges: list[tuple[int, int]] = []
    edges.append((root, pos[1]))
    edges.append((root, neg[1]))
    for i in range(1, ell):
        for a in (pos[i], neg[i]):
            for b in (pos[i + 1], neg[i + 1]):
                edges.append((a, b))
    edges.append((pos[ell], hub))
    edges.append((neg[ell], hub))
    for j, clause in enumerate(formula.clauses, start=1):
        for lit in clause:
            i = abs(lit)
            target = pos[i] if lit > 0 else neg[i]
            prev = cvert[j]
            for step in range(ell // 2):
                interior = fresh(f"path:{j}:{lit}:{step}")
                edges.append((prev, interior))
                prev = interior
            edges.append((prev, target))
    for idx in range(q):
        qv = fresh(f"q:{idx}")
        edges.append((hub, qv))
    n = counter[0]
    graph = RootedGraph(n, root, edges)
    if n != q + k + ell + 1:
        raise InternalError("vertex-count identity violated",
                            {"n": n, "expected": q + k + ell + 1})
    return ReductionOutput(
        graph=graph, k=k, q=q, num_vars=ell, formula=formula, roles=roles,
        positive_vertex=pos, negative_vertex=neg, hub=hub, clause_vertex=cvert,
    )


def witness_tree_from_assignment(out: ReductionOutput, assignment: Sequence[bool]):
    """The proof's spanning tree for a satisfying assignment.

    The hub-side component is the ladder path P (the vertex for the literal
    the assignment falsifies in each layer), the hub, and all of Q; the rest
    of the graph hangs off the root through the other layer-1 vertex.
    """
    formula = out.formula
    padded = list(assignment) + [False] * (out.num_vars - len(assignment))
    if len(padded) != out.num_vars:
        raise ContractError("assignment length does not match variable count")
    if not formula.satisfied_by(padded[: formula.num_vars]):
        raise ContractError("assignment does not satisfy the formula")
    g = out.graph
    # P takes the positive vertex when the variable is false, else the negative
    chosen = [
        out.positive_vertex[i + 1] if not padded[i] else out.negative_vertex[i + 1]
        for i in range(out.num_vars)
    ]
    tree_edges: set[int] = set()

    def edge_between(a: int, b: int) -> int:
        ids = g.class_ids(a, b)
        if not ids:
            raise InternalError("expected gadget edge is missing", {"edge": (a, b)})
        return ids[0]

    tree_edges.add(edge_between(g.root, chosen[0]))
    for i in range(out.num_vars - 1):
        tree_edges.add(edge_between(chosen[i], chosen[i + 1]))
    tree_edges.add(edge_between(chosen[-1], out.hub))
    q_vertices = [v for v, role in out.roles.items() if role.startswith("q:")]
    for qv in sorted(q_vertices):
        tree_edges.add(edge_between(out.hub, qv))
    # the remainder hangs off the root via the other layer-1 vertex
    hub_side = set(chosen) | {out.hub} | set(q_vertices)
    other_first = (
        out.negative_vertex[1] if chosen[0] == out.positive_vertex[1]
        else out.positive_vertex[1]
    )
    tree_edges.add(edge_between(g.root, other_first))
    remainder = [
        v for v in range(g.n)
        if v != g.root and v not in hub_side
    ]
    placed = {other_first}
    queue = [other_first]
    while queue:
        u = queue.pop(0)
        for w, ids in g.incident_classes(u):
            if w in placed or w == g.root or w in hub_side:
                continue
            placed.add(w)
            tree_edges.add(ids[0])
            queue.append(w)
    if set(remainder) - placed:
        raise InternalError("remainder of the gadget is not connected",
                            {"missing": sorted(set(remainder) - placed)[:5]})
    return g.selection(tree_edges)


def random_instance(
    kind: str,
    n: int,
    arc_budget: int,
    seed: int,
    ensure: Optional[str] = None,
    k: int = 1,
) -> ProblemInstance:
    """Seeded random instance; the optional repair adds canonical arcs
    until the requested property holds.

    ensure is one of None, "2-root-connected" (directed kinds), "connected"
    (trees).  Generation fails when the budget exceeds `MAX_COPIES`, the
    most copies an instance may have, or is below the property's least arc
    count (2(n-1) or n-1); the repair may then add arcs beyond the budget.
    """
    if n < 1:
        raise GenerationError(f"n must be >= 1, got {n}")
    if arc_budget > MAX_COPIES:
        raise GenerationError(f"arc budget {arc_budget} exceeds the limit of {MAX_COPIES} copies")
    if ensure not in (None, "2-root-connected", "connected"):
        raise GenerationError(f"unknown ensure property {ensure!r}")
    directed = kind in ("arb", "flow")
    if ensure == "2-root-connected" and not directed:
        raise GenerationError("2-root-connected only applies to directed kinds")
    if ensure == "connected" and directed:
        raise GenerationError("connected only applies to tree instances")
    minimum = 0
    if ensure == "2-root-connected":
        minimum = 2 * (n - 1)
    elif ensure == "connected":
        minimum = n - 1
    if arc_budget < minimum:
        raise GenerationError(
            f"ensure {ensure!r} needs at least {minimum} arcs, budget is {arc_budget}")
    rng = random.Random(seed)
    arcs: list[tuple[int, int]] = []
    if n >= 2:
        for _ in range(arc_budget):
            if directed:
                v = rng.randrange(1, n)
                u = rng.randrange(n)
                while u == v:
                    u = rng.randrange(n)
            else:
                u = rng.randrange(n)
                v = rng.randrange(n)
                while u == v:
                    v = rng.randrange(n)
            arcs.append((u, v))
    if directed:
        graph: RootedDigraph | RootedGraph = RootedDigraph(n, 0, arcs)
        if ensure == "2-root-connected":
            while True:
                ok, witness = is_k_root_connected(graph, 2)
                if ok:
                    break
                arcs.append((0, min(witness.vertices)))
                graph = RootedDigraph(n, 0, arcs)
    else:
        if ensure == "connected":
            # (0, v) for the least v of each part the root misses, in order: the
            # arcs that joining the least unreachable vertex until connected adds
            parts = _UnionFind(n)
            for u, v in arcs:
                parts.union(u, v)
            arcs += [(0, v) for v in range(1, n) if parts.union(0, v)]
        graph = RootedGraph(n, 0, arcs)
    return ProblemInstance(kind=kind, graph=graph, k=k)

"""Differential tests for the shape searches: `fptcommon.tree_shapes`, the
one compact-tree shape search behind the arb kernels and the tree
certificates, and `solver_flow._core_shapes`, the root-grown search over
per-class count vectors behind the flow cores.

The references are the enumerators they replaced, kept here in behaviour.
The two breadth-first tree enumerators copy the parent map and recompute
the branch sizes of every extension, and the certificate one rebuilds
parents from the class set before computing the attachment.  The flow one
draws every vertex subset of the pool and every {0, 1, 2} product over its
classes, filters by in-degree and root-connectivity, and solves each
survivor's aggregated network by max-flow.  Each must give
the same shape list (classes or count vectors, order and attachments) on
seeded random instances.

The searches emit finished rows (`pairs.Row`): besides the classes,
counts and attachment, each carries its expanded count, pair masks and
extendability verdict down the search stack.  The counts and masks are
checked against `shape_masks_reference`, the one pass over finished shapes
that built them before, on these fixtures and on random digraphs and
graphs, for all three kinds; the verdicts against the probe of the classes
each row empties, which the pipeline ran on every row before.

Where `_core_shapes` decides a core smaller than 2k-1 vertices by the
aggregated max-flow, the flow reference's `aggregated_feasibility_reference`
rebuilds the same network, so those cores are also checked as explicit
digraphs with their imaginary leaves, by `flows.branching_flow_feasible`.

The copy expansion behind `enumerate_compact_kernels`, `_cores` and
`_certificates` (`fptcommon.expand_shapes`) is checked the same way against
the three per-kind loops it replaced, record by record and in order.
"""

import itertools
import random
import time
from collections import Counter, deque

import pytest

from rootedpack import solver_flow
from rootedpack.connectivity import FlowNetwork, max_flow
from rootedpack.flows import branching_flow_feasible
from rootedpack.fptcommon import branch_structure, lex_smallest_attachment, tree_shapes
from rootedpack.graphs import (ProblemInstance, ResidualReach, RootedDigraph, RootedGraph,
                               cap_parallel)
from rootedpack.instancegen import random_instance
from rootedpack.pairs import CopyTable
from rootedpack.solver_arb import (
    candidate_pool,
    classify_vertices,
    enumerate_compact_kernels,
    solve_arb,
)
from rootedpack.solver_flow import (
    _core_shapes,
    candidate_pool_flow,
    classify_vertices_flow,
    enumerate_compact_cores,
)
from rootedpack.solver_tree import (
    candidate_pool_tree,
    classify_vertices_tree,
    enumerate_compact_certificates,
    solve_tree,
)

from conftest import random_digraph, random_graph
from test_pair_search import conflicts, row_emptied, row_masks, shape_masks_reference


def arc_key(u, v):
    return (u, v)


def edge_key(u, v):
    return (min(u, v), max(u, v))


def class_sets_reference(g, k, pool, view, classes_of, key):
    """Every class set the replaced enumerators visited, the empty one
    included: trees grown breadth-first from the root, each extension's
    parent map copied and its branch sizes recomputed, a seen set keeping
    each class set once."""
    root = g.root
    limit = 2 * k - 2
    empty = frozenset()
    seen = {empty}
    queue = deque([(empty, {})])
    shapes = [empty]
    while queue:
        classes, parent = queue.popleft()
        if len(classes) == limit:
            continue
        verts = {root} | set(parent)
        for tail in sorted(verts):
            if tail != root and tail in view.large:
                continue
            for head, _ids in classes_of(tail):
                if head in verts or head not in pool:
                    continue
                nxt = classes | {key(tail, head)}
                if nxt in seen:
                    continue
                nparent = dict(parent)
                nparent[head] = tail
                _, sizes = branch_structure(nparent, root)
                if any(s > k - 1 for s in sizes.values()):
                    continue
                seen.add(nxt)
                shapes.append(nxt)
                queue.append((nxt, nparent))
    return shapes


def kernel_shapes_reference(dig, k, pool, view):
    root = dig.root
    shapes = class_sets_reference(dig, k, pool, view, dig.out_classes, arc_key)
    result = []
    for classes in sorted(shapes, key=lambda c: (len(c), tuple(sorted(c)))):
        parent = {v: u for u, v in classes}
        verts = frozenset(parent)
        branch_of, sizes = branch_structure(parent, root)
        attachment = lex_smallest_attachment(
            anchors=sorted(verts & view.large), branch_of=branch_of,
            branch_sizes=sizes, limit=k - 1, residual=(2 * k - 2) - len(verts))
        if attachment is not None:
            result.append((tuple(sorted(classes)), attachment))
    return result


def certificate_shapes_reference(g, k, pool, view):
    root = g.root
    shapes = class_sets_reference(g, k, pool, view, g.incident_classes, edge_key)
    result = []
    for classes in sorted(shapes, key=lambda c: (len(c), tuple(sorted(c)))):
        adj = {}
        for u, v in classes:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        parent = {}
        order = deque([root])
        placed = {root}
        while order:
            u = order.popleft()
            for w in sorted(adj.get(u, ())):
                if w not in placed:
                    parent[w] = u
                    placed.add(w)
                    order.append(w)
        verts = frozenset(parent)
        branch_of, sizes = branch_structure(parent, root)
        attachment = lex_smallest_attachment(
            anchors=sorted(verts & view.large), branch_of=branch_of,
            branch_sizes=sizes, limit=k - 1, residual=(2 * k - 2) - len(verts))
        if attachment is not None:
            result.append((tuple(sorted(classes)), attachment))
    return result


# arcs per vertex by kind and k: sparse instances keep the pool deep, and at
# k=3 the dense ones have large vertices, so shapes with attachments; denser
# k=4 instances have far more shapes than a quick test can compare
ARCS_PER_VERTEX = {
    "arb": {2: (6, 12), 3: (3, 12), 4: (2, 3)},
    "tree": {2: (6, 12), 3: (3, 12), 4: (2,)},
}


def tree_rows(kind, g, k):
    """The rows of `tree_shapes` for kernels (arb), with the extendability
    step as the arb pipeline passes it, or certificates (tree), without."""
    if kind == "arb":
        return tree_shapes(g, k, candidate_pool(g, k), classify_vertices(g, k).large,
                           g._reach())
    return tree_shapes(g, k, candidate_pool_tree(g, k), classify_vertices_tree(g, k).large)


def core_rows(g, k):
    return _core_shapes(g, k, candidate_pool_flow(g, k), classify_vertices_flow(g, k))


def as_cores(rows):
    """Rows as the replaced core search gave them: (V', sorted (class,
    count) pairs, attachment)."""
    return [(frozenset(v for _, v in row[0]), tuple(zip(row[0], row[1])), row[2]) for row in rows]


def instances(kind):
    """Seeded `random_instance` fixtures, n = 6..22 and k = 2..4."""
    for n in (6, 10, 14, 18, 22):
        for k in (2, 3, 4):
            for per_vertex in ARCS_PER_VERTEX[kind][k]:
                yield random_instance(kind, n, per_vertex * n, seed=97 * n + k), k


@pytest.mark.parametrize("kind", ["arb", "tree"])
def test_tree_shapes_match_the_replaced_enumerators(kind):
    total = anchored = 0
    for inst, k in instances(kind):
        g = inst.graph
        if kind == "arb":
            want = kernel_shapes_reference(g, k, candidate_pool(g, k), classify_vertices(g, k))
        else:
            want = certificate_shapes_reference(g, k, candidate_pool_tree(g, k),
                                                classify_vertices_tree(g, k))
        rows = tree_rows(kind, g, k)
        assert all(counts == (1,) * len(classes) for classes, counts, *_ in rows)
        got = [(classes, attachment) for classes, _, attachment, *_ in rows]
        assert got == want
        total += len(got)
        anchored += sum(1 for _, attachment in got if attachment)
    # many shapes, and some with imaginary leaves to place
    assert total > 10_000 and anchored > 50


@pytest.mark.parametrize("kind", ["arb", "tree"])
def test_tree_shapes_build_each_class_set_once(kind, monkeypatch):
    """`tree_shapes` asks `CopyTable.entry` once per class it takes, that
    is once per non-empty tree it builds, so one call per non-empty class
    set the reference visits means that no tree is built twice."""
    calls = []
    entry = CopyTable.entry

    def counted(self, c, copies, m):
        calls.append(c)
        return entry(self, c, copies, m)

    monkeypatch.setattr(CopyTable, "entry", counted)
    for inst, k in instances(kind):
        g = inst.graph
        if kind == "arb":
            pool, view = candidate_pool(g, k), classify_vertices(g, k)
            classes_of, key = g.out_classes, arc_key
        else:
            pool, view = candidate_pool_tree(g, k), classify_vertices_tree(g, k)
            classes_of, key = g.incident_classes, edge_key
        calls.clear()
        tree_shapes(g, k, pool, view.large)
        visited = class_sets_reference(g, k, pool, view, classes_of, key)
        assert len(calls) == len(visited) - 1, (g.n, k)


def test_deep_shapes_keep_an_explicit_stack():
    """A doubled path at k = 1200: its shapes are the path's prefixes, up
    to 1199 classes deep, well past the default recursion limit.  None has
    an attachment (no large vertex, and one root branch never reaches
    2k-2 vertices), so both kinds answer NO at the pair search."""
    n, k = 2600, 1200
    pairs = [(i, i + 1) for i in range(n - 1) for _ in range(2)]
    started = time.perf_counter()
    for graph, solve, counter in ((RootedDigraph(n, 0, pairs), solve_arb, "kernels"),
                                  (RootedGraph(n, 0, pairs), solve_tree, "certificates")):
        report = solve(graph, k)
        assert (report.decision, report.stage, report.counters[counter]) == (
            False, "pair-search", 0)
    assert time.perf_counter() - started < 2.0


def aggregated_feasibility_reference(dig, class_counts, verts, large, k):
    """The aggregated network solved by max-flow for every state: arcs capped
    at k * count, one unit from each vertex of V' to the sink, and the
    residual 2k-1-|V'| units to the sink through the large vertices of V'.
    Returns the per-anchor split of the residual, or None."""
    anchors = sorted(verts & large)
    residual = 2 * k - 1 - len(verts)
    if residual > 0 and not anchors:
        return None
    sink, agg = dig.n, dig.n + 1
    net = FlowNetwork(n_nodes=dig.n + 2, source=dig.root, sink=sink)
    for (u, v), count in sorted(class_counts.items()):
        if count > 0:
            net.add_arc(u, v, count * k)
    for v in sorted(verts):
        net.add_arc(v, sink, 1)
    anchor_arcs = {}
    if residual > 0:
        for v in anchors:
            anchor_arcs[v] = net.add_arc(v, agg, residual)
        net.add_arc(agg, sink, residual)
    value, flows = max_flow(net)
    if value != len(verts) + residual:
        return None
    return {v: flows[idx] for v, idx in sorted(anchor_arcs.items()) if flows[idx] > 0}


def core_vectors_reference(dig, k, pool, view):
    """Every root-connected count vector with V' non-empty, as (V', count
    dict): every vertex subset of the pool and every {0, 1, 2} product over
    its classes, filtered by in-degree and root-connectivity."""
    root = dig.root
    nonroot_pool = sorted(pool - {root})
    max_size = 2 * k - 1
    for size in range(1, min(max_size, len(nonroot_pool)) + 1):
        for vset in itertools.combinations(nonroot_pool, size):
            verts = frozenset(vset)
            classes = []
            for u in sorted(verts | {root}):
                if u != root and u in view.large:
                    continue
                for v, ids in dig.out_classes(u):
                    if v in verts:
                        classes.append(((u, v), min(2, len(ids))))
            if not classes:
                continue
            for combo in itertools.product(*[range(cap + 1) for _, cap in classes]):
                counts = {c: m for (c, _), m in zip(classes, combo) if m > 0}
                if not counts:
                    continue
                indeg = {v: 0 for v in verts}
                for (u, v), m in counts.items():
                    indeg[v] += m
                if any(d == 0 for d in indeg.values()):
                    continue
                adj = {}
                for u, v in counts:
                    adj.setdefault(u, []).append(v)
                seen, stack = {root}, [root]
                while stack:
                    for v in adj.get(stack.pop(), ()):
                        if v not in seen:
                            seen.add(v)
                            stack.append(v)
                if verts <= seen:
                    yield verts, counts


def core_shapes_reference(dig, k, pool, view):
    shapes = []
    for verts, counts in core_vectors_reference(dig, k, pool, view):
        attachment = aggregated_feasibility_reference(dig, counts, verts, view.large, k)
        if attachment is not None:
            shapes.append((verts, tuple(sorted(counts.items())), attachment))
    shapes.sort(key=lambda s: (len(s[0]), tuple(sorted(s[0])), s[1]))
    return shapes


def with_hub(inst, n):
    """`inst` widened to n vertices, with an arc from the root's first
    out-neighbour, the hub, to every other non-root vertex: the hub is large
    once n - 2 >= 20k^2 + 1, and the new vertices hang only below it."""
    g = inst.graph
    hub = g.out_classes(g.root)[0][0]
    arcs = [(u, v) for u, v, _ in g.arcs()]
    arcs += [(hub, v) for v in range(1, n) if v != hub]
    return ProblemInstance("flow", RootedDigraph(n, g.root, arcs), inst.k)


# (n, arcs per vertex, seed) at k = 3: the reference draws 3^classes
# count vectors per vertex set, so only the smallest instances
K3_FIXTURES = [(6, 2, 0), (6, 2, 1), (6, 3, 0)]


def flow_instances():
    """Seeded `random_instance` flow fixtures at k = 1..3, and hub fixtures
    at k = 1 (a large anchor with 21 out-neighbours) and k = 2 (81, so an
    anchor that takes the leftover demand)."""
    for n in (6, 9, 12, 20):
        for k in (1, 2):
            for per_vertex in (2, 3):
                for seed in (0, 1):
                    yield random_instance("flow", n, per_vertex * n, seed=seed,
                                          ensure="2-root-connected", k=k)
    for n, per_vertex, seed in K3_FIXTURES:
        yield random_instance("flow", n, per_vertex * n, seed=seed,
                              ensure="2-root-connected", k=3)
    for seed in (0, 1):
        for k, n in ((1, 23), (2, 83)):
            yield with_hub(random_instance("flow", 9, 27, seed=seed,
                                           ensure="2-root-connected", k=k), n)


def test_core_shapes_match_the_replaced_enumerator():
    total = doubled = anchored = attached = 0
    for inst in flow_instances():
        g, k = cap_parallel(inst).graph, inst.k
        pool, view = candidate_pool_flow(g, k), classify_vertices_flow(g, k)
        got = as_cores(_core_shapes(g, k, pool, view))
        assert got == core_shapes_reference(g, k, pool, view)
        total += len(got)
        doubled += sum(1 for _, counts, _ in got if any(m == 2 for _, m in counts))
        anchored += sum(1 for verts, _, _ in got if verts & view.large)
        attached += sum(1 for _, _, attachment in got if attachment)
    # 2-copy classes, large anchors and imaginary vertices to place
    assert total > 10_000 and doubled > 5_000 and anchored > 100 and attached > 5


def explicit_core_feasible(root, counts, verts, leaves, k):
    """Whether the core with its imaginary leaves, built as a standalone
    digraph Y (root 0, then V', then `leaves[a]` new leaves under each anchor
    a, each copy an arc), spans 2k vertices and carries a branching flow of
    capacity k: the check of `test_solver_flow`'s attachment enumeration,
    with no aggregated network."""
    label = {root: 0}
    for v in sorted(verts):
        label[v] = len(label)
    arcs = [(label[u], label[v]) for (u, v), m in sorted(counts.items()) for _ in range(m)]
    n = len(label)
    for anchor, count in sorted(leaves.items()):
        for _ in range(count):
            arcs.append((label[anchor], n))
            n += 1
    return n == 2 * k and branching_flow_feasible(RootedDigraph(n, 0, arcs), k) is not None


def leaf_distributions(anchors, residual):
    """Every split of `residual` leaves over the anchors, as a dict."""
    for combo in itertools.product(range(residual + 1), repeat=len(anchors)):
        if sum(combo) == residual:
            yield dict(zip(anchors, combo))


def test_smaller_core_attachments_against_explicit_leaves():
    """For |V'| < 2k-1, `_core_shapes` takes its verdict and attachment from
    `_aggregated_feasibility`'s max-flow, which `aggregated_feasibility_reference`
    rebuilds statement for statement.  Here each kept smaller core, with the
    leaves its attachment states, must be feasible as an explicit digraph,
    and no leaf split may make a refused smaller vector with an anchor
    feasible.  Only the hub fixtures at k = 2 have such vectors: 16 with
    their anchor, 10 of them kept."""
    kept_rows = refused = 0
    for inst in flow_instances():
        g, k = cap_parallel(inst).graph, inst.k
        pool, view = candidate_pool_flow(g, k), classify_vertices_flow(g, k)
        kept = set()
        for verts, counts, attachment in as_cores(_core_shapes(g, k, pool, view)):
            kept.add(counts)
            if len(verts) < 2 * k - 1:
                assert explicit_core_feasible(g.root, dict(counts), verts, attachment, k)
                kept_rows += 1
        for verts, counts in core_vectors_reference(g, k, pool, view):
            anchors = sorted(verts & view.large)
            if len(verts) == 2 * k - 1 or not anchors or tuple(sorted(counts.items())) in kept:
                continue
            residual = 2 * k - 1 - len(verts)
            assert not any(explicit_core_feasible(g.root, counts, verts, leaves, k)
                           for leaves in leaf_distributions(anchors, residual))
            refused += 1
    assert kept_rows >= 10 and refused >= 6, (kept_rows, refused)


def cut_condition_reference(root, class_counts, verts, k):
    """The min-cut check that `_core_shapes` ran on every full-size count
    vector before it carried the verdicts down: whether k * in(X) >=
    |X & V'| for every X without the root, by a root reach plus one reach
    without each single-copy class of a breadth-first tree T above more
    than k vertices."""
    out = {}
    for (u, v), m in class_counts.items():
        if m > 0:
            out.setdefault(u, []).append(v)

    def reach(skip):
        parent = {root: root}
        order = [root]
        for u in order:
            for v in out.get(u, ()):
                if v not in parent and (u, v) != skip:
                    parent[v] = u
                    order.append(v)
        return parent

    parent = reach(None)
    if not verts <= parent.keys():
        return False
    below = dict.fromkeys(parent, 1)
    for v, u in reversed(parent.items()):
        if v != root:
            below[u] += below[v]
    return not any(
        below[v] > k and class_counts[(u, v)] == 1 and len(verts - reach((u, v)).keys()) > k
        for v, u in parent.items() if v != root)


def entering(class_counts, cut):
    """in(X): the copies of a count vector that enter X."""
    return sum(m for (u, v), m in class_counts.items() if u not in cut and v in cut)


# Two fixtures for the search of rule 2, which the random fixtures at
# k <= 3 almost never need.  In both, vertex 1 takes its classes to 3..
# before the search reaches those of 2, so a full-size state fails on the
# bridge cut of (0, 1), and a child that adds a class of 2 into that cut
# has its bridge cuts searched again.  In TWO_HUBS (k = 3) the child passes;
# in ONE_HUB (k = 4) the cut of (0, 1) only loses vertex 3, and the child
# still fails on it.
TWO_HUBS = RootedDigraph(7, 0, [(0, 1), (0, 2), (0, 2),
                                *((u, v) for u in (1, 2) for v in range(3, 7))])
ONE_HUB = RootedDigraph(8, 0, [(0, 1), (0, 2), (0, 2), *((1, v) for v in range(3, 8)), (2, 3)])


def test_core_search_decides_each_count_vector_once(monkeypatch):
    """Each of the reference's non-empty root-connected vectors is decided
    exactly once: a smaller one by `_aggregated_feasibility`, a full-size
    one by one of the rules of `_core_shapes`, with the verdict of the cut
    check it replaced (`cut_condition_reference`) and of the max-flow, and
    the set a failing one carries is violated.  Each of the three rules
    decides more than 1,000 states, and the search of rule 2 both passes
    and refuses states."""
    calls = Counter()
    rules = Counter()
    refused = Counter()
    carried = {}
    total = 0
    feasibility = solver_flow._aggregated_feasibility

    def counted(dig, class_counts, verts, large, k):
        calls[tuple(sorted(class_counts.items()))] += 1
        return feasibility(dig, class_counts, verts, large, k)

    monkeypatch.setattr(solver_flow, "_aggregated_feasibility", counted)
    for inst in (*flow_instances(), ProblemInstance("flow", TWO_HUBS, 3),
                 ProblemInstance("flow", ONE_HUB, 4)):
        g, k = cap_parallel(inst).graph, inst.k
        pool, view = candidate_pool_flow(g, k), classify_vertices_flow(g, k)
        calls.clear()
        carried.clear()

        def decided(rule, class_counts, verts, cut):
            assert len(verts) == 2 * k - 1
            key = tuple(sorted(class_counts.items()))
            calls[key] += 1
            carried[key] = cut
            rules[rule] += 1
            refused[rule] += cut is not None
            if cut is not None:
                assert k * entering(class_counts, cut) < len(cut & verts)

        rows = _core_shapes(g, k, pool, view, decided)
        assert set(calls.values()) <= {1}
        vectors = list(core_vectors_reference(g, k, pool, view))
        assert set(calls) == {tuple(sorted(counts.items())) for _, counts in vectors}
        total += len(calls)
        kept = {tuple(zip(row[0], row[1])) for row in rows}
        for verts, counts in vectors:
            key = tuple(sorted(counts.items()))
            valid = aggregated_feasibility_reference(g, counts, verts, view.large, k) is not None
            assert (key in kept) == valid
            if len(verts) == 2 * k - 1:
                assert cut_condition_reference(g.root, counts, verts, k) == valid
                assert (carried[key] is None) == valid
    assert total > 20_000
    assert min(rules[rule] for rule in ("inherited", "carried", "new-head")) > 1_000, rules
    assert rules["searched"] > refused["searched"] > 0, (rules, refused)


# -- the carried rows against the one pass over finished shapes --


def assert_rows_match_reference(g, rows, probe):
    """The rows' expanded counts, the rows `probe` keeps (all without one),
    their masks and carried verdicts against `shape_masks_reference` on the
    rows' own (count dict, attachment) shapes: each verdict is `probe` of
    the classes the row empties, recomputed from its classes and counts,
    and True without a probe.  Returns the (L, m) pairs of every class a
    row takes and, keyed ("extendable", verdict), the verdict counts."""
    shapes = [(dict(zip(row[0], row[1])), row[2]) for row in rows]
    expanded, kept, uses, limits = shape_masks_reference(shapes, g.class_ids, probe)
    kept_rows = [row for row in rows if row[6]]
    assert sum(row[3] for row in rows) == expanded
    assert [(dict(zip(row[0], row[1])), row[2]) for row in kept_rows] == kept
    assert conflicts(*row_masks(kept_rows)) == conflicts(uses, limits)
    taken = Counter()
    for row in rows:
        assert row[6] is (probe is None or probe(row_emptied(row, g.class_ids)))
        taken.update(zip((len(g.class_ids(*c)) for c in row[0]), row[1]))
        taken["extendable", row[6]] += 1
    return taken


def test_carried_rows_match_shape_masks_on_fixtures():
    """Every row of the fixtures: the kernel (arb) and core (flow) rows
    carry `spans_without` of the classes they empty, and the
    certificate rows (tree, no step) are all marked extendable."""
    taken = {kind: Counter() for kind in ("arb", "flow", "tree")}
    for kind in ("arb", "tree"):
        for inst, k in instances(kind):
            g = inst.graph
            probe = g._reach().spans_without if kind == "arb" else None
            taken[kind] += assert_rows_match_reference(g, tree_rows(kind, g, k), probe)
    for inst in flow_instances():
        g, k = cap_parallel(inst).graph, inst.k
        taken["flow"] += assert_rows_match_reference(g, core_rows(g, k), g._reach().spans_without)
    # flow classes of 2 and 3 copies, taken once and twice
    assert min(taken["flow"][pair] for pair in ((2, 1), (2, 2), (3, 1), (3, 2))) > 100
    assert min(taken[kind]["extendable", ok] for kind in ("arb", "flow") for ok in (True, False)
               ) > 1_000
    assert taken["tree"]["extendable", True] > 10_000


def test_carried_rows_match_shape_masks_on_random_graphs():
    """Random digraphs and graphs with up to five copies per class, capped
    as each pipeline caps them, at k = 1..3."""
    rng = random.Random(29)
    taken = Counter()
    rows_seen = Counter()
    for _ in range(120):
        k = rng.randint(1, 3)
        for kind in ("arb", "flow", "tree"):
            graph = (random_graph if kind == "tree" else random_digraph)(
                rng, max_n=7 if kind == "flow" and k == 3 else 9, max_mult=5)
            g = cap_parallel(ProblemInstance(kind=kind, graph=graph, k=k)).graph
            if kind == "flow":
                rows = core_rows(g, k)
                taken += assert_rows_match_reference(g, rows, g._reach().spans_without)
            else:
                rows = tree_rows(kind, g, k)
                probe = g._reach().spans_without if kind == "arb" else None
                assert_rows_match_reference(g, rows, probe)
            rows_seen[kind] += len(rows)
    assert min(rows_seen.values()) > 100
    assert min(taken[pair] for pair in ((2, 1), (2, 2), (3, 1), (3, 2))) > 1_000
    assert taken[(4, 1)] and taken[(4, 2)]


# -- the carried extendability verdicts --


class CountedReads(list):
    """A table that counts its reads, so that a step's search shows."""

    reads = 0

    def __getitem__(self, index):
        CountedReads.reads += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("kind", ["arb", "flow"])
def test_carried_probe_searches_only_where_a_state_cuts_its_overlay(kind, monkeypatch):
    """On one fixture: a step searches (reads the in-class table) only when
    its class is the overlay's arc into its head, a failed state's children
    take no step, and the searches number fewer than the rows that empty a
    class, each of which took one search in the per-row probe."""
    counts = Counter()
    step = ResidualReach.step

    def counted(self, overlay, emptied, c):
        assert overlay is not None
        u, v = c
        cuts = overlay.get(v, self.parent.get(v)) == u
        before = CountedReads.reads
        result = step(self, overlay, emptied, c)
        searched = CountedReads.reads > before
        counts["steps"] += 1
        counts["cuts"] += cuts
        counts["searches"] += searched
        assert cuts or not searched
        return result

    if kind == "arb":
        g, k = random_instance("arb", 22, 66, seed=97 * 22 + 4).graph, 4
    else:
        inst = random_instance("flow", 6, 18, seed=0, ensure="2-root-connected", k=3)
        g, k = cap_parallel(inst).graph, inst.k
    engine = g._reach()
    engine._in_classes = CountedReads(engine._in_classes)
    monkeypatch.setattr(ResidualReach, "step", counted)
    rows = tree_rows("arb", g, k) if kind == "arb" else core_rows(g, k)
    emptying = sum(1 for row in rows if row_emptied(row, g.class_ids))
    assert 0 < counts["searches"] <= counts["cuts"] < counts["steps"]
    assert counts["searches"] < emptying
    assert any(not row[6] for row in rows) and any(row[6] for row in rows)


# -- the copy expansion against the per-kind loops it replaced --


def kernels_reference(dig, k):
    """One kernel per product of the tree classes' copies, V' the heads."""
    for classes, _, attachment, *_ in tree_rows("arb", dig, k):
        for combo in itertools.product(*[dig.class_ids(u, v) for u, v in classes]):
            yield frozenset(v for _, v in classes), tuple(sorted(combo)), dict(attachment)


def certificates_reference(g, k):
    """One certificate per product of the tree classes' copies, V' the
    non-root ends."""
    for classes, _, attachment, *_ in tree_rows("tree", g, k):
        verts = frozenset(v for c in classes for v in c if v != g.root)
        for combo in itertools.product(*[g.class_ids(u, v) for u, v in classes]):
            yield verts, tuple(sorted(combo)), dict(attachment)


def cores_reference(dig, k):
    """Per class, the m-subsets of its copies listed by hand (m <= 2), one
    core per product of them, V' as `_core_shapes` gives it."""
    for verts, counts, attachment in as_cores(core_rows(dig, k)):
        per_class = []
        for (u, v), m in counts:
            ids = dig.class_ids(u, v)
            per_class.append([(a,) for a in ids] if m == 1 else
                             [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]])
        for combos in itertools.product(*per_class):
            yield verts, tuple(sorted(a for chunk in combos for a in chunk)), dict(attachment)


def assert_same_stream(g, got, want):
    """The records (vertices, sorted ids, attachment) of `got` equal `want`,
    in order.  Returns their count and how many take some copy other than
    the first of its class."""
    firsts = {ids[0] for ids in g.parallel_classes().values()}
    count = later = 0
    for c, theirs in itertools.zip_longest(got, want):
        assert c is not None, count
        assert (c.vertices, c.selection.sorted_ids(), dict(c.attachment)) == theirs, count
        count += 1
        later += not c.selection.ids <= firsts
    return count, later


@pytest.mark.parametrize("kind", ["arb", "tree"])
def test_tree_expansion_matches_the_replaced_loops(kind):
    total = later = 0
    for inst, k in instances(kind):
        g = inst.graph
        if kind == "arb":
            seen = assert_same_stream(g, enumerate_compact_kernels(g, k), kernels_reference(g, k))
        else:
            seen = assert_same_stream(g, enumerate_compact_certificates(g, k),
                                      certificates_reference(g, k))
        total, later = total + seen[0], later + seen[1]
    # many structures, most taking a copy past the first of some class
    assert total > 10_000 and later > total // 2


def test_core_expansion_matches_the_replaced_loop():
    """Every record's vertices are `_core_shapes`' V' too, as the reference
    takes them from there."""
    total = later = 0
    for inst in flow_instances():
        g, k = cap_parallel(inst).graph, inst.k
        seen = assert_same_stream(g, enumerate_compact_cores(g, k), cores_reference(g, k))
        total, later = total + seen[0], later + seen[1]
    # many cores, most taking a copy past the first of some class
    assert total > 10_000 and later > total // 2

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

The copy expansion behind `enumerate_compact_kernels`, `_cores` and
`_certificates` (`fptcommon.expand_shapes`) is checked the same way against
the three per-kind loops it replaced, record by record and in order.
"""

import itertools
import time
from collections import deque

import pytest

from rootedpack.connectivity import FlowNetwork, max_flow
from rootedpack.fptcommon import branch_structure, lex_smallest_attachment, tree_shapes
from rootedpack.graphs import RootedDigraph, RootedGraph, cap_parallel, ProblemInstance
from rootedpack.instancegen import random_instance
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
            pool, view = candidate_pool(g, k), classify_vertices(g, k)
            want = kernel_shapes_reference(g, k, pool, view)
            got = tree_shapes(g.root, k, pool, view.large, g.out_classes, arc_key)
        else:
            pool, view = candidate_pool_tree(g, k), classify_vertices_tree(g, k)
            want = certificate_shapes_reference(g, k, pool, view)
            got = tree_shapes(g.root, k, pool, view.large, g.incident_classes, edge_key)
        assert got == want
        total += len(got)
        anchored += sum(1 for _, attachment in got if attachment)
    # many shapes, and some with imaginary leaves to place
    assert total > 10_000 and anchored > 50


@pytest.mark.parametrize("kind", ["arb", "tree"])
def test_tree_shapes_build_each_class_set_once(kind):
    """`key` names a class as a tree takes it, so one call per non-empty
    class set the reference visits means that no tree is built twice."""
    for inst, k in instances(kind):
        g = inst.graph
        if kind == "arb":
            pool, view = candidate_pool(g, k), classify_vertices(g, k)
            classes_of, key = g.out_classes, arc_key
        else:
            pool, view = candidate_pool_tree(g, k), classify_vertices_tree(g, k)
            classes_of, key = g.incident_classes, edge_key
        calls = []

        def counted(u, v):
            calls.append((u, v))
            return key(u, v)

        tree_shapes(g.root, k, pool, view.large, classes_of, counted)
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


def core_shapes_reference(dig, k, pool, view):
    root = dig.root
    nonroot_pool = sorted(pool - {root})
    shapes = []
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
                if not verts <= seen:
                    continue
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
    hub = g.out_neighbors(g.root)[0]
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
        got = _core_shapes(g, k, pool, view)
        assert got == core_shapes_reference(g, k, pool, view)
        total += len(got)
        doubled += sum(1 for _, counts, _ in got if any(m == 2 for _, m in counts))
        anchored += sum(1 for verts, _, _ in got if verts & view.large)
        attached += sum(1 for _, _, attachment in got if attachment)
    # 2-copy classes, large anchors and imaginary vertices to place
    assert total > 10_000 and doubled > 5_000 and anchored > 100 and attached > 5


# -- the copy expansion against the per-kind loops it replaced --


def kernels_reference(dig, k):
    """One kernel per product of the tree classes' copies, V' the heads."""
    for classes, attachment in tree_shapes(
            dig.root, k, candidate_pool(dig, k), classify_vertices(dig, k).large,
            dig.out_classes, arc_key):
        for combo in itertools.product(*[dig.class_ids(u, v) for u, v in classes]):
            yield frozenset(v for _, v in classes), tuple(sorted(combo)), dict(attachment)


def certificates_reference(g, k):
    """One certificate per product of the tree classes' copies, V' the
    non-root ends."""
    for classes, attachment in tree_shapes(
            g.root, k, candidate_pool_tree(g, k), classify_vertices_tree(g, k).large,
            g.incident_classes, edge_key):
        verts = frozenset(v for c in classes for v in c if v != g.root)
        for combo in itertools.product(*[g.class_ids(u, v) for u, v in classes]):
            yield verts, tuple(sorted(combo)), dict(attachment)


def cores_reference(dig, k):
    """Per class, the m-subsets of its copies listed by hand (m <= 2), one
    core per product of them, V' as `_core_shapes` gives it."""
    view, pool = classify_vertices_flow(dig, k), candidate_pool_flow(dig, k)
    for verts, counts, attachment in _core_shapes(dig, k, pool, view):
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

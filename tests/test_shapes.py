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
from rootedpack.fptcommon import branch_structure, lex_smallest_attachment, tree_shapes
from rootedpack.graphs import (ProblemInstance, ResidualReach, RootedDigraph, RootedGraph,
                               cap_parallel)
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
        return tree_shapes(g.root, k, candidate_pool(g, k), classify_vertices(g, k).large,
                           g.out_classes, arc_key, g._reach())
    return tree_shapes(g.root, k, candidate_pool_tree(g, k), classify_vertices_tree(g, k).large,
                       g.incident_classes, edge_key)


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
        got = as_cores(_core_shapes(g, k, pool, view))
        assert got == core_shapes_reference(g, k, pool, view)
        total += len(got)
        doubled += sum(1 for _, counts, _ in got if any(m == 2 for _, m in counts))
        anchored += sum(1 for verts, _, _ in got if verts & view.large)
        attached += sum(1 for _, _, attachment in got if attachment)
    # 2-copy classes, large anchors and imaginary vertices to place
    assert total > 10_000 and doubled > 5_000 and anchored > 100 and attached > 5


def test_core_search_checks_each_count_vector_once(monkeypatch):
    """`_aggregated_feasibility` is called exactly once per count vector,
    and on exactly the reference's non-empty root-connected vectors."""
    calls = Counter()
    feasibility = solver_flow._aggregated_feasibility

    def counted(dig, class_counts, verts, large, k):
        calls[tuple(sorted((c, m) for c, m in class_counts.items() if m > 0))] += 1
        return feasibility(dig, class_counts, verts, large, k)

    monkeypatch.setattr(solver_flow, "_aggregated_feasibility", counted)
    total = 0
    for inst in flow_instances():
        g, k = cap_parallel(inst).graph, inst.k
        pool, view = candidate_pool_flow(g, k), classify_vertices_flow(g, k)
        calls.clear()
        _core_shapes(g, k, pool, view)
        assert set(calls.values()) <= {1}
        assert set(calls) == {tuple(sorted(counts.items())) for _, counts
                              in core_vectors_reference(g, k, pool, view)}
        total += len(calls)
    assert total > 20_000


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
    carry `spans_without_classes` of the classes they empty, and the
    certificate rows (tree, no step) are all marked extendable."""
    taken = {kind: Counter() for kind in ("arb", "flow", "tree")}
    for kind in ("arb", "tree"):
        for inst, k in instances(kind):
            g = inst.graph
            probe = g.spans_without_classes if kind == "arb" else None
            taken[kind] += assert_rows_match_reference(g, tree_rows(kind, g, k), probe)
    for inst in flow_instances():
        g, k = cap_parallel(inst).graph, inst.k
        taken["flow"] += assert_rows_match_reference(g, core_rows(g, k), g.spans_without_classes)
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
                taken += assert_rows_match_reference(g, rows, g.spans_without_classes)
            else:
                rows = tree_rows(kind, g, k)
                probe = g.spans_without_classes if kind == "arb" else None
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

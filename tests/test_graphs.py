import json

import pytest
from hypothesis import given, strategies as st

from rootedpack.errors import ContractError, ParseError, StructureError
from rootedpack.graphs import (
    MAX_COPIES,
    MAX_VERTICES,
    ProblemInstance,
    RootedDigraph,
    RootedGraph,
    cap_parallel,
    duplicate_edges,
    hanging_component_sizes,
    parse_instance,
    serialize_instance,
    subtree_sizes,
)
from rootedpack.fptcommon import tree_shapes
from rootedpack.solver_arb import candidate_pool, classify_vertices
from rootedpack.solver_flow import _core_shapes, candidate_pool_flow, classify_vertices_flow

from conftest import digraphs, graphs, random_digraph, random_graph, spanning_digraph
from test_pair_search import (conflicts, expanded_reference, row_masks, shape_masks_reference,
                              table_rows)
from test_shapes import flow_instances, instances
import random
import tracemalloc


def test_parse_digraph_with_multiplicity():
    inst = parse_instance("D 3 0\n0 1 2\n1 2\n")
    g = inst.graph
    assert isinstance(g, RootedDigraph)
    assert (g.n, g.root) == (3, 0)
    assert g.class_ids(0, 1) == (0, 1)
    assert g.class_ids(1, 2) == (2,)


def test_parse_undirected():
    inst = parse_instance("U 3 0\n0 1\n0 2\n")
    g = inst.graph
    assert isinstance(g, RootedGraph)
    assert g.class_ids(0, 1) == (0,)
    assert g.class_ids(0, 2) == (1,)
    assert inst.kind == "tree"


def test_parse_arc_into_root_fails():
    with pytest.raises(ParseError, match="enters the root"):
        parse_instance("D 2 0\n1 0\n")


@pytest.mark.parametrize("cls", [RootedDigraph, RootedGraph])
@pytest.mark.parametrize("cid", [-5, -1, True, False, 1.0, "2"])
def test_constructors_refuse_ids_that_are_not_non_negative_integers(cls, cid):
    with pytest.raises(ParseError, match="id .* is not a non-negative integer"):
        cls(3, 0, [(0, 1, 7), (1, 2, cid)])


def test_constructors_keep_explicit_non_negative_ids():
    d = RootedDigraph(3, 0, [(0, 1, 5), (1, 2, 0), (0, 2)])
    assert d.arc_ids == (0, 5, 6)


def test_parse_malformed_header():
    with pytest.raises(ParseError, match="header"):
        parse_instance("X 3 0\n0 1\n")
    with pytest.raises(ParseError):
        parse_instance("")
    with pytest.raises(ParseError, match="root 5 out of range"):
        parse_instance("D 3 5\n0 1\n")


def test_parse_errors_name_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_instance("D 3 0\n0 1\n0 0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_instance("D 3 0\n0 9\n")


def test_parse_error_names_the_first_bad_line():
    # line 2 is out of range and line 3 is not integers: each line is
    # checked where it is read, so line 2 is named
    with pytest.raises(ParseError, match="line 2: vertex out of range"):
        parse_instance("D 3 0\n0 9\nx y\n")
    # the same for JSON entries: the first entry crosses the copy limit
    with pytest.raises(ParseError, match="more than 1000000 arc copies"):
        parse_instance('{"kind": "arb", "n": 2, "root": 0, "arcs": [[0, 1, 1000001], [0, 1, 0]], "k": 1}')


def test_parse_rejects_more_copies_than_the_limit():
    # one copy over the limit; the check runs before any id is built
    assert MAX_COPIES == 1_000_000
    with pytest.raises(ParseError, match="more than 1000000 arc copies"):
        parse_instance("D 2 0\n0 1 1000001\n")
    with pytest.raises(ParseError, match="more than 1000000 arc copies"):
        parse_instance('{"kind": "arb", "n": 2, "root": 0, "arcs": [[0, 1, 1000001]], "k": 1}')


def peak_bytes(fn) -> int:
    """Peak bytes that Python allocates while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [
    lambda n: parse_instance(f"D {n} 0\n"),
    lambda n: parse_instance(f"U {n} 0\n0 1\n"),
    lambda n: parse_instance(json.dumps({"kind": "arb", "n": n, "root": 0, "arcs": [], "k": 1})),
    lambda n: RootedDigraph(n, 0, []),
    lambda n: RootedGraph(n, 0, [(0, 1)]),
])
def test_more_vertices_than_the_limit_rejected_before_any_table(build):
    # one vertex over the limit; a per-vertex table alone would take 8 MB
    assert MAX_VERTICES == MAX_COPIES + 1

    def reject():
        with pytest.raises(ParseError, match=f"more than {MAX_VERTICES} vertices"):
            build(MAX_VERTICES + 1)

    assert peak_bytes(reject) < 100_000


def test_json_parse_peaks_no_higher_than_text_parse():
    # 100,000 copies as 100 entries of 1,000: each entry extends the copy
    # list with one shared (u, v) pair, as a text line does
    text = "D 101 0\n" + "".join(f"0 {v} 1000\n" for v in range(1, 101))
    doc = json.dumps({"kind": "arb", "n": 101, "root": 0, "k": 1,
                      "arcs": [[0, v, 1000] for v in range(1, 101)]})
    assert parse_instance(doc).graph == parse_instance(text).graph
    assert peak_bytes(lambda: parse_instance(doc)) <= 1.1 * peak_bytes(lambda: parse_instance(text))


@pytest.mark.parametrize("field,value", [
    ("arcs", [[0, 1, 1.5]]), ("arcs", [[0, 1, True]]), ("arcs", [[0, "1"]]),
    ("arcs", [[0.0, 1]]), ("n", "3"), ("n", 3.0), ("root", False), ("k", "2"), ("k", 2.5),
])
def test_json_parse_takes_integers_only(field, value):
    obj = {"kind": "arb", "n": 3, "root": 0, "arcs": [[0, 1], [0, 2, 2]], "k": 1}
    assert parse_instance(json.dumps(obj)).graph.arc_count == 3
    obj[field] = value
    with pytest.raises(ParseError, match=f"field '{field}' must be an integer"):
        parse_instance(json.dumps(obj))


@pytest.mark.parametrize("arcs", [[[0]], [[0, 1, 1, 1]], [5], 5])
def test_json_parse_rejects_malformed_arcs(arcs):
    obj = {"kind": "arb", "n": 3, "root": 0, "arcs": arcs, "k": 1}
    with pytest.raises(ParseError, match="arc"):
        parse_instance(json.dumps(obj))


def test_parse_comments_and_meta():
    inst = parse_instance("# kind = flow\n# k = 2\nD 2 0\n0 1 3  # triple\n")
    assert inst.kind == "flow"
    assert inst.k == 2
    assert inst.graph.arc_count == 3


def test_only_a_comment_only_line_sets_meta():
    assert parse_instance("  # k = 2\nD 2 0\n0 1\n").k == 2
    assert parse_instance("D 2 0\n0 1 # k = 5\n").k == 1


def test_json_round_trip():
    inst = parse_instance("D 4 1\n0 2 2\n1 0\n", kind="flow", k=3)
    again = parse_instance(inst.to_json())
    assert again.kind == "flow" and again.k == 3
    assert again.graph == inst.graph


def test_serialize_parse_fixed_point(rng):
    for _ in range(40):
        d = random_digraph(rng)
        inst = ProblemInstance(kind="arb", graph=d, k=1)
        text = serialize_instance(inst)
        once = parse_instance(text)
        assert serialize_instance(once) == text
        assert once.graph.n == d.n and once.graph.root == d.root
        assert {c: len(ids) for c, ids in once.graph.parallel_classes().items()} == \
               {c: len(ids) for c, ids in d.parallel_classes().items()}


def test_cap_parallel_caps_and_keeps_ids():
    d = RootedDigraph(2, 0, [(0, 1)] * 5)
    inst = ProblemInstance(kind="arb", graph=d, k=1)
    capped = cap_parallel(inst)
    assert capped.graph.class_ids(0, 1) == (0, 1)
    flow_capped = cap_parallel(ProblemInstance(kind="flow", graph=d, k=1))
    assert flow_capped.graph.class_ids(0, 1) == (0, 1, 2, 3)


def drawn_classes(rng, n, directed, max_mult=4):
    """Up to 2n distinct random classes (u, v), u < v for a graph, each
    with 1..max_mult copies, classes in the order drawn."""
    classes = {}
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(1 if directed else 0, n)
        if u != v:
            classes.setdefault((u, v) if directed else (min(u, v), max(u, v)), rng.randint(1, max_mult))
    return [c for c, mult in classes.items() for _ in range(mult)]


def shuffled_triples(cls):
    def build(rng):
        triples = [(u, v, 3 * i + 1)
                   for i, (u, v) in enumerate(drawn_classes(rng, 12, cls is RootedDigraph))]
        rng.shuffle(triples)
        return cls, triples
    return build


def reversed_edge_pairs(rng):
    # each edge listed (max, min), the classes descending
    return RootedGraph, [(v, u) for u, v in sorted(drawn_classes(rng, 12, False), reverse=True)]


def mixed_pairs_and_triples(rng):
    # every third copy names its own id, a multiple of 1,000 that no pair
    # reaches: a pair takes one more than the largest id so far
    copies = [(u, v, 1000 * (100 - i)) if i % 3 == 0 else (u, v)
              for i, (u, v) in enumerate(drawn_classes(rng, 12, True))]
    rng.shuffle(copies)
    return RootedDigraph, copies


def assert_canonical_order(g):
    classes = g.parallel_classes()
    assert list(classes) == sorted(classes)
    assert all(list(ids) == sorted(ids) for ids in classes.values())
    copies = list(g.arcs() if isinstance(g, RootedDigraph) else g.edges())
    assert copies == sorted(copies)
    assert [cid for _, _, cid in copies] == [cid for ids in classes.values() for cid in ids]


@pytest.mark.parametrize("build", [
    pytest.param(shuffled_triples(RootedDigraph), id="shuffled-arc-triples"),
    pytest.param(shuffled_triples(RootedGraph), id="shuffled-edge-triples"),
    pytest.param(reversed_edge_pairs, id="reversed-edge-pairs"),
    pytest.param(mixed_pairs_and_triples, id="mixed-pairs-and-triples"),
])
def test_classes_and_copies_come_in_canonical_order(build, rng):
    for _ in range(20):
        cls, copies = build(rng)
        g = cls(12, 0, copies)
        assert_canonical_order(g)
        kind = "arb" if cls is RootedDigraph else "tree"
        inst = ProblemInstance(kind, g, 1)
        in_order = ProblemInstance(kind, cls(12, 0, sorted(copies)), 1)
        assert inst.to_text() == in_order.to_text()
        assert inst.to_json() == in_order.to_json()
        capped = cap_parallel(inst)
        assert capped is not inst  # some class has more copies than the cap
        assert_canonical_order(capped.graph)


@pytest.mark.parametrize("kind,cap", [("arb", 2), ("flow", 4), ("tree", 2)])
def test_cap_parallel_returns_the_instance_when_no_class_exceeds_the_cap(kind, cap, rng):
    cls = RootedGraph if kind == "tree" else RootedDigraph
    for _ in range(10):
        inst = ProblemInstance(kind, cls(12, 0, drawn_classes(rng, 12, cls is RootedDigraph, cap)), 1)
        assert cap_parallel(inst) is inst


@given(digraphs())
def test_round_trip_any_digraph(d):
    inst = ProblemInstance(kind="arb", graph=d, k=1)
    text = serialize_instance(inst)
    once = parse_instance(text)
    assert serialize_instance(once) == text
    assert {c: len(ids) for c, ids in once.graph.parallel_classes().items()} == \
           {c: len(ids) for c, ids in d.parallel_classes().items()}
    again = parse_instance(inst.to_json())
    assert again.graph == once.graph


@given(graphs())
def test_round_trip_any_graph(g):
    inst = ProblemInstance(kind="tree", graph=g, k=1)
    once = parse_instance(serialize_instance(inst))
    assert serialize_instance(once) == serialize_instance(inst)


@given(digraphs())
def test_reach_mask_matches_reference_bfs(d):
    ids = sorted(d.arc_ids)
    removed = set(ids[::3])
    adj = {}
    for u, v, aid in d.arcs():
        if aid not in removed:
            adj.setdefault(u, set()).add(v)
    seen = {d.root}
    stack = [d.root]
    while stack:
        u = stack.pop()
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    mask = d.reach_mask(removed)
    assert {v for v in range(d.n) if (mask >> v) & 1} == seen


def plain_reach(g, removed) -> set[int]:
    """The vertices a plain search from the root reaches over the copies
    not in `removed`, edges both ways."""
    step = g.out_classes if isinstance(g, RootedDigraph) else g.incident_classes
    seen = {g.root}
    stack = [g.root]
    while stack:
        for w, ids in step(stack.pop()):
            if w not in seen and any(cid not in removed for cid in ids):
                seen.add(w)
                stack.append(w)
    return seen


def spans_agree(g, removed) -> bool:
    """The replacement-step check of a digraph, and the full reach mask of
    either kind, against `plain_reach`; returns the verdict."""
    want = len(plain_reach(g, set(removed))) == g.n
    if isinstance(g, RootedDigraph):
        assert g.is_root_connected_without(removed) == want, (g, sorted(removed))
    assert (g.reach_mask(removed) == (1 << g.n) - 1) == want
    return want


def probe_shapes():
    """(digraph, rows) for the kernels and cores of the
    `tests/test_shapes.py` fixtures, as the shape searches hand them to
    `run_pipeline`."""
    for inst, k in instances("arb"):
        g = cap_parallel(inst).graph
        yield g, tree_shapes(g, k, candidate_pool(g, k), classify_vertices(g, k).large,
                             g._reach())
    for inst in flow_instances():
        g, k = cap_parallel(inst).graph, inst.k
        yield g, _core_shapes(g, k, candidate_pool_flow(g, k), classify_vertices_flow(g, k))


def row_counts(row) -> dict:
    """A row's per-class copy counts."""
    return dict(zip(row[0], row[1]))


def lowest_copies(g, counts) -> list[int]:
    """The copies the replaced probe removed for a shape: the lowest m ids
    of each class it takes m copies of."""
    return [aid for c, m in counts.items() for aid in g.class_ids(*c)[:m]]


def probe_removals():
    """(digraph, copies) for every shape of `probe_shapes`: its lowest
    copies."""
    for g, rows in probe_shapes():
        for row in rows:
            yield g, lowest_copies(g, row_counts(row))


def test_spans_without_matches_a_plain_search_on_probe_removals():
    verdicts = {True: 0, False: 0}
    for g, removed in probe_removals():
        verdicts[spans_agree(g, removed)] += 1
    assert verdicts[True] > 10_000 and verdicts[False] > 1_000


def test_spans_without_matches_a_plain_search_on_random_removals(rng):
    """Random digraphs and graphs with classes of up to three copies, many
    of them not root-connected; removals of nothing, of one copy of each
    multi-copy class, and of random copies."""
    verdicts = {True: 0, False: 0}
    disconnected = partial = 0
    for _ in range(400):
        for g in (random_digraph(rng, max_n=9, max_mult=3),
                  random_graph(rng, max_n=9, max_mult=3)):
            classes = list(g.parallel_classes().values())
            ids = sorted(cid for copies in classes for cid in copies)
            one_of_each = [copies[0] for copies in classes if len(copies) > 1]
            removals = [[], one_of_each] + [
                rng.sample(ids, rng.randint(1, len(ids))) for _ in range(4) if ids]
            for removed in removals:
                verdicts[spans_agree(g, removed)] += 1
            disconnected += not spans_agree(g, [])
            partial += bool(one_of_each) and spans_agree(g, one_of_each)
            if isinstance(g, RootedGraph):
                assert g.is_connected() == (len(plain_reach(g, set())) == g.n)
    assert min(verdicts.values()) > 500 and disconnected > 100 and partial > 100


def probe_agrees(g, rows) -> list[bool]:
    """Each row's carried verdict against `is_root_connected_without` of its
    lowest copies, and the rows' expanded counts and masks against
    `shape_masks_reference` with and without the probe and the comb(L, m)
    reference; returns the verdicts."""
    shapes = [(row_counts(row), row[2]) for row in rows]
    verdicts = [g.is_root_connected_without(lowest_copies(g, counts)) for counts, _ in shapes]
    kept = [row for row in rows if row[6]]
    expanded, ref_kept, uses, limits = shape_masks_reference(
        shapes, g.class_ids, g._reach().spans_without)
    every, unprobed, all_uses, all_limits = shape_masks_reference(shapes, g.class_ids)
    index = [i for i, ok in enumerate(verdicts) if ok]
    assert sum(row[3] for row in rows) == expanded == every == expanded_reference(
        [c for c, _ in shapes], g.class_ids)
    assert unprobed == shapes
    assert [(row_counts(row), row[2]) for row in kept] == ref_kept == [shapes[i] for i in index]
    assert uses == [all_uses[i] for i in index] and limits == [all_limits[i] for i in index]
    assert conflicts(*row_masks(kept)) == conflicts(uses, limits)
    return verdicts


def random_class_shapes(rng, g, count):
    """`count` shapes over random classes of g, each taking 1..L copies of
    a class with L copies."""
    classes = sorted(g.parallel_classes())
    return [({c: rng.randint(1, len(g.class_ids(*c)))
              for c in sorted(rng.sample(classes, rng.randint(1, min(5, len(classes)))))}, {})
            for _ in range(count)] if classes else []


def test_one_pass_probe_matches_is_root_connected_without_on_fixture_shapes():
    verdicts = {True: 0, False: 0}
    for g, rows in probe_shapes():
        for ok in probe_agrees(g, rows):
            verdicts[ok] += 1
    assert verdicts[True] > 10_000 and verdicts[False] > 1_000


def test_one_pass_probe_matches_is_root_connected_without_on_random_digraphs(rng):
    """Root-connected digraphs and arbitrary ones, many not root-connected,
    capped as the arb pipeline caps them: 1- and 2-copy classes."""
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(2, 14)
        for d in (spanning_digraph(rng, n, extra=rng.randint(0, 2 * n)),
                  random_digraph(rng, max_n=9, max_mult=2)):
            g = cap_parallel(ProblemInstance(kind="arb", graph=d, k=1)).graph
            rows = table_rows(random_class_shapes(rng, g, 30), g.class_ids,
                              g._reach().spans_without)
            for ok in probe_agrees(g, rows):
                verdicts[ok] += 1
    assert min(verdicts.values()) > 500


def test_unreachable_set_matches_the_per_vertex_definition(rng):
    for _ in range(300):
        d = random_digraph(rng, max_n=9, max_mult=2)
        ids = sorted(d.arc_ids)
        removed = rng.sample(ids, rng.randint(0, len(ids)))
        mask = d.reach_mask(removed)
        assert d.unreachable_set(removed) == frozenset(
            v for v in range(d.n) if not (mask >> v) & 1)


def test_unreachable_set_at_scale():
    """Almost every vertex unreachable, and exactly one: both read off the
    missing mask once."""
    n = 200_000
    assert RootedDigraph(n, 0, []).unreachable_set() == frozenset(range(1, n))
    n = 20_000  # the class-table walk and the mask it fills are linear in n
    star = RootedDigraph(n, 0, [(0, v) for v in range(1, n - 1)])
    assert star.unreachable_set() == {n - 1}
    assert star.unreachable_set([0]) == {1, n - 1}


def test_root_reach_memory_is_linear_on_long_paths():
    """Building a doubled path, its `unreachable_set()` and a probe take
    memory linear in n: doubling n at most about doubles the traced peak
    (per-vertex neighbour bitmasks, as wide as a vertex's highest
    neighbour, made it 2.8 times)."""
    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            d = RootedDigraph(n, 0, [(v, v + 1) for v in range(n - 1)] * 2)
            assert d.unreachable_set() == frozenset()
            assert d.is_root_connected_without([0])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20_000) / peak(10_000) < 2.4


def test_cap_parallel_idempotent(rng):
    for kind in ("arb", "flow"):
        for _ in range(20):
            d = random_digraph(rng, max_mult=6)
            inst = ProblemInstance(kind=kind, graph=d, k=1)
            once = cap_parallel(inst)
            twice = cap_parallel(once)
            assert once.graph == twice.graph
            assert once.graph.arc_count <= d.arc_count


def test_subtree_sizes_examples():
    d = RootedDigraph(3, 0, [(0, 1), (1, 2)])
    assert subtree_sizes(d.selection([0, 1])) == {1: 2, 2: 1}
    star = RootedDigraph(3, 0, [(0, 1), (0, 2)])
    assert subtree_sizes(star.selection([0, 1])) == {1: 1, 2: 1}
    d2 = RootedDigraph(4, 0, [(0, 1), (1, 2), (1, 3)])
    assert subtree_sizes(d2.selection([0, 1, 2])) == {1: 3, 2: 1, 3: 1}


def test_subtree_sizes_rejects_non_arborescence():
    d = RootedDigraph(3, 0, [(0, 1), (0, 1)])
    with pytest.raises(StructureError):
        subtree_sizes(d.selection([0, 1]))
    d2 = RootedDigraph(3, 0, [(0, 1), (2, 1)])
    with pytest.raises(StructureError):
        subtree_sizes(d2.selection([1]))


def test_subtree_sizes_sum_invariant(rng):
    from rootedpack.oracles import oracle_arb
    for _ in range(30):
        d = random_digraph(rng, max_n=6)
        ans = oracle_arb(d, 1)
        if not ans.decision or d.n == 1:
            continue
        sel = d.selection(ans.witness[0])
        sizes = subtree_sizes(sel)
        roots = [v for v in sizes if d.arc(next(
            a for a in sel.ids if d.arc(a)[1] == v))[0] == d.root]
        assert sum(sizes[c] for c in roots) == d.n - 1


def test_hanging_component_sizes_examples():
    g = RootedGraph(3, 0, [(0, 1), (1, 2)])
    assert hanging_component_sizes(g.selection([0, 1])) == {1: 1, 2: 0}
    star = RootedGraph(4, 0, [(0, 1), (0, 2), (0, 3)])
    assert hanging_component_sizes(star.selection([0, 1, 2])) == {1: 0, 2: 0, 3: 0}
    g2 = RootedGraph(4, 0, [(0, 1), (1, 2), (1, 3)])
    assert hanging_component_sizes(g2.selection([0, 1, 2])) == {1: 2, 2: 0, 3: 0}


def test_hanging_monotone_along_paths(rng):
    for _ in range(30):
        g = random_graph(rng, max_n=7)
        if g.n == 1:
            continue
        # take any spanning tree if one exists
        from rootedpack.oracles import _tree_structures, OracleBudget
        trees = _tree_structures(g, OracleBudget(max_candidates=200000))
        if not trees:
            continue
        classes = trees[0]
        ids = [g.class_ids(u, v)[0] for u, v in classes]
        sizes = hanging_component_sizes(g.selection(ids))
        # walk each vertex's path to the root; sizes must not decrease upward
        adj = {}
        for u, v in classes:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        parent = {0: None}
        queue = [0]
        while queue:
            x = queue.pop(0)
            for w in adj.get(x, ()):
                if w not in parent:
                    parent[w] = x
                    queue.append(w)
        for v in sizes:
            u = parent[v]
            while u is not None and u != 0:
                assert sizes[v] <= sizes[u]
                u = parent[u]


def test_hanging_rejects_non_tree():
    g = RootedGraph(4, 0, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(StructureError):
        hanging_component_sizes(g.selection([0, 1, 2]))
    g2 = RootedGraph(4, 0, [(1, 2)])
    with pytest.raises(StructureError):
        hanging_component_sizes(g2.selection([0]))


@given(st.integers(min_value=1, max_value=4))
def test_duplicate_edges(p):
    g = RootedGraph(3, 0, [(0, 1), (1, 2), (0, 2)])
    doubled = duplicate_edges(g, p)
    assert doubled.n == g.n
    assert doubled.edge_count == 3 * p
    assert all(len(ids) == p for ids in doubled.parallel_classes().values())
    if p == 1:
        assert doubled == g


def test_duplicate_edges_rejects_bad_p():
    g = RootedGraph(2, 0, [(0, 1)])
    with pytest.raises(ContractError):
        duplicate_edges(g, 0)


def test_selection_rejects_unknown_ids():
    d = RootedDigraph(2, 0, [(0, 1)])
    with pytest.raises(ContractError):
        d.selection([5])


def test_instance_kind_checks():
    d = RootedDigraph(2, 0, [(0, 1)])
    g = RootedGraph(2, 0, [(0, 1)])
    with pytest.raises(ContractError):
        ProblemInstance(kind="tree", graph=d, k=1)
    with pytest.raises(ContractError):
        ProblemInstance(kind="arb", graph=g, k=1)
    with pytest.raises(ContractError):
        ProblemInstance(kind="arb", graph=d, k=0)

import pytest
from hypothesis import given, strategies as st

from rootedpack.errors import ContractError, ParseError, StructureError
from rootedpack.graphs import (
    MAX_COPIES,
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

from conftest import digraphs, graphs, random_digraph, random_graph
import random


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


def test_parse_rejects_more_copies_than_the_limit():
    # one copy over the limit; the check runs before any id is built
    assert MAX_COPIES == 1_000_000
    with pytest.raises(ParseError, match="more than 1000000 arc copies"):
        parse_instance("D 2 0\n0 1 1000001\n")
    with pytest.raises(ParseError, match="more than 1000000 arc copies"):
        parse_instance('{"kind": "arb", "n": 2, "root": 0, "arcs": [[0, 1, 1000001]], "k": 1}')


def test_parse_comments_and_meta():
    inst = parse_instance("# kind = flow\n# k = 2\nD 2 0\n0 1 3  # triple\n")
    assert inst.kind == "flow"
    assert inst.k == 2
    assert inst.graph.arc_count == 3


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
